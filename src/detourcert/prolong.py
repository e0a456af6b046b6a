"""Prolongation checks: holonomy obstructions and certified transport.

A first-order geometric overdetermined system (Killing equation,
almost-Einstein equation) is traded for a connection on a bigger bundle;
its solution space is the space of parallel sections.  Two numerical
handles on that space:

* pointwise obstruction rank: a parallel section is killed by the
  curvature and all of its covariant derivatives, so the kernel of the
  stacked value matrices F, grad F, grad^2 F ... bounds the solution
  space (and equals it at generic points);
* parallel transport: integrate v' = -Theta(c'(t)) v along explicit
  curves with an independent tighter re-solve as an error certificate.

Transport consumes only the metric text, not a fixed chart jet: it
rebuilds order-2 geometry at the stage times of the integrator, Dormand-
Prince 5(4) with RK45's step control, in-repo (no start of the program
imports scipy.integrate).  A(t) = Theta(c(t)) c'(t) does not depend on v,
so the five stage points of a step attempt share one batched Geometry
(a leading points axis), bit-identical to five single-point builds: one run
of the metric text's compiled program (MetricSpec.metric_jets), one order-2
chain, whose inverse metric is formed to degree 1 only, and one batched
product v^a Theta_a.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .connections import Connection, covd_endomorphism, curvature
from .geometry import Geometry
from .jets import as_dense, order_of


class CertificationError(RuntimeError):
    """Transport (or roundtrip) failed its independent error certificate."""


def _level_blocks(arr: np.ndarray) -> list:
    return list(arr[..., 0].reshape((-1,) + arr.shape[-3:-1]))


_REL_TOL, _FLOOR = 1e-8, 1e-10  # singular values below max(_REL_TOL * largest, _FLOOR) are 0


def _stack_rank(blocks: list) -> int:
    s = np.linalg.svd(np.concatenate(blocks, axis=0), compute_uv=False)
    if s.size == 0 or s[0] <= _FLOOR:
        return 0
    return int(np.sum(s > max(_REL_TOL * s[0], _FLOOR)))


def kernel_dimension(conn: Connection) -> int:
    """Dimension of the joint kernel of the stacked obstruction matrices.

    Adds derivative levels until the rank stops growing, the fiber is
    exhausted, or the jets run out of orders.  Singular values below
    max(_REL_TOL * largest, _FLOOR) count as zero, so roundoff-level
    curvature (flat or maximally symmetric descriptors) reads as rank 0.
    """
    level = curvature(conn)
    blocks = _level_blocks(level)
    rank = _stack_rank(blocks)
    for _ in range(order_of(conn.dim, level.shape[-1])):
        if rank == conn.rank:
            break
        level = covd_endomorphism(conn, level)
        blocks.extend(_level_blocks(level))
        new_rank = _stack_rank(blocks)
        if new_rank == rank:
            break
        rank = new_rank
    return conn.rank - rank


# ---------------------------------------------------------------------------
# transport


@dataclass
class TransportResult:
    end: np.ndarray
    error: float
    nfev: int


def _theta_values(spec, builder, points) -> np.ndarray:
    """Values of the connection matrices at a point (n,) or at a (P, n) batch of points."""
    th = builder(Geometry(spec, points, order=2)).theta[..., 0]
    if th.ndim != np.ndim(points) + 2:
        raise ValueError("the connection builder returned no points axis")
    return th


# Dormand & Prince, J. Comput. Appl. Math. 6 (1980), with the step control
# of Hairer, Norsett & Wanner, Solving ODEs I, II.4.  The arithmetic is that
# of scipy's RK45 operation for operation, so end states and nfev match it
# bit for bit.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _dopri45(matrices_at: Callable, t0: float, t1: float, y0: np.ndarray,
             rtol: float, atol: float) -> tuple:
    """Integrate y' = -M(t) y from t0 to t1; returns (y(t1), nfev).

    matrices_at(ts) returns M(t) for each t of the array ts: twice with one
    time for the initial step, then once per step attempt with its 5 distinct
    stage times (the c = 1 stage and the first-same-as-last derivative share
    t + h).  nfev is RK45's count of right-hand sides, 2 + 6 per attempt.  A
    non-finite right-hand side raises at once, at the first such stage.
    """
    t, t1, y = float(t0), float(t1), np.asarray(y0, dtype=float)
    if t == t1:
        return y, 1
    rtol = max(rtol, 100 * np.finfo(float).eps)
    direction = np.sign(t1 - t)

    def deriv(s, m, v):
        f = -(m @ v)
        if not np.isfinite(f).all():
            raise CertificationError(
                f"integrator failed: non-finite right-hand side at t={float(s)!r}")
        return f

    # initial step: Hairer-Norsett-Wanner's two-evaluation estimate
    f = deriv(t, matrices_at(np.array([t]))[0], y)
    interval = abs(t1 - t)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    s = t + h0 * direction
    d2 = _rms((deriv(s, matrices_at(np.array([s]))[0], y + h0 * direction * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (
        (0.01 / max(d1, d2)) ** (1 / 5))
    h_abs = min(100 * h0, h1, interval)
    nfev = 2

    k = np.empty((7, y.size))
    while direction * (t - t1) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise CertificationError("integrator failed: Required step size "
                                         "is less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = np.abs(h)
            k[0] = f
            ts = t + _C[1:] * h
            ms = matrices_at(ts)
            for i in range(1, 6):
                k[i] = deriv(ts[i - 1], ms[i - 1], y + np.dot(k[:i].T, _A[i, :i]) * h)
            y_new = y + h * np.dot(k[:-1].T, _B)
            f_new = k[6] = deriv(t + h, ms[4], y_new)  # the c = 1 stage's matrix
            nfev += 6
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(np.dot(k.T, _E) * h / scale)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return y, nfev


def transport(spec, builder: Callable, curve: Callable, v0,
              rtol: float = 1e-10, atol: float = 1e-12,
              certify_tol: float = 1e-6,
              refine: bool = True) -> TransportResult:
    """Parallel transport of v0 along curve from t = 0 to 1; curve(t) = (point, velocity).

    Solves twice, the second time with 100x tighter tolerances; the
    disagreement is the reported error, and CertificationError is raised
    if that certificate exceeds certify_tol.  refine=False skips the
    second solve (no certificate; error reported as nan).
    """
    def connections(ts):
        points, vels = zip(*map(curve, ts))
        th = _theta_values(spec, builder, np.array(points, dtype=float))
        p, n, r = th.shape[:3]  # A = v^a Theta_a at each point, as one batched matmul
        return (np.array(vels, dtype=float)[:, None, :] @ th.reshape(p, n, r * r)).reshape(p, r, r)

    end, nfev = _dopri45(connections, 0.0, 1.0, v0, rtol, atol)
    if not refine:
        return TransportResult(end, float("nan"), nfev)
    fine_end, fine_nfev = _dopri45(connections, 0.0, 1.0, v0, rtol * 0.01, atol * 0.01)
    err = float(np.max(np.abs(end - fine_end)))
    if err > certify_tol:
        raise CertificationError(
            f"transport certificate {err:.3e} exceeds tolerance {certify_tol:.1e}"
        )
    return TransportResult(fine_end, err, nfev + fine_nfev)


def segment(p0: Sequence[float], p1: Sequence[float]) -> Callable:
    a = np.asarray(p0, dtype=float)
    b = np.asarray(p1, dtype=float)

    def curve(t):
        return a + t * (b - a), b - a

    return curve


def transport_polyline(spec, builder, points: Sequence, v0, **kw) -> TransportResult:
    """Chain transports along straight coordinate segments."""
    v = np.asarray(v0, dtype=float)
    err = 0.0
    nfev = 0
    for p0, p1 in zip(points[:-1], points[1:]):
        res = transport(spec, builder, segment(p0, p1), v, **kw)
        v, err, nfev = res.end, err + res.error, nfev + res.nfev
    return TransportResult(v, err, nfev)


def loop_defect(spec, builder, points: Sequence, v0, **kw) -> float:
    """Sup-norm holonomy defect of transport around a closed polyline."""
    pts = list(points)
    if not np.allclose(pts[0], pts[-1]):
        pts.append(pts[0])
    res = transport_polyline(spec, builder, pts, v0, **kw)
    return float(np.max(np.abs(res.end - np.asarray(v0, dtype=float))))


# ---------------------------------------------------------------------------
# Killing fields


def _lowered_jet(geom: Geometry, v_up: np.ndarray):
    """Values of v_b and of nabla_a v_b for a vector field v^b given by jets."""
    v = geom.lower(as_dense(v_up))
    return v[:, 0], geom.covd_array(v, ("d",))[..., 0]


def killing_residual(geom: Geometry, v_up: np.ndarray) -> float:
    """Sup-norm of the Killing equation nabla_(a v_b) = 0 at the base point."""
    dv = _lowered_jet(geom, v_up)[1]
    return float(np.max(np.abs(dv + dv.T)))


def killing_fiber(geom: Geometry, v_up: np.ndarray) -> np.ndarray:
    """Fiber values (k_b, mu_bc) of the Killing prolongation of a vector field."""
    v, dv = _lowered_jet(geom, v_up)
    b, c = np.triu_indices(geom.n, 1)  # the pair order of connections.killing_connection
    return np.concatenate([v, 0.5 * (dv[b, c] - dv[c, b])])
