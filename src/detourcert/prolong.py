"""Prolongation checks: holonomy obstructions and certified transport.

A first-order geometric overdetermined system (Killing equation,
almost-Einstein equation) is traded for a connection on a bigger bundle;
its solution space is the space of parallel sections.  Two numerical
handles on that space:

* pointwise obstruction rank: a parallel section is killed by the
  curvature and all of its covariant derivatives, so the kernel of the
  stacked value matrices F, grad F, grad^2 F ... bounds the solution
  space (and equals it at generic points);
* parallel transport: integrate v' = -Theta(c'(t)) v along coordinate
  segments with an independent tighter re-solve as an error certificate.

Transport consumes only the metric text, not a fixed chart jet: it
rebuilds order-2 geometry at the stage times of the integrator, Dormand-
Prince 8(5,3) with DOP853's step control, in-repo (the program imports no
scipy).  The first step attempt covers the whole segment; the re-solve's
first attempt covers half of it, so the two solves start with different
steps and the certificate does not read 0 by construction.  On the segment
c(t) = a + t d, A(t) = d^a Theta_a(c(t)) does not depend on v, so the 11
distinct stage points of a step attempt (and the start, in the first
attempt) share one batched Geometry (a leading points axis), bit-identical to
single-point builds: one run of the metric text's compiled program
(MetricSpec.metric_jets), one order-2 chain, whose inverse metric is formed
to degree 1 only, and one batched product d^a Theta_a.
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


# Dormand & Prince's 8(5,3) pair (DOP853) with the step control of Hairer,
# Norsett & Wanner, Solving ODEs I, II.4-II.5.  The tableau is scipy's
# dop853_coefficients, and the arithmetic is that of scipy's DOP853 with
# first_step=|t1 - t0| operation for operation, so end states and nfev match
# it bit for bit.
_C = np.array([0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
_A = np.array([row + [0] * (12 - len(row)) for row in [
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636],
]])
_B = np.array([0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
               -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
               0.20136540080403034, 0.04471061572777259])
_E3 = np.array([-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
                -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
                0.20136540080403034, 0.02265179219836082, 0])
_E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
                1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
                0.08192320648511571, -0.022355307863886294, 0])


def _dop853(matrices_at: Callable, t0: float, t1: float, y0: np.ndarray,
            rtol: float, atol: float, first_step: float | None = None) -> tuple:
    """Integrate y' = -M(t) y from t0 to t1; returns (y(t1), nfev).

    The first attempt has length first_step (as scipy's first_step), by
    default the whole interval.  matrices_at(ts) returns
    M(t) for each t of the array ts: once per step attempt, with t0 and the
    11 distinct stage times of the first attempt, then with the 11 stage
    times of each later one (the c = 1 stage and the first-same-as-last
    derivative share t + h).  nfev is scipy's count of right-hand sides,
    1 + 12 per attempt.  A non-finite right-hand side raises at once, at the
    first such stage in stage order, f(t0) first.
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

    h_abs, nfev, f = abs(t1 - t) if first_step is None else first_step, 1, None
    k = np.empty((13, y.size))
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
            ts = t + _C[1:] * h
            if f is None:  # the matrix at t0 joins the first attempt's build
                ms = matrices_at(np.concatenate(([t], ts)))
                f, ms = deriv(t, ms[0], y), ms[1:]
            else:
                ms = matrices_at(ts)
            k[0] = f
            for i in range(1, 12):
                k[i] = deriv(ts[i - 1], ms[i - 1], y + np.dot(k[:i].T, _A[i, :i]) * h)
            y_new = y + h * np.dot(k[:-1].T, _B)
            f_new = k[12] = deriv(t + h, ms[10], y_new)  # the c = 1 stage's matrix
            nfev += 12
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5 = np.linalg.norm(np.dot(k.T, _E5) / scale) ** 2
            e3 = np.linalg.norm(np.dot(k.T, _E3) / scale) ** 2
            err = 0.0 if e5 == 0 and e3 == 0 else (
                np.abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * y.size))
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return y, nfev


def transport(spec, builder: Callable, p0: Sequence[float], p1: Sequence[float], v0,
              rtol: float = 1e-10, atol: float = 1e-12,
              certify_tol: float = 1e-6,
              refine: bool = True) -> TransportResult:
    """Parallel transport of v0 along the coordinate segment from p0 to p1.

    Solves twice, the second time with 100x tighter tolerances and a first
    step of half the segment (the first solve tries the whole segment, so
    the two start with different steps); the disagreement is the reported
    error, and CertificationError is raised if that certificate exceeds
    certify_tol.  refine=False skips the second solve (no certificate;
    error reported as nan).
    """
    a = np.asarray(p0, dtype=float)
    d = np.asarray(p1, dtype=float) - a

    def connections(ts):
        th = _theta_values(spec, builder, a + ts[:, None] * d)
        p, n, r = th.shape[:3]  # A = d^a Theta_a at each point, as one batched matmul
        return (d @ th.reshape(p, n, r * r)).reshape(p, r, r)

    end, nfev = _dop853(connections, 0.0, 1.0, v0, rtol, atol)
    if not refine:
        return TransportResult(end, float("nan"), nfev)
    fine_end, fine_nfev = _dop853(connections, 0.0, 1.0, v0, rtol * 0.01, atol * 0.01,
                                  first_step=0.5)
    err = float(np.max(np.abs(end - fine_end)))
    if err > certify_tol:
        raise CertificationError(
            f"transport certificate {err:.3e} exceeds tolerance {certify_tol:.1e}"
        )
    return TransportResult(fine_end, err, nfev + fine_nfev)


def transport_polyline(spec, builder, points: Sequence, v0, **kw) -> TransportResult:
    """Chain transports along straight coordinate segments."""
    v = np.asarray(v0, dtype=float)
    err = 0.0
    nfev = 0
    for p0, p1 in zip(points[:-1], points[1:]):
        res = transport(spec, builder, p0, p1, v, **kw)
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
