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

Transport rebuilds low-order geometry at every right-hand-side
evaluation, so it consumes only the metric text, not a fixed chart jet.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .connections import Connection, covd_endomorphism, curvature
from .geometry import Geometry
from .jets import as_dense, order_of


class CertificationError(RuntimeError):
    """Transport (or roundtrip) failed its independent error certificate."""


def _level_blocks(arr: np.ndarray) -> list:
    return list(arr[..., 0].reshape((-1,) + arr.shape[-3:-1]))


def _stack_rank(blocks: list, rel_tol: float, floor: float) -> int:
    s = np.linalg.svd(np.concatenate(blocks, axis=0), compute_uv=False)
    if s.size == 0 or s[0] <= floor:
        return 0
    return int(np.sum(s > max(rel_tol * s[0], floor)))


def kernel_dimension(conn: Connection, depth: int | None = None,
                     rel_tol: float = 1e-8, floor: float = 1e-10) -> int:
    """Dimension of the joint kernel of the stacked obstruction matrices.

    Adds derivative levels until the rank stops growing, the fiber is
    exhausted, or the jets run out of orders.  Singular values below
    max(rel_tol * largest, floor) count as zero, so roundoff-level
    curvature (flat or maximally symmetric descriptors) reads as rank 0.
    """
    level = curvature(conn)
    avail = order_of(conn.dim, level.shape[-1])
    max_depth = avail if depth is None else min(depth, avail)
    blocks = _level_blocks(level)
    rank = _stack_rank(blocks, rel_tol, floor)
    for _ in range(max_depth):
        if rank == conn.rank:
            break
        level = covd_endomorphism(conn, level)
        blocks.extend(_level_blocks(level))
        new_rank = _stack_rank(blocks, rel_tol, floor)
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


def _theta_values(spec, builder, point) -> np.ndarray:
    return builder(Geometry(spec, point, order=2)).theta[..., 0]


def transport(spec, builder: Callable, curve: Callable, v0,
              t0: float = 0.0, t1: float = 1.0,
              rtol: float = 1e-10, atol: float = 1e-12,
              certify_tol: float | None = 1e-6,
              refine: bool = True) -> TransportResult:
    """Parallel transport of v0 along curve; curve(t) = (point, velocity).

    Solves twice, the second time with 100x tighter tolerances; the
    disagreement is the reported error.  When certify_tol is set, raise
    CertificationError if the certificate exceeds it.  refine=False
    skips the second solve (no certificate; error reported as nan).
    """
    v0 = np.asarray(v0, dtype=float)

    def rhs(t, v):
        point, vel = curve(t)
        th = _theta_values(spec, builder, tuple(point))
        a_mat = np.tensordot(np.asarray(vel, dtype=float), th, axes=(0, 0))
        return -(a_mat @ v)

    sols = []
    for factor in (1.0, 0.01)[: 2 if refine else 1]:
        res = solve_ivp(rhs, (t0, t1), v0, method="RK45",
                        rtol=rtol * factor, atol=atol * factor, dense_output=False)
        if not res.success:
            raise CertificationError(f"integrator failed: {res.message}")
        sols.append(res)
    if not refine:
        return TransportResult(sols[0].y[:, -1], float("nan"), sols[0].nfev)
    err = float(np.max(np.abs(sols[0].y[:, -1] - sols[1].y[:, -1])))
    if certify_tol is not None and err > certify_tol:
        raise CertificationError(
            f"transport certificate {err:.3e} exceeds tolerance {certify_tol:.1e}"
        )
    return TransportResult(sols[1].y[:, -1], err, sols[0].nfev + sols[1].nfev)


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
    b, c = np.triu_indices(geom.n, 1)  # the (b < c) order of connections._pair_basis
    return np.concatenate([v, 0.5 * (dv[b, c] - dv[c, b])])
