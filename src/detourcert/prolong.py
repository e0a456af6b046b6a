"""Prolongation checks: holonomy obstructions and certified transport.

A first-order geometric overdetermined system (Killing equation,
almost-Einstein equation) is traded for a connection on a bigger bundle;
its solution space is the space of parallel sections.  Two numerical
handles on that space:

* pointwise obstruction rank: a parallel section is killed by the curvature
  and all of its covariant derivatives, so the kernel of the stacked value
  matrices F, grad F, grad^2 F ... (numerical rank against one Theta-scaled
  roundoff floor) bounds the solution space (and equals it at generic points);
* parallel transport: integrate v' = -Theta(c'(t)) v along a coordinate
  polyline with a re-solve on twice the nodes as an error certificate.

Transport consumes only the metric text, not a fixed chart jet.  On the
segment c(t) = a + t d, A(t) = d^a Theta_a(c(t)) does not depend on v, so the
whole solution is collocated at once (Trefethen, Spectral Methods in MATLAB,
ch. 6): on the N + 1 Chebyshev-Lobatto nodes of [0, 1], one batched order-2
Geometry (a leading points axis, bit-identical to single-point builds: one run
of the metric text's compiled program, one order-2 chain whose inverse metric
is formed to degree 1 only, one batched product d^a Theta_a) gives A at every
node, and one dense solve gives v there.  N doubles from 8 until the last two
Chebyshev coefficients of v are small, and once more to certify; the grids
nest, so a doubling builds only the N new nodes.  A segment no grid up to
N = 64 resolves is replaced by its halves (piecewise collocation: Driscoll,
Bornemann & Trefethen, BIT 48, 2008).  One loop runs a polyline's segments
and keeps each one's nodes, symmetric under t -> 1 - t: a roundtrip is the
closed path p0 -> p1 -> p0, whose second segment reads the first one's build.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .connections import Connection, covd_endomorphism, curvature
from .geometry import Geometry
from .jets import as_dense, order_of


class CertificationError(RuntimeError):
    """Transport (or roundtrip) failed its independent error certificate."""


def _level_blocks(arr: np.ndarray) -> list:
    return list(arr[..., 0].reshape((-1,) + arr.shape[-3:-1]))


_FLOOR_SCALE = 1e6  # rank floor of the level 0..k stack: _FLOOR_SCALE * eps * max(1, m_k)^2


def _stack_rank(conn: Connection, blocks: list, k: int) -> int:
    m = np.max(np.abs(conn.theta_at(min(k + 1, conn.order))))  # m_k
    s = np.linalg.svd(np.concatenate(blocks, axis=0), compute_uv=False)
    return int(np.sum(s > _FLOOR_SCALE * np.finfo(float).eps * max(1.0, m) ** 2))


def kernel_dimension(conn: Connection) -> int:
    """Dimension of the joint kernel of the stacked obstruction matrices.

    Adds derivative levels until the rank stops growing, the fiber is
    exhausted, or the jets run out of orders.  A singular value of the stack
    of levels 0..k is rank only above _FLOOR_SCALE * eps * max(1, m_k)^2, m_k
    the largest |Theta coefficient| of degree at most k + 1 (all level k reads),
    so roundoff-level curvature reads as rank 0, also near a coordinate pole.
    """
    level = curvature(conn)
    blocks = _level_blocks(level)
    rank = _stack_rank(conn, blocks, 0)
    for k in range(1, order_of(conn.dim, level.shape[-1]) + 1):
        if rank == conn.rank:
            break
        level = covd_endomorphism(conn, level)
        blocks.extend(_level_blocks(level))
        new_rank = _stack_rank(conn, blocks, k)
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


_FIRST_N, _MAX_N = 8, 64  # Lobatto grids of N + 1 nodes: N = 8, 16, ..., _MAX_N
_SPLITS = 4  # a segment no grid resolves is halved, at most this many times over


@lru_cache(maxsize=None)
def _grid(n: int) -> tuple:
    """Lobatto nodes t_j of [0, 1] (t_0 = 0), the differentiation matrix on them, and the
    rows giving the last two Chebyshev coefficients of the node values (Trefethen, ch. 6)."""
    x = np.sin(np.pi * (n - 2 * np.arange(n + 1)) / (2 * n))  # cos(j pi / n), bitwise nested
    c = np.where(np.arange(n + 1) % 2, -1.0, 1.0) * np.r_[2.0, np.ones(n - 1), 2.0]
    dx = x[:, None] - x + np.eye(n + 1)
    d = np.outer(c, 1 / c) / dx
    d -= np.diag(d.sum(axis=1))
    tail = np.vstack([2 * x, np.ones(n + 1)]) / (n * c)  # c_{N-1}, c_N; 1 / c halves the ends
    return (1 - x) / 2, -2 * d, tail


def _collocate(mats: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Values at the N + 1 Lobatto nodes of the degree-N polynomial V with V(0) = v0 and
    V' = -M V at the other N nodes, given the (N + 1, r, r) matrices M there: with V(0)
    eliminated, one dense solve of N r unknowns."""
    n, r = len(mats) - 1, len(v0)
    t, d, _ = _grid(n)
    bad = ~np.isfinite(mats).all(axis=(1, 2))
    if bad.any():
        raise CertificationError(
            f"integrator failed: non-finite right-hand side at t={float(t[bad.argmax()])!r}")
    k = d[1:, None, 1:, None] * np.eye(r)[:, None]  # (n, r, n, r): D (x) I
    i = np.arange(n)
    k[i, :, i, :] += mats[1:]
    sol = np.linalg.solve(k.reshape(n * r, n * r), -np.outer(d[1:, 0], v0).ravel())
    return np.vstack([v0, sol.reshape(n, r)])


def _node_matrices(cache: dict, spec, builder, a: np.ndarray, b: np.ndarray, n: int) -> tuple:
    """(A(t_j), nodes built): A = d^a Theta_a(a + t d), d = b - a, at the n + 1 Lobatto nodes.

    The nodes are built in the orientation whose start has the smaller bytes, and cache keeps
    them per segment: the other orientation reads -A at the reversed nodes (t -> 1 - t), and a
    finer grid builds only the nodes it adds.
    """
    flip = b.tobytes() < a.tobytes()
    lo, hi = (b, a) if flip else (a, b)
    d, key = hi - lo, (lo.tobytes(), hi.tobytes())
    mats = cache.get(key)
    have, built = (0 if mats is None else len(mats) - 1), 0
    if have < n:
        new = np.ones(n + 1, dtype=bool)
        if have:
            new[:: n // have] = False
        th = _theta_values(spec, builder, lo + _grid(n)[0][new, None] * d)
        p, m, r = th.shape[:3]  # A = d^a Theta_a at each node, as one batched matmul
        full = np.empty((n + 1, r, r))
        full[new] = (d @ th.reshape(p, m, r * r)).reshape(p, r, r)
        if have:
            full[~new] = mats
        mats, have, built = full, n, p
        cache[key] = mats
    mats = mats[:: have // n]
    return (-mats[::-1] if flip else mats), built


def transport(spec, builder: Callable, points: Sequence, v0,
              rtol: float = 1e-10, atol: float = 1e-12,
              certify_tol: float = 1e-6, refine: bool = True) -> TransportResult:
    """Parallel transport of v0 along the coordinate polyline through points.

    Each segment collocates v' = -A(t) v on Lobatto grids of N = 8, 16, ... nodes up to the
    first whose last two Chebyshev coefficients are at most atol + rtol max|V| (Aurentz &
    Trefethen's tail rule); past N = _MAX_N its two halves replace it, to a depth of _SPLITS,
    then CertificationError is raised.  With refine, a pass on 2N nodes gives the end and
    certifies the N-node end: error sums the gaps, and one above certify_tol raises
    CertificationError; without it error is nan.  nfev counts the nodes built, and a segment
    traversed again, in either direction, reads the nodes built for it.
    """
    v, err, nfev, cache = np.asarray(v0, dtype=float), 0.0, 0, {}
    pts = [np.asarray(p, dtype=float) for p in points]
    todo = [(a, b, 0) for a, b in zip(pts[:-1], pts[1:])][::-1]  # a stack, first segment on top
    while todo:
        a, b, depth = todo.pop()
        n, ends = _FIRST_N, []
        while len(ends) <= refine:  # with refine, a pass on 2N nodes follows the one accepted
            mats, built = _node_matrices(cache, spec, builder, a, b, n)
            vals, nfev = _collocate(mats, v), nfev + built
            if ends or np.max(np.abs(_grid(n)[2] @ vals)) <= atol + rtol * np.max(np.abs(vals)):
                ends.append(vals[-1])
            elif n == _MAX_N:
                if depth == _SPLITS:
                    raise CertificationError(f"integrator failed: no convergence on {n + 1} nodes")
                mid = (a + b) / 2  # symmetric: a reverse traversal meets the same halves
                todo += [(mid, b, depth + 1), (a, mid, depth + 1)]
                break
            n *= 2
        else:
            gap = float(np.max(np.abs(ends[0] - ends[-1])))
            if gap > certify_tol:
                raise CertificationError(
                    f"transport certificate {gap:.3e} exceeds tolerance {certify_tol:.1e}")
            v, err = ends[-1], err + gap
    return TransportResult(v, err if refine else float("nan"), nfev)


transport_polyline = transport


def loop_defect(spec, builder, points: Sequence, v0, **kw) -> float:
    """Sup-norm holonomy defect of transport around a closed polyline."""
    pts = list(points)
    if not np.allclose(pts[0], pts[-1]):
        pts.append(pts[0])
    res = transport(spec, builder, pts, v0, **kw)
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
