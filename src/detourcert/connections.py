"""Vector bundles with connection, presented by coefficient matrices.

A connection on a trivialized rank-r bundle over a chart is the data of
matrices Theta_a with

    nabla_a v = d_a v + Theta_a v.

Everything downstream (twisted de Rham operators, curvature, parallel
transport, prolongation checks) consumes only this presentation, so the
same code path serves the Levi-Civita connection on covectors, the
tractor connection, its tensor square, the Killing prolongation
connection and ad-hoc polynomial examples.

Curvature is always computed mechanically from the coefficients,

    F_ab = d_a Theta_b - d_b Theta_a + [Theta_a, Theta_b],

never assembled from curvature-tensor blocks; block formulas are checked
against this in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jets, tractor as tractor_mod
from .geometry import Geometry, truncate_array, value_array
from .jets import Jet


@dataclass
class Connection:
    geom: Geometry
    rank: int
    theta: np.ndarray  # (n, rank, rank) jets
    label: str = ""
    fiber_gram: np.ndarray | None = None  # constant Gram matrix for pairings

    @property
    def n(self) -> int:
        return self.geom.n

    @property
    def order(self) -> int:
        return self.theta[0][0, 0].order

    def theta_at(self, order: int) -> np.ndarray:
        return truncate_array(self.theta, order)


def _zero_mats(geom: Geometry, rank: int, order: int) -> np.ndarray:
    out = np.empty((geom.n, rank, rank), dtype=object)
    out[...] = geom.zero(order)
    return out


def trivial_connection(geom: Geometry, rank: int = 1) -> Connection:
    return Connection(geom, rank, _zero_mats(geom, rank, geom.order - 1), label="trivial")


def covector_connection(geom: Geometry) -> Connection:
    """Levi-Civita on 1-forms: Theta_a[b, c] = -Gamma^c_ab."""
    n = geom.n
    th = np.empty((n, n, n), dtype=object)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                th[a, b, c] = -geom.gamma[c, a, b]
    return Connection(geom, n, th, label="covector", fiber_gram=value_array(geom.ginv))


def tractor_connection(geom: Geometry) -> Connection:
    order = geom.order - 2
    th = tractor_mod.connection_matrices(geom, order)
    return Connection(
        geom, geom.n + 2, th, label="tractor", fiber_gram=tractor_mod.gram_matrix(geom)
    )


def tensor_square(conn: Connection) -> Connection:
    """Theta on V (x) V: Theta_a (x) 1 + 1 (x) Theta_a."""
    r = conn.rank
    n = conn.n
    order = conn.order
    zero = conn.geom.zero(order)
    th = np.empty((n, r * r, r * r), dtype=object)
    for a in range(n):
        m = np.empty((r * r, r * r), dtype=object)
        m[...] = zero
        for i in range(r):
            for j in range(r):
                entry = conn.theta[a][i, j]
                for k in range(r):
                    m[i * r + k, j * r + k] = m[i * r + k, j * r + k] + entry
                    m[k * r + i, k * r + j] = m[k * r + i, k * r + j] + entry
        th[a] = m
    gram = None
    if conn.fiber_gram is not None:
        gram = np.kron(conn.fiber_gram, conn.fiber_gram)
    return Connection(conn.geom, r * r, th, label=conn.label + "^2", fiber_gram=gram)


def _pair_basis(n: int) -> list:
    return [(b, c) for b in range(n) for c in range(b + 1, n)]


def killing_connection(geom: Geometry) -> Connection:
    """Prolongation connection whose parallel sections are Killing fields.

    Fiber (k_b, mu_bc) with mu antisymmetric, rank n(n+1)/2:
        nabla_a k_b  = (LC) - mu_ab
        nabla_a mu_bc = (LC) - R_bc^d_a k_d
    """
    n = geom.n
    pairs = _pair_basis(n)
    pos = {p: i for i, p in enumerate(pairs)}
    rank = n + len(pairs)
    order = geom.order - 2
    gam = truncate_array(geom.gamma, order)
    riem = truncate_array(geom.riemann, order)
    zero = geom.zero(order)
    th = np.empty((n, rank, rank), dtype=object)

    def mu_slot(b, c):
        # returns (index, sign) with mu_bc = sign * basis component
        if b == c:
            return None, 0.0
        return (pos[(b, c)], 1.0) if b < c else (pos[(c, b)], -1.0)

    for a in range(n):
        m = np.empty((rank, rank), dtype=object)
        m[...] = zero
        for b in range(n):
            for c in range(n):
                m[b, c] = m[b, c] - gam[c, a, b]
            idx, sgn = mu_slot(a, b)
            if idx is not None:
                m[b, n + idx] = m[b, n + idx] - sgn
        for b, c in pairs:
            row = n + pos[(b, c)]
            for d in range(n):
                m[row, d] = m[row, d] - riem[b, c, d, a]
                # LC action on both antisymmetric slots
                idx, sgn = mu_slot(d, c)
                if idx is not None:
                    m[row, n + idx] = m[row, n + idx] - sgn * gam[d, a, b]
                idx, sgn = mu_slot(b, d)
                if idx is not None:
                    m[row, n + idx] = m[row, n + idx] - sgn * gam[d, a, c]
        th[a] = m
    return Connection(geom, rank, th, label="killing")


def polynomial_connection(geom: Geometry, rank: int, rng, scale: float = 0.2,
                          degree: int = 2) -> Connection:
    """Random polynomial coefficient matrices; generic, nothing flat about it."""
    n = geom.n
    order = geom.order - 1
    xs = [Jet.variable(0.0, i, geom.jet_dim, order) for i in range(n)]
    th = np.empty((n, rank, rank), dtype=object)
    for a in range(n):
        for i in range(rank):
            for j in range(rank):
                acc = Jet.constant(rng.normal(0.0, scale), geom.jet_dim, order)
                for x in xs:
                    acc = acc + rng.normal(0.0, scale) * x
                    acc = acc + rng.normal(0.0, scale) * x * x
                th[a, i, j] = acc
    return Connection(geom, rank, th, label="polynomial")


# ---------------------------------------------------------------------------
# mechanical curvature and coupled derivatives


def _matmul_batched(x, y, dim: int, order: int) -> np.ndarray:
    prod = jets.contract(jets.to_dense(x), jets.to_dense(y), dim, order)
    return jets.to_jets(prod, dim, order)


def matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r, s = x.shape[0], y.shape[1]
    a0 = x[0, 0]
    if r * s * x.shape[1] >= 512:
        uniform = all(
            j.dim == a0.dim and j.order == a0.order
            for arr in (x, y) for j in arr.flat
        )
        if uniform:
            return _matmul_batched(x, y, a0.dim, a0.order)
    out = np.empty((r, s), dtype=object)
    for i in range(r):
        for j in range(s):
            acc = x[i, 0] * y[0, j]
            for k in range(1, x.shape[1]):
                acc = acc + x[i, k] * y[k, j]
            out[i, j] = acc
    return out


def curvature(conn: Connection) -> np.ndarray:
    """F_ab as (n, n, rank, rank) jets, one order below the coefficients."""
    n, r = conn.n, conn.rank
    k = conn.order - 1
    low = conn.theta_at(k)
    out = np.empty((n, n, r, r), dtype=object)
    for a in range(n):
        out[a, a] = _zero_mats(conn.geom, r, k)[0]
        for b in range(a + 1, n):
            d_ab = np.empty((r, r), dtype=object)
            for i in range(r):
                for j in range(r):
                    d_ab[i, j] = conn.theta[b][i, j].partial(a) - conn.theta[a][i, j].partial(b)
            comm = matmul(low[a], low[b])
            comm = comm - matmul(low[b], low[a])
            out[a, b] = d_ab + comm
            out[b, a] = -(d_ab + comm)
    return out


def covd_section(conn: Connection, comps: np.ndarray) -> np.ndarray:
    """Coupled derivative of a V-valued covariant tensor.

    comps has shape (n,)*p + (rank,); the output prepends one more down
    slot.  Levi-Civita acts on the form slots, Theta on the fiber.
    """
    geom = conn.geom
    n, r = conn.n, conn.rank
    k = comps.flat[0].order - 1
    gam = truncate_array(geom.gamma, k)
    th = conn.theta_at(k)
    low = truncate_array(comps, k)
    out = np.empty((n,) + comps.shape, dtype=object)
    for d in range(n):
        for idx in np.ndindex(*comps.shape[:-1]):
            for i in range(r):
                acc = comps[idx + (i,)].partial(d)
                for s, a_s in enumerate(idx):
                    for e in range(n):
                        acc = acc - gam[e, d, a_s] * low[idx[:s] + (e,) + idx[s + 1:] + (i,)]
                for j in range(r):
                    acc = acc + th[d][i, j] * low[idx + (j,)]
                out[(d,) + idx + (i,)] = acc
    return out


def covd_endomorphism(conn: Connection, comps: np.ndarray) -> np.ndarray:
    """Same, for End(V)-valued tensors: Theta acts by commutator."""
    geom = conn.geom
    n, r = conn.n, conn.rank
    k = comps.flat[0].order - 1
    gam = truncate_array(geom.gamma, k)
    th = conn.theta_at(k)
    low = truncate_array(comps, k)
    base = comps.shape[:-2]
    out = np.empty((n,) + comps.shape, dtype=object)
    for d in range(n):
        for idx in np.ndindex(*base):
            block = np.empty((r, r), dtype=object)
            for i in range(r):
                for j in range(r):
                    acc = comps[idx + (i, j)].partial(d)
                    for s, a_s in enumerate(idx):
                        for e in range(n):
                            acc = acc - gam[e, d, a_s] * low[idx[:s] + (e,) + idx[s + 1:] + (i, j)]
                    block[i, j] = acc
            lowm = low[idx]
            block = block + matmul(th[d], lowm) - matmul(lowm, th[d])
            out[(d,) + idx] = block
    return out
