"""Vector bundles with connection, presented by coefficient matrices.

A connection on a trivialized rank-r bundle over a chart is the data of
matrices Theta_a with

    nabla_a v = d_a v + Theta_a v.

Everything downstream (twisted de Rham operators, curvature, parallel
transport, prolongation checks) consumes only this presentation, so the
same code path serves the Levi-Civita connection on covectors, the
tractor connection, its tensor square, the Killing prolongation
connection (mu_bc = E[b, c, p] mu_p on the pairs b < c of np.triu_indices,
E antisymmetric) and ad-hoc polynomial examples.  The tractor connection
in particular is nothing but covd_section over tractor.connection_matrices:
tractor.apply_connection and tractor.coupled_divergence call it, and the
slot-by-slot tractor formula survives only in the tests, as the
reference this generic derivative is checked against.

Theta is a dense jet tensor (see jets): a float array of shape
(n, rank, rank, ncoeff).  Curvature is always computed mechanically from
the coefficients,

    F_ab = d_a Theta_b - d_b Theta_a + [Theta_a, Theta_b],

by geometry.curvature_form, the formula Riemann is of Theta = Gamma, and
never assembled from curvature-tensor blocks; block formulas are checked
against it in the tests.

matmul is the one fiber product of this module, tractor and detour: one
jets.contract call, at the lower order of its operands.  The coupled
derivatives are one call each of Geometry.covd_array, the one coupled
covariant derivative: Levi-Civita on the form slots, Theta on a fiber slot
'V' and -Theta^T on a dual fiber slot 'V*' (both for an endomorphism).
matmul, covd_section and covd_endomorphism take and return dense arrays
only.  curvature(conn) returns a dense array and is computed once per
Connection: the result is kept, read-only, in Connection.cache, where
detour.ym_current keeps the Yang-Mills current as well.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jets, tractor as tractor_mod
from .geometry import Geometry, curvature_form
from .jets import _ranks, _size


@dataclass(eq=False)
class Connection:
    geom: Geometry
    theta: np.ndarray  # (n, rank, rank, ncoeff) dense jets
    label: str = ""  # keep: perfbench's tracer keys curvature repeats by (geometry, label)
    cache: dict = field(default_factory=dict, init=False, repr=False)  # curvature, ym_current

    @property
    def n(self) -> int:
        return self.geom.n

    @property
    def rank(self) -> int:
        return self.theta.shape[-3]

    @property
    def dim(self) -> int:
        return self.geom.jet_dim

    @property
    def order(self) -> int:
        return jets.order_of(self.dim, self.theta.shape[-1])

    def theta_at(self, order: int) -> np.ndarray:
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} coefficients to {order}")
        return self.theta[..., : _size(self.dim, order)]

    def keep(self, key: str, x: np.ndarray) -> np.ndarray:
        """Store a per-connection result read-only in the cache and return it."""
        x.flags.writeable = False
        self.cache[key] = x
        return x


def covector_connection(geom: Geometry, order: int | None = None) -> Connection:
    """Levi-Civita on 1-forms: Theta_a[b, c] = -Gamma^c_ab, at order K-1 or the order given."""
    th = -geom.dense("gamma", order).transpose(1, 2, 0, 3)
    return Connection(geom, np.ascontiguousarray(th), label="covector")


def tractor_connection(geom: Geometry, order: int | None = None) -> Connection:
    """Theta = tractor.connection_matrices, at order K-2 or the order given (at most K-2)."""
    th = tractor_mod.connection_matrices(geom, geom.order - 2 if order is None else order)
    return Connection(geom, th, label="tractor")


def tensor_square(conn: Connection) -> Connection:
    """Theta on V (x) V: Theta_a (x) 1 + 1 (x) Theta_a."""
    r, n = conn.rank, conn.n
    eye = np.eye(r)
    th = np.einsum("aijc,kl->aikjlc", conn.theta, eye)
    th += np.einsum("ij,aklc->aikjlc", eye, conn.theta)
    return Connection(conn.geom, th.reshape(n, r * r, r * r, -1), label=conn.label + "^2")


def killing_connection(geom: Geometry) -> Connection:
    """Prolongation connection whose parallel sections are Killing fields.

    Fiber (k_b, mu_p), rank n(n+1)/2, one mu_p per pair p of b, c = np.triu_indices(n, 1);
    the basis E[b, c, p] = 1 = -E[c, b, p] gives the antisymmetric mu_bc = E[b, c, p] mu_p:
        nabla_a k_b  = (LC) - mu_ab
        nabla_a mu_bc = (LC) - R_bc^d_a k_d
    """
    n = geom.n
    b, c = np.triu_indices(n, 1)
    p, rank = np.arange(b.size), n + b.size
    E = np.zeros((n, n, b.size))
    E[b, c, p], E[c, b, p] = 1.0, -1.0
    order = geom.order - 2
    gam = geom.dense("gamma", order)  # [c, a, b]
    riem = geom.dense("riemann", order)  # [b, c, d, a] = R_bc^d_a
    th = np.zeros(gam.shape[:-4] + (n, rank, rank, gam.shape[-1]))  # axes [..., a, row, column]
    th[..., :n, :n, :] = -jets.moveaxis(gam, -4, -2)
    th[..., :n, n:, 0] = -E
    th[..., n:, :n, :] = -jets.moveaxis(riem[..., b, c, :, :, :], -2, -4)
    # Levi-Civita on both antisymmetric slots: Gamma^d_ab mu_dc + Gamma^d_ac mu_bd
    th[..., n:, n:, :] = (-np.einsum("...dapk,dpq->...apqk", gam[..., b, :], E[:, c])
                          - np.einsum("...dapk,pdq->...apqk", gam[..., c, :], E[b]))
    return Connection(geom, th, label="killing")


def polynomial_connection(geom: Geometry, rank: int, rng) -> Connection:
    """Random polynomial coefficient matrices; generic, nothing flat about it.

    Entry (a, i, j) is c + sum_s (l_s x_s + q_s x_s^2) with the normal draws
    c, l_0, q_0, l_1, q_1, ... of standard deviation 0.2 taken in that order.
    """
    n, dim = geom.n, geom.jet_dim
    order = geom.order - 1
    draws = rng.normal(0.0, 0.2, size=(n, rank, rank, 1 + 2 * n))
    # row j is the monomial of draw j (1, x_0, x_0^2, x_1, ...); its rank is -1 above the order
    alpha = np.vstack([np.zeros((1, n), np.intp), np.kron(np.eye(n, dtype=np.intp), [[1], [2]])])
    ranks = _ranks(dim, order, alpha)
    th = np.zeros((n, rank, rank, _size(dim, order)))
    th[..., ranks[ranks >= 0]] = draws[..., ranks >= 0]
    return Connection(geom, th, label="polynomial")


# ---------------------------------------------------------------------------
# mechanical curvature and coupled derivatives


def matmul(x: np.ndarray, y: np.ndarray, dim: int) -> np.ndarray:
    """Jet matrix product x @ y of dense (r, m) and (m, s) arrays: one jets.contract call.

    A function of its own since perfbench/tracer.py TARGETS times it as the fiber-product
    span, and test_traced_call_counts_equal_cprofile_ncalls needs a verify call to reach it.
    """
    return jets.contract(x, y, dim)


def curvature(conn: Connection) -> np.ndarray:
    """F_ab as a dense (n, n, rank, rank, ncoeff) array, one order below Theta."""
    if "curvature" not in conn.cache:
        conn.keep("curvature", curvature_form(conn.theta, conn.dim))
    return conn.cache["curvature"]


def covd_section(conn: Connection, x: np.ndarray) -> np.ndarray:
    """Coupled derivative of a dense V-valued covariant tensor, shape (n,)*p + (rank, ncoeff).

    The output prepends one more down slot: Levi-Civita acts on the form
    slots, Theta on the fiber.
    """
    theta = conn.theta_at(jets.order_of(conn.dim, x.shape[-1]) - 1)
    return conn.geom.covd_array(x, ("d",) * (x.ndim - 2) + ("V",), theta)


def covd_endomorphism(conn: Connection, x: np.ndarray) -> np.ndarray:
    """Same, for dense End(V)-valued tensors: Theta acts by commutator."""
    theta = conn.theta_at(jets.order_of(conn.dim, x.shape[-1]) - 1)
    return conn.geom.covd_array(x, ("d",) * (x.ndim - 3) + ("V", "V*"), theta)
