"""Standard tractor calculus in a fixed scale.

The tractor bundle is modelled by its splitting in the chosen metric: a
tractor is a triple (sigma, mu_a, rho) of jets, a tractor-valued 1-form is a
triple (alpha_a, nu_ab, tau_a).  Density weights are trivialized in the fixed
scale; conformal-change helpers apply the splitting transformation together
with the weight factors exp(w * omega) for the slot weights (+1, +1, -1).

Connection, in the fixed scale:

    nabla_a (sigma, mu_b, rho) =
        (d_a sigma - mu_a,
         nabla_a mu_b + g_ab rho + P_ab sigma,
         d_a rho - P_a^b mu_b)

connection_matrices holds it as coefficient matrices T_a on the stacked
vector (sigma, mu_c, rho), the Levi-Civita action on mu folded in.  The
tractor connection is the generic coupled derivative of connections over
those matrices, built one order below the input (all that a derivative
reads): apply_connection is covd_section of tractor_connection, and
coupled_divergence minus its trace.  The slot formula above is written out
only in the tests, as the reference the generic derivative is checked
against.

Its curvature acts by the block matrix with Cotton and Weyl entries; the
divergence of that curvature reproduces the Bach tensor in the corners.  The
tractor metric is h = g^{-1}(mu, mu) + 2 sigma rho with signature
(p+1, q+1) for a metric of signature (p, q).

Every operator computes on dense jet tensors (see jets) with
Geometry.covd_array, Geometry.trace and connections.matmul.  The operators
on a section (Jet, TractorJet, TractorOneForm, JetTensor) take either layout
and return the one they were given; TractorJet and TractorOneForm hold
either.  Functions of the geometry alone (connection_matrices,
tractor_curvature) and divergence, trace_free and trace_free_symmetric
return dense arrays; curvature_divergence returns jets.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import connections, jets
from .geometry import Geometry, JetTensor
from .jets import Jet


@dataclass
class TractorJet:
    """Splitting components (sigma, mu_a, rho) with equal jet orders, as jets or dense."""

    sigma: Jet | np.ndarray
    mu: np.ndarray
    rho: Jet | np.ndarray

    def as_vector(self) -> np.ndarray:
        return np.concatenate([[self.sigma], self.mu, [self.rho]])

    @staticmethod
    def from_vector(vec: np.ndarray) -> "TractorJet":
        n = vec.shape[0] - 2
        return TractorJet(vec[0], vec[1 : n + 1].copy(), vec[n + 1])


@dataclass
class TractorOneForm:
    """Tractor-valued 1-form: slots (alpha_a, nu_ab, tau_a), a the form index; jets or dense."""

    alpha: np.ndarray
    nu: np.ndarray
    tau: np.ndarray

    def as_matrix(self) -> np.ndarray:
        return np.concatenate([self.alpha[:, None], self.nu, self.tau[:, None]], axis=1)

    @staticmethod
    def from_matrix(mat: np.ndarray) -> "TractorOneForm":
        n = mat.shape[0]
        return TractorOneForm(
            mat[:, 0].copy(), mat[:, 1 : n + 1].copy(), mat[:, n + 1].copy()
        )


# ---------------------------------------------------------------------------
# dense helpers


def _times(t: np.ndarray, s: np.ndarray, geom: Geometry) -> np.ndarray:
    """Every entry of the dense tensor t times the dense scalar s, at the lower order."""
    prod = connections.matmul(t.reshape(-1, 1, t.shape[-1]), s.reshape(1, 1, -1), geom.jet_dim)
    return prod.reshape(t.shape[:-1] + (-1,))


def _laplacian(s: np.ndarray, geom: Geometry) -> np.ndarray:
    """g^ab nabla_a nabla_b of a dense scalar, two orders lower."""
    return geom.trace(geom.covd_array(jets.partials(s, geom.jet_dim, geom.n), ("d",)))


def _gram(geom: Geometry, order: int) -> np.ndarray:
    """The tractor metric as a dense (..., n+2, n+2) jet matrix on (sigma, mu_c, rho)."""
    n = geom.n
    gi = geom.dense("ginv", order)
    h = np.zeros(gi.shape[:-3] + (n + 2, n + 2, gi.shape[-1]))
    h[..., 0, n + 1, 0] = h[..., n + 1, 0, 0] = 1.0
    h[..., 1 : n + 1, 1 : n + 1, :] = gi
    return h


# ---------------------------------------------------------------------------
# trace and divergence of 2-tensors


def divergence(x: np.ndarray, geom: Geometry) -> np.ndarray:
    """nabla^b x_ab of a dense 2-tensor, one order lower."""
    d = geom.covd_array(x, ("d", "d"))  # [c, a, b]
    return geom.trace(d.transpose(0, 2, 1, 3))


def trace_free(x: np.ndarray, geom: Geometry) -> np.ndarray:
    """Subtract (g-trace / n) * g from a dense symmetric 2-tensor."""
    tr = geom.trace(x) / float(geom.n)
    return x - _times(geom.dense("g"), tr, geom)


def trace_free_symmetric(x: np.ndarray, geom: Geometry) -> np.ndarray:
    return trace_free((x + x.swapaxes(0, 1)) * 0.5, geom)


# ---------------------------------------------------------------------------
# splitting operators and their adjoints


def splitting(sigma: Jet | np.ndarray, geom: Geometry) -> TractorJet:
    """sigma -> (sigma, grad sigma, -(laplacian + J) sigma / n), orders equalized."""
    s = jets.as_dense(sigma)
    lap = _laplacian(s, geom)
    nc, k = lap.shape[-1], jets.order_of(geom.jet_dim, lap.shape[-1])
    rho = (lap + _times(geom.dense("jtrace", k), s, geom)) * (-1.0 / geom.n)
    vec = np.concatenate([s[None, :nc], jets.partials(s, geom.jet_dim, geom.n)[:, :nc], rho[None]])
    return TractorJet.from_vector(jets.like(vec, sigma, geom.jet_dim))


def op_D(sigma: Jet | np.ndarray, geom: Geometry) -> JetTensor:
    """Trace-free part of (hessian + P sigma); kernel = almost-Einstein scales."""
    s = jets.as_dense(sigma)
    hess = geom.covd_array(jets.partials(s, geom.jet_dim, geom.n), ("d",))
    k = jets.order_of(geom.jet_dim, hess.shape[-1])
    comps = hess + _times(geom.dense("schouten", k), s, geom)
    return JetTensor(("d", "d"), jets.like(trace_free(comps, geom), sigma, geom.jet_dim))


def op_E(psi: JetTensor, geom: Geometry) -> TractorOneForm:
    """Inject a trace-free symmetric 2-tensor into tractor-valued 1-forms."""
    x = jets.as_dense(psi.comps)
    n = geom.n
    # validated: op_E is only defined on trace-free symmetric inputs
    vals = x[..., 0]
    scale = 1.0 + float(np.max(np.abs(vals)))
    if float(np.max(np.abs(vals - vals.T))) > 1e-8 * scale:
        raise ValueError("op_E input must be symmetric")
    tr = geom.trace(x)[0]
    if abs(tr) > 1e-8 * scale:
        raise ValueError(f"input is not trace-free (trace {tr:.3e})")
    tau = divergence(x, geom) * (-1.0 / (n - 1))
    m = np.zeros((n, n + 2, tau.shape[-1]))
    m[:, 1 : n + 1] = x[..., : tau.shape[-1]]
    m[:, n + 1] = tau
    return TractorOneForm.from_matrix(jets.like(m, psi.comps, geom.jet_dim))


def op_D_star(phi: JetTensor, geom: Geometry) -> Jet | np.ndarray:
    """Formal adjoint of op_D: nabla^a nabla^b phi_ab + P^ab phi_ab."""
    x = jets.as_dense(phi.comps)
    n = geom.n
    ddphi = geom.covd_array(geom.covd_array(x, ("d", "d")), ("d", "d", "d"))  # [c, d, a, b]
    dd = geom.trace(geom.trace(ddphi.transpose(0, 2, 1, 3, 4)))
    pu = geom.dense("schouten_up", jets.order_of(geom.jet_dim, dd.shape[-1]))
    pp = connections.matmul(pu.reshape(1, n * n, -1), x.reshape(n * n, 1, -1), geom.jet_dim)
    return jets.like(pp[0, 0] + dd, phi.comps, geom.jet_dim)


def op_E_star(phi: TractorOneForm, geom: Geometry) -> JetTensor:
    """Formal adjoint of op_E: nu_(ab)0 + nabla_(a alpha_b)0 / (n-1)."""
    n = geom.n
    m = jets.as_dense(phi.as_matrix())
    dalpha = geom.covd_array(m[:, 0], ("d",))
    comps = m[:, 1 : n + 1, : dalpha.shape[-1]] + dalpha * (1.0 / (n - 1))
    return JetTensor(("d", "d"), jets.like(trace_free_symmetric(comps, geom), phi.alpha, geom.jet_dim))


def splitting_star(t: TractorJet, geom: Geometry) -> Jet | np.ndarray:
    """Formal adjoint of the splitting: rho - div mu - (laplacian + J) sigma / n."""
    n = geom.n
    v = jets.as_dense(t.as_vector())
    lap = _laplacian(v[0], geom)
    nc = lap.shape[-1]
    div = geom.trace(geom.covd_array(v[1 : n + 1], ("d",)))[:nc]
    js = _times(geom.dense("jtrace", jets.order_of(geom.jet_dim, nc)), v[0], geom)
    return jets.like(v[n + 1, :nc] - div - (lap + js) * (1.0 / n), t.sigma, geom.jet_dim)


# ---------------------------------------------------------------------------
# connection, metric, curvature


def _covd(x: np.ndarray, geom: Geometry) -> np.ndarray:
    """covd_section of the tractor connection, built one order below x: all that it reads."""
    conn = connections.tractor_connection(geom, jets.order_of(geom.jet_dim, x.shape[-1]) - 1)
    return connections.covd_section(conn, x)


def apply_connection(t: TractorJet, geom: Geometry) -> TractorOneForm:
    """Tractor covariant derivative in the fixed scale."""
    d = _covd(jets.as_dense(t.as_vector()), geom)
    return TractorOneForm.from_matrix(jets.like(d, t.sigma, geom.jet_dim))


def coupled_divergence(phi: TractorOneForm, geom: Geometry) -> TractorJet:
    """delta on tractor-valued 1-forms: minus the coupled divergence."""
    d = _covd(jets.as_dense(phi.as_matrix()), geom)
    return TractorJet.from_vector(jets.like(-geom.trace(d), phi.alpha, geom.jet_dim))


def tractor_metric(t1: TractorJet, t2: TractorJet, geom: Geometry) -> Jet | np.ndarray:
    v1, v2 = (jets.as_dense(t.as_vector()) for t in (t1, t2))
    hv = connections.matmul(_gram(geom, geom.order), v2[:, None], geom.jet_dim)
    return jets.like(connections.matmul(v1[None], hv, geom.jet_dim)[0, 0], t1.sigma, geom.jet_dim)


def gram_matrix(geom: Geometry) -> np.ndarray:
    return _gram(geom, 0)[..., 0]


def tractor_signature(geom: Geometry) -> tuple:
    eig = np.linalg.eigvalsh(gram_matrix(geom))
    return int(np.sum(eig > 0)), int(np.sum(eig < 0))


def connection_matrices(geom: Geometry, order: int) -> np.ndarray:
    """Coefficient matrices T_a with nabla_a t = d_a t + T_a t on (sigma, mu_c, rho).

    A dense (..., n, n+2, n+2, ncoeff) array.  The Levi-Civita action on the
    mu slot is folded in, so these matrices define the tractor bundle as a
    plain rank-(n+2) bundle with connection.
    """
    n = geom.n
    geom.require(order + 2, "tractor connection coefficients")
    P = geom.dense("schouten", order)
    t = np.zeros(P.shape[:-3] + (n, n + 2, n + 2, P.shape[-1]))
    t[..., 0, 1 : n + 1, 0] = -np.eye(n)
    t[..., 1 : n + 1, 0, :] = P
    t[..., 1 : n + 1, n + 1, :] = geom.dense("g", order)
    t[..., 1 : n + 1, 1 : n + 1, :] = -jets.moveaxis(geom.dense("gamma", order), -4, -2)
    t[..., n + 1, 1 : n + 1, :] = -jets.contract(P, geom.dense("ginv", order), geom.jet_dim)
    return t


def tractor_curvature(geom: Geometry, order: int | None = None) -> np.ndarray:
    """Curvature 2-form as dense (n, n, n+2, n+2) matrices acting on (sigma, mu_c, rho).

    Blocks: mu-row sigma-column holds the Cotton tensor, the mu-mu block the
    Weyl tensor, the rho-row mu-column minus the Cotton tensor; everything
    else vanishes.  Assembled from the curvature chain at order (K-3 by default);
    cross-checked against the commutator of coupled derivatives in the tests.
    """
    n = geom.n
    geom.require(3, "tractor curvature")
    order = geom.order - 3 if order is None else order
    A = geom.dense("cotton", order).transpose(1, 2, 0, 3)  # A_cab at [a, b, c]
    # W_abc^e and A^e_ab: rows (a, b, c), then (a, b, d) raised by g^de
    rows = np.concatenate([geom.dense("weyl", order).reshape(n**3, n, -1),
                           A.reshape(n * n, n, -1)])
    up = connections.matmul(rows, geom.dense("ginv", order), geom.jet_dim)
    out = np.zeros((n, n, n + 2, n + 2, A.shape[-1]))
    out[:, :, 1 : n + 1, 0] = A
    out[:, :, 1 : n + 1, 1 : n + 1] = up[: n**3].reshape(n, n, n, n, -1)
    out[:, :, n + 1, 1 : n + 1] = -up[n**3 :].reshape(n, n, n, -1)
    return out


def curvature_divergence(geom: Geometry) -> np.ndarray:
    """nabla^a Omega_ab as jets, computed mechanically with the End-coupled connection."""
    geom.require(4, "curvature divergence")
    d_omega = connections.covd_endomorphism(connections.tractor_connection(geom),
                                            tractor_curvature(geom))
    return jets.to_jets(geom.trace(d_omega), geom.jet_dim)


# ---------------------------------------------------------------------------
# conformal change of splitting (with weight trivialization factors)


def _change_of_scale(m: np.ndarray, omega: Jet, geom: Geometry) -> np.ndarray:
    """Rows (sigma, mu_c, rho) of a dense (r, n+2) array, in the scale exp(2 omega) g."""
    n, dim = geom.n, geom.jet_dim
    nc = min(m.shape[-1], jets._size(dim, omega.order - 1))
    sig, mu, rho = m[:, 0, :nc], m[:, 1 : n + 1, :nc], m[:, n + 1, :nc]
    ups = jets.partials(omega.coeffs, dim, n)[:, :nc]
    ups_up = connections.matmul(geom.dense("ginv", jets.order_of(dim, nc)), ups[:, None], dim)
    cross = connections.matmul(mu, ups_up, dim)[:, 0]  # Upsilon^c mu_c of each row
    upsq = connections.matmul(ups[None], ups_up, dim)[0, 0]
    ew = jets.exp(omega.truncated(jets.order_of(dim, nc)))
    out = np.empty(m.shape[:-1] + (nc,))
    out[:, 0] = sig
    out[:, 1 : n + 1] = mu + connections.matmul(sig[:, None], ups[None], dim)
    out[:, :-1] = _times(out[:, :-1], ew.coeffs, geom)
    out[:, n + 1] = _times(rho - cross - _times(sig, upsq, geom) * 0.5, (1.0 / ew).coeffs, geom)
    return out


def conformal_tractor(t: TractorJet, omega: Jet, geom: Geometry) -> TractorJet:
    """Components of the same tractor in the scale exp(2 omega) g."""
    m = _change_of_scale(jets.as_dense(t.as_vector())[None], omega, geom)
    return TractorJet.from_vector(jets.like(m[0], t.sigma, geom.jet_dim))


def conformal_one_form(phi: TractorOneForm, omega: Jet, geom: Geometry) -> TractorOneForm:
    """Slotwise transform of a tractor-valued 1-form (form index has weight 0)."""
    m = _change_of_scale(jets.as_dense(phi.as_matrix()), omega, geom)
    return TractorOneForm.from_matrix(jets.like(m, phi.alpha, geom.jet_dim))
