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

Its curvature acts by the block matrix with Cotton and Weyl entries; the
divergence of that curvature reproduces the Bach tensor in the corners.  The
tractor metric is h = g^{-1}(mu, mu) + 2 sigma rho with signature
(p+1, q+1) for a metric of signature (p, q).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .geometry import Geometry, JetTensor, jet_array, truncate_array, value_array
from .jets import Jet


@dataclass
class TractorJet:
    """Splitting components (sigma, mu_a, rho) with equal jet orders."""

    sigma: Jet
    mu: np.ndarray
    rho: Jet

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @property
    def order(self) -> int:
        return self.sigma.order

    def as_vector(self) -> np.ndarray:
        out = np.empty(self.n + 2, dtype=object)
        out[0] = self.sigma
        out[1 : self.n + 1] = self.mu
        out[self.n + 1] = self.rho
        return out

    @staticmethod
    def from_vector(vec: np.ndarray) -> "TractorJet":
        n = vec.shape[0] - 2
        return TractorJet(vec[0], vec[1 : n + 1].copy(), vec[n + 1])

    def values(self) -> np.ndarray:
        return np.array([j.value for j in self.as_vector()])

    def truncated(self, order: int) -> "TractorJet":
        return TractorJet(
            self.sigma.truncated(order),
            truncate_array(self.mu, order),
            self.rho.truncated(order),
        )


@dataclass
class TractorOneForm:
    """Tractor-valued 1-form: slots (alpha_a, nu_ab, tau_a); a is the form index."""

    alpha: np.ndarray
    nu: np.ndarray
    tau: np.ndarray

    @property
    def n(self) -> int:
        return self.alpha.shape[0]

    @property
    def order(self) -> int:
        return self.alpha[0].order

    def as_matrix(self) -> np.ndarray:
        n = self.n
        out = np.empty((n, n + 2), dtype=object)
        for a in range(n):
            out[a, 0] = self.alpha[a]
            out[a, 1 : n + 1] = self.nu[a]
            out[a, n + 1] = self.tau[a]
        return out

    @staticmethod
    def from_matrix(mat: np.ndarray) -> "TractorOneForm":
        n = mat.shape[0]
        return TractorOneForm(
            mat[:, 0].copy(), mat[:, 1 : n + 1].copy(), mat[:, n + 1].copy()
        )

    def max_abs_values(self) -> float:
        return float(
            max(abs(j.value) for j in list(self.alpha) + list(self.nu.flat) + list(self.tau))
        )

    def truncated(self, order: int) -> "TractorOneForm":
        return TractorOneForm(
            truncate_array(self.alpha, order),
            truncate_array(self.nu, order),
            truncate_array(self.tau, order),
        )


# ---------------------------------------------------------------------------
# scalar helpers


def gradient(sigma: Jet, geom: Geometry) -> np.ndarray:
    return np.array([sigma.partial(a) for a in range(geom.n)], dtype=object)


def hessian(sigma: Jet, geom: Geometry) -> np.ndarray:
    """Coupled second derivative nabla_a nabla_b sigma, order drops by two."""
    return geom.covd_array(gradient(sigma, geom), ("d",))


def laplacian(sigma: Jet, geom: Geometry) -> Jet:
    h = hessian(sigma, geom)
    k = sigma.order - 2
    gl = truncate_array(geom.ginv, k)
    acc = geom.zero(k)
    for a in range(geom.n):
        for b in range(geom.n):
            acc = acc + gl[a, b] * h[a, b]
    return acc


def trace_free(comps: np.ndarray, geom: Geometry, validate_input: bool = False) -> np.ndarray:
    """Subtract (g-trace / n) * g from a symmetric 2-tensor of jets."""
    k = comps.flat[0].order
    n = geom.n
    g = truncate_array(geom.g, k)
    gl = truncate_array(geom.ginv, k)
    tr = geom.zero(k)
    for a in range(n):
        for b in range(n):
            tr = tr + gl[a, b] * comps[a, b]
    if validate_input:
        scale = 1.0 + max(abs(j.value) for j in comps.flat)
        if abs(tr.value) > 1e-8 * scale:
            raise ValueError(f"input is not trace-free (trace {tr.value:.3e})")
    out = np.empty((n, n), dtype=object)
    for a in range(n):
        for b in range(n):
            out[a, b] = comps[a, b] - g[a, b] * (tr / float(n))
    return out


def trace_free_symmetric(comps: np.ndarray, geom: Geometry) -> np.ndarray:
    n = comps.shape[0]
    sym = np.empty((n, n), dtype=object)
    for a in range(n):
        for b in range(a, n):
            sym[a, b] = sym[b, a] = (comps[a, b] + comps[b, a]) * 0.5
    return trace_free(sym, geom)


# ---------------------------------------------------------------------------
# splitting operators and their adjoints


def splitting(sigma: Jet, geom: Geometry) -> TractorJet:
    """sigma -> (sigma, grad sigma, -(laplacian + J) sigma / n), orders equalized."""
    k = sigma.order - 2
    lap = laplacian(sigma, geom)
    j = geom.jtrace.truncated(k)
    rho = (lap + j * sigma.truncated(k)) * (-1.0 / geom.n)
    return TractorJet(sigma.truncated(k), truncate_array(gradient(sigma, geom), k), rho)


def op_D(sigma: Jet, geom: Geometry) -> JetTensor:
    """Trace-free part of (hessian + P sigma); kernel = almost-Einstein scales."""
    k = sigma.order - 2
    h = hessian(sigma, geom)
    P = truncate_array(geom.schouten, k)
    s = sigma.truncated(k)
    comps = np.empty((geom.n, geom.n), dtype=object)
    for a in range(geom.n):
        for b in range(geom.n):
            comps[a, b] = h[a, b] + P[a, b] * s
    return JetTensor(("d", "d"), trace_free(comps, geom), weight=1.0)


def op_E(psi: JetTensor, geom: Geometry) -> TractorOneForm:
    """Inject a trace-free symmetric 2-tensor into tractor-valued 1-forms."""
    comps = psi.comps if isinstance(psi, JetTensor) else psi
    n = geom.n
    # validated: op_E is only defined on trace-free symmetric inputs
    vals = value_array(comps)
    scale = 1.0 + float(np.max(np.abs(vals)))
    if float(np.max(np.abs(vals - vals.T))) > 1e-8 * scale:
        raise ValueError("op_E input must be symmetric")
    trace_free(comps, geom, validate_input=True)
    k = comps.flat[0].order - 1
    dpsi = geom.covd_array(comps, ("d", "d"))
    gl = truncate_array(geom.ginv, k)
    alpha = jet_array((n,), geom.jet_dim, k)
    tau = np.empty(n, dtype=object)
    for a in range(n):
        acc = geom.zero(k)
        for b in range(n):
            for c in range(n):
                acc = acc + gl[b, c] * dpsi[c, a, b]
        tau[a] = acc * (-1.0 / (n - 1))
    return TractorOneForm(alpha, truncate_array(comps, k), tau)


def op_D_star(phi: JetTensor, geom: Geometry) -> Jet:
    """Formal adjoint of op_D: nabla^a nabla^b phi_ab + P^ab phi_ab."""
    comps = phi.comps if isinstance(phi, JetTensor) else phi
    n = geom.n
    k = comps.flat[0].order - 2
    ddphi = geom.covd_array(geom.covd_array(comps, ("d", "d")), ("d", "d", "d"))
    gl = truncate_array(geom.ginv, k)
    pup = truncate_array(geom.schouten_up, k)
    low = truncate_array(comps, k)
    acc = geom.zero(k)
    for a in range(n):
        for b in range(n):
            acc = acc + pup[a, b] * low[a, b]
            for c in range(n):
                for d in range(n):
                    acc = acc + gl[a, c] * gl[b, d] * ddphi[c, d, a, b]
    return acc


def op_E_star(phi: TractorOneForm, geom: Geometry) -> JetTensor:
    """Formal adjoint of op_E: nu_(ab)0 + nabla_(a alpha_b)0 / (n-1)."""
    n = geom.n
    k = phi.order - 1
    dalpha = geom.covd_array(phi.alpha, ("d",))
    comps = np.empty((n, n), dtype=object)
    nu = truncate_array(phi.nu, k)
    for a in range(n):
        for b in range(n):
            comps[a, b] = nu[a, b] + dalpha[a, b] * (1.0 / (n - 1))
    return JetTensor(("d", "d"), trace_free_symmetric(comps, geom), weight=-1.0)


def splitting_star(t: TractorJet, geom: Geometry) -> Jet:
    """Formal adjoint of the splitting: rho - div mu - (laplacian + J) sigma / n."""
    n = geom.n
    k = t.order - 2
    dmu = truncate_array(geom.covd_array(t.mu, ("d",)), k)
    gl = truncate_array(geom.ginv, k)
    div = geom.zero(k)
    for a in range(n):
        for b in range(n):
            div = div + gl[a, b] * dmu[a, b]
    lap = laplacian(t.sigma, geom)
    j = geom.jtrace.truncated(k)
    return t.rho.truncated(k) - div - (lap + j * t.sigma.truncated(k)) * (1.0 / n)


# ---------------------------------------------------------------------------
# connection, metric, curvature


def apply_connection(t: TractorJet, geom: Geometry) -> TractorOneForm:
    """Tractor covariant derivative in the fixed scale."""
    n = geom.n
    k = t.order - 1
    geom.require(k + 2, "tractor connection")
    P = truncate_array(geom.schouten, k)
    g = truncate_array(geom.g, k)
    gl = truncate_array(geom.ginv, k)
    mu_low = truncate_array(t.mu, k)
    sig = t.sigma.truncated(k)
    rho = t.rho.truncated(k)
    dmu = geom.covd_array(t.mu, ("d",))
    alpha = np.empty(n, dtype=object)
    nu = np.empty((n, n), dtype=object)
    tau = np.empty(n, dtype=object)
    for a in range(n):
        alpha[a] = t.sigma.partial(a) - mu_low[a]
        for b in range(n):
            nu[a, b] = dmu[a, b] + g[a, b] * rho + P[a, b] * sig
        acc = t.rho.partial(a)
        for b in range(n):
            for c in range(n):
                acc = acc - P[a, b] * gl[b, c] * mu_low[c]
        tau[a] = acc
    return TractorOneForm(alpha, nu, tau)


def coupled_divergence(phi: TractorOneForm, geom: Geometry) -> TractorJet:
    """delta on tractor-valued 1-forms: minus the coupled divergence."""
    n = geom.n
    k = phi.order - 1
    geom.require(k + 2, "coupled divergence")
    P = truncate_array(geom.schouten, k)
    g = truncate_array(geom.g, k)
    gl = truncate_array(geom.ginv, k)
    alpha_low = truncate_array(phi.alpha, k)
    nu_low = truncate_array(phi.nu, k)
    tau_low = truncate_array(phi.tau, k)
    dalpha = geom.covd_array(phi.alpha, ("d",))
    dnu = geom.covd_array(phi.nu, ("d", "d"))
    dtau = geom.covd_array(phi.tau, ("d",))
    sigma = geom.zero(k)
    mu = jet_array((n,), geom.jet_dim, k)
    rho = geom.zero(k)
    for a in range(n):
        for b in range(n):
            sigma = sigma - gl[a, b] * (dalpha[a, b] - nu_low[b, a])
            rho_term = dtau[a, b]
            for c in range(n):
                for d in range(n):
                    rho_term = rho_term - P[a, c] * gl[c, d] * nu_low[b, d]
            rho = rho - gl[a, b] * rho_term
            for c in range(n):
                mu[c] = mu[c] - gl[a, b] * (
                    dnu[a, b, c] + g[a, c] * tau_low[b] + P[a, c] * alpha_low[b]
                )
    return TractorJet(sigma, mu, rho)


def tractor_metric(t1: TractorJet, t2: TractorJet, geom: Geometry) -> Jet:
    k = min(t1.order, t2.order)
    gl = truncate_array(geom.ginv, k)
    acc = (
        t1.sigma.truncated(k) * t2.rho.truncated(k)
        + t2.sigma.truncated(k) * t1.rho.truncated(k)
    )
    for a in range(geom.n):
        for b in range(geom.n):
            acc = acc + gl[a, b] * t1.mu[a].truncated(k) * t2.mu[b].truncated(k)
    return acc


def gram_matrix(geom: Geometry) -> np.ndarray:
    n = geom.n
    h = np.zeros((n + 2, n + 2))
    h[0, n + 1] = h[n + 1, 0] = 1.0
    h[1 : n + 1, 1 : n + 1] = value_array(geom.ginv)
    return h


def tractor_signature(geom: Geometry) -> tuple:
    eig = np.linalg.eigvalsh(gram_matrix(geom))
    return int(np.sum(eig > 0)), int(np.sum(eig < 0))


def connection_matrices(geom: Geometry, order: int) -> np.ndarray:
    """Coefficient matrices T_a with nabla_a t = d_a t + T_a t on (sigma, mu_c, rho).

    The Levi-Civita action on the mu slot is folded in, so these matrices
    define the tractor bundle as a plain rank-(n+2) bundle with connection.
    Jets viewing connection_dense(geom, order).
    """
    return jets.to_jets(connection_dense(geom, order), geom.jet_dim, order)


def connection_dense(geom: Geometry, order: int) -> np.ndarray:
    """The matrices of connection_matrices as a dense (n, n+2, n+2, ncoeff) array."""
    n = geom.n
    geom.require(order + 2, "tractor connection coefficients")
    P = geom.dense("schouten", order)
    t = np.zeros((n, n + 2, n + 2, P.shape[-1]))
    t[:, 0, 1 : n + 1, 0] = -np.eye(n)
    t[:, 1 : n + 1, 0] = P
    t[:, 1 : n + 1, n + 1] = geom.dense("g", order)
    t[:, 1 : n + 1, 1 : n + 1] = -geom.dense("gamma", order).transpose(1, 2, 0, 3)
    t[:, n + 1, 1 : n + 1] = -jets.contract(P, geom.dense("ginv", order), geom.jet_dim, order)
    return t


def tractor_curvature(geom: Geometry) -> np.ndarray:
    """Curvature 2-form as (n, n, n+2, n+2) matrices acting on (sigma, mu_c, rho).

    Blocks: mu-row sigma-column holds the Cotton tensor, the mu-mu block the
    Weyl tensor, the rho-row mu-column minus the Cotton tensor; everything
    else vanishes.  Assembled from the curvature pack; cross-checked against
    the commutator of coupled derivatives in the test-suite.
    """
    n = geom.n
    k = geom.order - 3
    geom.require(3, "tractor curvature")
    A = geom.cotton
    W = truncate_array(geom.weyl, k)
    gl = truncate_array(geom.ginv, k)
    out = np.empty((n, n, n + 2, n + 2), dtype=object)
    zero = geom.zero(k)
    for a in range(n):
        for b in range(n):
            m = np.empty((n + 2, n + 2), dtype=object)
            m[...] = zero
            for c in range(n):
                m[1 + c, 0] = A[c, a, b]
                for e in range(n):
                    acc_w = zero
                    acc_a = zero
                    for d in range(n):
                        acc_w = acc_w + W[a, b, c, d] * gl[d, e]
                        acc_a = acc_a - gl[d, e] * A[d, a, b]
                    m[1 + c, 1 + e] = acc_w
                    m[n + 1, 1 + e] = acc_a
            out[a, b] = m
    return out


def curvature_divergence(geom: Geometry) -> np.ndarray:
    """nabla^a Omega_ab, computed mechanically with the End-coupled connection."""
    from .connections import covd_endomorphism, tractor_connection

    geom.require(4, "curvature divergence")
    d_omega = covd_endomorphism(tractor_connection(geom), jets.to_dense(tractor_curvature(geom)))
    return jets.to_jets(geom.trace(d_omega), geom.jet_dim, geom.order - 4)


# ---------------------------------------------------------------------------
# conformal change of splitting (with weight trivialization factors)


def conformal_tractor(t: TractorJet, omega: Jet, geom: Geometry) -> TractorJet:
    """Components of the same tractor in the scale exp(2 omega) g."""
    k = min(t.order, omega.order - 1)
    ups = np.array([omega.partial(a).truncated(k) for a in range(geom.n)], dtype=object)
    ew = jets.exp(omega.truncated(k))
    ewi = 1.0 / ew
    gl = truncate_array(geom.ginv, k)
    sig = t.sigma.truncated(k)
    mu = truncate_array(t.mu, k)
    rho = t.rho.truncated(k)
    mu_new = np.empty(geom.n, dtype=object)
    for a in range(geom.n):
        mu_new[a] = ew * (mu[a] + sig * ups[a])
    cross = geom.zero(k)
    upsq = geom.zero(k)
    for b in range(geom.n):
        for c in range(geom.n):
            cross = cross + gl[b, c] * ups[b] * mu[c]
            upsq = upsq + gl[b, c] * ups[b] * ups[c]
    rho_new = ewi * (rho - cross - sig * upsq * 0.5)
    return TractorJet(ew * sig, mu_new, rho_new)


def conformal_one_form(phi: TractorOneForm, omega: Jet, geom: Geometry) -> TractorOneForm:
    """Slotwise transform of a tractor-valued 1-form (form index has weight 0)."""
    k = min(phi.order, omega.order - 1)
    n = geom.n
    ups = np.array([omega.partial(a).truncated(k) for a in range(n)], dtype=object)
    ew = jets.exp(omega.truncated(k))
    ewi = 1.0 / ew
    gl = truncate_array(geom.ginv, k)
    alpha = truncate_array(phi.alpha, k)
    nu = truncate_array(phi.nu, k)
    tau = truncate_array(phi.tau, k)
    upsq = geom.zero(k)
    for b in range(n):
        for c in range(n):
            upsq = upsq + gl[b, c] * ups[b] * ups[c]
    alpha_new = np.empty(n, dtype=object)
    nu_new = np.empty((n, n), dtype=object)
    tau_new = np.empty(n, dtype=object)
    for a in range(n):
        alpha_new[a] = ew * alpha[a]
        cross = geom.zero(k)
        for b in range(n):
            nu_new[a, b] = ew * (nu[a, b] + alpha[a] * ups[b])
            for c in range(n):
                cross = cross + gl[b, c] * ups[b] * nu[a, c]
        tau_new[a] = ewi * (tau[a] - cross - alpha[a] * upsq * 0.5)
    return TractorOneForm(alpha_new, nu_new, tau_new)
