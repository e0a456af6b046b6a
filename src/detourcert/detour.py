"""Detour operators: twisted de Rham pieces and their compositions.

For a bundle-with-connection this module builds the twisted exterior
derivative and codifferential on form degrees 0..2 and the second-order
detour operator

    M = delta d - F#          with  (F# phi)_b = g^{ac} F_ba phi_c,

whose compositions with d and delta collapse to zeroth-order actions of
the Yang-Mills current delta F:

    M(d f)      = (delta F) f,
    delta(M phi) = -<delta F, phi>.

The twisted operators work on dense jet tensors (see jets and
connections): each is one or two jets.contract calls against the inverse
metric and the connection's dense Theta and curvature.  Jets appear only
at the public edge: twisted_d, twisted_delta, op_M, op_MT, current_action,
current_contraction, einstein_detour_expected, op_K0 and linearized_bach
return the layout of the section they were given; _pair_raised and
perturbed_geometry are dense-only, and op_M and op_MT pass dense
arrays between their steps.  ym_current(conn), a function of the
connection alone, returns a dense array and, like curvature(conn), is
computed once per Connection and kept in Connection.cache; current_action
takes it dense.

Each operator computes only the jet orders its output holds.  Jet
truncation is exact (a coefficient of degree d is summed over the same
pairs at any order), so an operand cut first gives the bits of the full
computation cut afterwards.  op_M forms F# phi only to the order of
delta d phi, two below phi; op_MT builds the tractor connection one order
below the E-image.  A connection too low for its input raises
(Connection.theta_at), never truncates.

Translating M through the injector E and its adjoint yields the
second-order operator on trace-free symmetric tensors whose composition
with the Einstein operator D is the zeroth-order Bach/Cotton action;
that composition is the engine behind the "detour complex" checks.
einstein_detour_expected assembles that action as one matmul of the
[-B, (n-4) A] rows against the column [sigma, nabla sigma].

The deformation side: the conformal Killing operator K0 and a linearized
Bach operator obtained by differentiating the full nonlinear curvature
chain along a metric perturbation with one extra jet variable eps.  K0 is
Geometry.lower, covd_array and tractor.trace_free on dense arrays.
perturbed_geometry scatters the coefficients of g and of h into
one dense metric in the ring key (jet_dim, 1) of jets, where eps^2 = 0, so
the curvature chain never forms a product of two eps-linear coefficients;
linearized_bach gathers the Bach coefficients linear in eps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets, tractor as tractor_mod
from .connections import (Connection, covd_endomorphism, covd_section, curvature, matmul,
                          tractor_connection)
from .geometry import Geometry, JetTensor
from .jets import Jet


@dataclass
class TwistedForm:
    """V-valued p-form; comps shape (n,)*degree + (rank,), antisymmetric.

    comps holds jets, or in the dense layout one more trailing axis of
    coefficients.
    """

    degree: int
    comps: np.ndarray


def twisted_d(phi: TwistedForm, conn: Connection) -> TwistedForm:
    """Coupled exterior derivative on degrees 0 and 1."""
    if phi.degree > 1:
        raise ValueError(f"twisted_d not implemented for degree {phi.degree}")
    dphi = covd_section(conn, jets.as_dense(phi.comps))
    if phi.degree == 1:
        dphi = dphi - dphi.swapaxes(0, 1)
    return TwistedForm(phi.degree + 1, jets.like(dphi, phi.comps, conn.dim))


def twisted_delta(phi: TwistedForm, conn: Connection) -> TwistedForm:
    """Coupled codifferential, minus the g-trace of the coupled derivative."""
    if phi.degree == 0:
        raise ValueError("codifferential of a 0-form")
    out = -conn.geom.trace(covd_section(conn, jets.as_dense(phi.comps)))
    return TwistedForm(phi.degree - 1, jets.like(out, phi.comps, conn.dim))


def _pair_raised(conn: Connection, mats: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """sum_{a,j} mats[..., a, i, j] g^{ab} comps[b, j]: End-valued 1-form on a twisted 1-form."""
    n, r = comps.shape[:2]
    k = jets.order_of(conn.dim, min(mats.shape[-1], comps.shape[-1]))  # raised only to the order of mats
    up = matmul(conn.geom.dense("ginv", k), comps, conn.dim)  # g^{ab} comps[b, j]
    out = matmul(np.swapaxes(mats, -4, -3).reshape(-1, n * r, mats.shape[-1]),
                 up.reshape(n * r, 1, up.shape[-1]), conn.dim)
    return out.reshape(mats.shape[:-4] + (r, -1))


def op_M(phi: TwistedForm, conn: Connection) -> TwistedForm:
    """Second-order detour operator delta d - F# on twisted 1-forms, two orders below phi.

    F# phi is formed only to the order of delta d phi, from phi cut to that order.
    """
    comps = jets.as_dense(phi.comps)
    dd = twisted_delta(twisted_d(TwistedForm(1, comps), conn), conn).comps
    fa = _pair_raised(conn, curvature(conn), comps[..., : dd.shape[-1]])  # F# phi
    return TwistedForm(1, jets.like(dd - fa, phi.comps, conn.dim))


def ym_current(conn: Connection) -> np.ndarray:
    """delta F: (delta F)_b = -g^{ea} (nabla_e F)_ab, End(V)-valued.

    A dense (n, rank, rank, ncoeff) array, computed once per connection and
    kept in conn.cache.
    """
    if "ym_current" not in conn.cache:
        dF = covd_endomorphism(conn, curvature(conn))
        conn.keep("ym_current", -conn.geom.trace(dF))
    return conn.cache["ym_current"]


def current_action(current: np.ndarray, section: np.ndarray) -> np.ndarray:
    """epsilon(delta F) f: pair a dense End-valued 1-form with a section, in its layout.

    The jet variables are the n coordinates of the current's form axis.
    """
    n, r = current.shape[:2]
    out = matmul(current.reshape(n * r, r, -1), jets.as_dense(section).reshape(r, 1, -1), n)
    return jets.like(out.reshape(n, r, -1), section, n)


def current_contraction(current: np.ndarray, phi: TwistedForm, conn: Connection) -> np.ndarray:
    """iota(delta F) phi = g^{ab} (delta F)_a phi_b, a section of V in the layout of phi."""
    out = _pair_raised(conn, jets.as_dense(current), jets.as_dense(phi.comps))
    return jets.like(out, phi.comps, conn.dim)


# ---------------------------------------------------------------------------
# translation to trace-free symmetric tensors


def op_MT(psi: JetTensor, geom: Geometry) -> JetTensor:
    """E* M E: the detour operator on trace-free symmetric tensors, four orders below psi.

    The tractor connection is built one order below the E-image, the highest
    order op_M reads of it.
    """
    dense = JetTensor(psi.variances, jets.as_dense(psi.comps))  # dense between the steps
    image = tractor_mod.op_E(dense, geom).as_matrix()
    conn = tractor_connection(geom, jets.order_of(geom.jet_dim, image.shape[-1]) - 1)
    m_out = op_M(TwistedForm(1, image), conn)
    out = tractor_mod.op_E_star(tractor_mod.TractorOneForm.from_matrix(m_out.comps), geom)
    return JetTensor(out.variances, jets.like(out.comps, psi.comps, geom.jet_dim))


def einstein_detour_expected(sigma: Jet | np.ndarray, geom: Geometry) -> JetTensor:
    """Zeroth-order action TFS(-B_ab sigma + (n-4) A_acb nabla^c sigma).

    This is what M^T composed with the Einstein operator D must produce;
    the Cotton slot order matters only away from dimension four.
    """
    n, dim, s = geom.n, geom.jet_dim, jets.as_dense(sigma)
    geom.require(5, "detour composition")
    k = geom.order - 5
    grad = jets.partials(s, dim, n)[:, None]
    # rows (a, b): [-B_ab, (n-4) A_acb] against the column [sigma, nabla^c sigma]
    col = np.concatenate([s[None, None, : jets._size(dim, k)], matmul(geom.dense("ginv", k), grad, dim)])
    coef = np.concatenate([-geom.dense("bach", k)[:, :, None],
                           (n - 4.0) * geom.dense("cotton", k).transpose(0, 2, 1, 3)], axis=2)
    comps = matmul(coef.reshape(n * n, n + 1, -1), col, dim).reshape(n, n, -1)
    return JetTensor(("d", "d"), jets.like(tractor_mod.trace_free_symmetric(comps, geom), sigma, dim))


# ---------------------------------------------------------------------------
# deformation complex pieces


def op_K0(v_up: np.ndarray, geom: Geometry) -> JetTensor:
    """Conformal Killing operator: trace-free part of the Lie derivative of g."""
    dv = geom.covd_array(geom.lower(jets.as_dense(v_up)), ("d",))
    tf = tractor_mod.trace_free(dv + dv.swapaxes(0, 1), geom)
    return JetTensor(("d", "d"), jets.like(tf, v_up, geom.jet_dim))


def perturbed_geometry(geom: Geometry, h: np.ndarray) -> Geometry:
    """Geometry of g + eps h, h dense, in the ring (jet_dim, 1) of jets, where eps^2 = 0.

    The metric is two scatters into zeros at order k: g onto the ranks free
    of eps, and h up to order k-1 onto the ranks linear in eps.  Higher
    coefficients of h are never read.
    """
    dim = geom.jet_dim
    k = min(geom.order, jets.order_of(dim, h.shape[-1]) + 1)
    comps = np.zeros((geom.n, geom.n, jets._size((dim, 1), k)))
    comps[..., jets._embed_table(dim, k, (dim, 1), (0,))] = geom.dense("g", k)
    comps[..., jets._embed_table(dim, k - 1, (dim, 1), (1,))] = h[..., : jets._size(dim, k - 1)]
    return Geometry(metric_jets=comps, order=k, point=geom.point)


def linearized_bach(h: np.ndarray, geom: Geometry) -> np.ndarray:
    """Derivative of the Bach tensor along the metric perturbation h, in the layout of h."""
    pg = perturbed_geometry(geom, jets.as_dense(h))
    dim = geom.jet_dim
    eps_linear = jets._embed_table(dim, pg.order - 5, (dim, 1), (1,))
    return jets.like(pg.dense("bach")[..., eps_linear], h, dim)
