"""Tractor calculus tests.

Oracles frozen independently of the implementation:

* unit S4: the splitting of sigma = 1 is (1, 0, -1/2), has tractor norm
  h = -1 and is parallel (the round sphere is an Einstein scale);
* tractor metric signature is (p+1, q+1);
* the generic coupled derivative over the connection matrices agrees with
  the slot formula of the tractor connection and its divergence, written
  out jet by jet below (ref_apply_connection, ref_coupled_divergence);
* curvature matrices agree with a hand-rolled commutator of coupled
  second derivatives computed straight from the coefficient matrices;
* the divergence of the tractor curvature reproduces the Bach tensor in
  its corners, carries the (n-4) x Cotton middle block, and vanishes
  elsewhere;
* splitting / injector / second-order operator adjointness holds both as
  the pointwise identity bD* delta = D* E* and under honest quadrature
  on a flat torus.
"""
import numpy as np
import pytest

from detourcert import catalog, detour, jets, tractor
from detourcert.dsl import MetricSpec, parse_expression
from detourcert.geometry import Geometry, JetTensor, truncate_array, value_array
from detourcert.jets import Jet, multi_indices
from detourcert.tractor import TractorJet, TractorOneForm


def _spec(dim, sig, coords, comps):
    return MetricSpec(
        dim, tuple(sig), tuple(coords),
        {k: parse_expression(v) for k, v in comps.items()},
    )


FLAT4 = _spec(4, [1] * 4, ["x1", "x2", "x3", "x4"],
              {(i, i): "1" for i in range(4)})
MINK4 = _spec(4, [-1, 1, 1, 1], ["t", "x", "y", "z"],
              {(0, 0): "-1", (1, 1): "1", (2, 2): "1", (3, 3): "1"})
SPHERE4 = _spec(4, [1] * 4, ["p1", "p2", "p3", "p4"], {
    (0, 0): "1",
    (1, 1): "sin(p1)^2",
    (2, 2): "sin(p1)^2 * sin(p2)^2",
    (3, 3): "sin(p1)^2 * sin(p2)^2 * sin(p3)^2",
})
SCHWARZSCHILD = _spec(4, [-1, 1, 1, 1], ["t", "r", "th", "ph"], {
    (0, 0): "-(1 - 2/r)",
    (1, 1): "1 / (1 - 2/r)",
    (2, 2): "r^2",
    (3, 3): "r^2 * sin(th)^2",
})
BUMP4 = _spec(4, [1] * 4, ["x1", "x2", "x3", "x4"], {
    (0, 0): "1 + 0.05*x1^2*x2 + 0.02*x3",
    (1, 1): "1 + 0.04*x2^2 - 0.03*x1*x4",
    (2, 2): "1 + 0.05*x3^2*x4",
    (3, 3): "1 - 0.02*x1*x2 + 0.03*x4^2",
    (0, 1): "0.04*x1*x3 - 0.01*x2",
    (2, 3): "0.03*x2*x4 + 0.02*x1",
})
# generic 3-metric; in three dimensions conformal flatness <=> Cotton = 0,
# so bumping a flat metric conformally would NOT give nonzero Cotton here
BUMP3 = _spec(3, [1] * 3, ["x", "y", "z"], {
    (0, 0): "1 + 0.1*y^2 + 0.05*x*z",
    (1, 1): "1 + 0.08*x^2 - 0.02*y*z",
    (2, 2): "1 + 0.06*x*y",
    (0, 1): "0.03*z^2",
    (1, 2): "0.04*x^2",
})

P_SPHERE = (0.8, 1.1, 0.9, 2.0)
P_SCHW = (0.0, 5.0, 1.2, 0.3)
P_BUMP = (0.3, -0.4, 0.25, 0.5)
P_BUMP3 = (0.31, -0.24, 0.12)


def rand_jet(rng, dim, order, scale=1.0):
    n_coeff = len(multi_indices(dim, order))
    return jets.from_coeffs(rng.normal(0.0, scale, n_coeff), dim, order)


def rand_tractor(rng, n, order):
    return TractorJet(
        rand_jet(rng, n, order),
        np.array([rand_jet(rng, n, order) for _ in range(n)], dtype=object),
        rand_jet(rng, n, order),
    )


def rand_one_form(rng, n, order):
    nu = np.empty((n, n), dtype=object)
    for a in range(n):
        for b in range(n):
            nu[a, b] = rand_jet(rng, n, order)
    return TractorOneForm(
        np.array([rand_jet(rng, n, order) for _ in range(n)], dtype=object),
        nu,
        np.array([rand_jet(rng, n, order) for _ in range(n)], dtype=object),
    )


def coeff_dev(a, b) -> float:
    """Largest coefficient deviation over two object arrays of jets."""
    out = 0.0
    fa = np.asarray(a, dtype=object).flatten()
    fb = np.asarray(b, dtype=object).flatten()
    assert fa.shape == fb.shape
    for x, y in zip(fa, fb):
        k = min(x.order, y.order)
        out = max(out, float(np.max(np.abs(x.truncated(k).coeffs - y.truncated(k).coeffs))))
    return out


def max_abs_coeffs(arr) -> float:
    return max(float(np.max(np.abs(j.coeffs))) for j in np.asarray(arr, dtype=object).flat)


# -- splitting oracle ---------------------------------------------------------


def test_unit_sphere_splitting_of_one():
    g = Geometry(SPHERE4, P_SPHERE, order=5)
    t = tractor.splitting(Jet.constant(1.0, 4, 5), g)
    assert np.allclose(value_array(t.as_vector()), [1, 0, 0, 0, 0, -0.5], atol=1e-12)
    h = tractor.tractor_metric(t, t, g)
    assert abs(h.value + 1.0) < 1e-12
    # constant curvature is an Einstein scale: the split tractor is parallel
    par = tractor.apply_connection(t, g)
    assert max_abs_coeffs(par.as_matrix()) < 1e-11


def test_flat_affine_function_gives_parallel_tractor():
    g = Geometry(FLAT4, (0.1, 0.2, -0.3, 0.4), order=5)
    x1 = Jet.variable(0.1, 0, 4, 5)
    x3 = Jet.variable(-0.3, 2, 4, 5)
    sigma = 1.0 + 0.3 * x1 - 0.2 * x3
    assert max_abs_coeffs(tractor.op_D(sigma, g).comps) < 1e-14
    par = tractor.apply_connection(tractor.splitting(sigma, g), g)
    assert max_abs_coeffs(par.as_matrix()) < 1e-14


def test_tractor_signature():
    assert tractor.tractor_signature(Geometry(FLAT4, (0, 0, 0, 0), order=4)) == (5, 1)
    assert tractor.tractor_signature(Geometry(MINK4, (0, 0, 0, 0), order=4)) == (4, 2)
    assert tractor.tractor_signature(Geometry(SPHERE4, P_SPHERE, order=4)) == (5, 1)


def test_connection_is_metric():
    # d/dx_a h(t1, t2) = h(grad_a t1, t2) + h(t1, grad_a t2)
    rng = np.random.default_rng(31)
    g = Geometry(BUMP4, P_BUMP, order=5)
    t1, t2 = rand_tractor(rng, 4, 3), rand_tractor(rng, 4, 3)
    d1, d2 = tractor.apply_connection(t1, g), tractor.apply_connection(t2, g)
    h = tractor.tractor_metric(t1, t2, g)
    for a in range(4):
        lhs = h.partial(a)
        rhs = tractor.tractor_metric(
            TractorJet(d1.alpha[a], d1.nu[a], d1.tau[a]), t2, g
        ) + tractor.tractor_metric(
            t1, TractorJet(d2.alpha[a], d2.nu[a], d2.tau[a]), g
        )
        assert coeff_dev([lhs], [rhs]) < 1e-12


# -- the slot formulas of the connection, as the reference -------------------
# Jet-by-jet loops of
#   nabla_a (sigma, mu_b, rho) = (d_a sigma - mu_a,
#                                 nabla_a mu_b + g_ab rho + P_ab sigma,
#                                 d_a rho - P_a^b mu_b)
# and of minus its divergence on tractor-valued 1-forms; they share only
# Geometry stages and covd_array with the generic coupled derivative.


def jet_view(x, geom):
    """Jets of a dense array in the jet variables of geom; a Jet for a 1-D array."""
    out = jets.to_jets(x, geom.jet_dim)
    return out[()] if x.ndim == 1 else out


def covd(geom, comps, variances):
    """Geometry.covd_array of a tensor of jets, viewed as jets."""
    return jet_view(geom.covd_array(jets.to_dense(comps), variances), geom)


def ref_apply_connection(t, geom):
    n = geom.n
    k = t.sigma.order - 1
    P = truncate_array(geom.schouten, k)
    g = truncate_array(geom.g, k)
    gl = truncate_array(geom.ginv, k)
    mu_low = truncate_array(t.mu, k)
    sig = t.sigma.truncated(k)
    rho = t.rho.truncated(k)
    dmu = covd(geom, t.mu, ("d",))
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


def ref_coupled_divergence(phi, geom):
    n = geom.n
    k = phi.alpha[0].order - 1
    P = truncate_array(geom.schouten, k)
    g = truncate_array(geom.g, k)
    gl = truncate_array(geom.ginv, k)
    alpha_low = truncate_array(phi.alpha, k)
    nu_low = truncate_array(phi.nu, k)
    tau_low = truncate_array(phi.tau, k)
    dalpha = covd(geom, phi.alpha, ("d",))
    dnu = covd(geom, phi.nu, ("d", "d"))
    dtau = covd(geom, phi.tau, ("d",))
    sigma = rho = Jet.constant(0.0, geom.jet_dim, k)
    mu = np.array([sigma] * n, dtype=object)
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


def test_connection_matrices_agree_with_direct_formula():
    rng = np.random.default_rng(5)
    for spec, pt in ((SCHWARZSCHILD, P_SCHW), (BUMP3, P_BUMP3)):
        g = Geometry(spec, pt, order=5)
        n = g.n
        t = rand_tractor(rng, n, 3)
        direct = ref_apply_connection(t, g).as_matrix()
        assert coeff_dev(tractor.apply_connection(t, g).as_matrix(), direct) < 1e-12
        mats = jet_view(tractor.connection_matrices(g, 2), g)
        vec = t.as_vector()
        low = truncate_array(vec, 2)
        for a in range(n):
            for i in range(n + 2):
                acc = vec[i].partial(a)
                for j in range(n + 2):
                    acc = acc + mats[a][i, j] * low[j]
                assert coeff_dev([acc], [direct[a, i]]) < 1e-12


@pytest.mark.parametrize("spec,pt", [(BUMP4, P_BUMP), (BUMP3, P_BUMP3)])
def test_coupled_divergence_agrees_with_direct_formula(spec, pt):
    rng = np.random.default_rng(6)
    g = Geometry(spec, pt, order=5)
    phi = rand_one_form(rng, g.n, 4)
    got = tractor.coupled_divergence(phi, g).as_vector()
    want = ref_coupled_divergence(phi, g).as_vector()
    assert coeff_dev(got, want) < 1e-11 * (1.0 + max_abs_coeffs(want))


# -- commutation with the splitting (Einstein operator route) -----------------


@pytest.mark.parametrize("spec,pt", [
    (BUMP4, P_BUMP), (SCHWARZSCHILD, P_SCHW), (SPHERE4, P_SPHERE),
])
def test_splitting_commutes_into_injector(spec, pt):
    # grad(bD sigma) = E(D sigma): top slot vanishes, middle slot is exactly
    # D sigma, bottom slot is the injector's divergence term
    rng = np.random.default_rng(11)
    g = Geometry(spec, pt, order=5)
    sigma = rand_jet(rng, 4, 5)
    lhs = tractor.apply_connection(tractor.splitting(sigma, g), g)
    dsig = tractor.op_D(sigma, g)
    rhs = tractor.op_E(dsig, g)
    assert max_abs_coeffs(lhs.alpha) < 1e-11
    assert coeff_dev(lhs.nu, dsig.comps) < 1e-11
    assert coeff_dev(lhs.nu, rhs.nu) < 1e-11
    assert coeff_dev(lhs.tau, rhs.tau) < 1e-11


# -- curvature ----------------------------------------------------------------


def test_sphere_tractor_curvature_vanishes():
    g = Geometry(SPHERE4, P_SPHERE, order=5)
    omega = jet_view(tractor.tractor_curvature(g), g)
    assert max_abs_coeffs(omega) < 1e-11


def test_curvature_structure_on_ricci_flat():
    # Schwarzschild: Cotton = 0, so only the Weyl block survives
    g = Geometry(SCHWARZSCHILD, P_SCHW, order=5)
    omega = jet_view(tractor.tractor_curvature(g), g)
    n = 4
    for a in range(n):
        for b in range(n):
            m = omega[a, b]
            assert max_abs_coeffs(m[0, :]) < 1e-12
            assert max_abs_coeffs(m[:, n + 1]) < 1e-12
            assert max_abs_coeffs(m[1:n + 1, 0]) < 1e-11
            assert max_abs_coeffs(m[n + 1, 1:n + 1]) < 1e-11
    assert max_abs_coeffs(omega) > 1e-3  # Weyl block is genuinely there


def test_curvature_matches_second_derivative_commutator():
    rng = np.random.default_rng(23)
    g = Geometry(BUMP4, P_BUMP, order=6)
    n, k = 4, 4
    mats = jet_view(tractor.connection_matrices(g, k), g)
    vec = np.array([rand_jet(rng, n, k + 1) for _ in range(n + 2)], dtype=object)
    low = truncate_array(vec, k)
    first = np.empty((n, n + 2), dtype=object)
    for b in range(n):
        for i in range(n + 2):
            acc = vec[i].partial(b)
            for j in range(n + 2):
                acc = acc + mats[b][i, j] * low[j]
            first[b, i] = acc
    gam = truncate_array(g.gamma, k - 1)
    mats2 = [truncate_array(mats[a], k - 1) for a in range(n)]
    flow = truncate_array(first, k - 1)
    vlow = truncate_array(vec, k - 1)
    omega = jet_view(tractor.tractor_curvature(g), g)
    worst = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            om = truncate_array(omega[a, b], k - 1)
            for i in range(n + 2):
                acc = first[b, i].partial(a) - first[a, i].partial(b)
                for j in range(n + 2):
                    acc = acc + mats2[a][i, j] * flow[b, j] - mats2[b][i, j] * flow[a, j]
                    acc = acc - om[i, j] * vlow[j]
                # torsion terms cancel for the symmetric part of Gamma, kept
                # here so the check does not rely on that cancellation
                for c in range(n):
                    acc = acc - gam[c, a, b] * flow[c, i] + gam[c, b, a] * flow[c, i]
                worst = max(worst, float(np.max(np.abs(acc.coeffs))))
    assert worst < 1e-11


def _divergence_values(geom):
    div = tractor.curvature_divergence(geom)
    return [np.array([[j.value for j in row] for row in div[b]]) for b in range(geom.n)]


def test_curvature_divergence_blocks_dim4():
    g = Geometry(BUMP4, P_BUMP, order=5)
    n = 4
    bach = value_array(g.bach)
    gi = value_array(g.ginv)
    for b, m in enumerate(_divergence_values(g)):
        assert np.max(np.abs(m[1:n + 1, 0] - bach[:, b])) < 1e-12
        assert np.max(np.abs(m[n + 1, 1:n + 1] + (gi @ bach)[:, b])) < 1e-12
        # middle block carries the factor (n - 4): dead in dimension four
        assert np.max(np.abs(m[1:n + 1, 1:n + 1])) < 1e-13
        assert np.max(np.abs(m[0, :])) < 1e-13
        assert np.max(np.abs(m[:, n + 1])) < 1e-13


def test_curvature_divergence_blocks_dim3():
    g = Geometry(BUMP3, P_BUMP3, order=5)
    n = 3
    cotton = value_array(g.cotton)
    bach = value_array(g.bach)
    gi = value_array(g.ginv)
    assert np.max(np.abs(cotton)) > 1e-3  # the middle block has teeth here
    for b, m in enumerate(_divergence_values(g)):
        assert np.max(np.abs(m[1:n + 1, 0] - bach[:, b])) < 1e-12
        assert np.max(np.abs(m[n + 1, 1:n + 1] + (gi @ bach)[:, b])) < 1e-12
        expected_mid = (n - 4) * np.einsum("ce,ef->cf", cotton[b], gi)
        assert np.max(np.abs(m[1:n + 1, 1:n + 1] - expected_mid)) < 1e-12
        assert np.max(np.abs(m[0, :])) < 1e-13
        assert np.max(np.abs(m[:, n + 1])) < 1e-13


# -- adjointness --------------------------------------------------------------


@pytest.mark.parametrize("spec,pt", [(BUMP4, P_BUMP), (SPHERE4, P_SPHERE)])
def test_pointwise_adjoint_identity(spec, pt):
    # bD*(delta Phi) = D*(E*(Phi)) as an exact operator identity
    rng = np.random.default_rng(47)
    g = Geometry(spec, pt, order=6)
    phi = rand_one_form(rng, 4, 5)
    lhs = tractor.splitting_star(tractor.coupled_divergence(phi, g), g)
    rhs = tractor.op_D_star(tractor.op_E_star(phi, g), g)
    scale = 1.0 + abs(lhs.value)
    assert coeff_dev([lhs], [rhs]) < 1e-10 * scale


def _trig_jet(rng, point, order):
    """Small random frequency-one trig polynomial on the unit 4-torus."""
    xs = [jets.variable(float(x), k, len(point), order) for k, x in enumerate(point)]
    two_pi = 2.0 * np.pi
    p, q = rng.integers(0, 4, size=2)
    a, b, c = rng.normal(0.0, 1.0, size=3)
    return a * jets.sin(two_pi * xs[p]) + b * jets.cos(two_pi * xs[q]) + c


def test_adjointness_by_quadrature_on_flat_torus():
    # every integrand below is a trig polynomial of frequency at most two
    # per variable, so the midpoint rule on a 3^4 grid integrates it
    # exactly: the duality gaps measure the operators, not the quadrature
    n = 4
    g = Geometry(FLAT4, (0.0,) * n, order=4)
    grid = (np.arange(3) + 0.5) / 3.0
    vol = (1.0 / 3.0) ** 4

    pair_D = pair_Dstar = 0.0
    pair_E = pair_Estar = 0.0
    pair_bD = pair_bDstar = 0.0
    for idx in np.ndindex(3, 3, 3, 3):
        pt = tuple(grid[list(idx)])
        state = np.random.default_rng(99)  # same sections at every point
        sigma = _trig_jet(state, pt, 4)
        # trace-free symmetric phi: diagonal built from cancelling pairs
        f1, f2 = _trig_jet(state, pt, 2), _trig_jet(state, pt, 2)
        g01, g23 = _trig_jet(state, pt, 2), _trig_jet(state, pt, 2)
        phi = np.empty((n, n), dtype=object)
        phi[...] = Jet.constant(0.0, n, 2)
        phi[0, 0], phi[1, 1], phi[2, 2], phi[3, 3] = f1, -f1, f2, -f2
        phi[0, 1] = phi[1, 0] = g01
        phi[2, 3] = phi[3, 2] = g23
        big_phi = TractorOneForm(
            np.array([_trig_jet(state, pt, 2) for _ in range(n)], dtype=object),
            np.array([[_trig_jet(state, pt, 2) for _ in range(n)] for _ in range(n)],
                     dtype=object),
            np.array([_trig_jet(state, pt, 2) for _ in range(n)], dtype=object),
        )
        t = TractorJet(
            _trig_jet(state, pt, 2),
            np.array([_trig_jet(state, pt, 2) for _ in range(n)], dtype=object),
            _trig_jet(state, pt, 2),
        )

        dsig = tractor.op_D(sigma, g)
        pair_D += sum(
            dsig.comps[a, b].value * phi[a, b].value for a in range(n) for b in range(n)
        )
        pair_Dstar += sigma.value * tractor.op_D_star(JetTensor(("d", "d"), phi), g).value

        ephi = tractor.op_E(JetTensor(("d", "d"), phi), g)
        for a in range(n):
            pair_E += tractor.tractor_metric(
                TractorJet(ephi.alpha[a], ephi.nu[a], ephi.tau[a]),
                TractorJet(big_phi.alpha[a], big_phi.nu[a], big_phi.tau[a]),
                g,
            ).value
        estar = tractor.op_E_star(big_phi, g)
        pair_Estar += sum(
            phi[a, b].value * estar.comps[a, b].value for a in range(n) for b in range(n)
        )

        pair_bD += tractor.tractor_metric(tractor.splitting(sigma, g), t, g).value
        pair_bDstar += sigma.value * tractor.splitting_star(t, g).value

    gaps = (
        abs(pair_D - pair_Dstar),
        abs(pair_E - pair_Estar),
        abs(pair_bD - pair_bDstar),
    )
    assert max(gaps) * vol < 1e-4, gaps


def test_op_E_rejects_bad_input():
    g = Geometry(FLAT4, (0.0,) * 4, order=4)
    bad = np.empty((4, 4), dtype=object)
    bad[...] = Jet.constant(0.0, 4, 3)
    bad[0, 1] = Jet.constant(1.0, 4, 3)  # not symmetric
    with pytest.raises(ValueError):
        tractor.op_E(tractor.JetTensor(("d", "d"), bad), g)
    trace = np.empty((4, 4), dtype=object)
    trace[...] = Jet.constant(0.0, 4, 3)
    for i in range(4):
        trace[i, i] = Jet.constant(1.0, 4, 3)  # pure trace
    with pytest.raises(ValueError):
        tractor.op_E(tractor.JetTensor(("d", "d"), trace), g)


def test_trace_free_kills_trace():
    rng = np.random.default_rng(7)
    g = Geometry(BUMP4, P_BUMP, order=4)
    comps = np.empty((4, 4), dtype=object)
    for a in range(4):
        for b in range(4):
            comps[a, b] = rand_jet(rng, 4, 3)
    tf = jets.to_jets(tractor.trace_free_symmetric(jets.to_dense(comps), g), 4)
    gl = truncate_array(g.ginv, 3)
    tr = Jet.constant(0.0, 4, 3)
    for a in range(4):
        for b in range(4):
            tr = tr + gl[a, b] * tf[a, b]
    assert float(np.max(np.abs(tr.coeffs))) < 1e-12
    again = jets.to_jets(tractor.trace_free(jets.to_dense(tf), g), 4)
    assert coeff_dev(again, tf) < 1e-12


# -- conformal change ---------------------------------------------------------


def _omega_jet(spec, expr, point, order):
    from detourcert.dsl import evaluate, parse_expression as pe
    env = {c: Jet.variable(v, i, spec.dim, order)
           for i, (c, v) in enumerate(zip(spec.coords, point))}
    return evaluate(pe(expr), env)


def test_conformal_transformation_of_connection():
    from detourcert.geometry import conformal_rescale

    rng = np.random.default_rng(13)
    expr = "0.1*x1*x2 - 0.05*x3^2 + 0.02*x4*x1"
    resc = conformal_rescale(BUMP4, expr)
    g1 = Geometry(BUMP4, P_BUMP, order=5)
    g2 = Geometry(resc, P_BUMP, order=5)
    om = _omega_jet(BUMP4, expr, P_BUMP, 5)
    t = rand_tractor(rng, 4, 4)

    # transported connection equals the connection of the rescaled metric
    lhs = tractor.apply_connection(tractor.conformal_tractor(t, om, g1), g2)
    rhs = tractor.conformal_one_form(tractor.apply_connection(t, g1), om, g1)
    assert coeff_dev(lhs.as_matrix(), rhs.as_matrix()) < 1e-11

    # tractor metric does not see the change of scale
    h1 = tractor.tractor_metric(t, t, g1)
    th = tractor.conformal_tractor(t, om, g1)
    h2 = tractor.tractor_metric(th, th, g2)
    assert coeff_dev([h1], [h2]) < 1e-11
    assert tractor.tractor_signature(g2) == tractor.tractor_signature(g1)


def test_a_change_of_scale_above_the_geometry_order_is_rejected():
    # tractor and omega at order 6 on an order-3 geometry: the inverse metric it
    # reads holds order 3 only, and asking for more is a ValueError naming it
    rng = np.random.default_rng(13)
    spec = catalog.get("generic_bump4").spec()
    g = Geometry(spec, P_BUMP, order=3)
    om = _omega_jet(spec, "0.1*x*y - 0.05*z^2", P_BUMP, 6)
    with pytest.raises(ValueError, match="ginv has jet order 3, not 5"):
        tractor.conformal_tractor(rand_tractor(rng, 4, 6), om, g)


def test_a_dense_omega_changes_scale_as_its_jet_does():
    # the configuration of acceptance test 7: generic_bump4 at order 5, five omegas
    rng = np.random.default_rng(131)
    entry = catalog.get("generic_bump4")
    spec = entry.spec()
    point = entry.sample_point(rng)
    g1 = Geometry(spec, point, order=5)
    x = spec.coords
    for _ in range(5):
        c = rng.normal(0.0, 0.08, 6)
        expr = (f"{c[0]}*{x[0]} + {c[1]}*{x[1]}*{x[2]} + {c[2]}*{x[3]}^2"
                f" + {c[3]}*{x[0]}*{x[3]} + {c[4]}*{x[1]} + {c[5]}*{x[2]}")
        om = _omega_jet(spec, expr, point, 5)
        assert isinstance(om, Jet)
        t = rand_tractor(rng, 4, 4)
        phi = tractor.apply_connection(t, g1)
        pairs = [(tractor.conformal_tractor(t, w, g1).as_vector(),
                  tractor.conformal_one_form(phi, w, g1).as_matrix()) for w in (om, om.coeffs)]
        for from_jet, from_dense in zip(*pairs):
            assert np.array_equal(jets.as_dense(from_jet), jets.as_dense(from_dense))


# -- layout -------------------------------------------------------------------


def _coeffs(rng, shape, geom, order=4):
    return rng.standard_normal(shape + (jets._size(geom.jet_dim, order),))


def _section(layout, rng, geom):
    return TractorJet.from_vector(layout(_coeffs(rng, (geom.n + 2,), geom)))


def _one_form(layout, rng, geom):
    return TractorOneForm.from_matrix(layout(_coeffs(rng, (geom.n, geom.n + 2), geom)))


def _trace_free(layout, rng, geom):
    x = tractor.trace_free_symmetric(_coeffs(rng, (geom.n, geom.n), geom), geom)
    return JetTensor(("d", "d"), layout(x))


def _omega(rng, geom):
    return Jet(geom.jet_dim, 5, 0.1 * _coeffs(rng, (), geom, 5))


# each operator given (geometry, a layout for dense arrays, rng)
LAYOUT_OPERATORS = {
    "splitting": lambda g, lay, r: tractor.splitting(lay(_coeffs(r, (), g)), g),
    "op_D": lambda g, lay, r: tractor.op_D(lay(_coeffs(r, (), g)), g),
    "op_E": lambda g, lay, r: tractor.op_E(_trace_free(lay, r, g), g),
    "op_D_star": lambda g, lay, r: tractor.op_D_star(
        JetTensor(("d", "d"), lay(_coeffs(r, (g.n, g.n), g))), g),
    "op_E_star": lambda g, lay, r: tractor.op_E_star(_one_form(lay, r, g), g),
    "splitting_star": lambda g, lay, r: tractor.splitting_star(_section(lay, r, g), g),
    "apply_connection": lambda g, lay, r: tractor.apply_connection(_section(lay, r, g), g),
    "coupled_divergence": lambda g, lay, r: tractor.coupled_divergence(_one_form(lay, r, g), g),
    "tractor_metric": lambda g, lay, r: tractor.tractor_metric(
        _section(lay, r, g), _section(lay, r, g), g),
    "conformal_tractor": lambda g, lay, r: tractor.conformal_tractor(
        _section(lay, r, g), _omega(r, g), g),
    "conformal_one_form": lambda g, lay, r: tractor.conformal_one_form(
        _one_form(lay, r, g), _omega(r, g), g),
    "einstein_detour_expected": lambda g, lay, r: detour.einstein_detour_expected(
        lay(_coeffs(r, (), g)), g),
    "op_MT": lambda g, lay, r: detour.op_MT(_trace_free(lay, r, g), g),
}


def _parts(out):
    """The one array (or Jet) holding an operator's result."""
    if isinstance(out, TractorJet):
        return out.as_vector()
    if isinstance(out, TractorOneForm):
        return out.as_matrix()
    return out.comps if isinstance(out, JetTensor) else out


@pytest.mark.parametrize("metric", ["generic_bump4", "generic_bump3"])
@pytest.mark.parametrize("op", list(LAYOUT_OPERATORS))
def test_operator_returns_the_layout_it_is_given(op, metric):
    entry = catalog.get(metric)
    g = entry.geometry(entry.sample_point(np.random.default_rng(17)), order=6)
    dense = _parts(LAYOUT_OPERATORS[op](g, lambda x: x, np.random.default_rng(19)))
    as_jets = _parts(LAYOUT_OPERATORS[op](g, lambda x: jet_view(x, g), np.random.default_rng(19)))
    assert isinstance(dense, np.ndarray) and dense.dtype == np.float64
    assert isinstance(as_jets, Jet) or as_jets.dtype == object
    assert np.array_equal(dense, jets.to_dense(as_jets))
