"""Detour operator tests.

Independent oracles:

* d(d f) = F f pins the mechanical curvature against the twisted
  exterior derivative, which never sees the commutator formula;
* the covector twist must reproduce minus the Riemann action, the
  tensor square the Kronecker sum, the tractor twist the Cotton/Weyl
  block matrices;
* a hand-unrolled delta(d phi) with explicit Christoffel and Theta terms
  checks op_M on a random polynomial connection;
* the dense curvature and coupled derivatives match the object-loop
  reference implementations kept below, on every kind of connection;
* composition collapses: M(d f) = (deltaF) f and delta(M phi) =
  -<deltaF, phi> on a generic connection, with closure exactly on
  Yang-Mills-flat twists (Schwarzschild covectors, any Maxwell twist);
* the translated operator satisfies M^T(D sigma) =
  TFS(-B sigma + (n-4) A nabla sigma), with the Cotton term alive only
  away from n = 4;
* linearized Bach annihilates the conformal Killing range on Bach-flat
  backgrounds while a generic perturbation control stays order-one.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detourcert import catalog
from detourcert import connections as co
from detourcert import jets
from detourcert import detour as de
from detourcert import tractor as tr
from detourcert.detour import TwistedForm
from detourcert.dsl import MetricSpec, parse_expression
from detourcert.geometry import Geometry, JetTensor, truncate_array, value_array
from detourcert.jets import Jet, from_coeffs, multi_indices, order_of, to_dense, to_jets


def _spec(dim, sig, coords, comps):
    return MetricSpec(dim, tuple(sig), tuple(coords),
                      {k: parse_expression(v) for k, v in comps.items()})


FLAT4 = _spec(4, [1] * 4, ["x1", "x2", "x3", "x4"], {(i, i): "1" for i in range(4)})
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
BUMP3 = _spec(3, [1] * 3, ["x", "y", "z"], {
    (0, 0): "1 + 0.1*y^2 + 0.05*x*z",
    (1, 1): "1 + 0.08*x^2 - 0.02*y*z",
    (2, 2): "1 + 0.06*x*y",
    (0, 1): "0.03*z^2",
    (1, 2): "0.04*x^2",
})

P_BUMP = (0.3, -0.4, 0.25, 0.5)
P_B3 = (0.31, -0.24, 0.12)
P_SCHW = (0.0, 5.0, 1.2, 0.3)
P_SPHERE = (0.8, 1.1, 0.9, 2.0)


def rand_jet(rng, dim, order):
    return from_coeffs(rng.normal(0.0, 1.0, len(multi_indices(dim, order))), dim, order)


def rand_section(rng, dim, rank, order):
    return np.array([rand_jet(rng, dim, order) for _ in range(rank)], dtype=object)


def rand_form(rng, dim, rank, order):
    return TwistedForm(1, np.array(
        [[rand_jet(rng, dim, order) for _ in range(rank)] for _ in range(dim)],
        dtype=object))


def coeff_dev(a, b):
    a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    out = 0.0
    for x, y in zip(a.flat, b.flat):
        k = min(x.order, y.order)
        out = max(out, float(np.max(np.abs(x.truncated(k).coeffs - y.truncated(k).coeffs))))
    return out


def max_abs(arr):
    arr = np.asarray(arr)
    return float(np.max(np.abs(to_dense(arr) if arr.dtype == object else arr)))


def maxwell_connection(geom):
    """The zero connection on the trivial line bundle: twisted forms are plain forms."""
    theta = np.zeros((geom.n, 1, 1, jets._size(geom.jet_dim, geom.order - 1)))
    return co.Connection(geom, 1, theta)


def jet_view(x, dim=4):
    """Jets of a dense array (curvature, theta) in dim variables."""
    return to_jets(x, dim, order_of(dim, x.shape[-1]))


# -- curvature cross-checks ---------------------------------------------------


def test_dd_equals_curvature_action():
    # d(d f)_ab = F_ab f, computed along two routes that share no code
    rng = np.random.default_rng(17)
    g = Geometry(BUMP4, P_BUMP, order=6)
    conn = co.polynomial_connection(g, 3, rng)
    f = rand_section(rng, 4, 3, 5)
    ddf = de.twisted_d(de.twisted_d(TwistedForm(0, f), conn), conn)
    F = jet_view(co.curvature(conn))
    k = ddf.comps.flat[0].order
    low = truncate_array(f, k)
    for a in range(4):
        for b in range(4):
            Fl = truncate_array(F[a, b], k)
            for i in range(3):
                acc = Fl[i, 0] * low[0]
                for j in range(1, 3):
                    acc = acc + Fl[i, j] * low[j]
                assert coeff_dev([ddf.comps[a, b, i]], [acc]) < 1e-11


def test_covector_curvature_is_riemann_action():
    g = Geometry(BUMP4, P_BUMP, order=5)
    F = jet_view(co.curvature(co.covector_connection(g)))
    k = F[0, 1][0, 0].order
    riem = truncate_array(g.riemann, k)
    for a in range(4):
        for b in range(4):
            for i in range(4):
                for j in range(4):
                    # [nabla_a, nabla_b] v_i = -R_ab^j_i v_j
                    assert coeff_dev([F[a, b][i, j]], [-riem[a, b, j, i]]) < 1e-12


def test_tensor_square_curvature_is_kron_sum():
    rng = np.random.default_rng(29)
    g = Geometry(BUMP4, P_BUMP, order=5)
    base = co.polynomial_connection(g, 2, rng)
    sq = co.tensor_square(base)
    F1 = jet_view(co.curvature(base))
    F2 = jet_view(co.curvature(sq))
    k = F2[0, 1][0, 0].order
    z = Jet.constant(0.0, 4, k)
    for a in range(4):
        for b in range(4):
            F1l = truncate_array(F1[a, b], k)
            for i in range(2):
                for j in range(2):
                    for p in range(2):
                        for q in range(2):
                            acc = z
                            if p == q:
                                acc = acc + F1l[i, j]
                            if i == j:
                                acc = acc + F1l[p, q]
                            assert coeff_dev([F2[a, b][i * 2 + p, j * 2 + q]], [acc]) < 1e-11


def test_tractor_descriptor_curvature_matches_blocks():
    # mechanical commutator curvature against the Cotton/Weyl assembly
    g = Geometry(SCHWARZSCHILD, P_SCHW, order=5)
    conn = co.tractor_connection(g)
    F = jet_view(co.curvature(conn))
    blocks = jet_view(tr.tractor_curvature(g))
    k = F[0, 1][0, 0].order
    for a in range(4):
        for b in range(4):
            assert coeff_dev(F[a, b], truncate_array(blocks[a, b], k)) < 1e-11


def test_op_m_against_hand_unrolled_formula():
    rng = np.random.default_rng(41)
    g = Geometry(BUMP4, P_BUMP, order=5)
    conn = co.polynomial_connection(g, 2, rng)
    phi = rand_form(rng, 4, 2, 4)
    got = de.op_M(phi, conn)

    n, r = 4, 2
    gam3 = truncate_array(g.gamma, 3)
    th3 = jet_view(conn.theta_at(3))
    low3 = truncate_array(phi.comps, 3)
    dphi = np.empty((n, n, r), dtype=object)
    for a in range(n):
        for b in range(n):
            for i in range(r):
                acc = phi.comps[b, i].partial(a) - phi.comps[a, i].partial(b)
                for c in range(n):
                    acc = acc - gam3[c, a, b] * low3[c, i] + gam3[c, b, a] * low3[c, i]
                for j in range(r):
                    acc = acc + th3[a][i, j] * low3[b, j] - th3[b][i, j] * low3[a, j]
                dphi[a, b, i] = acc
    gam2 = truncate_array(g.gamma, 2)
    th2 = jet_view(conn.theta_at(2))
    gl2 = truncate_array(g.ginv, 2)
    dlow = truncate_array(dphi, 2)
    F = jet_view(co.curvature(conn))
    F2 = truncate_array(F, 2)
    low2 = truncate_array(phi.comps, 2)
    for b in range(n):
        for i in range(r):
            acc = Jet.constant(0.0, 4, 2)
            for e in range(n):
                for a in range(n):
                    term = dphi[a, b, i].partial(e)
                    for ff in range(n):
                        term = term - gam2[ff, e, a] * dlow[ff, b, i]
                        term = term - gam2[ff, e, b] * dlow[a, ff, i]
                    for j in range(r):
                        term = term + th2[e][i, j] * dlow[a, b, j]
                    acc = acc - gl2[e, a] * term
            for a in range(n):
                for c in range(n):
                    for j in range(r):
                        acc = acc - gl2[a, c] * F2[b, a][i, j] * low2[c, j]
            assert coeff_dev([acc], [got.comps[b, i]]) < 1e-11


# -- dense path against the object-loop reference ------------------------------
# These are the jet-by-jet loops the dense connection code replaced; they
# share nothing with it but Geometry.gamma and the Jet arithmetic.


def ref_matmul(x, y):
    out = np.empty((x.shape[0], y.shape[1]), dtype=object)
    for i, j in np.ndindex(*out.shape):
        acc = x[i, 0] * y[0, j]
        for k in range(1, x.shape[1]):
            acc = acc + x[i, k] * y[k, j]
        out[i, j] = acc
    return out


def ref_curvature(conn):
    n, r = conn.n, conn.rank
    k = conn.order - 1
    theta = jet_view(conn.theta, conn.dim)
    low = truncate_array(theta, k)
    out = np.empty((n, n, r, r), dtype=object)
    out[...] = Jet.constant(0.0, conn.dim, k)
    for a in range(n):
        for b in range(a + 1, n):
            d_ab = np.empty((r, r), dtype=object)
            for i in range(r):
                for j in range(r):
                    d_ab[i, j] = theta[b, i, j].partial(a) - theta[a, i, j].partial(b)
            comm = ref_matmul(low[a], low[b]) - ref_matmul(low[b], low[a])
            out[a, b] = d_ab + comm
            out[b, a] = -(d_ab + comm)
    return out


def ref_covd_section(conn, comps):
    n, r = conn.n, conn.rank
    k = comps.flat[0].order - 1
    gam = truncate_array(conn.geom.gamma, k)
    th = jet_view(conn.theta_at(k), conn.dim)
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
                    acc = acc + th[d, i, j] * low[idx + (j,)]
                out[(d,) + idx + (i,)] = acc
    return out


def ref_covd_endomorphism(conn, comps):
    n, r = conn.n, conn.rank
    k = comps.flat[0].order - 1
    gam = truncate_array(conn.geom.gamma, k)
    th = jet_view(conn.theta_at(k), conn.dim)
    low = truncate_array(comps, k)
    out = np.empty((n,) + comps.shape, dtype=object)
    for d in range(n):
        for idx in np.ndindex(*comps.shape[:-2]):
            block = np.empty((r, r), dtype=object)
            for i in range(r):
                for j in range(r):
                    acc = comps[idx + (i, j)].partial(d)
                    for s, a_s in enumerate(idx):
                        for e in range(n):
                            acc = acc - gam[e, d, a_s] * low[idx[:s] + (e,) + idx[s + 1:] + (i, j)]
                    block[i, j] = acc
            out[(d,) + idx] = block + ref_matmul(th[d], low[idx]) - ref_matmul(low[idx], th[d])
    return out


def _oracle_connection(kind, rank, g, rng):
    if kind == "polynomial":
        return co.polynomial_connection(g, rank, rng)
    if kind == "square":
        return co.tensor_square(co.polynomial_connection(g, 2, rng))
    if kind == "covector":
        return co.covector_connection(g)
    return co.killing_connection(g)


def _matches_reference(fn, ref, conn, comps, tol):
    dense = fn(conn, to_dense(comps))
    assert dense.dtype == float
    assert coeff_dev(jet_view(dense, conn.dim), ref(conn, comps)) < tol


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["polynomial", "square", "covector", "killing"]),
       st.integers(1, 6), st.integers(2, 6), st.booleans(), st.integers(0, 2**32 - 1))
def test_dense_connection_matches_object_reference(kind, rank, order, dim3, seed):
    if kind == "killing":
        order = max(order, 3)  # Theta needs curvature, which the Killing rows carry
    spec, pt = (BUMP3, P_B3) if dim3 else (BUMP4, P_BUMP)
    g = Geometry(spec, pt, order=order)
    n = g.n
    rng = np.random.default_rng(seed)
    conn = _oracle_connection(kind, rank, g, rng)
    r = conn.rank
    F = co.curvature(conn)
    want = ref_curvature(conn)
    scale = 1.0 + max_abs(want)
    assert coeff_dev(jet_view(F, n), want) < 1e-12 * scale

    # coupled derivatives of random sections, twisted 1-forms and End-valued
    # 1-forms, at an input order the geometry and Theta can differentiate
    k_in = int(rng.integers(1, min(order, conn.order + 1) + 1))
    sec = np.array([rand_jet(rng, n, k_in) for _ in range(r)], dtype=object)
    form = np.array([[rand_jet(rng, n, k_in) for _ in range(r)] for _ in range(n)], dtype=object)
    end = np.array([[[rand_jet(rng, n, k_in) for _ in range(r)] for _ in range(r)]
                    for _ in range(n)], dtype=object)
    tol = 1e-12 * (1.0 + max_abs(conn.theta))
    _matches_reference(co.covd_section, ref_covd_section, conn, sec, tol)
    _matches_reference(co.covd_section, ref_covd_section, conn, form, tol)
    _matches_reference(co.covd_endomorphism, ref_covd_endomorphism, conn, end, tol)
    if conn.order >= 2:  # nabla F, as the prolongation stack takes it
        _matches_reference(co.covd_endomorphism, ref_covd_endomorphism, conn,
                            jet_view(F, n), 1e-12 * scale * (1.0 + max_abs(conn.theta)))


def test_curvature_and_current_are_computed_once_per_connection(monkeypatch):
    rng = np.random.default_rng(7)
    conn = co.polynomial_connection(Geometry(BUMP4, P_BUMP, order=5), 3, rng)
    calls = []
    contract = jets.contract

    def counting(*args):
        calls.append(args)
        return contract(*args)

    monkeypatch.setattr(jets, "contract", counting)
    for fn in (co.curvature, de.ym_current):
        first = fn(conn)
        work = len(calls)
        assert work > 0
        assert fn(conn) is first
        assert len(calls) == work
        assert not first.flags.writeable  # the cached array cannot be edited in place
    # a new connection on the same data does the work again
    co.curvature(co.Connection(conn.geom, conn.rank, conn.theta))
    assert len(calls) > work


# -- composition collapses ----------------------------------------------------


def test_ym_source_identities_generic_connection():
    rng = np.random.default_rng(3)
    g = Geometry(BUMP4, P_BUMP, order=6)
    conn = co.polynomial_connection(g, 3, rng)
    cur = de.ym_current(conn)
    assert max_abs(cur) > 1e-2  # generic: nowhere near Yang-Mills-flat

    f = rand_section(rng, 4, 3, 5)
    lhs = de.op_M(de.twisted_d(TwistedForm(0, f), conn), conn)
    rhs = de.current_action(cur, f)
    assert coeff_dev(lhs.comps, rhs) < 1e-11

    phi = rand_form(rng, 4, 3, 5)
    lhs2 = de.twisted_delta(de.op_M(phi, conn), conn)
    rhs2 = de.current_contraction(cur, phi, conn)
    assert coeff_dev(lhs2.comps, np.array([-p for p in rhs2], dtype=object)) < 1e-11


def test_ym_source_identities_tractor_square():
    # the full tensor-square twist, value-level sections keep it quick
    rng = np.random.default_rng(53)
    g = Geometry(BUMP4, P_BUMP, order=6)
    conn = co.tensor_square(co.tractor_connection(g))
    assert conn.rank == 36
    f = rand_section(rng, 4, 36, 3)
    cur = de.ym_current(conn)
    lhs = de.op_M(de.twisted_d(TwistedForm(0, f), conn), conn)
    rhs = de.current_action(cur, f)
    assert coeff_dev(lhs.comps, rhs) < 1e-10


def test_maxwell_complex_closes_on_any_metric():
    rng = np.random.default_rng(59)
    g = Geometry(BUMP4, P_BUMP, order=6)
    conn = maxwell_connection(g)
    f = rand_section(rng, 4, 1, 5)
    comp = de.op_M(de.twisted_d(TwistedForm(0, f), conn), conn)
    assert max_abs(comp.comps) < 1e-11
    phi = rand_form(rng, 4, 1, 5)
    closed = de.twisted_delta(de.op_M(phi, conn), conn)
    assert max_abs(closed.comps) < 1e-11


def test_schwarzschild_covector_twist_is_ym_flat():
    rng = np.random.default_rng(61)
    g = Geometry(SCHWARZSCHILD, P_SCHW, order=6)
    conn = co.covector_connection(g)
    cur = de.ym_current(conn)
    assert max_abs(cur) < 1e-12
    # therefore the twisted detour sequence closes on the nose
    f = rand_section(rng, 4, 4, 5)
    comp = de.op_M(de.twisted_d(TwistedForm(0, f), conn), conn)
    assert max_abs(comp.comps) < 1e-11
    phi = rand_form(rng, 4, 4, 5)
    closed = de.twisted_delta(de.op_M(phi, conn), conn)
    assert max_abs(closed.comps) < 1e-11


def test_bump_covector_twist_is_not_ym_flat():
    g = Geometry(BUMP4, P_BUMP, order=6)
    assert max_abs(de.ym_current(co.covector_connection(g))) > 1e-4


# -- translated operator ------------------------------------------------------


def test_translated_composition_dim4():
    rng = np.random.default_rng(67)
    g = Geometry(BUMP4, P_BUMP, order=6)
    sigma = rand_jet(rng, 4, 6)
    got = de.op_MT(tr.op_D(sigma, g), g)
    want = de.einstein_detour_expected(sigma, g)
    scale = max_abs(got.comps)
    assert scale > 1e-4  # Bach term visibly nonzero on this metric
    assert coeff_dev(got.comps, want.comps) < 1e-11 * (1.0 + scale)


def test_translated_composition_dim3_cotton_term():
    rng = np.random.default_rng(71)
    g = Geometry(BUMP3, P_B3, order=6)
    sigma = rand_jet(rng, 3, 6)
    got = de.op_MT(tr.op_D(sigma, g), g)
    want = de.einstein_detour_expected(sigma, g)
    assert coeff_dev(got.comps, want.comps) < 1e-11 * (1.0 + max_abs(got.comps))
    # flipping the Cotton term sign must break the match: the slot order
    # and sign frozen in einstein_detour_expected are load-bearing here
    k = want.comps[0, 0].order
    A = truncate_array(g.cotton, k)
    gl = truncate_array(g.ginv, k)
    grad = truncate_array(np.array([sigma.partial(c) for c in range(3)], dtype=object), k)
    wrong = np.empty((3, 3), dtype=object)
    for a in range(3):
        for b in range(3):
            acc = want.comps[a, b]
            for c in range(3):
                for d in range(3):
                    acc = acc - 2.0 * (3 - 4.0) * A[a, c, b] * gl[c, d] * grad[d]
            wrong[a, b] = acc
    wrong = jet_view(tr.trace_free_symmetric(to_dense(wrong), g), 3)
    assert coeff_dev(got.comps, wrong) > 1e-4


def test_translated_composition_vanishes_on_sphere():
    rng = np.random.default_rng(73)
    g = Geometry(SPHERE4, P_SPHERE, order=6)
    sigma = rand_jet(rng, 4, 6)
    got = de.op_MT(tr.op_D(sigma, g), g)
    assert max_abs(got.comps) < 1e-9


# -- adjointness by quadrature ------------------------------------------------


def _trig_jet(rng, point, order):
    import detourcert.jets as jets

    xs = jets.coordinates(point, order)
    two_pi = 2.0 * np.pi
    p, q = rng.integers(0, 4, size=2)
    a, b, c = rng.normal(0.0, 1.0, size=3)
    return a * jets.sin(two_pi * xs[p]) + b * jets.cos(two_pi * xs[q]) + c


def _tf_sym_trig(state, pt, order):
    phi = np.empty((4, 4), dtype=object)
    phi[...] = Jet.constant(0.0, 4, order)
    f1, f2 = _trig_jet(state, pt, order), _trig_jet(state, pt, order)
    phi[0, 0], phi[1, 1], phi[2, 2], phi[3, 3] = f1, -f1, f2, -f2
    phi[0, 1] = phi[1, 0] = _trig_jet(state, pt, order)
    phi[2, 3] = phi[3, 2] = _trig_jet(state, pt, order)
    return phi


def test_translated_operator_selfadjoint_by_quadrature():
    # 3-point midpoint rule per axis: exact for the frequency <= 2 integrands
    g = Geometry(FLAT4, (0.0,) * 4, order=6)
    conn = co.tractor_connection(g)
    grid = (np.arange(3) + 0.5) / 3.0
    acc12 = acc21 = 0.0
    for idx in np.ndindex(3, 3, 3, 3):
        pt = tuple(grid[list(idx)])
        state = np.random.default_rng(151)
        psi1 = _tf_sym_trig(state, pt, 4)
        psi2 = _tf_sym_trig(state, pt, 4)
        m1 = de.op_MT(JetTensor(("d", "d"), psi1), g, conn=conn)
        m2 = de.op_MT(JetTensor(("d", "d"), psi2), g, conn=conn)
        for a in range(4):
            for b in range(4):
                acc12 += m1.comps[a, b].value * psi2[a, b].value
                acc21 += psi1[a, b].value * m2.comps[a, b].value
    vol = (1.0 / 3.0) ** 4
    assert abs(acc12 - acc21) * vol < 1e-4


def test_conformal_killing_operator_adjoint_by_quadrature():
    g = Geometry(FLAT4, (0.0,) * 4, order=4)
    grid = (np.arange(4) + 0.5) / 4.0
    lhs = rhs = 0.0
    for idx in np.ndindex(4, 4, 4, 4):
        pt = tuple(grid[list(idx)])
        state = np.random.default_rng(157)
        v = np.array([_trig_jet(state, pt, 2) for _ in range(4)], dtype=object)
        psi = _tf_sym_trig(state, pt, 2)
        kv = de.op_K0(v, g)
        ks = -2.0 * tr.divergence(to_dense(psi), g)  # the adjoint of K0: -2 nabla^b psi_ab
        lhs += sum(kv.comps[a, b].value * psi[a, b].value for a in range(4) for b in range(4))
        rhs += sum(v[a].value * ks[a, 0] for a in range(4))
    vol = (1.0 / 4.0) ** 4
    assert abs(lhs - rhs) * vol < 1e-4


# -- deformation complex ------------------------------------------------------


@pytest.mark.parametrize("spec,pt", [
    (FLAT4, (0.1, -0.2, 0.3, 0.05)),
    (SPHERE4, P_SPHERE),
])
def test_linearized_bach_kills_conformal_killing_range(spec, pt):
    rng = np.random.default_rng(79)
    g = Geometry(spec, pt, order=6)
    v = np.array([rand_jet(rng, 4, 6) for _ in range(4)], dtype=object)
    lb = de.linearized_bach(de.op_K0(v, g).comps, g)
    assert max_abs(lb) < 1e-10
    # control: a generic trace-free perturbation is NOT annihilated
    h = np.empty((4, 4), dtype=object)
    for a in range(4):
        for b in range(a, 4):
            h[a, b] = h[b, a] = rand_jet(rng, 4, 5)
    assert max_abs(de.linearized_bach(h, g)) > 1.0


@pytest.mark.parametrize("order", [6, 8])
def test_padded_slots_of_the_perturbation_are_never_read(order):
    # at metric order K the linearized Bach tensor depends on h up to order
    # K-1 only; h padded one order higher with NaN coefficients must give
    # the same finite result
    rng = np.random.default_rng(83)
    g = Geometry(BUMP4, (0.1, -0.2, 0.3, 0.05), order=order)
    v = np.zeros((4, jets._size(4, order)))
    v[:, : jets._size(4, 3)] = rng.uniform(-1.0, 1.0, (4, jets._size(4, 3)))
    h = to_dense(de.op_K0(to_jets(v, 4, order), g).comps)  # order K-1
    h_nan = np.full((4, 4, jets._size(4, order)), np.nan)
    h_nan[..., : h.shape[-1]] = h
    clean = de.linearized_bach(h, g)
    with_nan = de.linearized_bach(h_nan, g)
    assert np.all(np.isfinite(with_nan))
    np.testing.assert_array_equal(with_nan, clean)
    assert np.max(np.abs(clean)) > 0.0


def full_variable_bach(h, geom):
    """linearized_bach with eps a full jet variable: g and h scattered into the
    jets of jet_dim + 1 variables, whose eps^2 coefficients are formed and
    dropped.  The reference for the ring (jet_dim, 1), where eps^2 = 0."""
    dim, k = geom.jet_dim, min(geom.order, order_of(geom.jet_dim, h.shape[-1]) + 1)
    rank = jets._rank(dim + 1, k)
    comps = np.zeros((4, 4, jets._size(dim + 1, k)))
    comps[..., [rank[a + (0,)] for a in multi_indices(dim, k)]] = geom.dense("g", k)
    linear = [rank[b + (1,)] for b in multi_indices(dim, k - 1)]
    comps[..., linear] = h[..., : len(linear)]
    pg = Geometry(metric_jets=comps, order=k, point=geom.point)
    assert pg.jet_dim == dim + 1
    linear = [jets._rank(dim + 1, k - 4)[b + (1,)] for b in multi_indices(dim, k - 5)]
    return pg.dense("bach")[..., linear]


@pytest.mark.parametrize("name", [n for n in catalog.names() if catalog.get(n).spec().dim == 4])
def test_ring_linearized_bach_equals_the_full_variable_reference(name):
    rng = np.random.default_rng(89)
    for order in (6, 8):
        g = catalog.get(name).geometry(order=order)
        v = np.zeros((4, jets._size(4, order)))
        v[:, : jets._size(4, 3)] = rng.uniform(-1.0, 1.0, (4, jets._size(4, 3)))
        h = rng.standard_normal((4, 4, jets._size(4, order - 1)))
        for pert in (de.op_K0(v, g).comps, h + h.transpose(1, 0, 2)):
            pg = de.perturbed_geometry(g, pert)
            assert pg.jet_dim == (4, 1) and pg.dense("g").shape[-1] == jets._size((4, 1), order)
            np.testing.assert_array_equal(de.linearized_bach(pert, g), full_variable_bach(pert, g))


def test_conformal_killing_operator_takes_dense_fields():
    rng = np.random.default_rng(97)
    g = Geometry(BUMP4, P_BUMP, order=5)
    v = rng.standard_normal((4, jets._size(4, 5)))
    dense = de.op_K0(v, g)
    assert dense.comps.shape == (4, 4, jets._size(4, 4)) and dense.comps.dtype == float
    np.testing.assert_array_equal(dense.comps, to_dense(de.op_K0(to_jets(v, 4, 5), g).comps))
    with pytest.raises(ValueError):
        JetTensor(("d",), dense.comps)
    with pytest.raises(ValueError):
        JetTensor(("d", "d", "d"), dense.comps)


def test_degree_errors():
    g = Geometry(FLAT4, (0.0,) * 4, order=4)
    conn = maxwell_connection(g)
    sec = TwistedForm(0, np.array([Jet.constant(1.0, 4, 3)], dtype=object))
    with pytest.raises(ValueError):
        de.twisted_delta(sec, conn)
    two = de.twisted_d(de.twisted_d(sec, conn), conn)
    with pytest.raises(ValueError):
        de.twisted_d(two, conn)
    with pytest.raises(ValueError):
        de.f_action(two, conn)
