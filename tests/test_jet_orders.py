"""Every verify check computes only the jet orders its residual reads.

The proof obligation: truncated Taylor arithmetic is exact, and the dense
kernels sum a coefficient of degree d over the same pairs, in the same
bucket width, at any truncation order.  So an operand cut to order k before
jets.contract, jets.partials, Geometry.covd_array or connections.curvature
gives the full-order result cut to k, bit for bit.

On top of it, the full-order check bodies below (operands at the order they
are drawn or built at, cut only at the end) are the references that every
trimmed check of cli.run must reproduce exactly; and two deterministic work
guards pin the orders at which the detour suite forms connection curvature
and the Geometry stages past Schouten.
"""
import numpy as np
import pytest

from detourcert import catalog, cli, connections, detour, jets, tractor
from detourcert.connections import Connection, covector_connection, tractor_connection
from detourcert.detour import TwistedForm
from detourcert.geometry import Geometry, JetTensor

TOP = 9  # the full order; the operands are cut to every order 1..TOP-1
KEYS = [3, 4, 5, (4, 1)]  # jet variables: dims 3-5 and the eps^2 = 0 ring


def _slots(key) -> int:
    return key[0] if isinstance(key, tuple) else key


def _cut(x, key, order):
    return x[..., : jets._size(key, order)]


@pytest.mark.parametrize("points", [None, 3])
@pytest.mark.parametrize("key", KEYS)
def test_contract_and_partials_commute_with_truncation_bit_for_bit(key, points):
    rng = np.random.default_rng(16)
    lead = () if points is None else (points,)
    # m = 8 splits the wide buckets of contract into several chunks
    x = rng.standard_normal(lead + (3, 8, jets._size(key, TOP)))
    y = rng.standard_normal(lead + (8, 2, jets._size(key, TOP)))
    prod = jets.contract(x, y, key, TOP)
    grad = jets.partials(x, key, TOP, _slots(key), len(lead))
    for k in range(1, TOP):
        got = jets.contract(_cut(x, key, k), _cut(y, key, k), key, k)
        assert np.array_equal(got, _cut(prod, key, k)), k
        got = jets.partials(_cut(x, key, k), key, k, _slots(key), len(lead))
        assert np.array_equal(got, _cut(grad, key, k - 1)), k


def _random_geometry(key, rng, order=TOP) -> Geometry:
    """A generic metric: the identity plus small random symmetric coefficients."""
    n = _slots(key)
    g = 0.1 * rng.standard_normal((n, n, jets._size(key, order)))
    g = g + g.swapaxes(0, 1)
    g[..., 0] += np.eye(n)
    return Geometry(metric_jets=g, order=order)


@pytest.mark.parametrize("key", KEYS)
def test_covd_array_and_curvature_commute_with_truncation_bit_for_bit(key):
    # Geometry.covd_array and connections.curvature take no points axis
    rng = np.random.default_rng(17)
    geom = _random_geometry(key, rng)
    n, r = geom.n, 2
    x = rng.standard_normal((n, n, r, r, jets._size(key, TOP)))
    theta = rng.standard_normal((n, r, r, jets._size(key, TOP - 1)))
    slots = ("u", "d", "V", "V*")
    full = geom.covd_array(x, slots, theta)
    curv = connections.curvature(Connection(geom, r, theta))
    for k in range(1, TOP):
        got = geom.covd_array(_cut(x, key, k), slots, _cut(theta, key, k - 1))
        assert np.array_equal(got, _cut(full, key, k - 1)), k
        got = connections.curvature(Connection(geom, r, _cut(theta, key, k)))
        assert np.array_equal(got, _cut(curv, key, k - 1)), k


# ---------------------------------------------------------------------------
# full-order references: the operators and check bodies with every operand
# at the order it is drawn or built at, cut only where the result is read


def full_pair_raised(conn, mats, comps):
    n, r = comps.shape[:2]
    up = connections.matmul(conn.geom.dense("ginv"), comps, conn.dim)
    out = connections.matmul(np.swapaxes(mats, -4, -3).reshape(-1, n * r, mats.shape[-1]),
                             up.reshape(n * r, 1, up.shape[-1]), conn.dim)
    return out.reshape(mats.shape[:-4] + (r, -1))


def full_op_M(phi, conn):
    comps = jets.as_dense(phi.comps)
    dd = detour.twisted_delta(detour.twisted_d(TwistedForm(1, comps), conn), conn).comps
    fa = full_pair_raised(conn, connections.curvature(conn), comps)
    nc = min(dd.shape[-1], fa.shape[-1])
    return TwistedForm(1, dd[..., :nc] - fa[..., :nc])


def full_op_MT(psi, geom, conn=None):
    if conn is None:
        conn = tractor_connection(geom)  # order K-2
    m_out = full_op_M(TwistedForm(1, tractor.op_E(psi, geom).as_matrix()), conn)
    out = tractor.op_E_star(tractor.TractorOneForm.from_matrix(m_out.comps), geom)
    return JetTensor(out.variances, out.comps)


def full_apply_connection(t, geom):
    d = connections.covd_section(tractor_connection(geom), t.as_vector())
    return tractor.TractorOneForm.from_matrix(d)


def full_coupled_divergence(phi, geom):
    d = connections.covd_section(tractor_connection(geom), phi.as_matrix())
    return tractor.TractorJet.from_vector(-geom.trace(d))


def _draw(rng, shape, n, order):
    return rng.standard_normal(shape + (jets._size(n, order),))


def full_contracted_bianchi(geom, rng):
    dric = geom.covd_array(geom.dense("ricci"), ("d", "d"))[..., 0]
    div = np.einsum("ea,eab->b", geom.dense("ginv")[..., 0], dric)
    dsc = jets.partials(geom.dense("scalar"), geom.jet_dim, geom.order - 2, geom.n)[:, 0]
    return cli._max_abs(div - 0.5 * dsc) / max(1.0, cli._max_abs(dric))


def full_splitting_commutation(geom, rng):
    sigma = _draw(rng, (), geom.n, min(geom.order, 5))
    lhs = full_apply_connection(tractor.splitting(sigma, geom), geom)
    rhs = tractor.op_E(tractor.op_D(sigma, geom), geom)
    return cli._rel_diff(lhs.as_matrix()[..., 0], rhs.as_matrix()[..., 0])


def full_adjoint_factorization(geom, rng):
    n = geom.n
    nu = _draw(rng, (n, n), n, 3)
    phi = tractor.TractorOneForm(_draw(rng, (n,), n, 3), nu, _draw(rng, (n,), n, 3))
    lhs = tractor.splitting_star(full_coupled_divergence(phi, geom), geom)
    rhs = tractor.op_D_star(tractor.op_E_star(phi, geom), geom)
    return abs(lhs[0] - rhs[0]) / max(1.0, abs(lhs[0]), abs(rhs[0]))


def full_ym_exterior(conn, rng):
    f = _draw(rng, (conn.n,), conn.n, 4)
    lhs = full_op_M(detour.twisted_d(TwistedForm(0, f), conn), conn)
    rhs = detour.current_action(detour.ym_current(conn), f)
    return cli._rel_diff(lhs.comps[..., 0], rhs[..., 0])


def full_ym_interior(conn, rng):
    phi = TwistedForm(1, _draw(rng, (conn.n, conn.n), conn.n, 4))
    lhs = detour.twisted_delta(full_op_M(phi, conn), conn)
    rhs = full_pair_raised(conn, detour.ym_current(conn), phi.comps)
    return cli._rel_diff(lhs.comps[..., 0], -rhs[..., 0])


def full_complex_composition(geom, rng):
    sigma = _draw(rng, (), geom.n, min(geom.order, 6))
    comp = full_op_MT(tractor.op_D(sigma, geom), geom).comps[..., 0]
    pred = detour.einstein_detour_expected(sigma, geom).comps[..., 0]
    return cli._max_abs(comp), cli._max_abs(pred), cli._max_abs(comp - pred)


def full_tractor_curvature_skew(geom, rng):
    m = tractor.tractor_curvature(geom)[..., 0]
    h = tractor.gram_matrix(geom)
    skew = [m + m.swapaxes(0, 1), m.swapaxes(-1, -2) @ h + h @ m]
    return cli._max_abs(skew) / max(1.0, cli._max_abs(m))


def _check(check_id):
    return next(c for c in cli._CHECKS if c.id == check_id)


# (trimmed check row of cli, its full-order reference, the reference takes the covector twist)
TRIMMED = [
    (_check("contracted-bianchi"), full_contracted_bianchi, False),
    (_check("splitting-commutation"), full_splitting_commutation, False),
    (_check("curvature-skew"), full_tractor_curvature_skew, False),
    (_check("adjoint-factorization"), full_adjoint_factorization, False),
    (_check("ym-source-exterior"), full_ym_exterior, True),
    (_check("ym-source-interior"), full_ym_interior, True),
    (_check("complex-composition"), full_complex_composition, False),
]
METRICS = ["sphere4", "schwarzschild", "s2xs2", "generic_bump4", "generic_bump3", "sphere3"]


@pytest.mark.parametrize("high", [False, True], ids=["minimum", "order8"])
@pytest.mark.parametrize("name", METRICS)
def test_trimmed_checks_equal_their_full_order_references(name, high):
    entry = catalog.get(name)
    point = entry.sample_point(np.random.default_rng(5))
    for check, ref, on_twist in TRIMMED:
        geom = Geometry(entry.spec(), point, order=8 if high else cli.MIN_ORDER[check.suite])
        # cli.run gives both current checks one covector twist at order 2,
        # their references get the twist at the full order
        x_ref = covector_connection(geom) if on_twist else geom
        rng, rng_ref = np.random.default_rng(23), np.random.default_rng(23)
        got = check.fn(cli._Point(geom, entry.sample_box, entry), rng)
        want = ref(x_ref, rng_ref)
        assert got == want, (check.id, got, want)
        assert rng.bit_generator.state == rng_ref.bit_generator.state  # the same draws


@pytest.mark.parametrize("order", [6, 8])
@pytest.mark.parametrize("name", METRICS)
def test_trimmed_operators_equal_their_full_order_references(name, order):
    entry = catalog.get(name)
    rng = np.random.default_rng(6)
    geom = Geometry(entry.spec(), entry.sample_point(rng), order=order)
    n = geom.n
    psi = tractor.op_D(_draw(rng, (), n, order), geom)  # order K-2, the most op_MT takes
    want = full_op_MT(psi, geom).comps
    assert np.array_equal(detour.op_MT(psi, geom).comps, want)
    got = detour.op_MT(psi, geom, conn=tractor_connection(geom)).comps
    assert np.array_equal(got, full_op_MT(psi, geom, conn=tractor_connection(geom)).comps)
    assert np.array_equal(got, want)
    t = tractor.TractorJet.from_vector(_draw(rng, (n + 2,), n, order - 1))
    assert np.array_equal(tractor.apply_connection(t, geom).as_matrix(),
                          full_apply_connection(t, geom).as_matrix())
    phi = tractor.TractorOneForm.from_matrix(_draw(rng, (n, n + 2), n, order - 1))
    assert np.array_equal(tractor.coupled_divergence(phi, geom).as_vector(),
                          full_coupled_divergence(phi, geom).as_vector())
    full = tractor.tractor_curvature(geom)
    for k in range(order - 2):
        assert np.array_equal(tractor.tractor_curvature(geom, k), full[..., : jets._size(n, k)])


def test_a_connection_built_too_low_raises():
    entry = catalog.get("generic_bump4")
    geom = Geometry(entry.spec(), entry.sample_point(np.random.default_rng(7)), order=6)
    psi = tractor.op_D(_draw(np.random.default_rng(8), (), 4, 6), geom)  # order 4, E-image 3
    with pytest.raises(ValueError):
        detour.op_MT(psi, geom, conn=tractor_connection(geom, 1))
    phi = TwistedForm(1, _draw(np.random.default_rng(9), (4, 4), 4, 3))
    with pytest.raises(ValueError):
        detour.op_M(phi, covector_connection(geom, 1))
    with pytest.raises(ValueError):
        covector_connection(geom, 6)  # gamma has order 5
    with pytest.raises(ValueError):
        tractor_connection(geom, 5)  # the tractor matrices have order 4


def test_detour_suite_forms_no_curvature_above_order_1(monkeypatch):
    # a deterministic work guard: every check of the suite reads value
    # coefficients, so neither twist needs its curvature past order 1
    orders, real = [], connections.curvature

    def recording(conn):
        out = real(conn)
        orders.append(jets.order_of(conn.dim, out.shape[-1]))
        return out

    for module in (connections, detour):
        monkeypatch.setattr(module, "curvature", recording)
    report = cli.run(cli.RunConfig("generic_bump4", ("detour",), points=1, jet_order=6))
    assert [c.passed for c in report.checks] == [True] * 3
    assert orders and max(orders) <= 1, orders


# the stages formed on demand, and how many orders below K each tops out
LATE = {"riemann_down": 2, "weyl": 2, "schouten_up": 2, "cotton": 3, "bach": 4}


def test_detour_suite_forms_each_late_stage_once_at_the_order_it_reads(monkeypatch):
    # a deterministic work guard: einstein_detour_expected reads Bach at
    # order 1, which reads Cotton at 2 and Weyl and P^ab at 1
    formed = {}
    for stage in LATE:
        orig = vars(Geometry)[stage]

        def recording(self, order, stage=stage, func=orig.func):
            out = func(self, order)
            formed.setdefault(stage, []).append(jets.order_of(self.jet_dim, out.shape[-1]))
            return out

        patched = type(orig)(recording)
        patched.__set_name__(Geometry, stage)
        monkeypatch.setattr(Geometry, stage, patched)
    report = cli.run(cli.RunConfig("generic_bump4", ("detour",), points=1, jet_order=6))
    assert [c.passed for c in report.checks] == [True] * 3
    assert formed == {"bach": [1], "cotton": [2], "weyl": [1], "riemann_down": [1],
                      "schouten_up": [1]}


@pytest.mark.parametrize("key", KEYS)
def test_a_late_stage_formed_low_then_at_its_top_equals_the_full_order_stage(key):
    # a fresh Geometry read at k forms the stage at k; a read at the top forms
    # it again, and both equal the stage formed at the top, bit for bit
    order = 6
    g = _random_geometry(key, np.random.default_rng(20), order).dense("g")
    for stage, drop in LATE.items():
        top = order - drop
        full = Geometry(metric_jets=g, order=order).dense(stage)
        assert full.shape[-1] == jets._size(key, top)
        for k in range(top + 1):
            geom = Geometry(metric_jets=g, order=order)
            low = geom.dense(stage, k)
            assert geom._dense[stage].shape[-1] == jets._size(key, k), (stage, k)
            assert np.array_equal(low, _cut(full, key, k)), (stage, k)
            assert np.array_equal(geom.dense(stage), full), (stage, k)
            assert np.array_equal(geom.dense(stage, k), low), (stage, k)
        with pytest.raises(ValueError, match=f"{stage} has jet order {top}, not {top + 1}"):
            Geometry(metric_jets=g, order=order).dense(stage, top + 1)
