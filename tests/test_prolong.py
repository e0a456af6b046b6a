"""Prolongation connections: obstruction ranks and certified transport."""
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from detourcert import catalog, prolong
from detourcert.connections import (
    Connection,
    covector_connection,
    killing_connection,
    polynomial_connection,
    tensor_square,
    tractor_connection,
)
from detourcert.dsl import parse_metric_text
from detourcert.geometry import Geometry, value_array
from detourcert.jets import Jet
from detourcert.tractor import splitting

FLAT4 = parse_metric_text("""
dimension = 4
coords = x y z w
signature = "++++"
g[1][1] = "1"
g[2][2] = "1"
g[3][3] = "1"
g[4][4] = "1"
""")

SPHERE4 = parse_metric_text("""
dimension = 4
coords = p1 p2 p3 p4
signature = "++++"
g[1][1] = "1"
g[2][2] = "sin(p1)^2"
g[3][3] = "sin(p1)^2 * sin(p2)^2"
g[4][4] = "sin(p1)^2 * sin(p2)^2 * sin(p3)^2"
""")

SCHWARZSCHILD = parse_metric_text("""
dimension = 4
coords = t r th ph
signature = "-+++"
g[1][1] = "-(1 - 2/r)"
g[2][2] = "1 / (1 - 2/r)"
g[3][3] = "r^2"
g[4][4] = "r^2 * sin(th)^2"
""")

BUMP4 = parse_metric_text("""
dimension = 4
coords = x y z w
signature = "++++"
g[1][1] = "1 + 0.1*y^2 + 0.05*x*z"
g[2][2] = "1 + 0.08*x^2 - 0.02*y*w"
g[3][3] = "1 + 0.06*x*y + 0.03*w^2"
g[4][4] = "1 + 0.07*z^2"
g[1][2] = "0.03*z^2"
g[2][3] = "0.04*x*w"
""")

SPHERE3 = parse_metric_text("""
dimension = 3
coords = p1 p2 p3
signature = "+++"
g[1][1] = "1"
g[2][2] = "sin(p1)^2"
g[3][3] = "sin(p1)^2 * sin(p2)^2"
""")

P_SPHERE = (0.8, 1.1, 0.9, 2.0)
P_SCHW = (0.0, 5.0, 1.2, 0.3)
P_BUMP = (0.3, -0.4, 0.25, 0.5)
# the catalog points nearest the rank floor from either side, at order 6: the smallest
# singular value kept (schwarzschild seed 12, tractor level 2, 1.06e3 x the floor) and
# the largest dropped (hyperbolic4 seed 126, tractor level 1, the floor / 6.0e3)
P_SCHW_KEPT = (0.7926187474093609, 9.006913423587363, 0.20774606819133898, 3.402132231646454)
P_HYP_DROPPED = (0.31049932914672085, 2.7804172143188812, 0.38119026279918067, 6.15151615079961)
# cli.run's sample points near the angular poles (sphere4 seeds 153, 299, 316 and 389,
# hyperbolic4 seed 389), where Theta's jets and the stack's roundoff grow about 30-fold
# per derivative level; a conformally flat 4-metric has 6 parallel scales
POLE_POINTS = [
    ("sphere4", (2.721938349351571, 0.22247544955452614, 2.865125126007418, 1.4672996429483054)),
    ("sphere4", (2.935165885084988, 0.23207445108408847, 2.855042467544321, 0.4735670622306563)),
    ("sphere4", (2.930482736897404, 0.34842745679732434, 2.837774288730246, 3.249065950240714)),
    ("sphere4", (0.3985816708687071, 2.8925740798390485, 0.2343754319057872, 4.86228692690282)),
    ("hyperbolic4", (0.4232076060134314, 2.8925740798390485, 0.2343754319057872, 4.86228692690282)),
]


def const_field(values, n, order):
    out = np.empty(n, dtype=object)
    for a in range(n):
        out[a] = Jet.constant(float(values[a]), n, order)
    return out


# -- obstruction ranks -------------------------------------------------------


@pytest.mark.parametrize(
    "spec,point,expected",
    [
        (FLAT4, (0.3, -0.2, 0.5, 0.1), 10),
        (SPHERE4, P_SPHERE, 10),
        (SCHWARZSCHILD, P_SCHW, 4),
        (BUMP4, P_BUMP, 0),
        (SPHERE3, (0.7, 1.2, 0.4), 6),
        (catalog.get("schwarzschild").spec(), P_SCHW_KEPT, 4),
        (catalog.get("hyperbolic4").spec(), P_HYP_DROPPED, 10),
    ],
)
def test_killing_kernel_dimensions(spec, point, expected):
    geom = Geometry(spec, point, order=6)
    assert prolong.kernel_dimension(killing_connection(geom)) == expected


@pytest.mark.parametrize(
    "spec,point,expected",
    [
        (FLAT4, (0.3, -0.2, 0.5, 0.1), 6),
        (SPHERE4, P_SPHERE, 6),
        (SCHWARZSCHILD, P_SCHW, 1),
        (BUMP4, P_BUMP, 0),
        (SPHERE3, (0.7, 1.2, 0.4), 5),
        (catalog.get("schwarzschild").spec(), P_SCHW_KEPT, 1),
        (catalog.get("hyperbolic4").spec(), P_HYP_DROPPED, 6),
        *[(catalog.get(name).spec(), point, 6) for name, point in POLE_POINTS],
    ],
)
def test_parallel_scale_kernel_dimensions(spec, point, expected):
    # kernel of the tractor descriptor counts almost-Einstein scales
    geom = Geometry(spec, point, order=6)
    assert prolong.kernel_dimension(tractor_connection(geom)) == expected


def test_generic_polynomial_connection_has_no_parallel_sections():
    geom = Geometry(BUMP4, P_BUMP, order=5)
    conn = polynomial_connection(geom, 3, np.random.default_rng(11))
    assert prolong.kernel_dimension(conn) == 0


def test_a_connection_reads_its_rank_off_theta():
    # no rank argument can contradict Theta's fiber, which kernel_dimension counts from
    geom = Geometry(FLAT4, (0.3, -0.2, 0.5, 0.1), order=4)
    tractor = tractor_connection(geom)
    conns = [(covector_connection(geom), 4), (tractor, 6), (tensor_square(tractor), 36),
             (killing_connection(geom), 10), (polynomial_connection(geom, 3, np.random.default_rng(0)), 3)]
    for conn, rank in conns:
        assert conn.rank == conn.theta.shape[-3] == rank, conn.label
    batch = Geometry(FLAT4, [(0.3, -0.2, 0.5, 0.1), (0.1, 0.2, 0.3, 0.4)], order=4)
    assert killing_connection(batch).rank == 10  # a points axis leads Theta
    assert prolong.kernel_dimension(Connection(geom, tractor.theta)) == 6


# -- the Killing connection against its slot-by-slot formula -----------------


def ref_killing_theta(geom):
    """Theta of the Killing prolongation, filled pair by pair and slot by slot.

    Fiber (k_b, mu_p), one mu_p per pair b < c in row-major order:
        nabla_a k_b  = (LC) - mu_ab
        nabla_a mu_bc = (LC) - R_bc^d_a k_d
    """
    n = geom.n
    pairs = [(b, c) for b in range(n) for c in range(b + 1, n)]
    pos = {p: i for i, p in enumerate(pairs)}
    rank = n + len(pairs)
    order = geom.order - 2
    gam = geom.dense("gamma", order)  # [c, a, b]
    riem = geom.dense("riemann", order)  # [b, c, d, a] = R_bc^d_a

    def mu_slot(b, c):
        # returns (index, sign) with mu_bc = sign * basis component
        if b == c:
            return None, 0.0
        return (n + pos[(b, c)], 1.0) if b < c else (n + pos[(c, b)], -1.0)

    th = np.zeros(gam.shape[:-4] + (n, rank, rank, gam.shape[-1]))  # axes [..., a, row, column]
    th[..., :n, :n, :] = -np.moveaxis(gam, -4, -2)
    for a in range(n):
        for b in range(n):
            idx, sgn = mu_slot(a, b)
            if idx is not None:
                th[..., a, b, idx, 0] -= sgn
    for b, c in pairs:
        row = n + pos[(b, c)]
        th[..., row, :n, :] = -riem[..., b, c, :, :, :].swapaxes(-3, -2)
        for d in range(n):
            # LC action on both antisymmetric slots
            idx, sgn = mu_slot(d, c)
            if idx is not None:
                th[..., row, idx, :] -= sgn * gam[..., d, :, b, :]
            idx, sgn = mu_slot(b, d)
            if idx is not None:
                th[..., row, idx, :] -= sgn * gam[..., d, :, c, :]
    return th


KILLING_METRICS = ["generic_bump4", "sphere4", "schwarzschild", "s2xs2", "generic_bump3"]


@pytest.mark.parametrize("name", KILLING_METRICS)
def test_killing_connection_matches_slot_formula(name):
    entry = catalog.get(name)
    rng = np.random.default_rng(15)
    for order in range(3, 7):
        geom = entry.geometry(entry.sample_point(rng), order=order)
        assert np.array_equal(killing_connection(geom).theta, ref_killing_theta(geom))
    batch = Geometry(entry.spec(), np.array([entry.sample_point(rng) for _ in range(5)]), order=2)
    theta = killing_connection(batch).theta
    assert theta.shape[0] == 5
    assert np.array_equal(theta, ref_killing_theta(batch))


# -- transport against analytic parallel sections ----------------------------


def flat_rotation_fiber(pt):
    x, y = pt[0], pt[1]
    pairs = [(b, c) for b in range(4) for c in range(b + 1, 4)]
    mu = {(0, 1): -1.0}
    return np.array([y, -x, 0.0, 0.0] + [mu.get(p, 0.0) for p in pairs])


def test_flat_rotation_killing_transport():
    p0, p1 = (0.3, -0.2, 0.5, 0.1), (1.1, 0.7, -0.4, 0.9)
    res = prolong.transport(
        FLAT4, killing_connection, (p0, p1), flat_rotation_fiber(p0)
    )
    assert np.max(np.abs(res.end - flat_rotation_fiber(p1))) < 1e-10
    assert res.error < 1e-10


def test_static_killing_field_transport_on_schwarzschild():
    # d/dt is Killing; its prolonged fiber must ride parallel transport
    def fiber(pt):
        geom = Geometry(SCHWARZSCHILD, pt, order=3)
        v = const_field([1.0, 0.0, 0.0, 0.0], 4, 3)
        assert prolong.killing_residual(geom, v) < 1e-12
        return prolong.killing_fiber(geom, v)

    p0, p1 = P_SCHW, (0.4, 7.0, 0.9, 1.1)
    res = prolong.transport(
        SCHWARZSCHILD, killing_connection, (p0, p1), fiber(p0)
    )
    assert np.max(np.abs(res.end - fiber(p1))) < 1e-9


def test_constant_scale_tractor_is_parallel_on_ricci_flat():
    def fiber(pt):
        geom = Geometry(SCHWARZSCHILD, pt, order=4)
        return value_array(splitting(Jet.constant(1.0, 4, 4), geom).as_vector())

    p0, p1 = P_SCHW, (0.4, 7.0, 0.9, 1.1)
    res = prolong.transport(
        SCHWARZSCHILD, tractor_connection, (p0, p1), fiber(p0)
    )
    assert np.max(np.abs(res.end - fiber(p1))) < 1e-9


def test_killing_residual_flags_non_killing_field():
    geom = Geometry(SCHWARZSCHILD, P_SCHW, order=3)
    v = const_field([0.0, 1.0, 0.0, 0.0], 4, 3)  # radial, not Killing
    assert prolong.killing_residual(geom, v) > 1e-2


# -- loops --------------------------------------------------------------------

LOOP_SPHERE = [
    (0.8, 1.1, 0.9, 2.0),
    (1.0, 1.1, 0.9, 2.0),
    (1.0, 1.4, 0.9, 2.0),
    (0.8, 1.4, 0.9, 2.0),
]


def test_sphere_tractor_loop_holonomy_is_trivial():
    v0 = np.random.default_rng(7).standard_normal(6)
    defect = prolong.loop_defect(
        SPHERE4, tractor_connection, LOOP_SPHERE, v0, rtol=1e-7, atol=1e-9
    )
    assert defect < 1e-6


def test_sphere_killing_loop_holonomy_is_trivial():
    v0 = np.random.default_rng(8).standard_normal(10)
    defect = prolong.loop_defect(
        SPHERE4, killing_connection, LOOP_SPHERE, v0, rtol=1e-7, atol=1e-9
    )
    assert defect < 1e-6


def test_curved_loops_have_holonomy():
    v0 = np.random.default_rng(9).standard_normal(10)
    loop = [
        (0.3, -0.4, 0.25, 0.5),
        (0.8, -0.4, 0.25, 0.5),
        (0.8, 0.1, 0.25, 0.5),
        (0.3, 0.1, 0.25, 0.5),
    ]
    defect = prolong.loop_defect(
        BUMP4, killing_connection, loop, v0, rtol=1e-6, atol=1e-9, certify_tol=1e-3
    )
    assert defect > 1e-3

    v6 = np.random.default_rng(10).standard_normal(6)
    loop = [
        (0.0, 5.0, 1.2, 0.3),
        (0.0, 6.0, 1.2, 0.3),
        (0.0, 6.0, 1.5, 0.3),
        (0.0, 5.0, 1.5, 0.3),
    ]
    defect = prolong.loop_defect(
        SCHWARZSCHILD, tractor_connection, loop, v6, rtol=1e-6, atol=1e-9,
        certify_tol=1e-3,
    )
    assert defect > 1e-3


# -- certification ------------------------------------------------------------


def test_unreachable_certificate_raises():
    p0, p1 = P_SCHW, (0.2, 6.0, 1.0, 0.5)
    v0 = np.random.default_rng(3).standard_normal(10)
    with pytest.raises(prolong.CertificationError):
        prolong.transport(
            SCHWARZSCHILD, killing_connection, (p0, p1), v0,
            certify_tol=1e-18,
        )


def test_certificate_reported_and_small():
    p0, p1 = (0.8, 1.1, 0.9, 2.0), (0.9, 1.3, 1.0, 2.1)
    v0 = np.random.default_rng(4).standard_normal(6)
    res = prolong.transport(SPHERE4, tractor_connection, (p0, p1), v0)
    assert res.error < 1e-8
    assert res.nfev > 0


@pytest.mark.parametrize("name", ["generic_bump4", "sphere4"])
def test_certificate_is_nonzero_on_a_curved_segment(name):
    # the certificate compares the solves on N and 2N nodes; were the grids
    # to give one polynomial the two ends would agree bit for bit
    spec, p0, p1, v0 = _tractor_segment(name, 0)
    res = prolong.transport(spec, tractor_connection, (p0, p1), v0, rtol=1e-9, atol=1e-11)
    assert 0 < res.error < 1e-6


# -- Chebyshev-Lobatto collocation ----------------------------------------------


def _linear(t):
    return np.array([[0.0, 1.0 + t], [-1.0 - t, 0.2 * np.cos(3 * t)]])


def _kicked_rotation(t):
    # a narrow burst of angular speed, which no polynomial of degree 64 resolves
    return np.array([[0.0, 1.0], [-1.0, 0.0]]) * (1.0 + 40.0 * np.exp(-((t - 0.6) / 0.05) ** 2))


def _dop853(matrix_at, t0, t1, y0, rtol=1e-13, atol=1e-15):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns when it raises rtol to its floor
        return solve_ivp(lambda t, y: -(matrix_at(t) @ y), (t0, t1), y0,
                         method="DOP853", rtol=rtol, atol=atol).y[:, -1]


def _counted(fn, calls):
    def wrapped(*args):
        calls.append(args)
        return fn(*args)
    return wrapped


def _on_a_line(monkeypatch, matrix_at):
    # one coordinate t, so that A = (t1 - t0) M(t0 + s (t1 - t0)) and
    # transport from (t0,) to (t1,) solves y' = -M(t) y from t0 to t1
    monkeypatch.setattr(prolong, "_theta_values", lambda spec, builder, points: np.array(
        [matrix_at(t) for t in points[:, 0]])[:, None])


def test_lobatto_grids_nest_and_differentiate_polynomials_exactly():
    poly = np.polynomial.Polynomial(np.random.default_rng(0).standard_normal(17))
    t, d, tail = prolong._grid(16)
    assert t[0] == 0 and t[-1] == 1 and np.array_equal(prolong._grid(32)[0][::2], t)
    np.testing.assert_allclose(d @ poly(t), poly.deriv()(t), atol=1e-12)
    cheb = np.polynomial.chebyshev.chebfit(1 - 2 * t, poly(t), 16)
    np.testing.assert_allclose(tail @ poly(t), cheb[-2:], atol=1e-14)


@pytest.mark.parametrize("t0,t1,rtol,nfev", [
    (0.0, 2.0, 1e-6, 33),
    (2.0, -1.0, 1e-9, 65),  # backwards in time
    (0.0, 2.0, 1e-16, 65),  # rtol below roundoff: atol decides
])
def test_collocation_matches_scipy_dop853(monkeypatch, t0, t1, rtol, nfev):
    _on_a_line(monkeypatch, _linear)
    y0 = np.array([1.0, 0.5])
    res = prolong.transport(object(), _linear, ((t0,), (t1,)), y0, rtol=rtol, atol=1e-13)
    assert np.max(np.abs(res.end - _dop853(_linear, t0, t1, y0))) < 1e-13
    assert res.nfev == nfev and 0 < res.error < 1e-6


def test_a_burst_no_grid_resolves_hits_the_node_cap(monkeypatch):
    # the grids 8, 16, 32, 64 (each build adds the nodes the finer grid has) leave the
    # burst unresolved; the segment's halves, and theirs, then converge to DOP853
    _on_a_line(monkeypatch, _kicked_rotation)
    builds = []
    monkeypatch.setattr(prolong, "_theta_values", _counted(prolong._theta_values, builds))
    y0 = np.array([1.0, 0.5])
    for rtol, nfev in [(1e-6, 259), (1e-10, 389), (1e-11, 453)]:
        builds.clear()
        res = prolong.transport(object(), _kicked_rotation, ((0.0,), (1.0,)), y0, rtol=rtol,
                                atol=1e-2 * rtol)
        assert [len(points) for _, _, points in builds[:5]] == [9, 8, 16, 32, 9]
        assert np.max(np.abs(res.end - _dop853(_kicked_rotation, 0.0, 1.0, y0))) < 1e-13
        assert res.nfev == nfev and 0 < res.error < 1e-6


def test_a_rotation_no_split_resolves_raises_at_the_node_cap(monkeypatch):
    # 4000 rad per unit length is 250 rad on a sixteenth: 65 nodes resolve no piece
    def spin(t):
        return np.array([[0.0, 1.0], [-1.0, 0.0]]) * 4000.0

    _on_a_line(monkeypatch, spin)
    builds = []
    monkeypatch.setattr(prolong, "_theta_values", _counted(prolong._theta_values, builds))
    with pytest.raises(prolong.CertificationError,
                       match=f"integrator failed: no convergence on {prolong._MAX_N + 1} nodes"):
        prolong.transport(object(), spin, ((0.0,), (1.0,)), np.array([1.0, 0.5]))
    # the first piece of each depth 0, 1, ..., _SPLITS exhausts the grids, then it raises
    assert sum(len(points) for _, _, points in builds) == (prolong._SPLITS + 1) * 65


def _tractor_segment(name, seed):
    entry = catalog.get(name)
    rng = np.random.default_rng(seed)
    p0 = np.array(entry.sample_point(rng))
    p1 = p0 + 0.4 * (np.array(entry.sample_point(rng)) - p0)
    return entry.spec(), p0, p1, rng.standard_normal(entry.spec().dim + 2)


@pytest.mark.parametrize("rtol", [1e-9, 1e-12])
def test_tractor_transport_matches_scipy_dop853(rtol):
    # generic_bump4 converges on 9 nodes and sphere4 on 17; on these
    # segments collocation lies within rtol max|v0| of DOP853 at rtol=1e-13
    for name, seed, nfev in [("generic_bump4", 0, 9), ("generic_bump4", 1, 9),
                             ("sphere4", 0, 17), ("sphere4", 1, 17)]:
        spec, p0, p1, v0 = _tractor_segment(name, seed)

        def connection(t):
            th = prolong._theta_values(spec, tractor_connection, tuple(p0 + t * (p1 - p0)))
            return np.tensordot(p1 - p0, th, axes=(0, 0))

        res = prolong.transport(spec, tractor_connection, (p0, p1), v0, rtol=rtol,
                                atol=1e-2 * rtol, refine=False)
        assert np.max(np.abs(res.end - _dop853(connection, 0.0, 1.0, v0))) <= rtol * np.max(np.abs(v0))
        assert res.nfev == nfev


_LEG = dict(rtol=1e-11, atol=1e-13, refine=False)  # as in cli._transport_roundtrip


def test_a_generic_bump4_roundtrip_makes_one_nine_node_build(monkeypatch):
    # the closed path p0 -> p1 -> p0 is the chain of its two segments, bit for bit
    spec, p0, p1, v0 = _tractor_segment("generic_bump4", 0)
    fwd = prolong.transport(spec, tractor_connection, (p0, p1), v0, **_LEG)
    back = prolong.transport(spec, tractor_connection, (p1, p0), fwd.end, **_LEG)
    builds = []
    monkeypatch.setattr(prolong, "_theta_values", _counted(prolong._theta_values, builds))
    res = prolong.transport(spec, tractor_connection, (p0, p1, p0), v0, **_LEG)
    assert [len(points) for _, _, points in builds] == [9]
    assert res.nfev == fwd.nfev == back.nfev == 9
    assert np.array_equal(res.end, back.end) and np.isnan(res.error)
    assert np.max(np.abs(res.end - v0)) < 1e-12


@pytest.mark.parametrize("name", ["generic_bump4", "sphere4"])
def test_the_reverse_leg_reads_the_forward_build(monkeypatch, name):
    # sphere4 converges on 17 nodes: the reverse leg reads 9 of them, then 17
    spec, p0, p1, v0 = _tractor_segment(name, 0)
    fwd = prolong.transport(spec, tractor_connection, (p0, p1), v0, **_LEG)
    back = prolong.transport(spec, tractor_connection, (p1, p0), fwd.end, **_LEG)
    builds = []
    monkeypatch.setattr(prolong, "_theta_values", _counted(prolong._theta_values, builds))
    res = prolong.transport(spec, tractor_connection, (p0, p1, p0), v0, **_LEG)
    assert sum(len(points) for _, _, points in builds) == res.nfev == fwd.nfev == back.nfev
    assert np.array_equal(res.end, back.end)


def test_a_polyline_is_the_chain_of_its_segments():
    # the Killing loop of the acceptance test, certified segment by segment
    spec = catalog.get("sphere4").spec()
    p0 = (0.8, 1.1, 0.9, 2.0)
    v0 = prolong.killing_fiber(Geometry(spec, p0, order=3), const_field([0, 0, 0, 1], 4, 3))
    loop = [p0, (1.0, 1.1, 0.9, 2.0), (1.0, 1.4, 0.9, 2.0), (0.8, 1.4, 0.9, 2.0), p0]
    kw = dict(rtol=1e-7, atol=1e-9)
    res = prolong.transport(spec, killing_connection, loop, v0, **kw)
    v, error, nfev = v0, 0.0, 0
    for a, b in zip(loop[:-1], loop[1:]):
        leg = prolong.transport(spec, killing_connection, (a, b), v, **kw)
        v, error, nfev = leg.end, error + leg.error, nfev + leg.nfev
    assert np.array_equal(res.end, v) and (res.error, res.nfev) == (error, nfev)
    assert 0 < error < 1e-6 and np.max(np.abs(v - v0)) < 1e-6
    assert prolong.transport_polyline is prolong.transport


def test_non_finite_stage_fails_at_once(monkeypatch):
    # past the middle of the segment the connection is NaN; the first build
    # holds such nodes, and the error is raised before any solve
    spec, p0, p1, v0 = _tractor_segment("generic_bump4", 1)
    middle = p0 + 0.5 * (p1 - p0)
    theta = prolong._theta_values
    poisoned_builds = []  # one flag per point of each build

    def poisoned(spec, builder, points):
        th = theta(spec, builder, points)
        poisoned_builds.append(np.dot(np.subtract(points, middle), p1 - p0) > 0)
        return np.where(poisoned_builds[-1][:, None, None, None], np.nan, th)

    monkeypatch.setattr(prolong, "_theta_values", poisoned)
    monkeypatch.setattr(np.linalg, "solve", _counted(np.linalg.solve, solves := []))
    with pytest.raises(prolong.CertificationError,
                       match="integrator failed: non-finite right-hand side at t="):
        prolong.transport(spec, tractor_connection, (p0, p1), v0, rtol=1e-9, atol=1e-11)
    assert len(poisoned_builds) == 1 and poisoned_builds[0].any() and solves == []


def _poisoned_nodes(n, nodes):
    # _linear at the Lobatto nodes of [0, 1], NaN at the given nodes
    mats = np.array([_linear(t) for t in prolong._grid(n)[0]])
    mats[nodes] = np.nan
    return mats


@pytest.mark.parametrize("stages", [[5], [1, 7], [10], list(range(11))])
def test_first_non_finite_stage_of_a_batch_is_reported(monkeypatch, stages):
    # the error names the first poisoned node of the grid, before any solve
    monkeypatch.setattr(np.linalg, "solve", _counted(np.linalg.solve, solves := []))
    with pytest.raises(prolong.CertificationError,
                       match="integrator failed: non-finite right-hand side at t=") as err:
        prolong._collocate(_poisoned_nodes(16, stages), np.array([1.0, 0.5]))
    assert str(err.value).endswith(f"t={float(prolong._grid(16)[0][stages[0]])!r}")
    assert solves == []


def test_non_finite_matrix_at_t0_is_reported_before_the_stages():
    # the matrix at t = 0 enters no equation (V(0) = v0 is eliminated), yet
    # a non-finite one fails the transport, as at every other node
    with pytest.raises(prolong.CertificationError,
                       match="integrator failed: non-finite right-hand side at t=0.0$"):
        prolong._collocate(_poisoned_nodes(8, [3, 0]), np.array([1.0, 0.5]))
