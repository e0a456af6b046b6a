"""Prolongation connections: obstruction ranks and certified transport."""
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from detourcert import catalog, prolong
from detourcert.connections import (
    killing_connection,
    polynomial_connection,
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
        FLAT4, killing_connection, p0, p1, flat_rotation_fiber(p0)
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
        SCHWARZSCHILD, killing_connection, p0, p1, fiber(p0)
    )
    assert np.max(np.abs(res.end - fiber(p1))) < 1e-9


def test_constant_scale_tractor_is_parallel_on_ricci_flat():
    def fiber(pt):
        geom = Geometry(SCHWARZSCHILD, pt, order=4)
        return value_array(splitting(Jet.constant(1.0, 4, 4), geom).as_vector())

    p0, p1 = P_SCHW, (0.4, 7.0, 0.9, 1.1)
    res = prolong.transport(
        SCHWARZSCHILD, tractor_connection, p0, p1, fiber(p0)
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
            SCHWARZSCHILD, killing_connection, p0, p1, v0,
            certify_tol=1e-18,
        )


def test_certificate_reported_and_small():
    p0, p1 = (0.8, 1.1, 0.9, 2.0), (0.9, 1.3, 1.0, 2.1)
    v0 = np.random.default_rng(4).standard_normal(6)
    res = prolong.transport(SPHERE4, tractor_connection, p0, p1, v0)
    assert res.error < 1e-8
    assert res.nfev > 0


# -- the Dormand-Prince stepper against scipy's RK45 --------------------------


def _linear(t):
    return np.array([[0.0, 1.0 + t], [-1.0 - t, 0.2 * np.cos(3 * t)]])


def _kicked_rotation(t):
    # a narrow burst of angular speed makes the step control reject steps
    return np.array([[0.0, 1.0], [-1.0, 0.0]]) * (1.0 + 40.0 * np.exp(-((t - 0.6) / 0.05) ** 2))


def _rk45(matrix_at, t0, t1, y0, rtol, atol):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns when it raises rtol to its floor
        return solve_ivp(lambda t, y: -(matrix_at(t) @ y), (t0, t1), y0,
                         method="RK45", rtol=rtol, atol=atol)


def _counted(fn, calls):
    def wrapped(*args):
        calls.append(args)
        return fn(*args)
    return wrapped


def _batched(matrix_at):
    return lambda ts: [matrix_at(t) for t in ts]


def _assert_one_batch_per_attempt(sizes, nfev):
    # two single-time calls for the initial step, then one call per attempt
    # with its 5 stage times
    attempts, rest = divmod(nfev - 2, 6)
    assert rest == 0 and sizes == [1, 1] + [5] * attempts
    return attempts


@pytest.mark.parametrize("matrix_at,t0,t1,rtol,rejects", [
    (_linear, 0.0, 2.0, 1e-9, False),
    (_linear, 2.0, -1.0, 1e-9, False),  # backwards in time
    (_kicked_rotation, 0.0, 1.0, 1e-6, True),
    (_linear, 0.0, 2.0, 1e-16, False),  # below the 100 eps floor on rtol
])
def test_stepper_matches_scipy_rk45_bit_for_bit(matrix_at, t0, t1, rtol, rejects):
    y0 = np.array([1.0, 0.5])
    ref = _rk45(matrix_at, t0, t1, y0, rtol, 1e-2 * rtol)
    calls = []
    end, nfev = prolong._dopri45(_counted(_batched(matrix_at), calls), t0, t1, y0, rtol,
                                 1e-2 * rtol)
    assert np.array_equal(end, ref.y[:, -1])
    assert nfev == ref.nfev
    attempts = _assert_one_batch_per_attempt([len(ts) for (ts,) in calls], nfev)
    if rejects:
        assert attempts > len(ref.t) - 1


def _tractor_segment(name, seed):
    entry = catalog.get(name)
    rng = np.random.default_rng(seed)
    p0 = np.array(entry.sample_point(rng))
    p1 = p0 + 0.4 * (np.array(entry.sample_point(rng)) - p0)
    return entry.spec(), p0, p1, rng.standard_normal(entry.spec().dim + 2)


@pytest.mark.parametrize("rtol", [1e-9, 1e-12])
def test_tractor_transport_matches_scipy_rk45(monkeypatch, rtol):
    spec, p0, p1, v0 = _tractor_segment("generic_bump4", 0)

    def connection(t):
        th = prolong._theta_values(spec, tractor_connection, tuple(p0 + t * (p1 - p0)))
        return np.tensordot(p1 - p0, th, axes=(0, 0))

    ref = _rk45(connection, 0.0, 1.0, v0, rtol, 1e-2 * rtol)
    builds = []
    monkeypatch.setattr(prolong, "_theta_values", _counted(prolong._theta_values, builds))
    res = prolong.transport(spec, tractor_connection, p0, p1, v0, rtol=rtol,
                            atol=1e-2 * rtol, refine=False)
    assert np.array_equal(res.end, ref.y[:, -1])
    assert res.nfev == ref.nfev
    _assert_one_batch_per_attempt([len(points) for _, _, points in builds], ref.nfev)


def test_non_finite_stage_fails_at_once(monkeypatch):
    # past the middle of the segment the connection is NaN; the integrator
    # stops at the first build whose batch holds such a point instead of
    # shrinking h to its floor
    spec, p0, p1, v0 = _tractor_segment("generic_bump4", 1)
    middle = p0 + 0.5 * (p1 - p0)
    theta = prolong._theta_values
    poisoned_builds = []  # one flag per point of each build

    def poisoned(spec, builder, points):
        th = theta(spec, builder, points)
        poisoned_builds.append(np.dot(np.subtract(points, middle), p1 - p0) > 0)
        return np.where(poisoned_builds[-1][:, None, None, None], np.nan, th)

    monkeypatch.setattr(prolong, "_theta_values", poisoned)
    with pytest.raises(prolong.CertificationError,
                       match="integrator failed: non-finite right-hand side at t="):
        prolong.transport(spec, tractor_connection, p0, p1, v0, rtol=1e-9, atol=1e-11)
    # scipy's RK45 spends about 500 builds here shrinking h down to 10 ulp
    assert poisoned_builds[-1].any() and not any(f.any() for f in poisoned_builds[:-1])


@pytest.mark.parametrize("stages", [[2], [1, 3], [4], [0, 1, 2, 3, 4]])
def test_first_non_finite_stage_of_a_batch_is_reported(stages):
    # the stages of an attempt are evaluated in order after their one build:
    # the error names the time of the first poisoned stage
    calls = []

    def matrices_at(ts):
        calls.append(ts)
        ms = [_linear(t) for t in ts]
        if len(calls) == 4:  # the second step attempt
            for i in stages:
                ms[i] = np.full((2, 2), np.nan)
        return ms

    with pytest.raises(prolong.CertificationError,
                       match="integrator failed: non-finite right-hand side at t=") as err:
        prolong._dopri45(matrices_at, 0.0, 2.0, np.array([1.0, 0.5]), 1e-9, 1e-11)
    assert len(calls) == 4
    assert str(err.value).endswith(f"t={float(calls[-1][stages[0]])!r}")
