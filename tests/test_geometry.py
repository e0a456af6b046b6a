"""Riemannian engine oracles.

Frozen expectations used here come from textbook closed forms derived by
hand, independent of the module under test: constant-curvature model spaces
(R_abcd = k(g_ac g_bd - g_ad g_bc)), round-sphere Christoffel symbols,
Ricci-flatness of the vacuum black-hole metric together with its Kretschmann
scalar 48 m^2 / r^6, and the Ricci commutator identity.  The symmetries of
the curvature tensors and metric compatibility are checked on every catalog
metric, and a symbolic computation with sympy, which shares no code with the
jet engine, pins Riemann, Ricci, scalar and Schouten on a generic metric.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from detourcert import catalog, detour, dsl, geometry, jets, prolong, tractor
from detourcert.connections import covector_connection, killing_connection, tractor_connection
from detourcert.dsl import MetricValidationError, parse_expression, parse_metric_text
from detourcert.geometry import (
    Geometry,
    SingularMetricError,
    conformal_rescale,
    curvature_form,
    invert_jet_matrix,
    truncate_array,
    value_array,
)

FLAT4 = parse_metric_text(
    'dimension = 4\nsignature = "++++"\ncoords = x1 x2 x3 x4\n'
    'g[1][1] = "1"\ng[2][2] = "1"\ng[3][3] = "1"\ng[4][4] = "1"\n',
    label="flat4",
)

SPHERE3 = parse_metric_text(
    'dimension = 3\nsignature = "+++"\ncoords = p1 p2 p3\n'
    'g[1][1] = "1"\ng[2][2] = "sin(p1)^2"\ng[3][3] = "sin(p1)^2 * sin(p2)^2"\n',
    label="sphere3",
)

SPHERE4 = parse_metric_text(
    'dimension = 4\nsignature = "++++"\ncoords = p1 p2 p3 p4\n'
    'g[1][1] = "1"\ng[2][2] = "sin(p1)^2"\ng[3][3] = "sin(p1)^2 * sin(p2)^2"\n'
    'g[4][4] = "sin(p1)^2 * sin(p2)^2 * sin(p3)^2"\n',
    label="sphere4",
)

HYPERBOLIC4 = parse_metric_text(
    'dimension = 4\nsignature = "++++"\ncoords = x y z w\n'
    'g[1][1] = "1/w^2"\ng[2][2] = "1/w^2"\ng[3][3] = "1/w^2"\ng[4][4] = "1/w^2"\n',
    label="hyperbolic4",
)

SCHWARZSCHILD = parse_metric_text(
    'dimension = 4\nsignature = "-+++"\ncoords = t r th ph\n'
    'g[1][1] = "-(1 - 2/r)"\ng[2][2] = "1/(1 - 2/r)"\ng[3][3] = "r^2"\n'
    'g[4][4] = "r^2 * sin(th)^2"\n',
    label="schwarzschild",
)

BUMP4 = parse_metric_text(
    'dimension = 4\nsignature = "++++"\ncoords = x1 x2 x3 x4\n'
    'g[1][1] = "1 + 0.05 * x2^2 * x3^2"\n'
    'g[2][2] = "1 + 0.05 * x3^2 * x4^2"\n'
    'g[3][3] = "1 + 0.05 * x1^2 * x4^2"\n'
    'g[4][4] = "1 + 0.05 * x1^2 * x2^2"\n'
    'g[1][2] = "0.05 * x3 * x4"\ng[3][4] = "0.05 * x1 * x2 * x3"\n',
    label="bump4",
)

P_SPHERE4 = (0.8, 1.1, 0.9, 2.0)
P_HYP = (0.2, -0.3, 0.5, 1.3)
P_SCHW = (0.0, 5.0, 1.2, 0.3)
P_BUMP = (0.3, -0.4, 0.25, 0.5)


def maxabs(arr) -> float:
    return float(np.max(np.abs(np.asarray(arr, dtype=float))))


def pack_values(spec, point, order=4):
    """Values of the curvature chain at one point."""
    geom = Geometry(spec, point, order)
    stages = ("riemann", "riemann_down", "ricci", "schouten", "weyl", "cotton", "bach")
    return SimpleNamespace(scalar=geom.scalar.value, jtrace=geom.jtrace.value,
                           **{s: value_array(getattr(geom, s)) for s in stages})


# ---------------------------------------------------------------------------


def test_flat_metric_is_inert():
    geom = Geometry(FLAT4, (0.1, 0.2, -0.3, 0.4), order=4)
    assert maxabs([j.coeffs for j in geom.gamma.flat]) == 0.0
    pack = pack_values(FLAT4, (0.1, 0.2, -0.3, 0.4))
    assert maxabs(pack.riemann) == 0.0
    assert pack.scalar == 0.0
    assert maxabs(pack.bach) == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 5), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_constant_metrics_give_exactly_zero_christoffel_and_riemann(n, order, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    vals = a @ a.T + n * np.eye(n)
    g = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            g[i, j] = jets.Jet.constant(vals[i, j], n, order)
    for metric in (g, jets.to_dense(g)):  # either layout
        geom = Geometry(metric_jets=metric, order=order)
        assert geom.jet_dim == n
        for stage in ("gamma", "riemann"):
            assert not np.any(jets.to_dense(getattr(geom, stage)))
            assert not np.any(geom.dense(stage))


def test_sphere3_christoffel_frozen_values():
    # round 3-sphere at p1 = pi/3: Gamma^1_22 = -sin cos = -sqrt(3)/4,
    # Gamma^2_12 = cot(pi/3) = 1/sqrt(3)
    vals = value_array(Geometry(SPHERE3, (math.pi / 3, 1.0, 0.5), order=3).gamma)
    assert vals[0, 1, 1] == pytest.approx(-math.sqrt(3) / 4, abs=1e-13)
    assert vals[1, 0, 1] == pytest.approx(1 / math.sqrt(3), abs=1e-13)
    assert vals[1, 1, 0] == pytest.approx(1 / math.sqrt(3), abs=1e-13)
    assert vals[0, 0, 0] == 0.0


def constant_curvature_residual(pack, g, k):
    n = g.shape[0]
    want = np.zeros((n, n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    want[a, b, c, d] = k * (g[a, c] * g[b, d] - g[a, d] * g[b, c])
    # storage is R_ab^c_d lowered to R_abcd with the pair (ab) first
    return maxabs(pack.riemann_down - want.transpose(0, 1, 2, 3))


def test_unit_sphere4_curvature():
    g = SPHERE4.metric_values(P_SPHERE4)
    pack = pack_values(SPHERE4, P_SPHERE4)
    assert constant_curvature_residual(pack, g, 1.0) < 1e-10
    assert maxabs(pack.ricci - 3.0 * g) < 1e-10
    assert pack.scalar == pytest.approx(12.0, abs=1e-10)
    assert pack.jtrace == pytest.approx(2.0, abs=1e-11)
    assert maxabs(pack.schouten - 0.5 * g) < 1e-11
    assert maxabs(pack.weyl) < 1e-10
    assert maxabs(pack.cotton) < 1e-10
    assert maxabs(pack.bach) < 1e-9


def test_hyperbolic4_flips_every_sign():
    g = HYPERBOLIC4.metric_values(P_HYP)
    pack = pack_values(HYPERBOLIC4, P_HYP)
    assert constant_curvature_residual(pack, g, -1.0) < 1e-10
    assert maxabs(pack.ricci + 3.0 * g) < 1e-10
    assert pack.scalar == pytest.approx(-12.0, abs=1e-9)
    assert pack.jtrace == pytest.approx(-2.0, abs=1e-10)
    assert maxabs(pack.schouten + 0.5 * g) < 1e-10
    assert maxabs(pack.weyl) < 1e-9
    assert maxabs(pack.bach) < 1e-9


def test_schwarzschild_vacuum_and_kretschmann():
    pack = pack_values(SCHWARZSCHILD, P_SCHW)
    assert maxabs(pack.ricci) < 1e-11
    assert abs(pack.scalar) < 1e-11
    assert maxabs(pack.schouten) < 1e-11
    assert maxabs(pack.cotton) < 1e-10
    assert maxabs(pack.weyl) > 1e-3  # genuinely curved
    # Kretschmann scalar 48 m^2 / r^6 with m = 1, r = 5
    ginv = np.linalg.inv(SCHWARZSCHILD.metric_values(P_SCHW))
    rd = pack.riemann_down
    k = np.einsum("abcd,ai,bj,ck,dl,ijkl->", rd, ginv, ginv, ginv, ginv, rd)
    assert k == pytest.approx(48.0 / 5.0**6, rel=1e-9)
    assert maxabs(pack.bach) < 1e-9


def test_pack_invariants_on_generic_metric():
    pack = pack_values(BUMP4, P_BUMP, order=4)
    n = 4
    rd = pack.riemann_down
    assert maxabs(rd + rd.transpose(1, 0, 2, 3)) < 1e-10
    assert maxabs(rd + rd.transpose(0, 1, 3, 2)) < 1e-10
    assert maxabs(rd - rd.transpose(2, 3, 0, 1)) < 1e-10
    # first Bianchi
    bianchi = rd + np.transpose(rd, (1, 2, 0, 3)) + np.transpose(rd, (2, 0, 1, 3))
    assert maxabs(bianchi) < 1e-10
    g = BUMP4.metric_values(P_BUMP)
    ginv = np.linalg.inv(g)
    # decomposition of the curvature into weyl + schouten wedge
    want = np.zeros((n, n, n, n))
    P = pack.schouten
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    want[a, b, c, d] = (
                        g[c, a] * P[b, d] - g[c, b] * P[a, d]
                        + g[d, b] * P[a, c] - g[d, a] * P[b, c]
                    )
    assert maxabs(rd - pack.weyl - want) < 1e-10
    # weyl is trace-free on every index pair
    assert maxabs(np.einsum("ac,abcd->bd", ginv, pack.weyl)) < 1e-10
    assert maxabs(np.einsum("bd,abcd->ac", ginv, pack.weyl)) < 1e-10
    assert maxabs(np.einsum("ab,abcd->cd", ginv, pack.weyl)) < 1e-12
    # cotton antisymmetry and trace conditions
    A = pack.cotton
    assert maxabs(A + A.transpose(0, 2, 1)) < 1e-12
    assert maxabs(np.einsum("ab,abc->c", ginv, A)) < 1e-10
    # bach symmetric trace-free
    B = pack.bach
    assert maxabs(B - B.T) < 1e-9
    assert abs(np.einsum("ab,ab->", ginv, B)) < 1e-9
    assert maxabs(B) > 1e-4  # the bump really bends it


def covd(geom, comps, variances):
    """Geometry.covd_array of a tensor of jets, viewed as jets."""
    x = geom.covd_array(jets.to_dense(comps), variances)
    return jets.to_jets(x, geom.jet_dim)


def test_ricci_identity_on_random_vector():
    rng = np.random.default_rng(3)
    order = 4
    geom = Geometry(BUMP4, P_BUMP, order=order)
    n = 4
    comps = np.empty(n, dtype=object)
    for i in range(n):
        comps[i] = jets.from_coeffs(
            {a: rng.uniform(-1, 1) for a in jets.multi_indices(n, order)}, n, order
        )
    ddv = covd(geom, covd(geom, comps, ("u",)), ("d", "u"))
    rie = geom.riemann  # R_ab^c_d jets
    worst = 0.0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                comm = ddv[a, b, c] - ddv[b, a, c]
                expect = jets.constant(0.0, n, comm.order)
                for d in range(n):
                    expect = expect + rie[a, b, c, d].truncated(comm.order) * comps[d].truncated(comm.order)
                worst = max(worst, np.max(np.abs((comm - expect).coeffs)))
    assert worst < 1e-10


def test_metric_compatibility_and_torsion_free():
    geom = Geometry(BUMP4, P_BUMP, order=3)
    nabla_g = covd(geom, geom.g, ("d", "d"))
    assert max(np.max(np.abs(j.coeffs)) for j in nabla_g.flat) < 1e-12
    f = jets.from_coeffs(
        {a: 0.3 for a in jets.multi_indices(4, 3)}, 4, 3
    )
    hess = covd(geom, covd(geom, np.asarray(f, dtype=object), ()), ("d",))
    asym = [
        np.max(np.abs((hess[a, b] - hess[b, a]).coeffs))
        for a in range(4)
        for b in range(4)
    ]
    assert max(asym) < 1e-12


def test_covariant_derivative_leibniz():
    rng = np.random.default_rng(11)
    order = 3
    geom = Geometry(SPHERE4, P_SPHERE4, order=order)
    n = 4
    f = jets.from_coeffs({a: rng.uniform(-1, 1) for a in jets.multi_indices(n, order)}, n, order)
    vc = np.empty(n, dtype=object)
    for i in range(n):
        vc[i] = jets.from_coeffs({a: rng.uniform(-1, 1) for a in jets.multi_indices(n, order)}, n, order)
    fv = np.array([f * vc[i] for i in range(n)], dtype=object)
    lhs = covd(geom, fv, ("u",))
    dv = covd(geom, vc, ("u",))
    worst = 0.0
    for a in range(n):
        for c in range(n):
            rhs = f.partial(a) * vc[c].truncated(order - 1) + f.truncated(order - 1) * dv[a, c]
            worst = max(worst, np.max(np.abs((lhs[a, c] - rhs).coeffs)))
    assert worst < 1e-11


def test_conformal_rescale_weyl_law():
    omega = parse_expression("0.1 * (t + r/10) - 0.05 * th")
    rescaled = conformal_rescale(SCHWARZSCHILD, omega)
    w = 0.1 * (P_SCHW[0] + P_SCHW[1] / 10) - 0.05 * P_SCHW[2]
    g_hat = rescaled.metric_values(P_SCHW)
    assert np.allclose(g_hat, math.exp(2 * w) * SCHWARZSCHILD.metric_values(P_SCHW), rtol=1e-13)
    pack = pack_values(SCHWARZSCHILD, P_SCHW)
    pack_hat = pack_values(rescaled, P_SCHW)
    assert maxabs(pack_hat.weyl - math.exp(2 * w) * pack.weyl) < 1e-8
    # omega as text and as a parsed program give the same spec
    assert conformal_rescale(SCHWARZSCHILD, "0.1 * (t + r/10) - 0.05 * th") == rescaled
    # scale survives a round trip through text
    again = parse_metric_text(rescaled.to_text(), label=rescaled.label)
    assert np.allclose(again.metric_values(P_SCHW), g_hat, rtol=1e-13)


def test_conformal_rescale_rejects_stray_names():
    for omega in ("q + r", parse_expression("q + r")):
        with pytest.raises(MetricValidationError, match="'q'"):
            conformal_rescale(SCHWARZSCHILD, omega)


def test_conformal_rescale_composes_steps_that_have_no_text():
    # a spec built from explicit steps with a negative power rescales, though it
    # does not print: the grammar writes no negative exponent
    x, inverse = dsl.Step("var", "x"), dsl.Step("pow", -1.0, (0,))
    spec = dsl.MetricSpec(2, (1, 1), ("x", "y"), {(0, 0): parse_expression("1 + y^2"),
                                                  (1, 1): (x, inverse)})
    rescaled = conformal_rescale(spec, "0.5 * x")
    point = (0.4, -0.3)
    assert np.allclose(rescaled.metric_values(point),
                       math.exp(0.4) * spec.metric_values(point), rtol=1e-15)
    for unprintable in (spec, rescaled):
        with pytest.raises(ValueError, match="cannot print Step\\(kind='pow', value=-1.0"):
            unprintable.to_text()


@pytest.mark.parametrize("name", catalog.names())
def test_conformal_rescale_gives_the_program_of_the_rescaled_text(name):
    spec = catalog.get(name).spec()
    omega = f"0.1 * {spec.coords[0]} - 2 * exp({spec.coords[-1]})"
    rescaled = conformal_rescale(spec, omega)
    for key, steps in spec.components.items():
        text = f"exp(2 * ({omega})) * ({dsl.expression_to_text(steps)})"
        assert rescaled.components[key] == parse_expression(text), (key, text)


def test_singular_metric_raises():
    degenerate = parse_metric_text(
        'dimension = 3\nsignature = "+++"\ncoords = x y z\n'
        'g[1][1] = "1"\ng[2][2] = "x"\ng[3][3] = "1"\n'
    )
    with pytest.raises(SingularMetricError):
        Geometry(degenerate, (0.0, 0.0, 0.0), order=2)


def ref_invert_jet_matrix(g: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse of a square object matrix of jets, in jet arithmetic."""
    n = g.shape[0]
    a = [[g[i, j] for j in range(n)] for i in range(n)]
    sample = g[0, 0]
    eye = [[jets.Jet.constant(1.0 if i == j else 0.0, sample.dim, sample.order)
            for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col].value))
        a[col], a[pivot_row] = a[pivot_row], a[col]
        eye[col], eye[pivot_row] = eye[pivot_row], eye[col]
        inv_piv = 1.0 / a[col][col]
        a[col] = [x * inv_piv for x in a[col]]
        eye[col] = [x * inv_piv for x in eye[col]]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                eye[r] = [x - f * y for x, y in zip(eye[r], eye[col])]
    return np.array(eye, dtype=object)


@pytest.mark.parametrize("n", [3, 4, 5])
@settings(max_examples=12, deadline=None)
@given(st.integers(0, 8), st.integers(1, 2), st.integers(0, 2**32 - 1))
@example(order=0, negatives=1, seed=0)
@example(order=8, negatives=2, seed=1)
def test_dense_inverse_matches_jet_gauss_jordan(n, order, negatives, seed):
    # symmetric jet matrices whose values have `negatives` negative eigenvalues
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    signs = np.where(np.arange(n) < negatives, -1.0, 1.0)
    g = 0.3 * rng.standard_normal((n, n, jets._size(n, order)))
    g = g + g.transpose(1, 0, 2)
    g[..., 0] = q @ np.diag(signs * rng.uniform(0.5, 2.0, n)) @ q.T
    inv = invert_jet_matrix(g, n)
    ref = jets.to_dense(ref_invert_jet_matrix(jets.to_jets(g, n)))
    assert inv.shape == g.shape
    assert maxabs(inv - ref) < 1e-10 * (1.0 + maxabs(ref))
    eye = jets.contract(g, inv, n)
    eye[..., 0] -= np.eye(n)
    assert maxabs(eye) < 1e-10 * (1.0 + maxabs(inv))


def test_tiny_pivot_raises_and_zero_diagonal_pivots():
    # a diagonal value of 1e-13 is below the pivot floor although it is not zero
    g = np.zeros((3, 3, jets._size(3, 2)))
    g[..., 0] = np.diag([1.0, 1e-13, 1.0])
    with pytest.raises(SingularMetricError):
        invert_jet_matrix(g, 3)
    # a zero on the diagonal is not singular when a row below can pivot
    g[..., 0] = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]
    g[0, 1, 1] = g[1, 0, 1] = 0.5
    inv = invert_jet_matrix(g, 3)
    eye = jets.contract(g, inv, 3)
    eye[..., 0] -= np.eye(3)
    assert maxabs(eye) < 1e-15


def _ring_metric(geom):
    """The metric of g + eps K0(v) in the ring (jet_dim, 1) of jets."""
    n = geom.n
    v = np.zeros((n, jets._size(n, geom.order)))
    v[:, : jets._size(n, 3)] = np.random.default_rng(3).uniform(-1.0, 1.0, (n, jets._size(n, 3)))
    pg = detour.perturbed_geometry(geom, detour.op_K0(v, geom).comps)
    assert pg.jet_dim == (n, 1)
    return pg.dense("g"), pg.jet_dim


@pytest.mark.parametrize("name", catalog.names())
def test_degree_sweep_inverse_is_exact_in_every_coefficient(name):
    # g g^-1 = I in every coefficient at order 8, at the seed-0 sample point;
    # near the chart poles |g^-1| reaches 1e6, so the bound scales with
    # max |g| max |g^-1| (the largest one measured is 6e-11 absolute)
    entry = catalog.get(name)
    geom = entry.geometry(entry.sample_point(np.random.default_rng(0)), order=8)
    cases = [(geom.dense("g"), geom.jet_dim)] + ([_ring_metric(geom)] if geom.n == 4 else [])
    for g, dim in cases:
        inv = invert_jet_matrix(g, dim)
        eye = jets.contract(g, inv, dim)
        eye[..., 0] -= np.eye(geom.n)
        assert maxabs(eye) <= 1e-13 * maxabs(g) * maxabs(inv), (dim, maxabs(eye))


def test_degree_sweep_inverse_is_independent_of_chunking(monkeypatch):
    geom = Geometry(BUMP4, P_BUMP, order=8)
    cases = [(geom.dense("g"), 4), _ring_metric(geom)]
    whole = [invert_jet_matrix(g, dim) for g, dim in cases]
    monkeypatch.setattr(jets, "_CHUNK_BYTES", 600)
    for (g, dim), ref in zip(cases, whole):
        np.testing.assert_array_equal(invert_jet_matrix(g, dim), ref)


@pytest.mark.parametrize("dim", [3, (3, 1)])
def test_nan_top_coefficient_gives_nan_and_the_pivot_rule_holds(dim):
    rng = np.random.default_rng(7)
    g = 0.1 * rng.standard_normal((3, 3, jets._size(dim, 4)))
    g = g + g.transpose(1, 0, 2)
    g[..., 0] = np.diag([1.0, 2.0, 0.5])
    clean = invert_jet_matrix(g, dim)
    g[1, 2, -1] = np.nan
    inv = invert_jet_matrix(g, dim)
    assert np.isnan(inv[..., -1]).all()  # fails closed: no finite top coefficient
    np.testing.assert_array_equal(inv[..., :-1], clean[..., :-1])
    g[..., 0] = np.diag([1.0, 1e-13, 1.0])
    with pytest.raises(SingularMetricError):
        invert_jet_matrix(g, dim)


# -- a batch of points along the leading axis ---------------------------------

BATCHED = ("g", "ginv", "gamma", "riemann", "ricci", "scalar", "jtrace", "schouten")


def _assert_batch_equals_singles(batch, singles):
    for stage in BATCHED:
        for p, geom in enumerate(singles):
            np.testing.assert_array_equal(batch.dense(stage)[p], geom.dense(stage))
    for builder in (tractor_connection, killing_connection):
        theta = builder(batch).theta
        for p, geom in enumerate(singles):
            np.testing.assert_array_equal(theta[p], builder(geom).theta)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("name", catalog.names())
def test_a_batch_of_points_equals_one_geometry_per_point(name, order):
    entry = catalog.get(name)
    rng = np.random.default_rng(23)
    points = np.array([entry.sample_point(rng) for _ in range(3)])
    batch = Geometry(entry.spec(), points, order)
    assert batch.lead == (3,) and batch.point == tuple(map(tuple, points.tolist()))
    _assert_batch_equals_singles(batch, [Geometry(entry.spec(), p, order) for p in points])


def test_a_batch_in_the_ring_equals_one_geometry_per_point():
    points = [P_BUMP, (0.1, 0.2, -0.3, 0.4), (-0.2, 0.0, 0.1, 0.3)]
    metrics = [_ring_metric(Geometry(BUMP4, p, order=4))[0] for p in points]
    batch = Geometry(metric_jets=np.stack(metrics), order=4)
    assert batch.jet_dim == (4, 1)
    _assert_batch_equals_singles(batch, [Geometry(metric_jets=g, order=4) for g in metrics])


def test_a_batch_of_one_equals_the_unbatched_geometry():
    _assert_batch_equals_singles(Geometry(BUMP4, [P_BUMP], order=2), [Geometry(BUMP4, P_BUMP, 2)])
    one = prolong._theta_values(BUMP4, tractor_connection, np.array([P_BUMP]))
    np.testing.assert_array_equal(one[0], prolong._theta_values(BUMP4, tractor_connection, P_BUMP))


@pytest.mark.parametrize("stage", ["riemann_down", "schouten_up", "weyl", "cotton", "bach"])
def test_a_batch_refuses_the_stages_beyond_schouten(stage):
    batch = Geometry(BUMP4, [P_BUMP, P_BUMP], order=4)
    with pytest.raises(ValueError, match="batch of points"):
        batch.dense(stage)
    with pytest.raises(ValueError, match="batch of points"):
        getattr(batch, stage)


def test_a_batch_refuses_covariant_derivatives_traces_and_lowering():
    # covd_array and lower refuse a batch; trace takes it, bit for bit per point
    pts = [P_BUMP, (0.2, 0.1, -0.3, 0.4)]
    batch = Geometry(BUMP4, pts, order=4)
    x = batch.dense("schouten")
    for op in (lambda: batch.covd_array(x, ("d", "d")), lambda: batch.lower(x)):
        with pytest.raises(ValueError, match="batch of points"):
            op()
    tr = batch.trace(x)
    assert tr.shape == (2, x.shape[-1])
    for p, pt in enumerate(pts):
        np.testing.assert_array_equal(tr[p], Geometry(BUMP4, pt, order=4).trace(x[p]))


def test_a_batch_pivots_per_point():
    # a point that needs no row swap next to points that swap different rows
    rng = np.random.default_rng(13)
    g = 0.1 * rng.standard_normal((4, 3, 3, jets._size(3, 3)))
    g = g + g.swapaxes(1, 2)
    g[..., 0] = [np.diag([1.0, 2.0, 3.0]), [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]],
                 [[0.1, 0.0, 3.0], [0.0, 1.0, 0.0], [3.0, 0.0, 0.1]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]]]
    inv = invert_jet_matrix(g, 3)
    for p in range(4):
        np.testing.assert_array_equal(inv[p], invert_jet_matrix(g[p], 3))
        eye = jets.contract(g[p], inv[p], 3)
        eye[..., 0] -= np.eye(3)
        assert maxabs(eye) < 1e-13


def test_a_singular_point_in_a_batch_raises_under_the_per_point_pivot_rule():
    g = np.zeros((5, 3, 3, jets._size(3, 2)))
    g[..., 0] = np.eye(3)
    g[3, ..., 0] = np.diag([1.0, 1e-13, 1.0])  # below the floor at one point of five
    with pytest.raises(SingularMetricError):
        invert_jet_matrix(g, 3)
    # the floor is 1e-12 max(1, max |g_ij|) of each point: a pivot of 1e-10 passes
    # at a point of scale 1 next to a point of scale 1e3, and fails at the latter
    g[3, ..., 0] = np.diag([1.0, 1e-10, 1.0])
    g[1, ..., 0] = np.diag([1e3, 1.0, 1.0])
    inv = invert_jet_matrix(g, 3)
    for p in range(5):
        np.testing.assert_array_equal(inv[p], invert_jet_matrix(g[p], 3))
    g[1, ..., 0] = np.diag([1e3, 1e-10, 1.0])
    with pytest.raises(SingularMetricError):
        invert_jet_matrix(g, 3)
    degenerate = parse_metric_text(
        'dimension = 3\nsignature = "+++"\ncoords = x y z\n'
        'g[1][1] = "1"\ng[2][2] = "x"\ng[3][3] = "1"\n'
    )
    points = [(0.5, 0.0, 0.0), (1.0, 0.2, 0.0), (0.0, 0.0, 0.0), (2.0, 0.0, 1.0)]
    with pytest.raises(SingularMetricError):
        Geometry(degenerate, points, order=2)
    Geometry(degenerate, points[:2] + points[3:], order=2)


def test_geometry_rejects_bad_order_and_point():
    with pytest.raises(ValueError):
        Geometry(SPHERE4, P_SPHERE4, order=-1)
    with pytest.raises(ValueError):
        Geometry(SPHERE4, (0.1, 0.2), order=3)
    with pytest.raises(ValueError):
        Geometry(SPHERE4, P_SPHERE4, order=3).bach  # bach needs 4 derivatives
    with pytest.raises(ValueError):
        Geometry(metric_jets=np.ones((4, 4, 7)), order=2)  # 7 coefficients fit no order-2 jet


@pytest.mark.parametrize("order", [4.9, 2.5, 3.0000001, None, "4"])
def test_geometry_rejects_a_non_integral_order(order):
    # int(4.9) would silently build order 4
    with pytest.raises(ValueError, match="bad jet order"):
        Geometry(BUMP4, P_BUMP, order=order)


@pytest.mark.parametrize("order", [np.int64(3), np.int32(2), 3])
def test_geometry_accepts_integer_orders(order):
    geom = Geometry(BUMP4, P_BUMP, order=order)
    assert geom.order == order and type(geom.order) is int


STAGES = tuple(name for name, attr in vars(Geometry).items() if isinstance(attr, cached_property))


def test_the_stage_table_lists_exactly_the_stages():
    # a new stage cannot skip its row: its top order and formation policy live there
    assert set(Geometry._STAGES) == {name for name, attr in vars(Geometry).items()
                                     if isinstance(attr, geometry._stage)}
    assert set(Geometry._STAGES) == set(STAGES)


def test_stage_views_equal_the_dense_arrays():
    geom = Geometry(BUMP4, P_BUMP, order=4)
    assert len(STAGES) == 13
    for stage in STAGES:
        view = getattr(geom, stage)
        coeffs = view.coeffs if isinstance(view, jets.Jet) else jets.to_dense(view)
        assert np.array_equal(coeffs, geom.dense(stage)), stage
    assert isinstance(geom.scalar, jets.Jet) and isinstance(geom.jtrace, jets.Jet)
    assert geom.riemann is geom.riemann


@pytest.mark.parametrize("first", ["view", "dense"])
def test_each_stage_is_computed_once(monkeypatch, first):
    calls = dict.fromkeys(STAGES, 0)
    for stage in STAGES:
        orig = vars(Geometry)[stage]

        def counted(self, *order, stage=stage, func=orig.func):
            calls[stage] += 1
            return func(self, *order)

        patched = type(orig)(counted)
        patched.__set_name__(Geometry, stage)
        monkeypatch.setattr(Geometry, stage, patched)
    geom = Geometry(BUMP4, P_BUMP, order=4)
    if first == "dense":
        for stage in STAGES:
            geom.dense(stage)
        assert not set(STAGES) & set(vars(geom))  # no view built yet
    for stage in STAGES:
        getattr(geom, stage)
        geom.dense(stage)
    # the inverse twice: its values in the constructor, its higher degrees when read;
    # the metric never: the constructor keeps its dense array
    assert calls == {**dict.fromkeys(STAGES, 1), "ginv": 2, "g": 0}


@pytest.mark.parametrize("stage", STAGES)
def test_an_order_above_the_stage_is_rejected(stage):
    geom = Geometry(BUMP4, P_BUMP, order=4)
    held = jets.order_of(4, geom.dense(stage).shape[-1])
    assert geom.dense(stage, held).shape == geom.dense(stage).shape
    with pytest.raises(ValueError, match=f"{stage} has jet order {held}, not {held + 2}"):
        geom.dense(stage, held + 2)


@pytest.mark.parametrize("stage", STAGES)
def test_a_stage_refuses_an_order_outside_its_range_before_forming_anything(stage):
    # k = -1, k = top + 1, and any k on a geometry whose order is below the
    # stage's drop (top < 0) raise the one message of dense, and no stage is
    # formed or swept on the way
    drop = Geometry._STAGES[stage][0]
    geom = Geometry(BUMP4, P_BUMP, order=4)
    cases = [(geom, 4 - drop, -1), (geom, 4 - drop, 5 - drop)]
    for order in range(drop):
        low = Geometry(BUMP4, P_BUMP, order=order)
        cases += [(low, order - drop, None), (low, order - drop, 0), (low, order - drop, -1)]
    for g, top, k in cases:
        held, formed = {s: x.copy() for s, x in g._dense.items()}, dict(g._formed)
        want = f"^{stage} has jet order {top}, not {top if k is None else k}$"
        with pytest.raises(ValueError, match=want):
            g.dense(stage, k)
        if k is None:
            with pytest.raises(ValueError, match=want):
                getattr(g, stage)
        assert g._formed == formed and g._dense.keys() == held.keys(), (stage, top, k)
        assert all(np.array_equal(g._dense[s], x) for s, x in held.items()), (stage, top, k)


def test_each_reader_refuses_an_order_its_geometry_does_not_hold():
    geom = Geometry(BUMP4, P_BUMP, order=4)
    with pytest.raises(ValueError, match="gamma has jet order 3, not 4"):
        covector_connection(geom, geom.order)
    with pytest.raises(ValueError, match="schouten has jet order 2, not 3"):
        tractor.connection_matrices(geom, geom.order - 1)
    with pytest.raises(ValueError, match="bach has jet order 0, not -1"):
        detour.einstein_detour_expected(np.ones(jets._size(4, 4)), geom)
    with pytest.raises(ValueError, match="gamma has jet order 3, not 4"):
        geom.covd_array(np.ones((4, jets._size(4, 5))), ("d",))  # jets one order above K
    with pytest.raises(ValueError, match="cotton has jet order -1, not -1"):
        tractor.tractor_curvature(Geometry(BUMP4, P_BUMP, order=2))  # Cotton at K-3
    for order in (2, 3):  # its derivative at K-4 reads Cotton at order 1
        with pytest.raises(ValueError, match=f"cotton has jet order {order - 3}, not 1"):
            tractor.curvature_divergence(Geometry(BUMP4, P_BUMP, order=order))


@pytest.mark.parametrize("ring", [False, True])
def test_the_inverse_is_formed_degree_by_degree_as_it_is_read(monkeypatch, ring):
    # dense("ginv", k) for k rising from 0 to K equals the one-shot inverse bit for
    # bit, and each degree is swept once, when the first reader asks for it
    order = 6
    g = _ring_metric(Geometry(BUMP4, P_BUMP, order))[0] if ring else Geometry(BUMP4, P_BUMP, order).g
    whole = invert_jet_matrix(jets.as_dense(g), (4, 1) if ring else 4)
    swept, pair_sums = [], jets._pair_sums

    def recording(x, y, dim, k, c0, c1):
        swept.append((c0, c1))
        return pair_sums(x, y, dim, k, c0, c1)

    monkeypatch.setattr(jets, "_pair_sums", recording)
    geom = Geometry(metric_jets=g, order=order)
    assert swept == [] and not geom.dense("ginv", 0)[..., 1:].any()
    for k in [*range(order + 1), 3, 0]:
        np.testing.assert_array_equal(geom.dense("ginv", k), whole[..., : jets._size(geom.jet_dim, k)])
    assert swept == [(jets._size(geom.jet_dim, d - 1), jets._size(geom.jet_dim, d))
                     for d in range(1, order + 1)]
    np.testing.assert_array_equal(geom.dense("ginv"), whole)
    np.testing.assert_array_equal(jets.to_dense(geom.ginv), whole)
    assert len(swept) == order


def test_a_transport_right_hand_side_leaves_the_top_degree_of_the_inverse_unformed():
    # the order-2 chain reads g^-1 to degree 1 (Gamma); no reader asks for degree 2
    geom = Geometry(BUMP4, [P_BUMP, P_BUMP], order=2)
    tractor_connection(geom)
    assert geom._formed["ginv"] == 1
    assert not geom._dense["ginv"][..., jets._size(4, 1) :].any()


def test_transport_right_hand_side_builds_no_jets_beyond_the_metric(monkeypatch):
    # one right-hand side of the tractor transport reads dense arrays only:
    # the jets it creates are those of evaluating the metric text
    spec = catalog.get("generic_bump4").spec()
    point = (0.1, -0.2, 0.3, 0.05)
    made, init = [0], jets.Jet.__init__

    def counting(self, *args):
        made[0] += 1
        init(self, *args)

    monkeypatch.setattr(jets.Jet, "__init__", counting)
    spec.metric_jets(point, 2)
    metric_only, made[0] = made[0], 0
    theta = prolong._theta_values(spec, tractor_connection, point)
    assert theta.shape == (4, 6, 6)
    assert 0 < made[0] <= metric_only


@pytest.mark.parametrize("name", catalog.names())
def test_curvature_symmetries_and_metric_compatibility(name):
    # every jet coefficient, not only the value at the point
    entry = catalog.get(name)
    geom = entry.geometry(entry.sample_point(np.random.default_rng(19)), order=4)
    rd = jets.to_dense(geom.riemann_down)  # R_abcd
    ric = jets.to_dense(geom.ricci)
    tol = 1e-10 * (1.0 + maxabs(rd))
    assert maxabs(rd + rd.transpose(1, 0, 2, 3, 4)) < tol
    assert maxabs(rd + rd.transpose(0, 1, 3, 2, 4)) < tol
    assert maxabs(rd - rd.transpose(2, 3, 0, 1, 4)) < tol
    assert maxabs(ric - ric.transpose(1, 0, 2)) < tol
    g = geom.dense("g")
    assert maxabs(geom.covd_array(g, ("d", "d"))) < 1e-12 * (1.0 + maxabs(g))


def test_curvature_chain_matches_symbolic_oracle():
    # Riemann, Ricci, scalar and Schouten of generic_bump3 at a rational
    # point, computed by sympy from the metric text in exact arithmetic
    sp = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import (convert_xor, parse_expr, rationalize,
                                            standard_transformations)

    entry = catalog.get("generic_bump3")
    spec = entry.spec()
    n = spec.dim
    xs = sp.symbols(spec.coords)
    names = dict(zip(spec.coords, xs))
    g = sp.zeros(n, n)
    for line in entry.text.splitlines():
        if line.startswith("g["):
            i, j = int(line[2]) - 1, int(line[5]) - 1
            expr = line.split("=", 1)[1].strip().strip('"')
            g[i, j] = g[j, i] = parse_expr(expr, local_dict=names, transformations=(
                standard_transformations + (convert_xor, rationalize)))
    point = (Fraction(1, 5), Fraction(-3, 10), Fraction(1, 8))
    at = dict(zip(xs, (sp.Rational(p.numerator, p.denominator) for p in point)))
    ginv = g.adjugate() / g.det()
    gam = [[[sum(ginv[c, d] * (sp.diff(g[d, b], xs[a]) + sp.diff(g[d, a], xs[b])
                               - sp.diff(g[a, b], xs[d])) for d in range(n)) / 2
             for b in range(n)] for a in range(n)] for c in range(n)]
    gam0 = [[[gam[c][a][b].subs(at) for b in range(n)] for a in range(n)] for c in range(n)]
    dgam0 = [[[[sp.diff(gam[c][a][b], xs[e]).subs(at) for b in range(n)] for a in range(n)]
              for c in range(n)] for e in range(n)]
    riem = np.empty((n, n, n, n), dtype=object)  # R_ab^c_d
    for a, b, c, d in np.ndindex(n, n, n, n):
        riem[a, b, c, d] = (dgam0[a][c][b][d] - dgam0[b][c][a][d]
                            + sum(gam0[c][a][e] * gam0[e][b][d] - gam0[c][b][e] * gam0[e][a][d]
                                  for e in range(n)))
    ric = np.array([[sum(riem[a, b, a, d] for a in range(n)) for d in range(n)]
                    for b in range(n)], dtype=object)
    g0, ginv0 = g.subs(at), ginv.subs(at)
    scal = sum(ginv0[b, d] * ric[b, d] for b in range(n) for d in range(n))
    sch = np.array([[(ric[a, b] - scal / (2 * (n - 1)) * g0[a, b]) / (n - 2) for b in range(n)]
                    for a in range(n)], dtype=object)

    geom = Geometry(spec, tuple(float(p) for p in point), order=2)
    for got, want in ((geom.riemann, riem), (geom.ricci, ric), (geom.schouten, sch)):
        assert maxabs(value_array(got) - np.asarray(want, dtype=float)) < 1e-14
    assert abs(geom.scalar.value - float(scal)) < 1e-14


# -- one curvature formula -----------------------------------------------------


def ref_riemann(geom):
    """Riemann from the Christoffel symbols in place: d_a Gam^c_bd + Gam^c_ae Gam^e_bd
    laid out [a, c, b, d], minus its (a, b) transpose, the sum order curvature_form keeps."""
    n, lead, dim = geom.n, geom.lead, geom.jet_dim
    gam = geom.dense("gamma")
    low = gam[..., : jets._size(dim, geom.order - 2)]
    half = jets.partials(gam, dim, n, len(lead))
    half += jets.contract(low.swapaxes(-4, -3).reshape(lead + (n * n, n, -1)),
                          low.reshape(lead + (n, n * n, -1)), dim).reshape(lead + (n,) * 4 + (-1,))
    half = half.swapaxes(-4, -3)
    return half - half.swapaxes(-5, -4)


@pytest.mark.parametrize("name", catalog.names())
def test_riemann_is_the_curvature_form_of_gamma_bit_for_bit(name):
    entry = catalog.get(name)
    points = np.array([entry.sample_point(np.random.default_rng(s)) for s in (1, 2)])
    for geom in (entry.geometry(entry.sample_point(np.random.default_rng(0)), order=5),
                 Geometry(entry.spec(), points, order=5)):
        want = ref_riemann(geom)
        np.testing.assert_array_equal(geom.dense("riemann"), want)
        theta = geom.dense("gamma").swapaxes(-4, -3)  # Theta_b[c, d] = Gam^c_bd
        np.testing.assert_array_equal(curvature_form(theta, geom.jet_dim), want)


def test_truncate_array_refuses_an_order_above_its_jets():
    riem = Geometry(BUMP4, P_BUMP, order=5).riemann  # order-3 jets
    assert truncate_array(riem, 3)[0, 1, 2, 3].order == 3
    assert truncate_array(riem, 1)[0, 1, 2, 3].order == 1
    for order in (4, 5):
        with pytest.raises(ValueError, match="cannot truncate order 3"):
            truncate_array(riem, order)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("coeff", [0, 7])
def test_a_metric_with_a_non_finite_coefficient_is_refused_before_pivoting(monkeypatch, bad, coeff):
    g = Geometry(BUMP4, P_BUMP, order=3).dense("g").copy()
    g[1, 2, coeff] = g[2, 1, coeff] = bad

    def never(*args, **kw):
        raise AssertionError("pivoted a non-finite metric")

    monkeypatch.setattr(geometry, "invert_jet_matrix", never)
    with pytest.raises(ValueError, match="non-finite"):
        Geometry(metric_jets=g, order=3)

