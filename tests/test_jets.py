"""Tests for truncated multivariate Taylor (jet) arithmetic.

Expected values below are frozen from independent derivations: closed-form
Taylor coefficients worked by hand, central finite differences of closed-form
functions, and a dict-based truncated-polynomial oracle implemented here
without reference to the package internals.
"""
from __future__ import annotations

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detourcert import jets
from detourcert.jets import (
    Jet,
    SingularPointError,
    constant,
    variable,
    from_coeffs,
    multi_indices,
)


# ---------------------------------------------------------------------------
# independent truncated-polynomial oracle


class PolyOracle:
    """Truncated multivariate polynomial, dict keyed by exponent tuple."""

    def __init__(self, dim: int, order: int, terms=None):
        self.dim = dim
        self.order = order
        self.terms = dict(terms or {})

    def _clip(self):
        self.terms = {a: c for a, c in self.terms.items() if sum(a) <= self.order}
        return self

    def add(self, other):
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, 0.0) + c
        return PolyOracle(self.dim, self.order, out)._clip()

    def mul(self, other):
        out = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                g = tuple(x + y for x, y in zip(a, b))
                if sum(g) <= self.order:
                    out[g] = out.get(g, 0.0) + ca * cb
        return PolyOracle(self.dim, self.order, out)._clip()

    def div(self, other):
        # graded recursive solve of other * q = self
        zero = (0,) * self.dim
        b0 = other.terms.get(zero, 0.0)
        assert b0 != 0.0
        q = {}
        for gamma in sorted(multi_indices(self.dim, self.order), key=lambda a: (sum(a), a)):
            acc = self.terms.get(gamma, 0.0)
            for beta, qb in q.items():
                rest = tuple(g - b for g, b in zip(gamma, beta))
                if min(rest) < 0 or rest == zero and beta == gamma:
                    continue
                if beta != gamma:
                    acc -= other.terms.get(rest, 0.0) * qb
            q[gamma] = acc / b0
        return PolyOracle(self.dim, self.order, q)._clip()

    def coeff(self, alpha):
        return self.terms.get(tuple(alpha), 0.0)


def poly_to_jet(p: PolyOracle) -> Jet:
    return from_coeffs(p.terms, p.dim, p.order)


def jets_close(a: Jet, b: Jet, tol=1e-12):
    return np.allclose(a.coeffs, b.coeffs, rtol=tol, atol=tol)


# ---------------------------------------------------------------------------
# frozen single-variable oracles


def test_geometric_series_coefficients():
    # 1/(1-x) at 0, order 2: coefficients 1, 1, 1
    x = variable(0.0, 0, dim=1, order=2)
    j = 1.0 / (1.0 - x)
    assert np.allclose(j.coeffs, [1.0, 1.0, 1.0], atol=1e-14)


def test_exp_taylor_table():
    x = variable(0.0, 0, dim=1, order=3)
    j = jets.exp(x)
    assert np.allclose(j.coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0], atol=1e-15)


def test_sin_squared_at_half_pi():
    # sin(t)^2 at pi/2, order 2: value 1, slope 0, second Taylor coeff -1
    t = variable(math.pi / 2, 0, dim=1, order=2)
    j = jets.sin(t) * jets.sin(t)
    assert np.allclose(j.coeffs, [1.0, 0.0, -1.0], atol=1e-14)


def _derivative(f: Jet, *slots: int) -> float:
    """d/dx_{slots[0]} d/dx_{slots[1]} ... f at the base point, by repeated Jet.partial."""
    for slot in slots:
        f = f.partial(slot)
    return f.value


def test_derivative_unscales_factorial():
    x = variable(0.0, 0, dim=1, order=3)
    j = jets.exp(x)
    # third derivative of exp at 0 is 1; Taylor coefficient is 1/6
    assert j.coeffs[3] == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert _derivative(j, 0, 0, 0) == pytest.approx(1.0, abs=1e-15)
    t = variable(math.pi / 2, 0, dim=1, order=2)
    s2 = jets.sin(t) * jets.sin(t)
    assert _derivative(s2) == pytest.approx(1.0)
    assert _derivative(s2, 0, 0) == pytest.approx(-2.0, abs=1e-13)


def test_mixed_partial_factorials():
    # f = x * y^2: d^(1,2) f = 2 everywhere
    x = variable(0.5, 0, dim=2, order=3)
    y = variable(-1.25, 1, dim=2, order=3)
    f = x * y * y
    assert _derivative(f, 0, 1, 1) == pytest.approx(2.0, abs=1e-13)
    assert _derivative(f, 0, 1) == pytest.approx(2.0 * -1.25, abs=1e-13)


# ---------------------------------------------------------------------------
# finite-difference cross-checks (jet vs closed form vs central differences)


def _f(x, y):
    return math.exp(math.sin(x) * y) + math.log(2.0 + math.cos(y))


def _fx(x, y):
    return y * math.cos(x) * math.exp(math.sin(x) * y)


def _fy(x, y):
    return math.sin(x) * math.exp(math.sin(x) * y) - math.sin(y) / (2.0 + math.cos(y))


def _fxx(x, y):
    return math.exp(math.sin(x) * y) * ((y * math.cos(x)) ** 2 - y * math.sin(x))


def test_first_partials_match_closed_form_and_fd():
    x0, y0 = 0.3, -0.7
    x = variable(x0, 0, dim=2, order=3)
    y = variable(y0, 1, dim=2, order=3)
    f = jets.exp(jets.sin(x) * y) + jets.log(2.0 + jets.cos(y))

    assert f.value == pytest.approx(_f(x0, y0), abs=1e-14)
    assert _derivative(f, 0) == pytest.approx(_fx(x0, y0), abs=1e-13)
    assert _derivative(f, 1) == pytest.approx(_fy(x0, y0), abs=1e-13)
    assert _derivative(f, 0, 0) == pytest.approx(_fxx(x0, y0), abs=1e-12)

    # central differences at h = 1e-4 and 1e-5 with Richardson consistency:
    # the h=1e-4 error should shrink by about 100x at 1e-5 (first order deriv)
    for h, tol in ((1e-4, 5e-8), (1e-5, 5e-10)):
        fd = (_f(x0 + h, y0) - _f(x0 - h, y0)) / (2 * h)
        assert abs(fd - _derivative(f, 0)) < tol
    # second derivative FD is noisier; 1e-4 keeps truncation+roundoff ~1e-8
    h = 1e-4
    fd2 = (_f(x0 + h, y0) - 2 * _f(x0, y0) + _f(x0 - h, y0)) / h**2
    assert abs(fd2 - _derivative(f, 0, 0)) < 1e-6
    fdxy = (
        _f(x0 + h, y0 + h) - _f(x0 + h, y0 - h) - _f(x0 - h, y0 + h) + _f(x0 - h, y0 - h)
    ) / (4 * h * h)
    assert abs(fdxy - _derivative(f, 0, 1)) < 1e-6


# ---------------------------------------------------------------------------
# polynomial-oracle agreement


def _random_poly(rng, dim, order):
    terms = {}
    for alpha in multi_indices(dim, order):
        if rng.random() < 0.6:
            terms[alpha] = rng.uniform(-2.0, 2.0)
    return PolyOracle(dim, order, terms)


def test_ring_ops_match_polynomial_oracle():
    rng = np.random.default_rng(20260814)
    for _ in range(25):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(1, 5))
        pa = _random_poly(rng, dim, order)
        pb = _random_poly(rng, dim, order)
        a, b = poly_to_jet(pa), poly_to_jet(pb)
        assert jets_close(a + b, poly_to_jet(pa.add(pb)))
        assert jets_close(a * b, poly_to_jet(pa.mul(pb)))
        # division needs a nonzero constant term
        pb.terms[(0,) * dim] = 1.5
        b = poly_to_jet(pb)
        assert jets_close(a / b, poly_to_jet(pa.div(pb)), tol=1e-11)


def test_truncation_is_exact():
    rng = np.random.default_rng(7)
    pa = _random_poly(rng, 3, 5)
    pb = _random_poly(rng, 3, 5)
    a, b = poly_to_jet(pa), poly_to_jet(pb)
    full = (a * b).truncated(3)
    low = a.truncated(3) * b.truncated(3)
    assert np.array_equal(full.coeffs, low.coeffs)  # the same pairs in the same order
    assert full.order == 3 and full.dim == 3


# ---------------------------------------------------------------------------
# analytic functions


def test_tan_is_sin_over_cos():
    t = variable(0.4, 0, dim=1, order=6)
    assert jets_close(jets.tan(t), jets.sin(t) / jets.cos(t), tol=1e-13)


def test_hyperbolic_pythagoras():
    t = variable(-0.8, 0, dim=2, order=5)
    c, s = jets.cosh(t), jets.sinh(t)
    diff = c * c - s * s - 1.0
    assert np.max(np.abs(diff.coeffs)) < 1e-13


def test_exp_log_sqrt_inverses():
    x = variable(2.0, 0, dim=1, order=6)
    y = 0.5 + 0.25 * x
    assert jets_close(jets.exp(jets.log(y)), y, tol=1e-13)
    r = jets.sqrt(y)
    assert jets_close(r * r, y, tol=1e-13)


def test_pow_variants():
    x = variable(1.5, 0, dim=1, order=5)
    a = 1.0 + 0.5 * x
    assert jets_close(a**3, a * a * a, tol=1e-13)
    assert jets_close(a**-2, 1.0 / (a * a), tol=1e-13)
    assert jets_close(a**0.5, jets.sqrt(a), tol=1e-13)
    assert jets_close(a**2.5, jets.exp(2.5 * jets.log(a)), tol=1e-12)
    assert np.allclose((a**0).coeffs, constant(1.0, 1, 5).coeffs)


def test_integer_powers_by_squaring_equal_repeated_products():
    # bit-identical to repeated products up to the cube, equal to roundoff above it
    dim, order = 3, 4
    x = np.random.default_rng(5).uniform(-1.0, 1.0, (2, jets._size(dim, order)))
    x[:, 0] += 2.0  # away from zero, for the negative powers
    for e in [k for k in range(-9, 10) if k]:
        want = base = x if e > 0 else jets.reciprocal(x, dim, order)
        for _ in range(abs(e) - 1):
            want = jets.mul(want, base, dim, order)
        got = jets.power(x, float(e), dim, order)
        if abs(e) <= 3:
            assert np.array_equal(got, want), e
        else:
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max()), e
    # 2^60 takes 60 squarings, not 2^60 - 1 products
    one = jets._constant_coeffs(1.0, jets._size(dim, order))
    start = time.perf_counter()
    assert np.array_equal(jets.power(one, 2.0**60, dim, order), one)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# error taxonomy


def test_division_by_zero_constant_term():
    x = variable(0.0, 0, dim=1, order=3)
    with pytest.raises(SingularPointError):
        _ = 1.0 / x
    with pytest.raises(SingularPointError):
        _ = x / 0.0


def test_domain_errors():
    x = variable(-1.0, 0, dim=1, order=3)
    with pytest.raises(ValueError):
        jets.log(x)
    with pytest.raises(ValueError):
        jets.sqrt(x)
    with pytest.raises(ValueError):
        jets.log(constant(0.0, 1, 3))


def test_shape_mismatch_is_usage_error():
    a = variable(0.0, 0, dim=1, order=3)
    b = variable(0.0, 0, dim=2, order=3)
    c = variable(0.0, 0, dim=1, order=4)
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ValueError):
        _ = a * c
    with pytest.raises(ValueError):
        variable(0.0, 5, dim=2, order=3)


# ---------------------------------------------------------------------------
# structural helpers used by the geometry layers


def test_partial_shifts_coefficients():
    x = variable(0.2, 0, dim=2, order=4)
    y = variable(0.9, 1, dim=2, order=4)
    f = x * x * y + jets.sin(y)
    fx = f.partial(0)
    assert fx.order == 3
    assert fx.value == pytest.approx(2 * 0.2 * 0.9, abs=1e-14)
    assert _derivative(fx, 0) == pytest.approx(2 * 0.9, abs=1e-13)
    fy = f.partial(1)
    assert fy.value == pytest.approx(0.2**2 + math.cos(0.9), abs=1e-14)


def test_extended_slot_is_passive():
    x = variable(0.7, 0, dim=1, order=3)
    g = jets.exp(x)
    h = jets.sin(x)
    big = g.extended(1) + variable(0.0, 1, dim=2, order=3) * h.extended(1)
    # the new slot is passive for the base part, and its linear part is h
    for k in range(3):
        assert _derivative(big, *[0] * k) == pytest.approx(_derivative(g, *[0] * k), abs=1e-15)
        assert _derivative(big, *[0] * k, 1) == pytest.approx(_derivative(h, *[0] * k), abs=1e-15)


def test_multi_index_layout_is_graded_and_prefix_stable():
    idx4 = multi_indices(2, 4)
    degrees = [sum(a) for a in idx4]
    assert degrees == sorted(degrees)
    idx2 = multi_indices(2, 2)
    assert idx4[: len(idx2)] == idx2


# ---------------------------------------------------------------------------
# algebraic property tests

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.lists(finite, min_size=10, max_size=10), st.lists(finite, min_size=10, max_size=10))
def test_mul_commutes_and_distributes(ca, cb):
    a = from_coeffs({alpha: c for alpha, c in zip(multi_indices(2, 3), ca)}, 2, 3)
    b = from_coeffs({alpha: c for alpha, c in zip(multi_indices(2, 3), cb)}, 2, 3)
    assert jets_close(a * b, b * a, tol=1e-13)
    lhs = a * (a + b)
    rhs = a * a + a * b
    assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0), st.floats(min_value=-2, max_value=2))
def test_reciprocal_roundtrip(c0, c1):
    x = variable(0.0, 0, dim=1, order=5)
    a = c0 + c1 * x + 0.1 * x * x
    back = 1.0 / (1.0 / a)
    assert np.allclose(back.coeffs, a.coeffs, rtol=1e-10, atol=1e-10)


# ---------------------------------------------------------------------------
# dense product kernel


def _contract_by_jets(x, y, dim, order):
    out = np.empty((x.shape[0], y.shape[1], x.shape[2]))
    for i in range(x.shape[0]):
        for j in range(y.shape[1]):
            acc = Jet.constant(0.0, dim, order)
            for k in range(x.shape[1]):
                acc = acc + Jet(dim, order, x[i, k].copy()) * Jet(dim, order, y[k, j].copy())
            out[i, j] = acc.coeffs
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 5), st.integers(0, 8), st.tuples(*[st.integers(1, 3)] * 3),
       st.integers(0, 2**32 - 1))
def test_contract_matches_sum_of_jet_products(dim, order, shape, seed):
    rng = np.random.default_rng(seed)
    r, m, s = shape
    size = len(multi_indices(dim, order))
    x = rng.standard_normal((r, m, size))
    y = rng.standard_normal((m, s, size))
    ref = _contract_by_jets(x, y, dim, order)
    got = jets.contract(x, y, dim)
    assert got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4, (2, 1), (4, 1)]), st.integers(0, 6),
       st.tuples(*[st.integers(1, 4)] * 3), st.lists(st.integers(1, 3), min_size=1, max_size=2),
       st.sampled_from([None, 600]), st.integers(0, 2**32 - 1))
def test_leading_points_axes_equal_a_loop_of_single_calls(key, order, shape, lead, chunk, seed):
    # each (coefficient, point) is one gemm slice of the same shape, so a
    # batch is bit-identical to one call per point, whatever the chunking
    rng = np.random.default_rng(seed)
    (r, m, s), lead, size = shape, tuple(lead), jets._size(key, order)
    x, y = rng.standard_normal(lead + (r, m, size)), rng.standard_normal(lead + (m, s, size))
    with pytest.MonkeyPatch.context() as mp:
        if chunk:
            mp.setattr(jets, "_CHUNK_BYTES", chunk)
        got = jets.contract(x, y, key)
    slots = key[0] if isinstance(key, tuple) else key
    der = jets.partials(x, key, slots, len(lead)) if order else None
    assert got.shape == lead + (r, s, size)
    for p in np.ndindex(lead):
        np.testing.assert_array_equal(got[p], jets.contract(x[p], y[p], key))
        if order:
            np.testing.assert_array_equal(der[p], jets.partials(x[p], key, slots))


def test_contract_spanning_several_chunks():
    dim, order, r = 4, 8, 8
    pairs = jets._mul_table(dim, order)[0].size
    assert pairs * 8 * 3 * r * r > 2 * jets._CHUNK_BYTES
    rng = np.random.default_rng(5)
    size = len(multi_indices(dim, order))
    x = rng.standard_normal((r, r, size))
    y = rng.standard_normal((r, r, size))
    ref = _contract_by_jets(x, y, dim, order)
    np.testing.assert_allclose(jets.contract(x, y, dim), ref,
                               rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("chunk_bytes", [1, 600, 5000])
def test_contract_is_independent_of_chunking(monkeypatch, chunk_bytes):
    rng = np.random.default_rng(11)
    size = len(multi_indices(5, 4))
    x = rng.standard_normal((2, 3, size))
    y = rng.standard_normal((3, 2, size))
    whole = jets.contract(x, y, 5)
    monkeypatch.setattr(jets, "_CHUNK_BYTES", chunk_bytes)
    np.testing.assert_array_equal(jets.contract(x, y, 5), whole)


def ref_pair_sums(x, y, dim, order, c0, c1):
    """Coefficients c0..c1 of contract by the reduceat kernel the bucketed one replaced.

    One matmul per product pair over the pairs sorted stably by coefficient,
    then np.add.reduceat over each coefficient's run, in chunks cut at
    coefficient boundaries.
    """
    ia, ib, ic = jets._mul_table(dim, order)
    perm = np.argsort(ic, kind="stable")
    ia, ib = ia[perm], ib[perm]
    bounds = np.searchsorted(ic[perm], np.arange(jets._size(dim, order) + 1))
    xt, yt = x.transpose(2, 0, 1), y.transpose(2, 0, 1)
    shape = (x.shape[0], y.shape[1])
    step = max(1, (1 << 18) // (8 * (xt[0].size + yt[0].size + math.prod(shape))))
    out = np.empty(shape + (c1 - c0,))
    c = c0
    while c < c1:
        p0 = bounds[c]
        ce = min(c1, max(c + 1, int(np.searchsorted(bounds, p0 + step, side="right")) - 1))
        prods = np.matmul(xt[ia[p0 : bounds[ce]]], yt[ib[p0 : bounds[ce]]])
        sums = np.add.reduceat(prods, bounds[c:ce] - p0, axis=0)
        out[..., c - c0 : ce - c0] = sums.transpose(1, 2, 0)
        c = ce
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4, 5, (1, 1), (2, 1), (3, 1), (4, 1)]), st.integers(0, 8),
       st.one_of(st.tuples(*[st.integers(1, 4)] * 3), st.just((16, 4, 16))),
       st.data(), st.integers(0, 2**32 - 1))
def test_bucketed_kernel_matches_the_reduceat_reference(key, order, shape, data, seed):
    # full range and the degree range [size(d-1), size(d)) that
    # invert_jet_matrix asks for; each coefficient sums its terms in another
    # order, so the bound is relative to the sum of their absolute values
    rng = np.random.default_rng(seed)
    r, m, s = shape
    size = jets._size(key, order)
    x, y = rng.standard_normal((r, m, size)), rng.standard_normal((m, s, size))
    deg = data.draw(st.integers(0, order))
    ranges = [(0, size), (jets._size(key, deg - 1) if deg else 0, jets._size(key, deg))]
    for c0, c1 in ranges:
        got = jets._pair_sums(x, y, key, order, c0, c1)
        ref = ref_pair_sums(x, y, key, order, c0, c1)
        scale = ref_pair_sums(np.abs(x), np.abs(y), key, order, c0, c1)
        assert got.shape == ref.shape == (r, s, c1 - c0)
        assert np.all(np.abs(got - ref) <= 1e-13 * scale), (c0, c1)


def bucket_loop_pair_sums(x, y, dim, order, c0, c1):
    """Coefficients c0..c1 of contract by the bucket loop the planned kernel replaced.

    Each call cuts every bucket to c0..c1 by searchsorted and scatters the
    chunk products into a coefficient-major buffer; the np.matmul operands
    are those of the planned kernel.
    """
    n, lead, (r, m), s = jets._size(dim, order), x.shape[:-3], x.shape[-3:-1], y.shape[-2]
    x, y = (x[None], y[None]) if not lead else (
        x.reshape(-1, r, m, x.shape[-1]), y.reshape(-1, m, s, y.shape[-1]))
    b = len(x)
    xz, yz = np.zeros((b, n + 1, m, r)), np.zeros((b, n + 1, m, s))
    xz[:, :n], yz[:, :n] = x.transpose(0, 3, 2, 1), y.transpose(0, 3, 1, 2)
    out = np.empty((c1, b, r, s))
    for cs, ia, ib in jets._pair_runs(dim, order):
        lo, hi = np.searchsorted(cs, (c0, c1)) if c1 - c0 < n else (0, cs.size)
        w = ia.shape[1]
        step = max(1, jets._CHUNK_BYTES // (8 * b * (w * m * (r + s) + r * s)))
        for k in range(lo, hi, step):
            e = min(hi, k + step)
            out[cs[k:e]] = np.matmul(
                xz.take(ia[k:e], axis=1).reshape(b, e - k, w * m, r).swapaxes(2, 3),
                yz.take(ib[k:e], axis=1).reshape(b, e - k, w * m, s)).swapaxes(0, 1)
    return out[c0:].transpose(1, 2, 3, 0).reshape(lead + (r, s, c1 - c0))


@pytest.mark.parametrize("chunk_bytes", [None, 600])
@pytest.mark.parametrize("order", range(9))
@pytest.mark.parametrize("key", [3, 4, (4, 1)])
def test_planned_kernel_equals_the_bucket_loop_bit_for_bit(monkeypatch, key, order, chunk_bytes):
    # the full range and every single-degree range, with and without a points axis
    if chunk_bytes is not None:
        monkeypatch.setattr(jets, "_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(order)
    size = jets._size(key, order)
    ranges = [(0, size)] + [(jets._size(key, d - 1) if d else 0, jets._size(key, d))
                            for d in range(order + 1)]
    for lead, (r, m, s) in (((), (3, 4, 2)), ((2,), (4, 4, 1)), ((2, 3), (1, 2, 3))):
        x, y = rng.standard_normal(lead + (r, m, size)), rng.standard_normal(lead + (m, s, size))
        for c0, c1 in ranges:
            got = jets._pair_sums(x, y, key, order, c0, c1)
            ref = bucket_loop_pair_sums(x, y, key, order, c0, c1)
            assert got.shape == ref.shape == lead + (r, s, c1 - c0)
            np.testing.assert_array_equal(got, ref, err_msg=f"{lead} {c0}..{c1}")


def test_one_bucket_in_order_is_planned_whole():
    # low orders and single degrees fit one bucket: the kernel skips the scatter
    assert jets._pair_plan(4, 2, 0, jets._size(4, 2))[0]
    assert jets._pair_plan((4, 1), 2, jets._size((4, 1), 1), jets._size((4, 1), 2))[0]
    assert not jets._pair_plan(4, 8, 0, jets._size(4, 8))[0]


@pytest.mark.parametrize("ndim", [2, 3, 4, 5, 6])
def test_cached_axis_moves_equal_np_moveaxis(ndim):
    x = np.arange(math.prod(range(2, ndim + 2)), dtype=float).reshape(range(2, ndim + 2))[..., ::2]
    moves = [(s, d) for s in range(-ndim, ndim) for d in range(-ndim, ndim)]
    moves += [((0, -1), (-1, 0)), ((1, 0), (0, ndim - 1))] + [((-3, -2), (0, 1))] * (ndim > 2)
    for source, dest in moves:
        got, ref = jets.moveaxis(x, source, dest), np.moveaxis(x, source, dest)
        assert got.shape == ref.shape and got.strides == ref.strides, (source, dest)
        assert np.shares_memory(got, x) and np.array_equal(got, ref)


@pytest.mark.parametrize("chunk_bytes", [1, None])
@pytest.mark.parametrize("key,order", [(4, 5), ((3, 1), 5)])
def test_padding_is_never_read(monkeypatch, key, order, chunk_bytes):
    # a NaN in coefficient a of one operand reaches exactly the coefficients
    # a + b of the product table; a pad that read a real coefficient k > 0 of
    # either operand would spread a NaN planted there to padded coefficients
    if chunk_bytes is not None:
        monkeypatch.setattr(jets, "_CHUNK_BYTES", chunk_bytes)
    ia, ib, ic = jets._mul_table(key, order)
    n = jets._size(key, order)
    assert sum(a.size for _, a, _ in jets._pair_runs(key, order)) > ia.size  # pads exist
    rng = np.random.default_rng(4)
    for a in (0, 1, n // 2, n - 1):
        for side, ranks in (("x", ia), ("y", ib)):
            x, y = rng.standard_normal((2, 3, n)), rng.standard_normal((3, 2, n))
            (x if side == "x" else y)[0, 0, a] = np.nan
            out = jets.contract(x, y, key)
            bad = np.flatnonzero(~np.isfinite(out).all(axis=(0, 1)))
            np.testing.assert_array_equal(bad, np.unique(ic[ranks == a]), err_msg=f"{side}[{a}]")


def test_contract_memory_stays_within_its_chunk_budget():
    # order-8 ring, Riemann shape (16 x 4 @ 4 x 16): the coefficient-major
    # operand copies and one chunk of gathers; gathering every padded pair at
    # once would take 36 MB
    key, order = (4, 1), 8
    n = jets._size(key, order)
    rng = np.random.default_rng(6)
    x, y = rng.standard_normal((16, 4, n)), rng.standard_normal((4, 16, n))
    jets.contract(x, y, key)  # tables warm
    tracemalloc.start()
    try:
        out = jets.contract(x, y, key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 4 * jets._CHUNK_BYTES, peak - out.nbytes


def _brute_mul_table(dim, order):
    idx = multi_indices(dim, order)
    rank = jets._rank(dim, order)
    table = [(i, j, rank.get(tuple(x + y for x, y in zip(a, b))))
             for i, a in enumerate(idx) for j, b in enumerate(idx)]
    return [np.array(t) for t in zip(*[row for row in table if row[2] is not None])]


@pytest.mark.parametrize("dim,order", [(3, 4), (1, 5), ((2, 1), 4), ((3, 1), 3)])
def test_mul_table_lists_every_pair_once_in_row_order(dim, order):
    for got, ref in zip(jets._mul_table(dim, order), _brute_mul_table(dim, order)):
        np.testing.assert_array_equal(got, ref)


# -- every index table against its definition


def _reference_indices(key, order):
    """Exponent tuples with |alpha| <= order by itertools.product, sorted by (degree, tuple).

    The product runs over all variables but the last, which takes each exponent up to
    the degree left (at most 1 in a ring key).
    """
    nv, top = (key, order) if isinstance(key, int) else (key[0] + 1, 1)
    rows = [a + (e,) for a in itertools.product(range(order + 1), repeat=nv - 1) if sum(a) <= order
            for e in range(min(top, order - sum(a)) + 1)]
    return sorted(rows, key=lambda a: (sum(a), a))


def _reference_partials(key, order, slots, rank):
    lower = multi_indices(key, order - 1)
    src = [[rank[b[:s] + (b[s] + 1,) + b[s + 1 :]] for b in lower] for s in range(slots)]
    return np.asarray(src, dtype=np.intp), np.asarray([[b[s] + 1.0 for b in lower] for s in range(slots)])


def _reference_embed(dim, order, key, pad):
    rank = {a: i for i, a in enumerate(_reference_indices(key, order + sum(pad)))}
    return np.asarray([rank[a + pad] for a in multi_indices(dim, order)], dtype=np.intp)


@pytest.mark.parametrize("key", [1, 2, 3, 4, 5, (2, 1), (3, 1), (4, 1), (5, 1)])
def test_every_index_table_equals_its_definition(key):
    # multi_indices, _size, _mul_table, _partials_table and _embed_table at
    # orders 0-8, against loops over tuples that share nothing with jets' arrays
    dim = key if isinstance(key, int) else key[0]
    for order in range(9):
        ref = _reference_indices(key, order)
        assert list(multi_indices(key, order)) == ref and jets._size(key, order) == len(ref)
        assert jets._exponents(key, order).dtype == np.intp
        table = jets._mul_table(key, order)
        assert all(t.dtype == np.intp for t in table)
        if len(ref) <= 126:  # the brute-force table is quadratic in the coefficients
            for got, want in zip(table, _brute_mul_table(key, order)):
                np.testing.assert_array_equal(got, want)
        if order:
            src, mul = jets._partials_table(key, order, dim)
            want_src, want_mul = _reference_partials(key, order, dim, {a: i for i, a in enumerate(ref)})
            assert src.dtype == np.intp and mul.dtype == np.float64
            np.testing.assert_array_equal(src, want_src)
            np.testing.assert_array_equal(mul, want_mul)
        targets = [(dim + 1, (0,)), (dim + 2, (0, 0))] if key == dim else [(key, (0,)), (key, (1,))]
        for target, pad in targets:
            got = jets._embed_table(dim, order, target, pad)
            assert got.dtype == np.intp
            np.testing.assert_array_equal(got, _reference_embed(dim, order, target, pad))


def test_ranks_give_minus_one_for_a_row_that_is_no_coefficient():
    assert jets._ranks((3, 1), 4, [0, 1, 0, 2]) == -1  # eps^2 in the ring
    assert jets._ranks(3, 4, [2, 2, 1]) == -1  # degree 5 above the order
    # an exponent of order + 1: its plain base-4 digits would read as (1, 0)
    assert jets._ranks(2, 3, [0, 4]) == -1
    rows = np.array(multi_indices((3, 1), 4))
    got = jets._ranks((3, 1), 4, np.stack([rows, rows]))
    assert got.dtype == np.intp and got.shape == (2, len(rows))
    np.testing.assert_array_equal(got, np.tile(np.arange(len(rows)), (2, 1)))


# -- the ring key (d, 1): d variables and one eps with eps^2 = 0


def _ring_in_full(dim, order):
    """Ranks among the jets of dim+1 variables of the ring (dim, 1)'s coefficients."""
    rank = jets._rank(dim + 1, order)
    return np.array([rank[a] for a in multi_indices((dim, 1), order)], dtype=np.intp)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 7), st.tuples(*[st.integers(1, 3)] * 3),
       st.integers(0, 2**32 - 1))
def test_ring_products_partials_and_truncation_equal_the_full_ones(dim, order, shape, seed):
    # on every coefficient of eps-degree <= 1, the ring computes bit for bit
    # what the jets of dim+1 variables compute; its eps^2 pairs are never formed
    rng = np.random.default_rng(seed)
    r, m, s = shape
    key, ring = (dim, 1), _ring_in_full(dim, order)
    assert all(a[-1] <= 1 for a in multi_indices(key, order))
    x = rng.standard_normal((r, m, jets._size(dim + 1, order)))
    y = rng.standard_normal((m, s, jets._size(dim + 1, order)))
    np.testing.assert_array_equal(jets.contract(x[..., ring], y[..., ring], key),
                                  jets.contract(x, y, dim + 1)[..., ring])
    a, b = Jet(key, order, x[0, 0, ring]), Jet(key, order, y[0, 0, ring])
    full = Jet(dim + 1, order, x[0, 0]) * Jet(dim + 1, order, y[0, 0])
    np.testing.assert_array_equal((a * b).coeffs, full.coeffs[ring])
    if order:
        full = jets.partials(x, dim + 1, dim)[..., _ring_in_full(dim, order - 1)]
        np.testing.assert_array_equal(jets.partials(x[..., ring], key, dim), full)
    for k in range(order + 1):
        assert multi_indices(key, k) == multi_indices(key, order)[: jets._size(key, k)]
        assert jets.order_of(key, jets._size(key, k)) == k
        np.testing.assert_array_equal(ring[: jets._size(key, k)], _ring_in_full(dim, k))


def test_ring_table_skips_the_eps_squared_pairs():
    # 4 coordinates and eps at order 8: 18,018 of the 43,758 pairs of five
    # full variables land on eps^2 or higher
    assert jets._size(5, 8) == 1287 and jets._size((4, 1), 8) == 825
    assert jets._mul_table(5, 8)[0].size == 43758
    assert jets._mul_table((4, 1), 8)[0].size == 25740


def test_dense_roundtrip_and_partials():
    rng = np.random.default_rng(2)
    arr = np.array([[from_coeffs(rng.standard_normal(35), 4, 3) for _ in range(2)]
                    for _ in range(3)], dtype=object)
    dense = jets.to_dense(arr)
    assert dense.shape == (3, 2, 35)
    back = jets.to_jets(dense, 4)
    assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(arr.flat, back.flat))
    d = jets.partials(dense, 4, 2)
    assert d.shape == (2, 3, 2, 15)
    for s in range(2):
        for idx in np.ndindex(3, 2):
            np.testing.assert_array_equal(d[(s,) + idx], arr[idx].partial(s).coeffs)
    assert jets.order_of(4, 35) == 3
    with pytest.raises(ValueError):
        jets.order_of(4, 34)


@pytest.mark.parametrize("key, ncoeff", [(4, 34), (4, 36), (3, 0), ((4, 1), 16)])
def test_kernels_refuse_a_coefficient_count_that_fits_no_order(key, ncoeff):
    # the order is read off the last axis, so a count between two orders is an error
    x = np.zeros((2, 3, ncoeff))
    slots = key[0] if isinstance(key, tuple) else key
    for kernel in (lambda: jets.partials(x, key, slots), lambda: jets.to_jets(x, key)):
        with pytest.raises(ValueError, match="fit no jet order"):
            kernel()
