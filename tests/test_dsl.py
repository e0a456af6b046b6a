"""Metric description language: lexer, parser, printer, file format.

Expression oracles are independent python lambdas over math functions; the
DSL evaluator must match them at random points to 1e-12.
"""
from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detourcert import dsl, jets
from detourcert.dsl import (
    MetricSpec,
    MetricSyntaxError,
    MetricValidationError,
    evaluate,
    expression_to_text,
    parse_expression,
    parse_metric_text,
)

SCHWARZSCHILD_TEXT = """
# exterior patch, geometric units
dimension = 4
signature = "-+++"
coords = t r th ph

g[1][1] = "-(1 - 2/r)"
g[2][2] = "1/(1 - 2/r)"
g[3][3] = "r^2"
g[4][4] = "r^2 * sin(th)^2"
"""


# ---------------------------------------------------------------------------
# expressions


def test_precedence_and_associativity():
    cases = {
        "1 - 2 - 3": -4.0,
        "2 + 3 * 4": 14.0,
        "2 * 3 + 4": 10.0,
        "6 / 3 / 2": 1.0,
        "2 ^ 3": 8.0,
        "-2 ^ 2": -4.0,  # unary minus binds looser than ^
        "(-2) ^ 2": 4.0,
        "--2": 2.0,
        "2 * 3 ^ 2": 18.0,
        "sin(pi / 2)": 1.0,
        "exp(0) + log(1)": 1.0,
        "sqrt(2) ^ 2": 2.0,
    }
    for text, want in cases.items():
        assert evaluate(parse_expression(text), {}) == pytest.approx(want, abs=1e-12), text


ORACLE_PAIRS = [
    ("1/(1 - 2/r)", lambda e: 1.0 / (1.0 - 2.0 / e["r"])),
    ("r^2 * sin(th)^2", lambda e: e["r"] ** 2 * math.sin(e["th"]) ** 2),
    ("exp(2 * (x + y*y)) - tan(x/4)", lambda e: math.exp(2 * (e["x"] + e["y"] ** 2)) - math.tan(e["x"] / 4)),
    ("cosh(x) * sinh(y) + log(2 + x)", lambda e: math.cosh(e["x"]) * math.sinh(e["y"]) + math.log(2 + e["x"])),
    ("-x^2 + (-y)^2 / sqrt(2 + x)", lambda e: -(e["x"] ** 2) + e["y"] ** 2 / math.sqrt(2 + e["x"])),
    ("pi * x - pi/2", lambda e: math.pi * e["x"] - math.pi / 2),
]


def test_evaluation_matches_closed_forms_at_random_points():
    rng = np.random.default_rng(42)
    for text, fn in ORACLE_PAIRS:
        ast = parse_expression(text)
        for _ in range(20):
            env = {
                "r": float(rng.uniform(3.0, 10.0)),
                "th": float(rng.uniform(0.3, 2.8)),
                "x": float(rng.uniform(-0.9, 0.9)),
                "y": float(rng.uniform(-0.9, 0.9)),
            }
            assert evaluate(ast, env) == pytest.approx(fn(env), rel=1e-12, abs=1e-12)


def test_evaluation_on_jets_matches_float_path():
    ast = parse_expression("exp(x) * sin(y) + x^3 / (2 + y)")
    x0, y0 = 0.37, -0.81
    jx = jets.variable(x0, 0, dim=2, order=3)
    jy = jets.variable(y0, 1, dim=2, order=3)
    jval = evaluate(ast, {"x": jx, "y": jy})
    fval = evaluate(ast, {"x": x0, "y": y0})
    assert jval.value == pytest.approx(fval, rel=1e-14)


def test_print_parse_round_trip():
    texts = [t for t, _ in ORACLE_PAIRS] + [
        "-(1 - 2/r)",
        "a - (b - c)",
        "a / (b * c)",
        "(a + b) * (a - b)",
        "sin(cos(exp(x)))",
        "2.5e-3 * x",
    ]
    for text in texts:
        ast = parse_expression(text)
        printed = expression_to_text(ast)
        assert parse_expression(printed) == ast, (text, printed)


@pytest.mark.parametrize("text, col", [("1 + 1e999 * x", 5), ("x * 2e308", 5), ("1e400", 1)])
def test_a_number_that_overflows_is_a_syntax_error(text, col):
    # a literal that rounds to inf would reach the metric as a non-finite coefficient
    with pytest.raises(MetricSyntaxError, match="number out of range") as err:
        parse_expression(text)
    assert (err.value.line, err.value.col) == (1, col)
    assert parse_expression("1e308").value == 1e308


def test_syntax_errors_carry_location():
    bad = ["x +", "sin(", "(x", "x ^ y", "foo(x)", "1..2", "x @ y", "x ^ -2"]
    for text in bad:
        with pytest.raises(MetricSyntaxError) as err:
            parse_expression(text)
        assert err.value.line >= 1 and err.value.col >= 1, text


def test_the_lexer_table():
    toks = dsl._tokenize("x\t+ 1.5e2 # c\r\n  *y", 2)
    assert [(t.kind, t.text, t.value, t.line, t.col) for t in toks] == [
        ("name", "x", 0.0, 3, 1), ("op", "+", 0.0, 3, 3), ("num", "1.5e2", 150.0, 3, 5),
        ("op", "*", 0.0, 4, 3), ("name", "y", 0.0, 4, 4), ("end", "", 0.0, 4, 5),
    ]
    for text, message, where in [("1..2", "malformed number", (1, 1)),
                                 ("2 $", "unexpected character '$'", (1, 3)),
                                 ("x *\n 1e999", "number out of range", (2, 2))]:
        with pytest.raises(MetricSyntaxError, match=re.escape(message)) as err:
            dsl._tokenize(text)
        assert (err.value.line, err.value.col) == where, text
    # the end of input after a trailing comment sits at its true column
    assert dsl._tokenize("x + # c")[-1].col == 8
    with pytest.raises(MetricSyntaxError, match=r"unexpected token '' \(line 1, col 8\)"):
        parse_expression("x + # c")
    # a # inside quotes reaches the lexer, which reads it as a comment
    head = 'dimension = 3\nsignature = "+++"\ncoords = x y z\n'
    spec = parse_metric_text(head + 'g[1][1] = "1 # in quotes"  # outside\n')
    assert spec.components[(0, 0)] == dsl.Num(1.0)


# ---------------------------------------------------------------------------
# metric files


def test_parse_metric_file_schwarzschild():
    spec = parse_metric_text(SCHWARZSCHILD_TEXT, label="schwarzschild")
    assert spec.dim == 4
    assert spec.signature == (-1, 1, 1, 1)
    assert spec.coords == ("t", "r", "th", "ph")
    # absent components are zero
    assert (0, 1) not in spec.components
    point = (0.0, 5.0, 1.2, 0.3)
    g = spec.metric_values(point)
    assert g[0, 0] == pytest.approx(-(1 - 2 / 5.0))
    assert g[1, 1] == pytest.approx(1 / (1 - 2 / 5.0))
    assert g[2, 2] == pytest.approx(25.0)
    assert g[3, 3] == pytest.approx(25.0 * math.sin(1.2) ** 2)
    assert g[0, 1] == 0.0
    # jets evaluate, are symmetric, and equal the program at one point bit for bit
    dense = spec.metric_jets(point, order=3)
    assert np.array_equal(dense, _program(spec, point, 3))
    gj = jets.to_jets(dense, 4)
    assert gj[2, 3].value == 0.0
    assert gj[3, 3].partial(1).value == pytest.approx(
        2 * 5.0 * math.sin(1.2) ** 2
    )


def test_file_round_trip():
    spec = parse_metric_text(SCHWARZSCHILD_TEXT, label="schwarzschild")
    text = spec.to_text()
    again = parse_metric_text(text, label="schwarzschild")
    assert again.dim == spec.dim
    assert again.signature == spec.signature
    assert again.coords == spec.coords
    assert set(again.components) == set(spec.components)
    for key, ast in spec.components.items():
        assert again.components[key] == ast


def _expect_invalid(text, exc=MetricValidationError):
    with pytest.raises(exc):
        parse_metric_text(text)


def test_file_validation_errors():
    head = 'dimension = 3\nsignature = "+++"\ncoords = x y z\n'
    # duplicate key
    _expect_invalid(head + 'g[1][1] = "1"\ng[1][1] = "2"\n')
    # symmetric duplicate
    _expect_invalid(head + 'g[1][2] = "1"\ng[2][1] = "1"\n')
    # index out of range (1-based)
    _expect_invalid(head + 'g[0][1] = "1"\n')
    _expect_invalid(head + 'g[1][4] = "1"\n')
    # signature length mismatch
    _expect_invalid('dimension = 3\nsignature = "++"\ncoords = x y z\n')
    # signature with stray characters
    _expect_invalid('dimension = 3\nsignature = "+0+"\ncoords = x y z\n')
    # wrong number of coordinates
    _expect_invalid('dimension = 3\nsignature = "+++"\ncoords = x y\n')
    # coordinate name collides with a function or the constant
    _expect_invalid('dimension = 3\nsignature = "+++"\ncoords = x sin z\n')
    _expect_invalid('dimension = 3\nsignature = "+++"\ncoords = x pi z\n')
    # undeclared identifier inside a component
    _expect_invalid(head + 'g[1][1] = "1 + q"\n')
    # missing required keys
    _expect_invalid('signature = "+++"\ncoords = x y z\n')
    # malformed line
    _expect_invalid(head + "g[1][1] = 1\n", MetricSyntaxError)
    _expect_invalid(head + "nonsense\n", MetricSyntaxError)


def test_comments_and_blank_lines_ignored():
    text = (
        "# leading comment\n\ndimension = 3 # trailing\n"
        'signature = "+++"\n'
        "coords = x y z  # names\n"
        'g[1][1] = "1" # unit\n g[2][2] = "1"\ng[3][3] = "1"\n'
    )
    spec = parse_metric_text(text)
    assert spec.dim == 3
    g = spec.metric_values((0.1, 0.2, 0.3))
    assert np.allclose(g, np.eye(3))


def test_degenerate_metric_rejected_at_inversion():
    text = 'dimension = 3\nsignature = "+++"\ncoords = x y z\ng[1][1] = "1"\ng[2][2] = "1"\n'
    spec = parse_metric_text(text)  # g33 = 0: fine to parse
    from detourcert.geometry import Geometry, SingularMetricError

    with pytest.raises(SingularMetricError):
        Geometry(spec, (0.0, 0.0, 0.0), order=2)


# ---------------------------------------------------------------------------
# the compiled program against the walk on Jets of MetricSpec.metric_jets at one point

_EXPONENTS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.5, 2.0, 3.0)
_trees = st.recursive(
    st.one_of(st.sampled_from([dsl.Var("x"), dsl.Var("y"), dsl.Var("pi")]),
              st.floats(min_value=-3, max_value=3).map(dsl.Num)),
    lambda sub: st.one_of(
        st.builds(dsl.Call, st.sampled_from(dsl.FUNCTION_NAMES), sub),
        st.builds(dsl.Neg, sub),
        st.builds(dsl.Bin, st.sampled_from("+-*/"), sub, sub),
        st.builds(dsl.Pow, sub, st.sampled_from(_EXPONENTS)),
    ),
    max_leaves=8,
)
_coord = st.one_of(st.just(0.0), st.floats(min_value=-2, max_value=2))
# out of the domain of a point; ZeroDivisionError and OverflowError come from
# the float arithmetic of constant subtrees
_DOMAIN = (ValueError, ArithmeticError)


def _plane(components) -> MetricSpec:
    return MetricSpec(2, (1, 1), ("x", "y"), components)


def _program(spec, point, order) -> np.ndarray:
    """The dense metric at one point by the program with no points axis, as the catalog runs it."""
    g = np.zeros((spec.dim, spec.dim, jets._size(spec.dim, order)))
    vals = dsl._run(spec._program, spec.coords, np.asarray(point, dtype=float), order)
    for (i, j), val in zip(spec.components, vals):
        g[i, j] = g[j, i] = val
    return g


def _outcome(metric, spec, points, order):
    """metric(spec, points, order), or the exception it raised."""
    try:
        with np.errstate(all="ignore"):
            return metric(spec, points, order)
    except _DOMAIN as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(ast=_trees, other=_trees, points=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=5),
       order=st.integers(min_value=0, max_value=4))
def test_batched_evaluation_equals_per_point_jets(ast, other, points, order):
    # three components, the third sharing both others as subexpressions
    spec = _plane({(0, 0): ast, (0, 1): other, (1, 1): dsl.Bin("*", ast, other)})
    pts = np.array(points, dtype=float)
    batch = _outcome(MetricSpec.metric_jets, spec, pts, order)
    singles = [_outcome(MetricSpec.metric_jets, spec, p, order) for p in pts]  # the walk on Jets
    for p, single in zip(pts, singles):  # the program at one point, no leading axis
        one = _outcome(_program, spec, p, order)
        if isinstance(single, Exception):
            assert type(one) is type(single), (single, one)
        else:
            assert np.array_equal(one, single, equal_nan=True)
    failed = [type(s) for s in singles if isinstance(s, Exception)]
    if failed:
        # the batch raises where its first point leaves the domain, as that point alone
        assert isinstance(batch, Exception), (failed, batch)
        assert type(batch) in failed
        if len(failed) == 1:
            assert type(batch) is failed[0]
        return
    assert not isinstance(batch, Exception), batch
    assert np.array_equal(batch, np.stack(singles), equal_nan=True)


def _all_operations() -> MetricSpec:
    """Every function of jets.FUNCTIONS, pi, division both ways, negative, fractional and zero
    powers, a constant-only component and subexpressions shared across components."""
    e = parse_expression
    shared = e("sin(x) + cos(y) * tan(z)")
    comps = {
        (0, 0): dsl.Bin("-", shared, e("exp(x*y) / log(2 + x^2)")),
        (0, 1): dsl.Bin("+", dsl.Pow(e("sqrt(1 + y^2)"), -1.5),
                        dsl.Bin("*", dsl.Pow(e("sinh(z)"), -2.0), e("cosh(x)^0.5 - pi / (3 + x)"))),
        (0, 2): e("2 * pi^2 - 1 / 3"),
        (1, 1): dsl.Bin("+", dsl.Bin("*", shared, dsl.Pow(e("x"), -1.0)), e("(1 + y^2)^2.5")),
        (1, 2): dsl.Bin("+", e("-(x - 4) / y^3 - 1 / (x * z)"), e("x^0 * 2")),
        (2, 2): e("(sin(x) + cos(y) * tan(z))^2 + exp(x*y)"),
    }
    return MetricSpec(3, (1, 1, 1), ("x", "y", "z"), comps)


def _nodes(ast):
    yield ast
    for child in (getattr(ast, name, None) for name in ("arg", "lhs", "rhs", "base")):
        if child is not None:
            yield from _nodes(child)


@pytest.mark.parametrize("order", [0, 1, 3, 6])
def test_the_program_equals_the_walk_on_every_operation(order):
    spec = _all_operations()
    nodes = [node for ast in spec.components.values() for node in _nodes(ast)]
    assert {node.fn for node in nodes if isinstance(node, dsl.Call)} == set(jets.FUNCTIONS)
    pts = np.random.default_rng(order).uniform([0.5, 0.5, 0.3], [1.5, 1.5, 1.2], (4, 3))
    batch = spec.metric_jets(pts, order)
    for k, p in enumerate(pts):
        walked = spec.metric_jets(p, order)
        assert np.array_equal(batch[k], walked)
        assert np.array_equal(_program(spec, p, order), walked)
    # one step per distinct subexpression, constant subtrees included
    assert len(spec._program[0]) == len({repr(node) for node in nodes})


def _reference_compile(trees) -> tuple:
    """The compile keyed by the repr of each whole subtree: recursive and quadratic in the
    depth of the trees, with the step order _compile has to keep."""
    steps, seen = [], {}

    def visit(node) -> int:
        key = repr(node)  # unlike ==, tells -0.0 from 0.0
        if key not in seen:
            kids = [getattr(node, f) for f in ("arg", "base", "lhs", "rhs") if hasattr(node, f)]
            steps.append((node, [visit(k) for k in kids]))
            seen[key] = len(steps) - 1
        return seen[key]

    return steps, [visit(ast) for ast in trees]


@settings(max_examples=300, deadline=None)
@given(trees=st.lists(_trees, min_size=1, max_size=4))
def test_the_compile_equals_the_recursive_reference(trees):
    trees = trees + [dsl.Bin("*", trees[0], trees[-1]), trees[0]]  # shared across trees
    (steps, outputs), (want, want_outputs) = dsl._compile(trees), _reference_compile(trees)
    assert [(repr(node), args) for node, args in steps] == [(repr(node), args) for node, args in want]
    assert outputs == want_outputs


def test_the_compile_tells_minus_zero_from_zero():
    x, zero, minus = dsl.Var("x"), dsl.Num(0.0), dsl.Num(-0.0)
    trees = [dsl.Bin("+", minus, x), dsl.Bin("+", zero, x), zero, minus]
    steps, outputs = dsl._compile(trees)
    assert [args for _, args in steps] == [[], [], [0, 1], [], [3, 1]]
    assert outputs == [2, 4, 3, 0]
    values = dsl._values((steps, outputs), {"x": 1.0}, None, None)
    assert [math.copysign(1.0, v) for v in values[2:]] == [1.0, -1.0]


def test_a_sum_of_20000_terms_compiles_and_evaluates():
    ast = parse_expression("1" + " + 0.001*x" * 20000)
    steps, outputs = dsl._compile([ast])
    assert len(steps) == 4 + 20000 and outputs == [len(steps) - 1]
    assert dsl.variables(ast) == {"x"}
    assert evaluate(ast, {"x": 0.5}) == pytest.approx(11.0, rel=1e-12)


@pytest.mark.parametrize("ast, exc", [
    (parse_expression("1 / x"), jets.SingularPointError),
    (dsl.Pow(dsl.Var("x"), -1.0), jets.SingularPointError),
    (parse_expression("log(x)"), ValueError),
    (parse_expression("x^0.5"), ValueError),
    (parse_expression("y / (x * y)"), jets.SingularPointError),
])
def test_one_point_out_of_the_domain_fails_the_batch(ast, exc):
    spec = _plane({(0, 0): ast, (1, 1): parse_expression("1 + y")})
    pts = np.array([[0.5, 0.1], [0.0, 0.2], [0.3, 0.4]])  # x = 0 at the middle point only
    assert isinstance(_outcome(MetricSpec.metric_jets, spec, pts[1], 2), exc)
    assert isinstance(_outcome(_program, spec, pts[1], 2), exc)
    assert isinstance(_outcome(MetricSpec.metric_jets, spec, pts, 2), exc)
    assert not isinstance(_outcome(MetricSpec.metric_jets, spec, pts[::2], 2), Exception)


def test_metric_jets_batch_walks_each_tree_once(monkeypatch):
    # the batch costs one run of the program, not one walk per point: it makes no
    # Jet product, and as many dense products as the walk, which runs the same
    # program on Jets; the program at one point makes the same dense products too
    spec = parse_metric_text(SCHWARZSCHILD_TEXT)
    calls, products, mul, dense_mul = [0], [0], jets.Jet.__mul__, jets.mul

    def counting(self, other):
        calls[0] += 1
        return mul(self, other)

    def counting_dense(*args):
        products[0] += 1
        return dense_mul(*args)

    monkeypatch.setattr(jets.Jet, "__mul__", counting)
    monkeypatch.setattr(jets, "mul", counting_dense)
    pts = np.array([[0.0, 5.0 + k, 1.2, 0.3 * k] for k in range(5)])
    spec.metric_jets(pts[0], 3)
    single, walked, calls[0], products[0] = calls[0], products[0], 0, 0
    batch = spec.metric_jets(pts, 3)
    assert single > 0 and calls[0] == 0
    assert products[0] == walked
    one_run, products[0] = products[0], 0
    _program(spec, pts[0], 3)
    assert calls[0] == 0 and products[0] == one_run
    assert batch.shape == (5, 4, 4, jets._size(4, 3))
    for k, p in enumerate(pts):
        assert np.array_equal(batch[k], spec.metric_jets(p, 3))


@pytest.mark.parametrize("text", ["(0-2)^0.5", "1 + (0-2)^0.5 * x", "x^2 * (0-8)^1.5"])
def test_a_negative_constant_to_a_fractional_power_is_a_domain_error(text):
    # float ** makes a complex number here; the evaluator fails closed as jets.power does
    spec = _plane({(0, 0): parse_expression(text), (1, 1): parse_expression("1")})
    for metric in (MetricSpec.metric_jets, _program):
        with pytest.raises(ValueError, match="fractional power"):
            metric(spec, np.array([0.3, 0.2]), 2)
    with pytest.raises(ValueError, match="fractional power"):
        spec.metric_values((0.3, 0.2))
    assert evaluate(parse_expression("(0-8)^2"), {}) == 64.0
