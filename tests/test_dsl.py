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
        "(x^2)^3 - (-x)^2",
    ]
    for text in texts:
        steps = parse_expression(text)
        printed = expression_to_text(steps)
        assert parse_expression(printed) == steps, (text, printed)


@pytest.mark.parametrize("step", [dsl.Step("pow", -2.0, (0,)), dsl.Step("num", -1.0),
                                  dsl.Step("num", -0.0), dsl.Step("pow", math.inf, (0,))])
def test_a_step_with_no_literal_does_not_print(step):
    # the grammar reads no negative, signed-zero or non-finite number, so the
    # printer names the step instead of writing text that does not read back
    steps = (dsl.Step("var", "x"), step) + ((dsl.Step("bin", "+", (0, 1)),) if not step.args else ())
    with pytest.raises(ValueError, match=f"cannot print Step\\(kind='{step.kind}'"):
        expression_to_text(steps)


@pytest.mark.parametrize("text, col", [("1 + 1e999 * x", 5), ("x * 2e308", 5), ("1e400", 1)])
def test_a_number_that_overflows_is_a_syntax_error(text, col):
    # a literal that rounds to inf would reach the metric as a non-finite coefficient
    with pytest.raises(MetricSyntaxError, match="number out of range") as err:
        parse_expression(text)
    assert (err.value.line, err.value.col) == (1, col)
    assert parse_expression("1e308") == (dsl.Step("num", 1e308),)


def test_syntax_errors_carry_location():
    table = [  # (input, message, col); every error is on line 1
        ("x +", "unexpected token ''", 4),
        ("sin(", "unexpected token ''", 5),
        ("(x", "expected ')'", 3),
        ("x ^ y", "exponent must be a numeric literal", 5),
        ("x ^ -2", "exponent must be a numeric literal", 5),
        ("foo(x)", "unknown function 'foo'", 1),
        ("x ^ 2 ^ 3", "trailing input '^'", 7),  # an exponent is a literal, so ^ does not chain
        ("(x ^ 2 ^ 3)", "expected ')'", 8),     # the same token inside parentheses
        ("2 3", "trailing input '3'", 3),
        ("x)", "trailing input ')'", 2),
        ("sin(2 3)", "expected ')'", 7),
        ("+x", "unexpected token '+'", 1),
        ("sin x", "trailing input 'x'", 5),
        ("", "unexpected token ''", 1),
        ("1..2", "malformed number", 1),
        ("x @ y", "unexpected character '@'", 3),
    ]
    for text, message, col in table:
        with pytest.raises(MetricSyntaxError) as err:
            parse_expression(text)
        assert str(err.value) == f"{message} (line 1, col {col})", text
        assert (err.value.line, err.value.col) == (1, col), text


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
    assert spec.components[(0, 0)] == (dsl.Step("num", 1.0),)


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
    assert again.components == spec.components


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
# the program against the walk on Jets of MetricSpec.metric_jets at one point

_EXPONENTS = (0.0, 0.5, 1.5, 2.0, 3.0)  # the grammar writes no negative exponent
_texts = st.recursive(
    st.one_of(st.sampled_from(["x", "y", "pi"]),
              st.floats(min_value=0, max_value=3).map(lambda v: repr(abs(v)))),
    lambda sub: st.one_of(
        st.builds("{}({})".format, st.sampled_from(dsl.FUNCTION_NAMES), sub),
        sub.map("-{}".format),
        st.builds(str.format, st.sampled_from(["{} {} {}", "({} {} {})"]), sub,
                  st.sampled_from("+-*/"), sub),
        st.builds("({})^{}".format, sub, st.sampled_from(_EXPONENTS)),
    ),
    max_leaves=8,
)


def _op(kind, value, *programs) -> tuple:
    """The program of one explicit step on the values of programs, for what the grammar cannot
    write: a negative exponent, say."""
    steps, outputs = dsl._merge(programs)
    return (*steps, dsl.Step(kind, value, tuple(outputs)))


# the programs of expression text, some raised to a negative power
_programs = st.one_of(
    _texts.map(parse_expression),
    st.builds(lambda text, expo: _op("pow", expo, parse_expression(text)), _texts,
              st.sampled_from((-2.0, -1.0, -0.5))),
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
@given(one=_programs, other=_programs,
       points=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=5),
       order=st.integers(min_value=0, max_value=4))
def test_batched_evaluation_equals_per_point_jets(one, other, points, order):
    # three components, the third sharing both others as subexpressions
    spec = _plane({(0, 0): one, (0, 1): other, (1, 1): _op("bin", "*", one, other)})
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
    e, shared = parse_expression, "sin(x) + cos(y) * tan(z)"
    comps = {
        (0, 0): e(f"{shared} - exp(x*y) / log(2 + x^2)"),
        (0, 1): _op("bin", "+", _op("pow", -1.5, e("sqrt(1 + y^2)")),
                    _op("bin", "*", _op("pow", -2.0, e("sinh(z)")), e("cosh(x)^0.5 - pi / (3 + x)"))),
        (0, 2): e("2 * pi^2 - 1 / 3"),
        (1, 1): _op("bin", "+", _op("bin", "*", e(shared), _op("pow", -1.0, e("x"))),
                    e("(1 + y^2)^2.5")),
        (1, 2): e("-(x - 4) / y^3 - 1 / (x * z) + x^0 * 2"),
        (2, 2): e(f"({shared})^2 + exp(x*y)"),
    }
    return MetricSpec(3, (1, 1, 1), ("x", "y", "z"), comps)


def _subterms(steps) -> list:
    """The whole subexpression under each step, spelled out as text."""
    terms = []
    for step in steps:
        terms.append(f"{step.kind}:{step.value!r}({', '.join(terms[a] for a in step.args)})")
    return terms


@pytest.mark.parametrize("order", [0, 1, 3, 6])
def test_the_program_equals_the_walk_on_every_operation(order):
    spec = _all_operations()
    assert {s.value for s in spec._program[0] if s.kind == "call"} == set(jets.FUNCTIONS)
    pts = np.random.default_rng(order).uniform([0.5, 0.5, 0.3], [1.5, 1.5, 1.2], (4, 3))
    batch = spec.metric_jets(pts, order)
    for k, p in enumerate(pts):
        walked = spec.metric_jets(p, order)
        assert np.array_equal(batch[k], walked)
        assert np.array_equal(_program(spec, p, order), walked)
    # one step per distinct subexpression, constant subexpressions included
    terms = {term for steps in spec.components.values() for term in _subterms(steps)}
    assert len(spec._program[0]) == len(terms)


def _reference_parse(text) -> tuple:
    """text as nested tuples (kind, value, *operands), by recursive descent with one function per
    precedence level: recursive in the depth of text, and read only where text is well formed."""
    tokens = dsl._tokenize(text)[::-1]
    take, peek = tokens.pop, lambda: tokens[-1].text

    def binary(operand, ops):
        tree = operand()
        while peek() in ops:
            tree = ("bin", take().text, tree, operand())
        return tree

    def total():
        return binary(lambda: binary(unary, ("*", "/")), ("+", "-"))

    def unary():
        if peek() == "-":
            take()
            return ("neg", None, unary())
        tree = atom()
        if peek() == "^":
            take()
            tree = ("pow", take().value, tree)
        return tree

    def atom():
        tok = take()
        if tok.kind == "num":
            return ("num", tok.value)
        if tok.kind == "name" and peek() != "(":
            return ("var", tok.text)
        if tok.kind == "name":
            take()  # the "(" of a call
        tree = total()
        take()  # the ")"
        return ("call", tok.text, tree) if tok.kind == "name" else tree

    tree = total()
    assert take().kind == "end"
    return tree


def _reference_number(trees) -> tuple:
    """(steps, outputs) of trees, each step a (kind, repr(value), args) numbering a whole subtree
    by its repr, placed where a left-to-right post-order walk first reaches it: quadratic in the
    depth of the trees, with the step order parse_expression and _merge have to keep."""
    steps, seen = [], {}

    def visit(tree) -> int:
        key = repr(tree)  # unlike ==, tells -0.0 from 0.0
        if key not in seen:
            kind, value, *kids = tree
            steps.append((kind, repr(value), tuple(visit(kid) for kid in kids)))
            seen[key] = len(steps) - 1
        return seen[key]

    return steps, [visit(tree) for tree in trees]


def _rows(steps) -> list:
    return [(step.kind, repr(step.value), step.args) for step in steps]


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(_texts, min_size=1, max_size=4))
def test_the_parser_equals_the_recursive_reference(texts):
    texts = texts + [f"({texts[0]}) * ({texts[-1]})", texts[0]]  # shared across programs
    programs = [parse_expression(text) for text in texts]
    for text, steps in zip(texts, programs):
        assert (_rows(steps), [len(steps) - 1]) == _reference_number([_reference_parse(text)])
    steps, outputs = dsl._merge(programs)
    assert (_rows(steps), outputs) == _reference_number([_reference_parse(t) for t in texts])


def test_the_merge_tells_minus_zero_from_zero():
    # the grammar writes no negative literal, so the programs are written as steps
    x, zero, minus = dsl.Step("var", "x"), dsl.Step("num", 0.0), dsl.Step("num", -0.0)
    plus = dsl.Step("bin", "+", (0, 1))
    steps, outputs = dsl._merge([(minus, x, plus), (zero, x, plus), (zero,), (minus,)])
    assert [step.args for step in steps] == [(), (), (0, 1), (), (3, 1)]
    assert outputs == [2, 4, 3, 0]
    values = dsl._values((steps, outputs), {"x": 1.0}, None, None)
    assert [math.copysign(1.0, v) for v in values[2:]] == [1.0, -1.0]


def test_a_sum_of_20000_terms_compiles_and_evaluates():
    steps = parse_expression("1" + " + 0.001*x" * 20000)
    assert len(steps) == 4 + 20000 and dsl._merge([steps])[1] == [len(steps) - 1]
    assert dsl.variables(steps) == {"x"}
    assert evaluate(steps, {"x": 0.5}) == pytest.approx(11.0, rel=1e-12)


def _deep_metric(text) -> MetricSpec:
    return parse_metric_text('dimension = 3\ncoords = x y z\nsignature = "+++"\n'
                             f'g[1][1] = "{text}"\ng[2][2] = "1"\ng[3][3] = "1 + y*z"\n')


_DEEP = pytest.mark.parametrize(
    "text", ["1" + " + 0.001*x" * 4999, "1 + 0.1*" + "-" * 5000 + "x", "(" * 5000 + "1+x" + ")" * 5000],
    ids=["5000-term-sum", "5000-deep-negation", "5000-nested-parentheses"])


@_DEEP
def test_a_deep_tree_prints_and_reads_back(text):
    # the printer is one pass over the program: deep expressions print, and the text reads
    # back to the same metric, compared as text and as jets
    printed = expression_to_text(parse_expression(text))
    assert expression_to_text(parse_expression(printed)) == printed
    spec = _deep_metric(text)
    again = parse_metric_text(spec.to_text())
    point = [0.3, -0.2, 0.7]
    assert np.array_equal(again.metric_jets(point, 3), spec.metric_jets(point, 3))


@_DEEP
def test_a_deep_metric_compares_hashes_and_prints(text):
    # a component is a flat tuple of steps, so ==, hash() and repr() go without recursion
    spec = _deep_metric(text)
    again = parse_metric_text(spec.to_text())
    assert again == spec
    assert hash(again.components[(0, 0)]) == hash(spec.components[(0, 0)])
    assert "Step(kind='var', value='x', args=())" in repr(spec)


@pytest.mark.parametrize("ast, exc", [
    (parse_expression("1 / x"), jets.SingularPointError),
    ((dsl.Step("var", "x"), dsl.Step("pow", -1.0, (0,))), jets.SingularPointError),  # x^-1
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
