"""Plain-text description language for metrics.

Files look like::

    # comments run to end of line
    dimension = 4
    signature = "-+++"
    coords = t r th ph
    g[1][1] = "-(1 - 2/r)"      # 1-based indices, symmetric entries implied
    g[3][3] = "r^2"             # absent entries are zero

Component expressions use +, -, *, /, ^ (numeric-literal exponents only),
parentheses, the constant pi, declared coordinate names, and the functions
sin cos tan exp log sqrt sinh cosh.  Precedence from tightest to loosest:
^  unary minus  * /  + -.

MetricSpec.metric_jets returns the dense metric; everything downstream is
dense.  On (P, n) points it runs the component trees compiled once into a
straight-line program, one step per distinct subexpression, over dense
(P, ncoeff) jets by the pointwise functions of jets, bit-identical per point.
At one point it walks each distinct tree once on Jets (evaluate()): the one
Jet arithmetic of a verify run, which perfbench's tracer counts at
Jet.__mul__.  The catalog runs the program at one point.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from . import jets

FUNCTION_NAMES = tuple(sorted(jets.FUNCTIONS))
RESERVED = set(FUNCTION_NAMES) | {"pi"}


class MetricSyntaxError(ValueError):
    """Malformed expression or file; carries a 1-based line/col location."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class MetricValidationError(ValueError):
    """Structurally valid file with inconsistent content."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float
    pos: tuple = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: tuple = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"
    pos: tuple = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class Neg:
    arg: "Expr"
    pos: tuple = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class Bin:
    op: str
    lhs: "Expr"
    rhs: "Expr"
    pos: tuple = field(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    expo: float
    pos: tuple = field(default=(1, 1), compare=False, repr=False)


Expr = Union[Num, Var, Call, Neg, Bin, Pow]


# ---------------------------------------------------------------------------
# lexer

_NUM_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = set("+-*/^()")


@dataclass
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    value: float
    line: int
    col: int


def _tokenize(text: str, line_offset: int = 0):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        m = _NUM_RE.match(text, i)
        if m and m.start() == i:
            # reject forms like "1..2" where a stray dot follows
            end = m.end()
            if end < len(text) and text[end] == ".":
                raise MetricSyntaxError("malformed number", line + line_offset, col)
            if math.isinf(float(m.group())):
                raise MetricSyntaxError("number out of range", line + line_offset, col)
            tokens.append(_Token("num", m.group(), float(m.group()), line + line_offset, col))
            col += end - i
            i = end
            continue
        m = _NAME_RE.match(text, i)
        if m and m.start() == i:
            tokens.append(_Token("name", m.group(), 0.0, line + line_offset, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, 0.0, line + line_offset, col))
            i += 1
            col += 1
            continue
        raise MetricSyntaxError(f"unexpected character {ch!r}", line + line_offset, col)
    tokens.append(_Token("end", "", 0.0, line + line_offset, col))
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent expression parser


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message):
        tok = self.peek()
        raise MetricSyntaxError(message, tok.line, tok.col)

    def expect_op(self, text):
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            self.fail(f"expected {text!r}")
        return self.take()

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.take()
            node = Bin(tok.text, node, self.term(), pos=(tok.line, tok.col))
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.take()
            node = Bin(tok.text, node, self.factor(), pos=(tok.line, tok.col))
        return node

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            return Neg(self.factor(), pos=(tok.line, tok.col))
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            etok = self.peek()
            if etok.kind != "num":
                self.fail("exponent must be a numeric literal")
            self.take()
            node = Pow(node, etok.value, pos=(etok.line, etok.col))
        return node

    def atom(self) -> Expr:
        tok = self.take()
        if tok.kind == "num":
            return Num(tok.value, pos=(tok.line, tok.col))
        if tok.kind == "name":
            if self.peek().kind == "op" and self.peek().text == "(":
                if tok.text not in jets.FUNCTIONS:
                    raise MetricSyntaxError(f"unknown function {tok.text!r}", tok.line, tok.col)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg, pos=(tok.line, tok.col))
            return Var(tok.text, pos=(tok.line, tok.col))
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise MetricSyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def parse_expression(text: str, line_offset: int = 0) -> Expr:
    parser = _Parser(_tokenize(text, line_offset))
    node = parser.expr()
    if parser.peek().kind != "end":
        parser.fail(f"trailing input {parser.peek().text!r}")
    return node


# ---------------------------------------------------------------------------
# evaluation and printing


def evaluate(ast: Expr, env):
    """Evaluate over floats or jets; env maps coordinate names to values."""
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Var):
        if ast.name in env:
            return env[ast.name]
        if ast.name == "pi":
            return math.pi
        raise MetricValidationError(f"unknown identifier {ast.name!r} at {ast.pos}")
    if isinstance(ast, Call):
        return jets.FUNCTIONS[ast.fn](evaluate(ast.arg, env))
    if isinstance(ast, Neg):
        return -evaluate(ast.arg, env)
    if isinstance(ast, Pow):
        base = evaluate(ast.base, env)
        if not isinstance(base, jets.Jet) and base < 0.0 and not float(ast.expo).is_integer():
            raise ValueError(f"fractional power of negative value {base}")  # as jets.power
        return base ** ast.expo
    if isinstance(ast, Bin):
        a, b = evaluate(ast.lhs, env), evaluate(ast.rhs, env)
        if ast.op == "+":
            return a + b
        if ast.op == "-":
            return a - b
        if ast.op == "*":
            return a * b
        return a / b
    raise TypeError(f"not an expression node: {ast!r}")


def variables(ast: Expr) -> set:
    if isinstance(ast, Var):
        return {ast.name}
    if isinstance(ast, Call):
        return variables(ast.arg)
    if isinstance(ast, Neg):
        return variables(ast.arg)
    if isinstance(ast, Pow):
        return variables(ast.base)
    if isinstance(ast, Bin):
        return variables(ast.lhs) | variables(ast.rhs)
    return set()


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _render(node: Expr, minimum: int) -> str:
    if isinstance(node, Num):
        if node.value < 0:
            return "-" + _fmt_number(-node.value)
        return _fmt_number(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({_render(node.arg, 0)})"
    if isinstance(node, Neg):
        text, level = "-" + _render(node.arg, 3), 3
    elif isinstance(node, Pow):
        text, level = _render(node.base, 5) + "^" + _fmt_number(node.expo), 4
    elif isinstance(node, Bin):
        level = 1 if node.op in "+-" else 2
        text = f"{_render(node.lhs, level)} {node.op} {_render(node.rhs, level + 1)}"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    return f"({text})" if level < minimum else text


def expression_to_text(ast: Expr) -> str:
    """Inverse of parse_expression up to whitespace: reparsing gives == AST."""
    return _render(ast, 0)


def _jet_step(node: Expr, vals: list, dim: int, order: int):
    """node on the dense jets vals of its operands, a float where one is free of coordinates."""
    if isinstance(node, Bin):
        return jets.binary(node.op, *vals, dim, order)
    if isinstance(node, Call):
        return jets.series(node.fn, vals[0], dim, order)
    if isinstance(node, Pow):
        return jets.power(vals[0], float(node.expo), dim, order)
    return -vals[0]


def _compile(trees) -> tuple:
    """(steps, outputs): the trees as one straight-line program over dense jets.

    A step (node, args) is node on the registers args (_jet_step), or evaluate() of a
    coordinate or, args None, of a subtree free of coordinates.  Each distinct subexpression
    is one step, where evaluate's walk first reaches it, so a point out of the domain raises
    where the walk would.  outputs: the register of each tree.
    """
    steps, seen = [], {}

    def visit(node) -> int:
        key = repr(node)  # unlike ==, tells -0.0 from 0.0
        if key not in seen:
            kids = [getattr(node, f) for f in ("arg", "base", "lhs", "rhs") if hasattr(node, f)]
            steps.append((node, [visit(k) for k in kids] if variables(node) - {"pi"} else None))
            seen[key] = len(steps) - 1
        return seen[key]

    return steps, [visit(ast) for ast in trees]


def _run(program: tuple, coords: tuple, pts: np.ndarray, order: int) -> list:
    """Dense jets (..., ncoeff) of each tree of program at points (..., n) named coords."""
    (steps, outputs), dim = program, len(coords)
    env = {x: jets._variable_coeffs(pts[..., k], k, dim, order) for k, x in enumerate(coords)}
    regs = []
    for node, args in steps:
        regs.append(_jet_step(node, [regs[a] for a in args], dim, order) if args
                    else evaluate(node, env))
    n = jets._size(dim, order)
    return [regs[r] if isinstance(regs[r], np.ndarray) else jets._constant_coeffs(float(regs[r]), n)
            for r in outputs]


# ---------------------------------------------------------------------------
# metric files


@dataclass(frozen=True)
class MetricSpec:
    """Validated symmetric metric given by closed-form component expressions."""

    dim: int
    signature: tuple
    coords: tuple
    components: dict  # {(i, j) 0-based with i <= j: Expr}
    label: str = "metric"

    def __post_init__(self):
        if self.dim < 2:
            raise MetricValidationError(f"dimension must be at least 2, got {self.dim}")
        if len(self.signature) != self.dim or any(s not in (-1, 1) for s in self.signature):
            raise MetricValidationError(f"bad signature {self.signature!r} for dim {self.dim}")
        if len(self.coords) != self.dim:
            raise MetricValidationError(
                f"{len(self.coords)} coordinate names for dimension {self.dim}"
            )
        if len(set(self.coords)) != self.dim:
            raise MetricValidationError("duplicate coordinate names")
        for name in self.coords:
            if name in RESERVED:
                raise MetricValidationError(f"coordinate name {name!r} is reserved")
            if not _NAME_RE.fullmatch(name):
                raise MetricValidationError(f"bad coordinate name {name!r}")
        allowed = set(self.coords) | {"pi"}
        for (i, j), ast in self.components.items():
            if not (0 <= i <= j < self.dim):
                raise MetricValidationError(f"component index ({i},{j}) out of range")
            stray = variables(ast) - allowed
            if stray:
                raise MetricValidationError(
                    f"unknown identifier {sorted(stray)[0]!r} in g[{i+1}][{j+1}]"
                )

    def metric_jets(self, point, order: int) -> np.ndarray:
        """Dense symmetric metric: (n, n, ncoeff) at a point (n,) by the walk, (P, n, n, ncoeff) at (P, n)."""
        pts = np.asarray(point, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != self.dim:
            raise ValueError(f"points of shape {pts.shape}, expected ({self.dim},) or (P, {self.dim})")
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite values: Geometry refuses them
            vals = _run(self._program, self.coords, pts, order) if pts.ndim == 2 else self._walk(pts, order)
        g = np.zeros(pts.shape[:-1] + (self.dim, self.dim, jets._size(self.dim, order)))
        for (i, j), val in zip(self.components, vals):
            g[..., i, j, :] = g[..., j, i, :] = val
        return g

    def _walk(self, point: np.ndarray, order: int) -> list:
        """Coefficients of each component at one point, each distinct tree walked once on Jets."""
        (steps, outputs), n, pt = self._program, jets._size(self.dim, order), point.tolist()
        env = {x: jets.variable(pt[k], k, self.dim, order) for k, x in enumerate(self.coords)}
        walked = {r: evaluate(steps[r][0], env) for r in dict.fromkeys(outputs)}
        return [v.coeffs if isinstance(v, jets.Jet) else jets._constant_coeffs(float(v), n)
                for v in map(walked.get, outputs)]

    @cached_property
    def _program(self) -> tuple:
        return _compile(self.components.values())

    def metric_values(self, point) -> np.ndarray:
        env = dict(zip(self.coords, [float(x) for x in point]))
        g = np.zeros((self.dim, self.dim))
        for (i, j), ast in self.components.items():
            g[i, j] = g[j, i] = float(evaluate(ast, env))
        return g

    def to_text(self) -> str:
        lines = [
            f"dimension = {self.dim}",
            'signature = "' + "".join("+" if s > 0 else "-" for s in self.signature) + '"',
            "coords = " + " ".join(self.coords),
        ]
        for (i, j) in sorted(self.components):
            lines.append(f'g[{i+1}][{j+1}] = "{expression_to_text(self.components[(i, j)])}"')
        return "\n".join(lines) + "\n"


_KEY_RE = re.compile(r"^\s*(dimension|signature|coords)\s*=\s*(.*?)\s*$")
_COMP_RE = re.compile(r"^\s*g\[(\d+)\]\[(\d+)\]\s*=\s*\"([^\"]*)\"\s*$")


def _strip_comment(line: str) -> str:
    out = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        if ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


def parse_metric_text(text: str, label: str = "metric") -> MetricSpec:
    dim = None
    signature = None
    coords = None
    comps = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        m = _COMP_RE.match(line)
        if m:
            i, j = int(m.group(1)), int(m.group(2))
            if dim is None:
                raise MetricValidationError("dimension must be declared before components")
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise MetricValidationError(
                    f"component index g[{i}][{j}] out of range 1..{dim} (line {lineno})"
                )
            key = (min(i, j) - 1, max(i, j) - 1)
            if key in comps:
                raise MetricValidationError(
                    f"duplicate component g[{key[0]+1}][{key[1]+1}] (line {lineno})"
                )
            comps[key] = parse_expression(m.group(3), line_offset=lineno - 1)
            continue
        m = _KEY_RE.match(line)
        if not m:
            raise MetricSyntaxError("unrecognized line", lineno, 1)
        key, value = m.group(1), m.group(2)
        if key == "dimension":
            try:
                dim = int(value)
            except ValueError:
                raise MetricSyntaxError("dimension must be an integer", lineno, 1) from None
        elif key == "signature":
            if not (value.startswith('"') and value.endswith('"') and len(value) >= 2):
                raise MetricSyntaxError("signature must be a quoted string", lineno, 1)
            body = value[1:-1]
            if not body or set(body) - {"+", "-"}:
                raise MetricValidationError(f"bad signature {body!r} (line {lineno})")
            signature = tuple(1 if c == "+" else -1 for c in body)
        else:
            coords = tuple(value.replace(",", " ").split())
    if dim is None or signature is None or coords is None:
        raise MetricValidationError("file must declare dimension, signature and coords")
    return MetricSpec(dim, signature, coords, comps, label=label)


def load_metric(path) -> MetricSpec:
    from pathlib import Path

    p = Path(path)
    return parse_metric_text(p.read_text(), label=p.stem)
