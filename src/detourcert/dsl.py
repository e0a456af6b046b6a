"""Plain-text description language for metrics.

Files look like::

    # a # outside double quotes starts a comment that runs to the end of the line
    dimension = 4
    signature = "-+++"
    coords = t r th ph
    g[1][1] = "-(1 - 2/r)"      # 1-based indices, symmetric entries implied
    g[3][3] = "r^2"             # absent entries are zero

Component expressions use +, -, *, /, ^ (numeric-literal exponents only),
parentheses, the constant pi, declared coordinate names, and the functions
sin cos tan exp log sqrt sinh cosh.  Precedence from tightest to loosest:
^  unary minus  * /  + -.  One alternation regex, _TOKEN_RE, lexes them (each
column is a match offset), and a loop on two explicit stacks builds the tree.

Every expression is evaluated through one program: _compile makes the trees a
straight-line program, one step per distinct subexpression, and one _step applies
a node to floats, Jets or dense (..., ncoeff) jets.  MetricSpec.metric_jets returns
the dense metric; everything downstream is dense.  On (P, n) points it runs the
program on dense jets, bit-identical per point; at one point it runs it on Jets,
the one Jet arithmetic of a verify run, which perfbench's tracer counts at
Jet.__mul__.  The catalog runs the program on dense jets at one point.
"""
from __future__ import annotations

import math
import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Union

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
_TOKEN_RE = re.compile(rf"(?P<newline>\n)|(?P<skip>[ \t\r]+|#[^\n]*)|(?P<num>{_NUM_RE.pattern})"
                       rf"|(?P<name>{_NAME_RE.pattern})|(?P<op>[-+*/^()])|(?P<bad>.)")


class _Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    value: float
    line: int
    col: int


def _tokenize(text: str, line_offset: int = 0) -> list:
    tokens, line, start = [], 1 + line_offset, 0
    for m in _TOKEN_RE.finditer(text):
        kind, tok, col = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "bad":
            raise MetricSyntaxError(f"unexpected character {tok!r}", line, col)
        elif kind == "num" and text.startswith(".", m.end()):  # "1..2": a stray dot follows
            raise MetricSyntaxError("malformed number", line, col)
        elif kind == "num" and math.isinf(float(tok)):
            raise MetricSyntaxError("number out of range", line, col)
        elif kind != "skip":
            tokens.append(_Token(kind, tok, float(tok) if kind == "num" else 0.0, line, col))
    tokens.append(_Token("end", "", 0.0, line, len(text) - start + 1))
    return tokens


# ---------------------------------------------------------------------------
# expression parser: operator precedence on two explicit stacks

_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2}  # binary operators; unary minus binds at 3, ^ at 4, atoms at 5


def parse_expression(text: str, line_offset: int = 0) -> Expr:
    """The tree of text, by operator precedence in one loop on two stacks: trees, the finished
    subtrees, and ops, the pending operators as (level, token): a binary operator, a unary minus
    (level 3) or an open parenthesis (level 0, its token the function it calls or the "(" itself).
    ^ applies at once to the top tree, its exponent being a numeric literal; nesting has no limit."""
    tokens, trees, ops, i = _tokenize(text, line_offset), [], [], 0

    def reduce(level):  # apply the pending operators that bind at least as tightly as level
        while ops and ops[-1][0] >= level:
            (kind, op), arg = ops.pop(), trees.pop()
            pos = (op.line, op.col)
            trees.append(Neg(arg, pos=pos) if kind == 3 else Bin(op.text, trees.pop(), arg, pos=pos))

    while True:
        tok, i = tokens[i], i + 1  # an operand is due
        call = tok.kind == "name" and tokens[i].text == "("
        if call and tok.text not in jets.FUNCTIONS:
            raise MetricSyntaxError(f"unknown function {tok.text!r}", tok.line, tok.col)
        if call or tok.text in ("-", "("):
            ops.append((3 if tok.text == "-" else 0, tok))
            i += call
            continue
        if tok.kind not in ("num", "name"):
            raise MetricSyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.col)
        trees.append(Num(tok.value, pos=(tok.line, tok.col)) if tok.kind == "num"
                     else Var(tok.text, pos=(tok.line, tok.col)))
        while True:  # after an atom: an optional ^, then ")" ends another atom
            tok, i = tokens[i], i + 1
            if tok.text == "^":
                tok, i = tokens[i], i + 1
                if tok.kind != "num":
                    raise MetricSyntaxError("exponent must be a numeric literal", tok.line, tok.col)
                trees.append(Pow(trees.pop(), tok.value, pos=(tok.line, tok.col)))
                tok, i = tokens[i], i + 1
            if tok.text != ")":
                break
            reduce(1)
            if not ops:
                break
            fn = ops.pop()[1]
            if fn.kind == "name":
                trees.append(Call(fn.text, trees.pop(), pos=(fn.line, fn.col)))
        if tok.text in _LEVEL:
            reduce(_LEVEL[tok.text])
            ops.append((_LEVEL[tok.text], tok))
            continue
        reduce(1)
        if ops or tok.kind != "end":
            what = "expected ')'" if ops else f"trailing input {tok.text!r}"
            raise MetricSyntaxError(what, tok.line, tok.col)
        return trees[0]


# ---------------------------------------------------------------------------
# the program: compiling, evaluating and printing

_KIDS = ("arg", "base", "lhs", "rhs")
_FIELDS = ("value", "name", "fn", "op", "expo")
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _compile(trees) -> tuple:
    """(steps, outputs): the trees as one straight-line program, a step per distinct subexpression.

    A step (node, args) is node on the registers args, placed where a left-to-right walk first
    reaches it, so a point out of the domain raises where the walk would.  One post-order pass on
    an explicit stack keys each node by its type, the repr of its own field (unlike ==, it tells
    -0.0 from 0.0) and its operands' registers.  outputs: the register of each tree.
    """
    steps, seen, regs = [], {}, []
    stack = [(tree, None) for tree in reversed(list(trees))]
    while stack:
        node, kids = stack.pop()
        if kids is None:
            kids = [getattr(node, f) for f in _KIDS if hasattr(node, f)]
            stack += [(node, kids)] + [(kid, None) for kid in reversed(kids)]
            continue
        cut = len(regs) - len(kids)
        args, regs[cut:] = regs[cut:], []
        key = (type(node), *[repr(getattr(node, f)) for f in _FIELDS if hasattr(node, f)], *args)
        if key not in seen:
            seen[key] = len(steps)
            steps.append((node, args))
        regs.append(seen[key])
    return steps, regs


def _step(node: Expr, vals: list, env, dim, order: int):
    """node on the values vals of its operands: floats, Jets or dense jets (ndarrays) in dim
    variables to order, a float operand of a dense one being a constant; env maps names to values."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name in env:
            return env[node.name]
        if node.name == "pi":
            return math.pi
        raise MetricValidationError(f"unknown identifier {node.name!r} at {node.pos}")
    if isinstance(node, Neg):
        return -vals[0]
    dense = isinstance(vals[0], np.ndarray) or isinstance(vals[-1], np.ndarray)
    if isinstance(node, Call):
        return jets.series(node.fn, vals[0], dim, order) if dense else jets.FUNCTIONS[node.fn](vals[0])
    if isinstance(node, Pow):
        if dense:
            return jets.power(vals[0], float(node.expo), dim, order)
        if not isinstance(vals[0], jets.Jet) and vals[0] < 0.0 and not float(node.expo).is_integer():
            raise ValueError(f"fractional power of negative value {vals[0]}")  # as jets.power
        return vals[0] ** node.expo
    return jets.binary(node.op, *vals, dim, order) if dense else _ARITH[node.op](*vals)


def _values(program: tuple, env, dim, order) -> list:
    """The value of each tree of program, by _step on env's floats, Jets or dense jets."""
    steps, outputs = program
    regs = []
    for node, args in steps:
        regs.append(_step(node, [regs[a] for a in args], env, dim, order))
    return [regs[r] for r in outputs]


def _run(program: tuple, coords: tuple, pts: np.ndarray, order: int) -> list:
    """Dense jets (..., ncoeff) of each tree of program at points (..., n) named coords."""
    dim, n = len(coords), jets._size(len(coords), order)
    env = {x: jets._variable_coeffs(pts[..., k], k, dim, order) for k, x in enumerate(coords)}
    return [v if isinstance(v, np.ndarray) else jets._constant_coeffs(float(v), n)
            for v in _values(program, env, dim, order)]


def evaluate(ast: Expr, env):
    """Evaluate over floats or jets; env maps coordinate names to values."""
    return _values(_compile([ast]), env, None, None)[0]


def variables(ast: Expr) -> set:
    return {node.name for node, _ in _compile([ast])[0] if isinstance(node, Var)}


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def expression_to_text(ast: Expr) -> str:
    """Inverse of parse_expression up to whitespace: reparsing gives == AST.  One pass over the
    program of ast builds each step's (text, level) from its operands' entries, parenthesizing one
    whose level is below what its place needs and dropping it after its last use."""
    steps, (out,) = _compile([ast])
    uses = Counter(a for _, args in steps for a in args)
    texts = {}

    def operand(reg, minimum):
        uses[reg] -= 1
        text, level = texts[reg] if uses[reg] else texts.pop(reg)
        return f"({text})" if level < minimum else text

    for r, (node, args) in enumerate(steps):
        if isinstance(node, Num):
            entry = _fmt_number(node.value), 5
        elif isinstance(node, Var):
            entry = node.name, 5
        elif isinstance(node, Call):
            entry = f"{node.fn}({operand(args[0], 0)})", 5
        elif isinstance(node, Neg):
            entry = "-" + operand(args[0], 3), 3
        elif isinstance(node, Pow):
            entry = operand(args[0], 5) + "^" + _fmt_number(node.expo), 4
        elif isinstance(node, Bin):
            level = _LEVEL[node.op]
            entry = f"{operand(args[0], level)} {node.op} {operand(args[1], level + 1)}", level
        else:
            raise TypeError(f"not an expression node: {node!r}")
        texts[r] = entry
    return texts[out][0]


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
        named = {node.name for node, _ in self._program[0] if isinstance(node, Var)}
        for (i, j), ast in self.components.items():
            if not (0 <= i <= j < self.dim):
                raise MetricValidationError(f"component index ({i},{j}) out of range")
            stray = set() if named <= allowed else variables(ast) - allowed
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
        """Coefficients of each component at one point, by the program on Jets."""
        n, pt = jets._size(self.dim, order), point.tolist()
        env = {x: jets.variable(pt[k], k, self.dim, order) for k, x in enumerate(self.coords)}
        return [v.coeffs if isinstance(v, jets.Jet) else jets._constant_coeffs(float(v), n)
                for v in _values(self._program, env, self.dim, order)]

    @cached_property
    def _program(self) -> tuple:
        return _compile(self.components.values())

    def metric_values(self, point) -> np.ndarray:
        env = dict(zip(self.coords, [float(x) for x in point]))
        g = np.zeros((self.dim, self.dim))
        for (i, j), v in zip(self.components, _values(self._program, env, None, None)):
            g[i, j] = g[j, i] = float(v)
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
_CODE_RE = re.compile(r'(?:[^"#]|"[^"]*"?)*')  # a line up to its first # outside quotes


def parse_metric_text(text: str, label: str = "metric") -> MetricSpec:
    dim = None
    signature = None
    coords = None
    comps = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _CODE_RE.match(raw).group().strip()
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
