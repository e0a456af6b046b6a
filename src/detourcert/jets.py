"""Exact truncated Taylor (jet) arithmetic in several variables.

A jet of order K in d variables stores every Taylor coefficient
f_alpha = (d^alpha f / alpha!) evaluated at a base point, for all
multi-indices with |alpha| <= K, in a dense float vector laid out in graded
lexicographic order.  Arithmetic is exact truncated power-series arithmetic:
the order-K coefficients of a product depend only on inputs of order <= K, so
no truncation error beyond float rounding is ever introduced.  Jets are
treated as immutable; every operation returns a fresh instance.

Derivatives are recovered by unscaling: d^alpha f = alpha! * f_alpha.

Tensors of jets have a dense layout as well: a float array of shape
tensor_shape + (ncoeff,) whose last axis holds each component's coefficient
vector, behind optional leading points axes.  Its kernels (contract, partials,
to_jets) read the jet order off that axis.  contract() is the one product
kernel on that layout, at the lower order of its two operands: each product
coefficient is one matmul over the joint index (pair, tensor index) of its
pairs (alpha, beta), at every point.
Coefficients are bucketed by pair count and padded to a power of two (at
least 8) with pairs that read an appended zero coefficient on both sides; a
bucket runs in chunks of one gather per operand and one batched np.matmul
within _CHUNK_BYTES, whose stack axis holds the points too; the bucket cuts
of a coefficient range are planned once (_pair_plan), and one bucket that
covers the range in order gives the result unscattered.  Terms are summed in
BLAS order, not Jet.__mul__'s, so the two agree to roundoff.  to_dense() and
to_jets() convert between the layouts (to_jets() views rows of the dense
array).  Only as_dense() and like() decide the layout: a public operator
takes as_dense() of its input (a Jet, jets or a dense array) and returns
like() it, so it returns the layout it was given; internal functions take
dense arrays only.

Pointwise arithmetic (binary, mul, reciprocal, power, series) acts on dense
coefficient arrays (..., ncoeff) at every point, each point bit-identical to
that point alone: a product is one bincount whose bins are offset per point,
so each point sums in _mul_table order; a series table is built per point in
scalar arithmetic, and the first point out of the domain raises.  A Jet is
one point, whose operators run these functions on its coefficients; the
compiled metric program of dsl runs them on the dense jets of one point or of
a batch of points.

The variables of a jet are a number d, or the ring key (d, 1): d variables
and one more, eps, with eps^2 = 0.  The ring's multi-indices are the
graded-lex ones of d+1 variables with eps-degree (the last exponent) at most
1, so truncation stays a prefix slice; its product table skips every pair
whose product leaves the ring.  The tables and contract() accept either key.

Every index table is array arithmetic on one (ncoeff, variables) integer
array of exponent rows per key and order (_exponents, in the order above) and
one rank rule (_ranks): the digits (|alpha|, alpha) in base order+1 make a key
that rises with rank, found by np.searchsorted in the keys of the array; a
row that is no coefficient (above the order, eps^2 in the ring) gives -1.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping

import numpy as np


class SingularPointError(ArithmeticError):
    """Raised when an operation hits a genuine singularity at the base point."""


# ---------------------------------------------------------------------------
# multi-index bookkeeping, cached per (dim, order)


@lru_cache(maxsize=None)
def _exponents(dim, order: int) -> np.ndarray:
    """The rows of multi_indices(dim, order) as an (ncoeff, variables) array.

    Each first exponent f, rising, heads the later variables' rows of degree <= order - f
    (lexicographic); a stable sort by degree makes it graded.
    """
    if isinstance(dim, tuple):
        rows = _exponents(dim[0] + 1, order)
        rows = rows[rows[:, -1] <= dim[1]]
    else:
        if dim < 1 or order < 0:
            raise ValueError(f"bad jet shape dim={dim} order={order}")
        rows = np.zeros((1, 0), dtype=np.intp)
        for _ in range(dim):
            first, rest = np.nonzero(rows.sum(1) <= order - np.arange(order + 1)[:, None])
            rows = np.column_stack([first, rows[rest]])
        rows = rows[np.argsort(rows.sum(1), kind="stable")]
    rows.flags.writeable = False
    return rows


def _ranks(dim, order: int, rows) -> np.ndarray:
    """Rank among the coefficients of (dim, order) of each nonnegative exponent row (last axis).

    A row is the radix key of its digits (|alpha|, alpha) in base order+1, so the keys of
    _exponents(dim, order) rise with rank and a searchsorted finds each row.  A row that is
    no coefficient, one above the order or one with eps^2 in the ring, gives -1.
    """
    rows, table = np.asarray(rows, dtype=np.intp), _exponents(dim, order)
    radix = (order + 1) ** np.arange(table.shape[1], -1, -1)
    keys, want = ((r.sum(-1) * radix[0] + r @ radix[1:]) for r in (table, rows))
    pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)  # a degree above order: past every key
    return np.where(keys[pos] == want, pos, -1)


@lru_cache(maxsize=None)
def multi_indices(dim, order: int) -> tuple:
    """All exponent tuples with |alpha| <= order, graded lexicographic.

    The ordering is degree-major, so the multi-indices of a lower order form
    a prefix: truncating a jet is a coefficient-vector slice.  For a ring key
    (d, 1), the tuples of d+1 variables whose last exponent is at most 1.
    """
    return tuple(map(tuple, _exponents(dim, order).tolist()))


@lru_cache(maxsize=None)
def _rank(dim, order: int) -> dict:
    return {alpha: i for i, alpha in enumerate(multi_indices(dim, order))}


@lru_cache(maxsize=None)
def _size(dim, order: int) -> int:
    return len(_exponents(dim, order))


@lru_cache(maxsize=None)
def _mul_table(dim, order: int):
    """Gather tables (ia, ib, ic) with alpha_ia + alpha_ib = alpha_ic inside the ring of dim."""
    rows = _exponents(dim, order)
    deg = rows.sum(1)
    counts = np.searchsorted(deg, order - deg, side="right")  # graded: ib runs over a prefix
    ia = np.repeat(np.arange(len(rows)), counts)
    ib = np.arange(ia.size) - np.repeat(np.cumsum(counts) - counts, counts)
    ic = _ranks(dim, order, rows[ia] + rows[ib])
    keep = ic >= 0  # the ring drops the pairs whose product has eps^2
    return ia[keep], ib[keep], ic[keep]


@lru_cache(maxsize=None)
def _embed_table(dim: int, order: int, key, pad: tuple):
    """Ranks in the jets of key, at order + |pad|, of alpha + pad for each alpha of (dim, order)."""
    rows = _exponents(dim, order)
    return _ranks(key, order + sum(pad), np.hstack([rows, np.tile(pad, (len(rows), 1))]))


# ---------------------------------------------------------------------------
# dense jet tensors and the product kernel

_CHUNK_BYTES = 1 << 19  # bound on the gathered operands and products of one contract() chunk


@lru_cache(maxsize=None)
def _pair_runs(dim, order: int) -> tuple:
    """Buckets (cs, ia, ib) of the coefficients whose P pairs pad to w = 2^k >= max(P, 8).

    cs is sorted (a degree range is a searchsorted slice); row i of the (len(cs), w) ranks
    ia, ib is cs[i]'s pairs in _mul_table order, then pads (n, n), n = _size(dim, order).
    The floor of 8 keeps low orders to one or two buckets.
    """
    ia, ib, ic = _mul_table(dim, order)
    n, perm = _size(dim, order), np.argsort(ic, kind="stable")
    sa, sb = np.append(ia[perm], n), np.append(ib[perm], n)  # last slot: the pad pair (n, n)
    counts = np.bincount(ic, minlength=n)
    widths = np.array([1 << max(3, (int(k) - 1).bit_length()) for k in counts])
    buckets = []
    for w in np.unique(widths):
        cs = np.flatnonzero(widths == w)
        run = (np.cumsum(counts) - counts)[cs, None] + np.arange(w)
        slot = np.where(np.arange(w) < counts[cs, None], run, perm.size)
        buckets.append((cs, sa[slot], sb[slot]))
    return tuple(buckets)


@lru_cache(maxsize=None)
def _partials_table(dim, order: int, slots: int):
    """Source ranks and multipliers, one row per s < slots: coeffs(K) -> coeffs of d/dx_s (K-1)."""
    lower = _exponents(dim, order - 1)
    unit = np.eye(lower.shape[1], dtype=np.intp)[:slots, None]
    return _ranks(dim, order, lower + unit), lower[:, :slots].T + 1.0


@lru_cache(maxsize=None)
def _point_offsets(dim, order: int, points: int) -> np.ndarray:
    """The ic of _mul_table shifted by ncoeff per point, flat: the bins of a batched Jet.__mul__."""
    return (np.arange(points)[:, None] * _size(dim, order) + _mul_table(dim, order)[2]).ravel()


@lru_cache(maxsize=None)
def order_of(dim, ncoeff: int) -> int:
    """Jet order whose coefficient vector in dim variables has length ncoeff."""
    order = 0
    while _size(dim, order) < ncoeff:
        order += 1
    if _size(dim, order) != ncoeff:
        raise ValueError(f"{ncoeff} coefficients fit no jet order in {dim} variables")
    return order


def contract(x: np.ndarray, y: np.ndarray, dim) -> np.ndarray:
    """Jet matrix product of dense arrays: out[..., i, j] = sum_k x[..., i, k] * y[..., k, j].

    x has shape (..., r, m, ncoeff) and y (..., m, s, ncoeff'), with the same leading
    points axes; the product has the lower of their orders.  Every entry product is the
    truncated Taylor product of Jet.__mul__, each point bit-identical to a call on it alone.
    """
    nc = min(x.shape[-1], y.shape[-1])
    return _pair_sums(x[..., :nc], y[..., :nc], dim, order_of(dim, nc), 0, nc)


@lru_cache(maxsize=None)
def _pair_plan(dim, order: int, c0: int, c1: int) -> tuple:
    """(whole, the buckets (cs - c0, ia, ib) of _pair_runs cut to c0..c1); whole: one covers c0..c1."""
    buckets = []
    for cs, ia, ib in _pair_runs(dim, order):
        lo, hi = np.searchsorted(cs, (c0, c1))
        if lo < hi:
            buckets.append((cs[lo:hi] - c0, ia[lo:hi], ib[lo:hi]))
    return len(buckets) == 1 and len(buckets[0][0]) == c1 - c0, tuple(buckets)


def _pair_sums(x: np.ndarray, y: np.ndarray, dim, order: int, c0: int, c1: int) -> np.ndarray:
    """Coefficients c0..c1 of contract: c is [x_a1 .. x_aw] @ [y_b1; ..; y_bw] over its pairs."""
    n, lead, (r, m), s = _size(dim, order), x.shape[:-3], x.shape[-3:-1], y.shape[-2]
    x, y = (x[None], y[None]) if not lead else (  # one stack axis b of points
        x.reshape(-1, r, m, x.shape[-1]), y.reshape(-1, m, s, y.shape[-1]))
    b = len(x)
    xz, yz = np.zeros((b, n + 1, m, r)), np.zeros((b, n + 1, m, s))  # row n: the pads' zero
    xz[:, :n], yz[:, :n] = x.transpose(0, 3, 2, 1), y.transpose(0, 3, 1, 2)
    whole, plan = _pair_plan(dim, order, c0, c1)
    out = np.empty((b, c1 - c0, r, s))
    for cs, ia, ib in plan:
        w = ia.shape[1]
        step = max(1, _CHUNK_BYTES // (8 * b * (w * m * (r + s) + r * s)))
        for k in range(0, len(cs), step):
            prod = np.matmul(xz.take(ia[k : k + step], axis=1).reshape(b, -1, w * m, r).swapaxes(2, 3),
                             yz.take(ib[k : k + step], axis=1).reshape(b, -1, w * m, s))
            if whole and step >= len(cs):  # one chunk in order: its products are the result
                out = prod
            else:
                out[:, cs[k : k + step]] = prod
    return out.transpose(0, 2, 3, 1).reshape(lead + (r, s, c1 - c0))


def partials(x: np.ndarray, dim, slots: int, lead: int = 0) -> np.ndarray:
    """d/dx_s of every entry of a dense array for s < slots, as a new axis after lead axes."""
    src, mul = _partials_table(dim, order_of(dim, x.shape[-1]), slots)
    out = x[..., src]
    out *= mul
    return moveaxis(out, -2, lead)


@lru_cache(maxsize=None)
def _axis_order(ndim: int, source, dest) -> tuple:
    src, dst = (np.atleast_1d(v) % ndim for v in (source, dest))
    order = [a for a in range(ndim) if a not in src]
    for d, a in sorted(zip(dst.tolist(), src.tolist())):
        order.insert(d, a)
    return tuple(order)


def moveaxis(x: np.ndarray, source, dest) -> np.ndarray:
    """np.moveaxis(x, source, dest) as one transpose, its axis order cached per (ndim, source, dest)."""
    return x.transpose(_axis_order(x.ndim, source, dest))


def to_dense(arr) -> np.ndarray:
    """Coefficients of an object array of equal-shape jets, arr.shape + (ncoeff,)."""
    arr = np.asarray(arr, dtype=object)
    return np.array([j.coeffs for j in arr.flat]).reshape(arr.shape + (-1,))


def to_jets(x: np.ndarray, dim) -> np.ndarray:
    """Object array of jets viewing the rows of a dense coefficient array."""
    order = order_of(dim, x.shape[-1])
    out = np.empty(math.prod(x.shape[:-1]), dtype=object)
    out[:] = [Jet(dim, order, row) for row in x.reshape(-1, x.shape[-1])]
    return out.reshape(x.shape[:-1])


def as_dense(arr) -> np.ndarray:
    """arr itself if it is dense, else the coefficients of a Jet or of jets (to_dense)."""
    if isinstance(arr, Jet):
        return arr.coeffs
    return to_dense(arr) if arr.dtype == object else arr


def like(x: np.ndarray, arr, dim):
    """Dense x in the layout of arr: x itself, else jets viewing it (a Jet if x is 1-D)."""
    if not isinstance(arr, Jet) and arr.dtype != object:
        return x
    out = to_jets(x, dim)
    return out[()] if x.ndim == 1 else out


# ---------------------------------------------------------------------------
# pointwise jet arithmetic on dense coefficient arrays (..., ncoeff)


def _constant_coeffs(value, n: int) -> np.ndarray:
    """Coefficients of a constant: (n,) for a float, value.shape + (n,) for an array."""
    c = np.zeros(getattr(value, "shape", ()) + (n,))  # np.shape would first wrap a float in an array
    c[..., 0] = value
    return c


def _variable_coeffs(value, slot: int, dim: int, order: int) -> np.ndarray:
    """Coefficients of coordinate slot at a float value, or at an array of values."""
    c = _constant_coeffs(value, _size(dim, order))
    if order >= 1:
        c[..., _partials_table(dim, order, dim)[0][slot, 0]] = 1.0  # x_slot: what d/dx_slot moves to 1
    return c


def mul(x: np.ndarray, y: np.ndarray, dim, order: int) -> np.ndarray:
    """Truncated product at every point; the leading axes of x and y broadcast."""
    ia, ib, ic = _mul_table(dim, order)
    if x.ndim == y.ndim == 1:  # keep: bit-identical to the batched branch, 15 vs 28 us (order 6, dim 4)
        return np.bincount(ic, weights=x[ia] * y[ib], minlength=x.size)
    w = x[..., ia] * y[..., ib]
    n, lead, p = x.shape[-1], w.shape[:-1], math.prod(w.shape[:-1])
    return np.bincount(_point_offsets(dim, order, p), weights=w.ravel(), minlength=n * p).reshape(lead + (n,))


def binary(op: str, x, y, dim, order: int) -> np.ndarray:
    """x op y for op in + - * / at every point; x or y may be a float (a constant jet)."""
    if op in "*/" and not isinstance(y, np.ndarray):
        if op == "/" and y == 0.0:
            raise SingularPointError("division by zero")
        return x * y if op == "*" else x / y
    if op == "*" and not isinstance(x, np.ndarray):
        return y * x
    x, y = (v if isinstance(v, np.ndarray) else _constant_coeffs(v, _size(dim, order)) for v in (x, y))
    if op in "+-":
        return x + y if op == "+" else x - y
    return mul(x, y if op == "*" else reciprocal(y, dim, order), dim, order)


def _compose(a: np.ndarray, dim, order: int, table) -> np.ndarray:
    """sum_k table(a_0)_k (a - a_0)^k at every point; exact since a - a_0 is nilpotent.

    The tables table(a_0, order) are built point by point in scalar arithmetic, so the first
    point out of the domain raises.
    """
    a0, n = a[..., 0], a.shape[-1]
    tab = np.array([table(v, order) for v in a0.ravel().tolist()]).T.reshape((order + 1,) + a0.shape)
    t = a - _constant_coeffs(a0, n)
    out = _constant_coeffs(tab[order], n)
    for k in range(order - 1, -1, -1):
        out = mul(out, t, dim, order) + _constant_coeffs(tab[k], n)
    return out


def reciprocal(x: np.ndarray, dim, order: int) -> np.ndarray:
    """1 / x at every point; a zero value raises SingularPointError."""
    return _compose(x, dim, order, _reciprocal_table)


def power(x: np.ndarray, e: float, dim, order: int) -> np.ndarray:
    """x ** e at every point: squaring for an integer e, else sqrt or exp(e log x)."""
    if e.is_integer():
        if e == 0:
            return _constant_coeffs(1.0, x.shape[-1])
        out = base = x if e > 0 else reciprocal(x, dim, order)
        for bit in bin(abs(int(e)))[3:]:  # the bits after the leading one, high to low
            out = mul(out, out, dim, order)
            if bit == "1":
                out = mul(out, base, dim, order)
        return out
    v = x[..., 0]
    if (v <= 0.0).any():
        raise ValueError(f"fractional power of nonpositive value {v[v <= 0.0][0]}")
    if e == 0.5:
        return series("sqrt", x, dim, order)
    return series("exp", series("log", x, dim, order) * e, dim, order)


def series(name: str, x: np.ndarray, dim, order: int) -> np.ndarray:
    """The analytic function name of FUNCTIONS at every point; tan is sin times 1 / cos."""
    if name == "tan":
        return mul(series("sin", x, dim, order),
                   reciprocal(series("cos", x, dim, order), dim, order), dim, order)
    return _compose(x, dim, order, _TABLES[name])


# ---------------------------------------------------------------------------


class Jet:
    """Immutable truncated Taylor expansion at a point (see above)."""

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int, coeffs: np.ndarray):
        self.dim = dim
        self.order = order
        if coeffs.shape != (_size(dim, order),):
            raise ValueError("coefficient vector has wrong length")
        coeffs.flags.writeable = False
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: float, dim: int, order: int) -> "Jet":
        """The constant jet of a float."""
        return Jet(dim, order, _constant_coeffs(value, _size(dim, order)))

    @staticmethod
    def variable(value: float, slot: int, dim: int, order: int) -> "Jet":
        """The jet of coordinate slot at a float value."""
        if not 0 <= slot < dim:
            raise ValueError(f"variable slot {slot} out of range for dim {dim}")
        return Jet(dim, order, _variable_coeffs(value, slot, dim, order))

    # -- basic queries -----------------------------------------------------

    @property
    def value(self) -> float:
        """Constant term: the function value at the base point."""
        return float(self.coeffs[0])

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value!r})"

    # -- structural operations ----------------------------------------------

    def truncated(self, order: int) -> "Jet":
        if order > self.order or order < 0:
            raise ValueError(f"cannot truncate order {self.order} jet to {order}")
        if order == self.order:
            return self
        return Jet(self.dim, order, self.coeffs[: _size(self.dim, order)].copy())

    def padded(self, order: int) -> "Jet":
        """Zero-fill up to a higher order.

        The filled coefficients are not the true Taylor coefficients; callers
        must ensure downstream arithmetic provably never consumes them (as
        when the result is immediately multiplied by a first-order factor of
        a fresh variable).
        """
        if order < self.order:
            raise ValueError("padded() cannot lower the order")
        c = np.zeros(_size(self.dim, order))
        c[: self.coeffs.size] = self.coeffs
        return Jet(self.dim, order, c)

    def partial(self, slot: int) -> "Jet":
        """Jet of the partial derivative along one variable; order drops by 1."""
        if not 0 <= slot < self.dim:
            raise ValueError(f"slot {slot} out of range")
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.dim, self.order - 1, partials(self.coeffs, self.dim, self.dim)[slot])

    def extended(self, extra: int) -> "Jet":
        """Same germ viewed in dim+extra variables; new slots are passive."""
        if extra < 0:
            raise ValueError("extra must be nonnegative")
        if extra == 0:
            return self
        c = np.zeros(_size(self.dim + extra, self.order))
        c[_embed_table(self.dim, self.order, self.dim + extra, (0,) * extra)] = self.coeffs
        return Jet(self.dim + extra, self.order, c)

    # -- ring arithmetic -----------------------------------------------------

    def _binary(self, op: str, other, swap: bool = False):
        """self op other (other op self if swap) by binary(), for a jet or a number other."""
        if isinstance(other, Jet):
            if other.dim != self.dim or other.order != self.order:
                raise ValueError(
                    f"jet shape mismatch: ({self.dim},{self.order}) vs "
                    f"({other.dim},{other.order})"
                )
            other = other.coeffs
        elif isinstance(other, (int, float, np.floating, np.integer)):
            other = float(other)
        else:
            return NotImplemented
        x, y = (other, self.coeffs) if swap else (self.coeffs, other)
        return Jet(self.dim, self.order, binary(op, x, y, self.dim, self.order))

    def __add__(self, other):
        return self._binary("+", other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary("-", other)

    def __rsub__(self, other):
        return self._binary("-", other, swap=True)

    def __neg__(self):
        return Jet(self.dim, self.order, -self.coeffs)

    def __mul__(self, other):
        return self._binary("*", other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary("/", other)

    def __rtruediv__(self, other):
        return self._binary("/", other, swap=True)

    def __pow__(self, expo):
        if isinstance(expo, Jet):
            return NotImplemented
        return Jet(self.dim, self.order, power(self.coeffs, float(expo), self.dim, self.order))


# public constructor aliases

constant = Jet.constant
variable = Jet.variable


def from_coeffs(coeffs, dim: int, order: int) -> Jet:
    """Build a jet from a mapping {alpha: coeff} or a flat coefficient list."""
    if isinstance(coeffs, Mapping):
        c = np.zeros(_size(dim, order))
        rank = _rank(dim, order)
        for alpha, v in coeffs.items():
            c[rank[tuple(alpha)]] = float(v)
        return Jet(dim, order, c)
    arr = np.asarray(coeffs, dtype=float).copy()
    return Jet(dim, order, arr)


# ---------------------------------------------------------------------------
# univariate Taylor tables (a0, order) -> coefficients of f(a0 + t) in t


def _reciprocal_table(a0: float, order: int) -> np.ndarray:
    if a0 == 0.0:
        raise SingularPointError("division by a jet with zero constant term")
    k = np.arange(order + 1)
    return (-1.0) ** k / a0 ** (k + 1)


def _exp_table(a0: float, order: int) -> np.ndarray:
    e0 = math.exp(a0)
    return np.array([e0 / math.factorial(k) for k in range(order + 1)])


def _log_table(a0: float, order: int) -> np.ndarray:
    if a0 <= 0.0:
        raise ValueError(f"log of nonpositive value {a0}")
    table = np.empty(order + 1)
    table[0] = math.log(a0)
    for k in range(1, order + 1):
        table[k] = (-1.0) ** (k + 1) / (k * a0**k)
    return table


def _sqrt_table(a0: float, order: int) -> np.ndarray:
    if a0 <= 0.0:
        raise ValueError(f"sqrt of nonpositive value {a0}")
    table = np.empty(order + 1)
    coef = 1.0
    for k in range(order + 1):
        table[k] = coef * a0 ** (0.5 - k)
        coef *= (0.5 - k) / (k + 1.0)
    return table


def _periodic(f, df, sign: float):
    """Table of a function whose derivatives cycle f, df, sign * f, sign * df."""
    def table(a0: float, order: int) -> np.ndarray:
        cycle = [f(a0), df(a0)]
        cycle += [sign * cycle[0], sign * cycle[1]]
        return np.array([cycle[k % 4] / math.factorial(k) for k in range(order + 1)])

    return table


_TABLES = {"exp": _exp_table, "log": _log_table, "sqrt": _sqrt_table,
           "sin": _periodic(math.sin, math.cos, -1.0), "cos": _periodic(math.cos, lambda x: -math.sin(x), -1.0),
           "sinh": _periodic(math.sinh, math.cosh, 1.0), "cosh": _periodic(math.cosh, math.sinh, 1.0)}


def _dispatch(name: str):
    def wrapper(x):
        if isinstance(x, Jet):
            return Jet(x.dim, x.order, series(name, x.coeffs, x.dim, x.order))
        return getattr(math, name)(x)

    wrapper.__name__ = name
    return wrapper


FUNCTIONS = {name: _dispatch(name) for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")}
sin, cos, tan, exp, log, sqrt, sinh, cosh = FUNCTIONS.values()
