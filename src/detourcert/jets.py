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
vector, behind optional leading points axes.  contract() is the one product
kernel on that layout: each product coefficient is one matmul over the joint
index (pair, tensor index) of its pairs (alpha, beta), at every point.
Coefficients are bucketed by pair count and padded to a power of two (at
least 8) with pairs that read an appended zero coefficient on both sides; a
bucket runs in chunks of one gather per operand and one batched np.matmul
within _CHUNK_BYTES, whose stack axis holds the points too, into the rows of
a coefficient-major buffer.  Terms are summed in BLAS order, not
Jet.__mul__'s, so the two agree to roundoff.  to_dense() and to_jets() convert
between the layouts (to_jets() views rows of the dense array).  Only
as_dense() and like() decide the layout: a public operator takes as_dense()
of its input (a Jet, jets or a dense array) and returns like() it, so it
returns the layout it was given; internal functions take dense arrays only.

A Jet's coefficients may carry leading points axes, shape (..., ncoeff):
Jet.constant, Jet.variable and coordinates() take arrays of values, and +,
-, *, /, ** and the analytic functions act at every point, each point
bit-identical to a Jet of that point alone.  A product is one bincount whose
bins are offset per point, so each point sums in _mul_table order; a series
table is built per point in scalar arithmetic, and the first point out of
the domain raises.  The queries (value, coeff, derivative) and the
structural operations (truncated, padded, partial, extended) stay unbatched.

The variables of a jet are a number d, or the ring key (d, 1): d variables
and one more, eps, with eps^2 = 0.  The ring's multi-indices are the
graded-lex ones of d+1 variables with eps-degree (the last exponent) at most
1, so truncation stays a prefix slice; its product table skips every pair
whose product leaves the ring.  The tables and contract() accept either key.
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


def _gen_indices(dim: int, degree: int):
    if dim == 1:
        yield (degree,)
        return
    for first in range(degree + 1):
        for rest in _gen_indices(dim - 1, degree - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def multi_indices(dim, order: int) -> tuple:
    """All exponent tuples with |alpha| <= order, graded lexicographic.

    The ordering is degree-major, so the multi-indices of a lower order form
    a prefix: truncating a jet is a coefficient-vector slice.  For a ring key
    (d, 1), the tuples of d+1 variables whose last exponent is at most 1.
    """
    if isinstance(dim, tuple):
        return tuple(a for a in multi_indices(dim[0] + 1, order) if a[-1] <= dim[1])
    if dim < 1 or order < 0:
        raise ValueError(f"bad jet shape dim={dim} order={order}")
    out = []
    for deg in range(order + 1):
        out.extend(_gen_indices(dim, deg))
    return tuple(out)


@lru_cache(maxsize=None)
def _rank(dim, order: int) -> dict:
    return {alpha: i for i, alpha in enumerate(multi_indices(dim, order))}


@lru_cache(maxsize=None)
def _size(dim, order: int) -> int:
    return len(multi_indices(dim, order))


@lru_cache(maxsize=None)
def _mul_table(dim, order: int):
    """Gather tables (ia, ib, ic) with alpha_ia + alpha_ib = alpha_ic inside the ring of dim."""
    idx = multi_indices(dim, order)
    rank = _rank(dim, order)
    ia, ib, ic = [], [], []
    for i, a in enumerate(idx):
        for j, b in enumerate(idx[: _size(dim, order - sum(a))]):  # graded: a prefix
            c = rank.get(tuple(x + y for x, y in zip(a, b)))
            if c is not None:
                ia.append(i)
                ib.append(j)
                ic.append(c)
    return tuple(np.asarray(t, dtype=np.intp) for t in (ia, ib, ic))


@lru_cache(maxsize=None)
def _partial_table(dim, order: int, slot: int):
    """Source ranks and multipliers mapping coeffs(K) -> coeffs of d/dx_slot (K-1)."""
    rank = _rank(dim, order)
    src, mul = [], []
    for beta in multi_indices(dim, order - 1):
        up = list(beta)
        up[slot] += 1
        src.append(rank[tuple(up)])
        mul.append(beta[slot] + 1.0)
    return np.asarray(src, dtype=np.intp), np.asarray(mul)


@lru_cache(maxsize=None)
def _embed_table(dim: int, order: int, key, pad: tuple):
    """Ranks in the jets of key, at order + |pad|, of alpha + pad for each alpha of (dim, order)."""
    rank = _rank(key, order + sum(pad))
    return np.asarray([rank[alpha + pad] for alpha in multi_indices(dim, order)], dtype=np.intp)


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
    tables = [_partial_table(dim, order, s) for s in range(slots)]
    return np.stack([t[0] for t in tables]), np.stack([t[1] for t in tables])


@lru_cache(maxsize=None)
def _point_offsets(dim, order: int, points: int) -> np.ndarray:
    """The ic of _mul_table shifted by ncoeff per point, flat: the bins of a batched Jet.__mul__."""
    return (np.arange(points)[:, None] * _size(dim, order) + _mul_table(dim, order)[2]).ravel()


def order_of(dim, ncoeff: int) -> int:
    """Jet order whose coefficient vector in dim variables has length ncoeff."""
    order = 0
    while _size(dim, order) < ncoeff:
        order += 1
    if _size(dim, order) != ncoeff:
        raise ValueError(f"{ncoeff} coefficients fit no jet order in {dim} variables")
    return order


def contract(x: np.ndarray, y: np.ndarray, dim, order: int) -> np.ndarray:
    """Jet matrix product of dense arrays: out[..., i, j] = sum_k x[..., i, k] * y[..., k, j].

    x has shape (..., r, m, ncoeff) and y (..., m, s, ncoeff), with the same leading
    points axes; every entry product is the truncated Taylor product of Jet.__mul__,
    and each point's result is bit-identical to a call on that point alone.
    """
    return _pair_sums(x, y, dim, order, 0, _size(dim, order))


def _pair_sums(x: np.ndarray, y: np.ndarray, dim, order: int, c0: int, c1: int) -> np.ndarray:
    """Coefficients c0..c1 of contract: c is [x_a1 .. x_aw] @ [y_b1; ..; y_bw] over its pairs."""
    n, lead, (r, m), s = _size(dim, order), x.shape[:-3], x.shape[-3:-1], y.shape[-2]
    x, y = (x[None], y[None]) if not lead else (  # one stack axis b of points
        x.reshape(-1, r, m, x.shape[-1]), y.reshape(-1, m, s, y.shape[-1]))
    b = len(x)
    xz, yz = np.zeros((b, n + 1, m, r)), np.zeros((b, n + 1, m, s))  # row n: the pads' zero
    xz[:, :n], yz[:, :n] = x.transpose(0, 3, 2, 1), y.transpose(0, 3, 1, 2)
    out = np.empty((c1, b, r, s))  # the rows below c0 are neither written nor read
    for cs, ia, ib in _pair_runs(dim, order):
        lo, hi = np.searchsorted(cs, (c0, c1)) if c1 - c0 < n else (0, cs.size)
        w = ia.shape[1]
        step = max(1, _CHUNK_BYTES // (8 * b * (w * m * (r + s) + r * s)))
        for k in range(lo, hi, step):
            e = min(hi, k + step)  # one statement, so no chunk's gathers outlive it
            out[cs[k:e]] = np.matmul(
                xz.take(ia[k:e], axis=1).reshape(b, e - k, w * m, r).swapaxes(2, 3),
                yz.take(ib[k:e], axis=1).reshape(b, e - k, w * m, s)).swapaxes(0, 1)
    return out[c0:].transpose(1, 2, 3, 0).reshape(lead + (r, s, c1 - c0))


def partials(x: np.ndarray, dim, order: int, slots: int, lead: int = 0) -> np.ndarray:
    """d/dx_s of every entry of a dense array for s < slots, as a new axis after lead axes."""
    src, mul = _partials_table(dim, order, slots)
    out = x[..., src]
    out *= mul
    return np.moveaxis(out, -2, lead)


def to_dense(arr) -> np.ndarray:
    """Coefficients of an object array of equal-shape jets, arr.shape + (ncoeff,)."""
    arr = np.asarray(arr, dtype=object)
    return np.array([j.coeffs for j in arr.flat]).reshape(arr.shape + (-1,))


def to_jets(x: np.ndarray, dim, order: int) -> np.ndarray:
    """Object array of jets viewing the rows of a dense coefficient array."""
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
    out = to_jets(x, dim, order_of(dim, x.shape[-1]))
    return out[()] if x.ndim == 1 else out


def _constant_coeffs(value, n: int) -> np.ndarray:
    """Coefficients of a constant: (n,) for a float, value.shape + (n,) for an array."""
    if not isinstance(value, np.ndarray):
        c = np.zeros(n)
        c[0] = value
        return c
    c = np.zeros(value.shape + (n,))
    c[..., 0] = value
    return c


# ---------------------------------------------------------------------------


class Jet:
    """Immutable truncated Taylor expansion at a point, or at each point of a batch (see above)."""

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int, coeffs: np.ndarray):
        self.dim = dim
        self.order = order
        if coeffs.shape[-1:] != (_size(dim, order),):
            raise ValueError("coefficient vector has wrong length")
        coeffs.flags.writeable = False
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, dim: int, order: int) -> "Jet":
        """The constant jet of a float, or of an array of values (one per point)."""
        return Jet(dim, order, _constant_coeffs(value, _size(dim, order)))

    @staticmethod
    def variable(value, slot: int, dim: int, order: int) -> "Jet":
        """The jet of coordinate slot at a float value, or at an array of values."""
        if not 0 <= slot < dim:
            raise ValueError(f"variable slot {slot} out of range for dim {dim}")
        c = _constant_coeffs(value, _size(dim, order))
        if order >= 1:
            unit = tuple(1 if i == slot else 0 for i in range(dim))
            c[..., _rank(dim, order)[unit]] = 1.0
        return Jet(dim, order, c)

    # -- basic queries -----------------------------------------------------

    @property
    def value(self) -> float:
        """Constant term: the function value at the base point."""
        return float(self.coeffs[0])

    def coeff(self, alpha) -> float:
        """Taylor coefficient for the exponent tuple alpha."""
        alpha = tuple(int(a) for a in alpha)
        r = _rank(self.dim, self.order).get(alpha)
        if r is None:
            raise ValueError(f"multi-index {alpha} outside jet of order {self.order}")
        return float(self.coeffs[r])

    def derivative(self, alpha) -> float:
        """Partial derivative d^alpha at the base point (factorial unscaled)."""
        alpha = tuple(int(a) for a in alpha)
        fac = 1.0
        for a in alpha:
            fac *= math.factorial(a)
        return self.coeff(alpha) * fac

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
        src, mul = _partial_table(self.dim, self.order, slot)
        return Jet(self.dim, self.order - 1, self.coeffs[src] * mul)

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

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.dim != self.dim or other.order != self.order:
                raise ValueError(
                    f"jet shape mismatch: ({self.dim},{self.order}) vs "
                    f"({other.dim},{other.order})"
                )
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet.constant(float(other), self.dim, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.dim, self.order, self.coeffs + o.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.dim, self.order, self.coeffs - o.coeffs)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.dim, self.order, o.coeffs - self.coeffs)

    def __neg__(self):
        return Jet(self.dim, self.order, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.dim, self.order, self.coeffs * float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ia, ib, ic = _mul_table(self.dim, self.order)
        x, y = self.coeffs, o.coeffs
        if x.ndim == y.ndim == 1:
            return Jet(self.dim, self.order, np.bincount(ic, weights=x[ia] * y[ib], minlength=x.size))
        w = x[..., ia] * y[..., ib]  # the leading axes broadcast
        n, lead = x.shape[-1], w.shape[:-1]
        prod = np.bincount(_point_offsets(self.dim, self.order, math.prod(lead)), weights=w.ravel(),
                           minlength=n * math.prod(lead))
        return Jet(self.dim, self.order, prod.reshape(lead + (n,)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            if float(other) == 0.0:
                raise SingularPointError("division by zero")
            return Jet(self.dim, self.order, self.coeffs / float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * _reciprocal(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * _reciprocal(self)

    def __pow__(self, expo):
        if isinstance(expo, Jet):
            return NotImplemented
        e = float(expo)
        if e.is_integer():
            n = int(e)
            if n == 0:
                return Jet.constant(1.0, self.dim, self.order)
            base = self if n > 0 else _reciprocal(self)
            out = base
            for _ in range(abs(n) - 1):
                out = out * base
            return out
        v = self.coeffs[..., 0]
        if (v <= 0.0).any():
            raise ValueError(f"fractional power of nonpositive value {v[v <= 0.0][0]}")
        if e == 0.5:
            return sqrt(self)
        return exp(log(self) * e)


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


def coordinates(point, order: int) -> list:
    """Variable jets for every coordinate of a base point, or of a (P, n) batch of points."""
    pt = np.asarray(point, dtype=float)
    values = pt.tolist() if pt.ndim == 1 else np.moveaxis(pt, -1, 0)
    return [Jet.variable(x, k, pt.shape[-1], order) for k, x in enumerate(values)]


# ---------------------------------------------------------------------------
# analytic functions via Horner composition with univariate Taylor tables


def _compose(a: Jet, a0, table) -> Jet:
    """Evaluate sum_k table[k] * (a - a0)^k; exact since a - a0 is nilpotent.

    a0 and each table[k] are floats, or arrays over the points of a batched a.
    """
    t = a - Jet.constant(a0, a.dim, a.order)
    out = Jet.constant(table[a.order], a.dim, a.order)
    for k in range(a.order - 1, -1, -1):
        out = out * t + Jet.constant(table[k], a.dim, a.order)
    return out


def _series(table):
    """Jet function composing a with the Taylor table table(a0, order) of each point's value a0.

    Tables are built point by point in scalar arithmetic; the first point out of the domain raises.
    """
    def jet_fn(a: Jet) -> Jet:
        a0 = a.coeffs[..., 0]
        if a0.ndim == 0:
            return _compose(a, float(a0), table(float(a0), a.order).tolist())
        rows = np.array([table(x, a.order) for x in a0.ravel().tolist()])
        return _compose(a, a0, rows.T.reshape((a.order + 1,) + a0.shape))

    return jet_fn


@_series
def _reciprocal(a0: float, order: int) -> np.ndarray:
    if a0 == 0.0:
        raise SingularPointError("division by a jet with zero constant term")
    k = np.arange(order + 1)
    return (-1.0) ** k / a0 ** (k + 1)


def _dispatch(name, jet_fn, float_fn):
    def wrapper(x):
        return jet_fn(x) if isinstance(x, Jet) else float_fn(x)

    wrapper.__name__ = name
    return wrapper


@_series
def _exp_jet(a0: float, order: int) -> np.ndarray:
    e0 = math.exp(a0)
    return np.array([e0 / math.factorial(k) for k in range(order + 1)])


@_series
def _log_jet(a0: float, order: int) -> np.ndarray:
    if a0 <= 0.0:
        raise ValueError(f"log of nonpositive value {a0}")
    table = np.empty(order + 1)
    table[0] = math.log(a0)
    for k in range(1, order + 1):
        table[k] = (-1.0) ** (k + 1) / (k * a0**k)
    return table


@_series
def _sqrt_jet(a0: float, order: int) -> np.ndarray:
    if a0 <= 0.0:
        raise ValueError(f"sqrt of nonpositive value {a0}")
    table = np.empty(order + 1)
    coef = 1.0
    for k in range(order + 1):
        table[k] = coef * a0 ** (0.5 - k)
        coef *= (0.5 - k) / (k + 1.0)
    return table


@_series
def _sin_jet(a0: float, order: int) -> np.ndarray:
    s, c = math.sin(a0), math.cos(a0)
    cycle = [s, c, -s, -c]
    return np.array([cycle[k % 4] / math.factorial(k) for k in range(order + 1)])


@_series
def _cos_jet(a0: float, order: int) -> np.ndarray:
    s, c = math.sin(a0), math.cos(a0)
    cycle = [c, -s, -c, s]
    return np.array([cycle[k % 4] / math.factorial(k) for k in range(order + 1)])


@_series
def _sinh_jet(a0: float, order: int) -> np.ndarray:
    s, c = math.sinh(a0), math.cosh(a0)
    return np.array([(s if k % 2 == 0 else c) / math.factorial(k) for k in range(order + 1)])


@_series
def _cosh_jet(a0: float, order: int) -> np.ndarray:
    s, c = math.sinh(a0), math.cosh(a0)
    return np.array([(c if k % 2 == 0 else s) / math.factorial(k) for k in range(order + 1)])


exp = _dispatch("exp", _exp_jet, math.exp)
log = _dispatch("log", _log_jet, math.log)
sqrt = _dispatch("sqrt", _sqrt_jet, math.sqrt)
sin = _dispatch("sin", _sin_jet, math.sin)
cos = _dispatch("cos", _cos_jet, math.cos)
sinh = _dispatch("sinh", _sinh_jet, math.sinh)
cosh = _dispatch("cosh", _cosh_jet, math.cosh)
tan = _dispatch("tan", lambda a: _sin_jet(a) / _cos_jet(a), math.tan)


FUNCTIONS = {
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "exp": exp,
    "log": log,
    "sqrt": sqrt,
    "sinh": sinh,
    "cosh": cosh,
}
