"""Pointwise Riemannian engine over jet arithmetic.

A Geometry object fixes a metric, a base point and a jet order K, then lazily
computes jets of the Levi-Civita data and the curvature chain.  Conventions,
used consistently everywhere downstream:

* curvature sign:   [nabla_a, nabla_b] v^c = R_ab^c_d v^d,
  so R_ab^c_d = d_a Gam^c_bd - d_b Gam^c_ad + Gam^c_ae Gam^e_bd - Gam^c_be Gam^e_ad
* Ricci:            Ric_bd = R_ab^a_d   (positive on round spheres)
* trace adjustment: J = Sc / (2(n-1)),  Schouten P = (Ric - J g) / (n-2)
* Weyl:             C_abcd = R_abcd - (g_ca P_bd - g_cb P_ad + g_db P_ac - g_da P_bc)
* Cotton:           A_abc = nabla_b P_ca - nabla_c P_ba
* Bach:             B_ab = nabla^c A_acb + P^dc C_dacb

Jet orders decay along the chain: a stage's top order is K - drop, from its
row (drop, policy) in Geometry._STAGES; the metric carries K, Christoffel
K-1, curvature K-2, Cotton K-3, Bach K-4.  dense(stage, k) refuses a k
outside 0..top (ValueError) before forming anything.  Policy "top" (g up to
Schouten, but ginv) forms a stage once, at the top; "sweep" (ginv) just the
degrees not yet formed, up to k; "read" forms it at k, and again when a
later reader asks for more.  The lower coefficients stay bit-identical, as
truncation commutes with every kernel.  bach(k) reads cotton(k+1), weyl(k)
and schouten_up(k); cotton(k) reads schouten(k+1).

Every stage works on dense jet tensors (float arrays of shape
tensor_shape + (ncoeff,), see jets): index contractions are reshaped into
jet matrix products and run through jets.contract, at the lower order of
its operands, partial derivatives are one gather per array (jets.partials),
and truncation to a lower order is a slice of the coefficient axis.
curvature_form is the one curvature formula: Riemann is its value on
Theta_b[c, d] = Gam^c_bd, connections.curvature on a connection's matrices.
A metric in the ring key (d, 1) of jets runs the same stages with the eps^2
products never formed (detour.linearized_bach).  A metric with a non-finite
coefficient raises ValueError.
A stage computes only its dense array (Geometry.dense), and the constructor
keeps only the dense metric; a public attribute, g as every stage, is jets
viewing that array at the top order, built on first access.  covd_array is
the one coupled covariant derivative: Gamma on tangent slots, connection
matrices on fiber slots, minus the transpose on a dual slot; dense arrays in
and out.  trace and lower contract the leading slots of a dense array with
the inverse metric and the metric (scalar traces Ricci, riemann_down lowers
Riemann).

A batch of P points (the collocation nodes of prolong.transport) gives the
"top" and "sweep" stages and trace a leading points axis, bit-identical per
point to a single-point Geometry; the "read" stages, covd_array and lower
raise ValueError on a batch.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import dsl, jets
from .jets import SingularPointError


class SingularMetricError(SingularPointError):
    """Metric is numerically degenerate at the base point."""


@dataclass
class JetTensor:
    """Tensor with jet components at a point; variance is 'u'/'d' per slot."""

    variances: tuple
    comps: np.ndarray

    def __post_init__(self):
        self.variances = tuple(self.variances)
        if self.comps.ndim != len(self.variances) + (self.comps.dtype != object):
            raise ValueError("variance list does not match component rank")


def truncate_array(arr: np.ndarray, order: int) -> np.ndarray:
    """Jets of an object array truncated to a lower order (views of one dense array)."""
    dim = arr.flat[0].truncated(order).dim  # truncated() refuses an order above the jets'
    return jets.to_jets(jets.to_dense(arr)[..., : jets._size(dim, order)], dim)


def value_array(arr: np.ndarray) -> np.ndarray:
    """Values at the base point of an object array of jets."""
    return jets.to_dense(arr)[..., 0]


_PIVOT_FLOOR = 1e-12  # relative to max(1, max |g_ij|) at the base point


def invert_jet_matrix(g: np.ndarray, dim, degrees: range | None = None,
                      inv: np.ndarray | None = None) -> np.ndarray:
    """Inverse of a dense (..., n, n, ncoeff) jet matrix in dim variables (or a ring key).

    Forms the degrees in degrees (all by default), in inv if given.  Degree 0:
    the values, by Gauss-Jordan with partial pivoting, pivots chosen per point
    of the leading axes, into a new zero array; a pivot below _PIVOT_FLOOR *
    max(1, max |g_ij|) of its point raises SingularMetricError.  Degree d > 0
    from g X = I: X_d = -X_0 sum g_a X_b over the product pairs a + b of degree
    d, summed by the kernel of jets.contract (its buckets sliced to degree d)
    while X_d is still zero, so every pair of the product table is formed once.
    """
    lead, n, order = g.shape[:-3], g.shape[-2], jets.order_of(dim, g.shape[-1])
    degrees = range(order + 1) if degrees is None else degrees
    if 0 in degrees:
        g0 = g[..., 0].reshape(-1, n, n)
        pts, off = np.arange(len(g0)), (1.0 - np.eye(n))[:, :, None]  # off[col]: 0 at row col
        floor = _PIVOT_FLOOR * np.maximum(1.0, np.max(np.abs(g0), axis=(1, 2)))
        ax = np.concatenate([g0, np.broadcast_to(np.eye(n), g0.shape)], axis=2)  # [g | I] -> [I | g^-1]
        piv = np.empty((len(g0), n))
        with np.errstate(divide="ignore", invalid="ignore"):  # a small pivot raises below
            for col in range(n):
                k = np.abs(ax[:, col:, col]).argmax(axis=1)  # a point's pivot: its largest |entry|
                if k.any():  # swap rows col and col + k, per point
                    ax[pts, col], ax[pts, col + k] = ax[pts, col + k], ax[pts, col]
                piv[:, col] = ax[:, col, col]
                ax[:, col] *= 1.0 / ax[:, col, col, None]
                ax -= ax[:, :, col, None] * off[col] * ax[:, None, col]
        small = np.abs(piv) < floor[:, None]
        if small.any():  # the first column where a point's pivot is too small
            raise SingularMetricError(f"metric is singular (pivot {small.any(axis=0).argmax()})")
        inv = np.zeros(g.shape)
        inv[..., 0] = ax[:, :, n:].reshape(lead + (n, n))
    for deg in range(max(1, degrees.start), degrees.stop):
        c0, c1 = jets._size(dim, deg - 1), jets._size(dim, deg)
        s = jets._pair_sums(g, inv, dim, order, c0, c1)
        inv[..., c0:c1] = -(inv[..., 0] @ s.reshape(lead + (n, -1))).reshape(s.shape)
    return inv


def curvature_form(theta: np.ndarray, dim) -> np.ndarray:
    """F_ab = d_a Theta_b - d_b Theta_a + [Theta_a, Theta_b] of dense (..., n, r, r, ncoeff) Theta.

    F[..., a, b, i, j], one order below Theta, behind its leading points axes:
    d_a Theta_b + Theta_a Theta_b minus its (a, b) transpose.
    """
    lead, (n, r) = theta.shape[:-4], theta.shape[-4:-2]
    half = jets.partials(theta, dim, n, len(lead))  # d_a Theta_b at [a, b]
    low = theta[..., : half.shape[-1]]
    # Theta_a Theta_b at [(a, i), (b, j)], every ordered pair in one product
    prod = jets.contract(low.reshape(lead + (n * r, r, -1)),
                         low.swapaxes(-4, -3).reshape(lead + (r, n * r, -1)), dim)
    half += prod.reshape(lead + (n, r, n, r, -1)).swapaxes(-4, -3)
    return np.subtract(half, half.swapaxes(-5, -4), order="C")


class _stage(cached_property):
    """Stage whose func makes the array Geometry.dense keeps; the first read builds its jets."""

    def __get__(self, geom, owner=None):
        if geom is None:
            return self
        x = geom.dense(self.attrname)
        view = jets.to_jets(x, geom.jet_dim)
        geom.__dict__[self.attrname] = view = view[()] if x.ndim == 1 else view
        return view


class Geometry:
    """Cached jets of the curvature chain for one metric at one point, or at a batch.

    The metric comes from a spec, or as metric_jets: an (n, n) object array
    of jets or a dense (n, n, ncoeff) array; g views its dense array.  The jets
    may carry more variables than the manifold has coordinates (extra
    passive parameters); geometric derivatives only ever touch the first n
    slots.  A (P, n) array of points, or a dense (P, n, n, ncoeff) metric,
    makes a batch (see the module docstring).
    """

    # stage -> (drop, policy): its top order is K - drop; the module docstring has the policies
    _STAGES = {"g": (0, "top"), "ginv": (0, "sweep"), "gamma": (1, "top"), "riemann": (2, "top"),
               "riemann_down": (2, "read"), "ricci": (2, "top"), "scalar": (2, "top"),
               "jtrace": (2, "top"), "schouten": (2, "top"), "schouten_up": (2, "read"),
               "weyl": (2, "read"), "cotton": (3, "read"), "bach": (4, "read")}

    def __init__(self, spec=None, point=None, order: int = 4, *, metric_jets=None):
        if not isinstance(order, numbers.Integral) or order < 0:
            raise ValueError(f"bad jet order {order!r}")
        self.order = int(order)
        self.spec = spec
        pts = np.asarray(() if point is None else point, dtype=float)
        vals = pts.tolist()  # (P, n) points make a batch
        self.point = None if point is None else tuple(map(tuple, vals) if pts.ndim == 2 else vals)
        if metric_jets is None:
            if spec is None:
                raise ValueError("need a metric spec or explicit metric jets")
            if point is None or pts.ndim > 2 or pts.shape[-1:] != (spec.dim,):
                raise ValueError(f"point must have {spec.dim} coordinates")
            metric_jets = spec.metric_jets(pts, self.order)
        self._dense = {"g": jets.as_dense(metric_jets)}
        if not np.isfinite(self._dense["g"]).all():
            raise ValueError("metric has a non-finite coefficient")
        self.lead, self.n = self._dense["g"].shape[:-3], self._dense["g"].shape[-2]
        if self.n < 3:
            raise ValueError("the engine supports dimension >= 3")
        # the jets carry the n coordinates, possibly passive parameters, and
        # possibly one eps with eps^2 = 0 (the ring key (d, 1) of jets)
        ncoeff, self.jet_dim = self._dense["g"].shape[-1], self.n
        while self.order and jets._size(self.jet_dim, self.order) < ncoeff:
            ring = (self.jet_dim, 1)  # at order 1 the ring is the jets of d+1 variables
            fits = self.order > 1 and jets._size(ring, self.order) >= ncoeff
            self.jet_dim = ring if fits else ring[0] + 1
        if jets._size(self.jet_dim, self.order) != ncoeff:
            raise ValueError(f"metric jets do not have order {self.order}")
        self._formed = {}  # the order each stage was formed for
        self.dense("ginv", 0)  # eager values so a degenerate metric fails fast

    # -- helpers -------------------------------------------------------------

    def dense(self, stage: str, order: int | None = None) -> np.ndarray:
        """Dense coefficients of a stage to order (default: its top order), formed as needed.

        See the module docstring; an order outside 0..top raises ValueError.
        """
        drop, policy = self._STAGES[stage]
        top = self.order - drop
        k = top if order is None else order
        if not 0 <= k <= top:
            raise ValueError(f"{stage} has jet order {top}, not {k}")
        x = self._dense.get(stage)
        if x is None or self._formed.get(stage, top) < k:
            if policy == "read":
                self._single(stage)
            args = () if policy == "top" else (k,)  # a "top" stage is formed at its top
            # through the class attribute, so that a wrapper installed there
            # sees every stage computation; contiguous, so that views share it
            x = self._dense[stage] = np.ascontiguousarray(getattr(type(self), stage).func(self, *args))
            self._formed[stage] = k if args else top
        return x[..., : jets._size(self.jet_dim, k)]

    def _single(self, what: str):
        if self.lead:
            raise ValueError(f"{what} is not computed on a batch of points")

    def _shape(self, x: np.ndarray, *shape) -> np.ndarray:
        return x.reshape(self.lead + shape)

    # -- curvature chain ------------------------------------------------------
    # Each stage computes its dense array from the dense arrays of earlier stages.

    @_stage
    def g(self) -> np.ndarray:
        """g_ab at order K, as the constructor keeps it."""
        return self._dense["g"]

    @_stage
    def ginv(self, k: int) -> np.ndarray:
        """g^ab at order K, formed up to degree k and zero above, in place."""
        degrees = range(self._formed.get("ginv", -1) + 1, k + 1)
        return invert_jet_matrix(self.dense("g"), self.jet_dim, degrees, self._dense.get("ginv"))

    @_stage
    def gamma(self) -> np.ndarray:
        """Gamma[c, a, b] = Gam^c_ab at order K-1."""
        n, k = self.n, self.order - 1
        dg = jets.partials(self.dense("g"), self.jet_dim, n, len(self.lead))
        low = dg.swapaxes(-4, -3) + jets.moveaxis(dg, -4, -2) - dg  # [d, a, b]; dg: d_a g_db at [a, d, b]
        gam = jets.contract(self.dense("ginv", k), self._shape(low, n, n * n, -1), self.jet_dim) * 0.5
        return self._shape(gam, n, n, n, -1)

    @_stage
    def riemann(self) -> np.ndarray:
        """R[a, b, c, d] = R_ab^c_d at order K-2: the curvature_form of Theta_b[c, d] = Gam^c_bd."""
        return curvature_form(self.dense("gamma").swapaxes(-4, -3), self.jet_dim)

    @_stage
    def riemann_down(self, k: int) -> np.ndarray:
        rie = self.dense("riemann", k)
        return self.lower(rie.transpose(2, 0, 1, 3, 4)).transpose(1, 2, 0, 3, 4)  # lowers [e, a, b, d]

    @_stage
    def ricci(self) -> np.ndarray:
        return np.trace(self.dense("riemann"), axis1=-5, axis2=-3)

    @_stage
    def scalar(self) -> np.ndarray:
        return self.trace(self.dense("ricci"))

    @_stage
    def jtrace(self) -> np.ndarray:
        return self.dense("scalar") / (2.0 * (self.n - 1))

    @_stage
    def schouten(self) -> np.ndarray:
        n, k = self.n, self.order - 2
        jg = jets.contract(self._shape(self.dense("jtrace"), 1, 1, -1),
                           self._shape(self.dense("g", k), 1, n * n, -1), self.jet_dim)
        return (self.dense("ricci") - self._shape(jg, n, n, -1)) / float(n - 2)

    @_stage
    def schouten_up(self, k: int) -> np.ndarray:
        """P with both indices raised, to order k."""
        gl, p = (self.dense(s, k) for s in ("ginv", "schouten"))
        return jets.contract(jets.contract(gl, p, self.jet_dim), gl.transpose(1, 0, 2), self.jet_dim)

    @_stage
    def weyl(self, k: int) -> np.ndarray:
        """C[a, b, c, d] all indices down, to order k."""
        n = self.n
        rd = self.dense("riemann_down", k)
        gp = jets.contract(self.dense("g", k).reshape(n * n, 1, -1),
                           self.dense("schouten", k).reshape(1, n * n, -1), self.jet_dim)
        gp = gp.reshape(n, n, n, n, -1)  # g_ca P_bd at [c, a, b, d]
        weyl = rd - gp.transpose(1, 2, 0, 3, 4)
        weyl += gp.transpose(2, 1, 0, 3, 4)
        weyl -= gp.transpose(2, 1, 3, 0, 4)
        weyl += gp.transpose(1, 2, 3, 0, 4)
        return weyl

    @_stage
    def cotton(self, k: int) -> np.ndarray:
        """A[a, b, c] = A_abc = nabla_b P_ca - nabla_c P_ba, to order k."""
        dp = self.covd_array(self.dense("schouten", k + 1), ("d", "d"))
        return dp.transpose(2, 0, 1, 3) - dp.transpose(2, 1, 0, 3)

    @_stage
    def bach(self, k: int) -> np.ndarray:
        """B[a, b] to order k: [g^ce, P^dc] contracted with [nabla_e A_acb, C_dacb]."""
        n = self.n
        da = self.covd_array(self.dense("cotton", k + 1), ("d", "d", "d"))
        coef = np.concatenate([self.dense("ginv", k), self.dense("schouten_up", k)])
        terms = np.concatenate([da.transpose(2, 0, 1, 3, 4),
                                self.dense("weyl", k).transpose(0, 2, 1, 3, 4)])
        bach = jets.contract(coef.reshape(1, 2 * n * n, -1), terms.reshape(2 * n * n, n * n, -1),
                             self.jet_dim)
        return bach.reshape(n, n, -1)

    # -- coupled derivative ----------------------------------------------------

    def covd_array(self, x: np.ndarray, variances: tuple, theta: np.ndarray | None = None
                   ) -> np.ndarray:
        """Coupled covariant derivative of a dense tensor; new 'd' slot first, order drops by one.

        variances names each slot of x: 'u' and 'd' are tangent slots, where Gamma acts;
        'V' and 'V*' are fiber slots of a bundle with connection matrices theta, a dense
        (n, r, r, ncoeff) array.  A dual slot ('d', 'V*') takes minus the transpose.
        """
        self._single("covd_array")
        out_order = jets.order_of(self.jet_dim, x.shape[-1]) - 1
        if out_order < 0:
            raise ValueError("cannot differentiate order-0 jets")
        n, nc = self.n, jets._size(self.jet_dim, out_order)
        gam = self.dense("gamma", out_order)
        low = x[..., :nc]
        out = jets.partials(x, self.jet_dim, n)
        for s, var in enumerate(variances):
            # cross[a, i, m]: coefficient of T[.. m ..] in nabla_a T[.. i ..] (slot s)
            mat = gam.transpose(1, 0, 2, 3) if var in ("u", "d") else theta
            cross = mat if var in ("u", "V") else -mat.transpose(0, 2, 1, 3)
            moved = jets.moveaxis(low, s, 0)
            r = moved.shape[0]
            term = jets.contract(cross.reshape(n * r, r, -1), moved.reshape(r, -1, nc), self.jet_dim)
            out += jets.moveaxis(term.reshape((n, r) + moved.shape[1:]), 1, s + 1)
        return out

    def trace(self, x: np.ndarray) -> np.ndarray:
        """g^{ea} x[..., e, a, ...] for a dense x whose first two axes after the points are down slots."""
        n, p = self.n, len(self.lead)
        gl = self._shape(self.dense("ginv", jets.order_of(self.jet_dim, x.shape[-1])), 1, n * n, -1)
        tr = jets.contract(gl, x.reshape(self.lead + (n * n, -1, x.shape[-1])), self.jet_dim)
        return tr.reshape(x.shape[:p] + x.shape[p + 2 :])

    def lower(self, x: np.ndarray) -> np.ndarray:
        """g_ab x[b, ...] for a dense x whose first axis is an up slot."""
        self._single("lower")
        low = jets.contract(self.dense("g"), x.reshape(self.n, -1, x.shape[-1]), self.jet_dim)
        return low.reshape(x.shape)


# ---------------------------------------------------------------------------
# public operations


def conformal_rescale(spec, omega) -> "dsl.MetricSpec":
    """New spec with components exp(2*omega) * g_ij; omega in the same coords."""
    if isinstance(omega, str):
        omega = dsl.parse_expression(omega)
    stray = dsl.variables(omega) - set(spec.coords) - {"pi"}
    if stray:
        raise dsl.MetricValidationError(f"rescale factor uses unknown name {sorted(stray)[0]!r}")
    factor = dsl.Call("exp", dsl.Bin("*", dsl.Num(2.0), omega))
    comps = {key: dsl.Bin("*", factor, ast) for key, ast in spec.components.items()}
    return dsl.MetricSpec(
        spec.dim, spec.signature, spec.coords, comps, label=spec.label + "_rescaled"
    )
