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

Jet orders decay along the chain: the metric carries order K, Christoffel
K-1, curvature K-2, Cotton K-3, Bach K-4.

Every stage works on dense jet tensors (float arrays of shape
tensor_shape + (ncoeff,), see jets): index contractions are reshaped into
jet matrix products and run through jets.contract, partial derivatives are
one gather per array (jets.partials), and truncation to a lower order is a
slice of the coefficient axis.  The inverse metric is the one stage formed
degree by degree (invert_jet_matrix): the constructor inverts its values, and
dense("ginv", k) sweeps the degrees up to k not yet formed, so every reader
asks for the order it reads.  A metric in the ring key (d, 1) of jets runs
the same stages with the eps^2 products never formed (detour.linearized_bach).
A stage computes only its dense array (Geometry.dense), and the constructor
keeps only the dense metric; a public attribute, g as every stage, is jets
viewing that array, built on first access.  dense(stage, k) with k above the
order the stage holds raises ValueError.  covd_array is the one
coupled covariant derivative: Gamma on tangent slots, connection matrices on
fiber slots, dense arrays in and out.  trace and lower contract the leading
slots of a dense array with the inverse metric and the metric.

A batch of P points (the stage points of prolong.transport) gives the stages
up to Schouten (Geometry._BATCHED) a leading points axis, bit-identical per
point to a single-point Geometry; later stages, covd_array, trace and lower
raise ValueError on a batch.
"""
from __future__ import annotations

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
    dim = arr.flat[0].dim
    return jets.to_jets(jets.to_dense(arr)[..., : jets._size(dim, order)], dim, order)


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


class _stage(cached_property):
    """Stage whose func makes the array Geometry.dense keeps; the first read builds its jets."""

    def __get__(self, geom, owner=None):
        if geom is None:
            return self
        x = geom.dense(self.attrname)
        view = jets.to_jets(x, geom.jet_dim, jets.order_of(geom.jet_dim, x.shape[-1]))
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

    _BATCHED = frozenset({"g", "ginv", "gamma", "riemann", "ricci", "scalar", "jtrace", "schouten"})

    def __init__(self, spec=None, point=None, order: int = 4, *, metric_jets=None):
        if order is None or int(order) < 0:
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
        self._ginv_degree = -1  # the inverse is formed up to this degree
        self.dense("ginv", 0)  # eager values so a degenerate metric fails fast

    # -- helpers -------------------------------------------------------------

    def require(self, order_needed: int, what: str):
        if self.order < order_needed:
            raise ValueError(
                f"{what} needs metric jet order >= {order_needed}, geometry has {self.order}"
            )

    def dense(self, stage: str, order: int | None = None) -> np.ndarray:
        """Dense coefficients of a stage, computed once (ginv: to the order read), truncated.

        An order above the one the stage holds raises ValueError.
        """
        x = self._dense.get(stage)
        if x is None or stage == "ginv" and self._ginv_degree < (self.order if order is None else order):
            if stage not in self._BATCHED:
                self._single(stage)
            # through the class attribute, so that a wrapper installed there
            # sees every stage computation; contiguous, so that views share it
            func, args = getattr(type(self), stage).func, (order,) if stage == "ginv" else ()
            x = self._dense[stage] = np.ascontiguousarray(func(self, *args))
        size = x.shape[-1] if order is None else jets._size(self.jet_dim, order)
        if size > x.shape[-1]:
            raise ValueError(f"{stage} has jet order {jets.order_of(self.jet_dim, x.shape[-1])}, not {order}")
        return x[..., :size]

    def _single(self, what: str):
        if self.lead:
            raise ValueError(f"{what} is not computed on a batch of points")

    def _contract(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return jets.contract(x, y, self.jet_dim, jets.order_of(self.jet_dim, x.shape[-1]))

    def _shape(self, x: np.ndarray, *shape) -> np.ndarray:
        return x.reshape(self.lead + shape)

    # -- curvature chain ------------------------------------------------------
    # Each stage computes its dense array from the dense arrays of earlier stages.

    @_stage
    def g(self) -> np.ndarray:
        """g_ab at order K, as the constructor keeps it."""
        return self._dense["g"]

    @_stage
    def ginv(self, order: int | None = None) -> np.ndarray:
        """g^ab at order K, formed up to degree order (at most K) and zero above, in place."""
        top, done = self.order if order is None else min(order, self.order), self._ginv_degree
        inv = invert_jet_matrix(self.dense("g"), self.jet_dim, range(done + 1, top + 1),
                                self._dense.get("ginv"))
        self._ginv_degree = max(done, top)
        return inv

    @_stage
    def gamma(self) -> np.ndarray:
        """Gamma[c, a, b] = Gam^c_ab at order K-1."""
        self.require(1, "christoffel")
        n, k = self.n, self.order - 1
        dg = jets.partials(self.dense("g"), self.jet_dim, self.order, n, len(self.lead))
        low = dg.swapaxes(-4, -3) + jets.moveaxis(dg, -4, -2) - dg  # [d, a, b]; dg: d_a g_db at [a, d, b]
        gam = self._contract(self.dense("ginv", k), self._shape(low, n, n * n, -1)) * 0.5
        return self._shape(gam, n, n, n, -1)

    @_stage
    def riemann(self) -> np.ndarray:
        """R[a, b, c, d] = R_ab^c_d at order K-2."""
        self.require(2, "curvature")
        n, k = self.n, self.order - 2
        gam = self.dense("gamma")
        low = self.dense("gamma", k)
        # d_a Gam^c_bd + Gam^c_ae Gam^e_bd, laid out [a, c, b, d]
        half = jets.partials(gam, self.jet_dim, k + 1, n, len(self.lead))
        half += self._shape(self._contract(self._shape(low.swapaxes(-4, -3), n * n, n, -1),
                                           self._shape(low, n, n * n, -1)), n, n, n, n, -1)
        half = half.swapaxes(-4, -3)
        return np.subtract(half, half.swapaxes(-5, -4), order="C")

    @_stage
    def riemann_down(self) -> np.ndarray:
        n, k = self.n, self.order - 2
        rie = self.dense("riemann").transpose(2, 0, 1, 3, 4)  # [e, a, b, d]
        low = self._contract(self.dense("g", k), rie.reshape(n, n**3, -1))
        return low.reshape(n, n, n, n, -1).transpose(1, 2, 0, 3, 4)

    @_stage
    def ricci(self) -> np.ndarray:
        return np.trace(self.dense("riemann"), axis1=-5, axis2=-3)

    @_stage
    def scalar(self) -> np.ndarray:
        n, k = self.n, self.order - 2
        sc = self._contract(self._shape(self.dense("ginv", k), 1, n * n, -1),
                            self._shape(self.dense("ricci"), n * n, 1, -1))
        return sc[..., 0, 0, :]

    @_stage
    def jtrace(self) -> np.ndarray:
        return self.dense("scalar") / (2.0 * (self.n - 1))

    @_stage
    def schouten(self) -> np.ndarray:
        n, k = self.n, self.order - 2
        jg = self._contract(self._shape(self.dense("jtrace"), 1, 1, -1),
                            self._shape(self.dense("g", k), 1, n * n, -1))
        return (self.dense("ricci") - self._shape(jg, n, n, -1)) / float(n - 2)

    @_stage
    def schouten_up(self) -> np.ndarray:
        """P with both indices raised, order K-2."""
        gl = self.dense("ginv", self.order - 2)
        return self._contract(self._contract(gl, self.dense("schouten")), gl.transpose(1, 0, 2))

    @_stage
    def weyl(self) -> np.ndarray:
        """C[a, b, c, d] all indices down, order K-2."""
        n, k = self.n, self.order - 2
        rd = self.dense("riemann_down")
        gp = self._contract(self.dense("g", k).reshape(n * n, 1, -1),
                            self.dense("schouten").reshape(1, n * n, -1))
        gp = gp.reshape(n, n, n, n, -1)  # g_ca P_bd at [c, a, b, d]
        weyl = rd - gp.transpose(1, 2, 0, 3, 4)
        weyl += gp.transpose(2, 1, 0, 3, 4)
        weyl -= gp.transpose(2, 1, 3, 0, 4)
        weyl += gp.transpose(1, 2, 3, 0, 4)
        return weyl

    @_stage
    def cotton(self) -> np.ndarray:
        """A[a, b, c] = A_abc = nabla_b P_ca - nabla_c P_ba, order K-3."""
        self.require(3, "cotton")
        dp = self.covd_array(self.dense("schouten"), ("d", "d"))
        return dp.transpose(2, 0, 1, 3) - dp.transpose(2, 1, 0, 3)

    @_stage
    def bach(self) -> np.ndarray:
        """B[a, b], order K-4: one contraction of [g^ce, P^dc] with [nabla_e A_acb, C_dacb]."""
        self.require(4, "bach")
        n, k = self.n, self.order - 4
        da = self.covd_array(self.dense("cotton"), ("d", "d", "d"))
        coef = np.concatenate([self.dense("ginv", k), self.dense("schouten_up", k)])
        terms = np.concatenate([da.transpose(2, 0, 1, 3, 4),
                                self.dense("weyl", k).transpose(0, 2, 1, 3, 4)])
        bach = self._contract(coef.reshape(1, 2 * n * n, -1), terms.reshape(2 * n * n, n * n, -1))
        return bach.reshape(n, n, -1)

    # -- coupled derivative ----------------------------------------------------

    def covd_array(self, x: np.ndarray, variances: tuple, theta: np.ndarray | None = None
                   ) -> np.ndarray:
        """Coupled covariant derivative of a dense tensor; new 'd' slot first, order drops by one.

        variances names each slot of x: 'u' and 'd' are tangent slots, where
        Gamma acts; 'V' and 'V*' are fiber slots of a bundle with connection
        matrices theta, a dense (n, r, r, ncoeff) array, where Theta and -Theta^T act.
        """
        self._single("covd_array")
        order_in = jets.order_of(self.jet_dim, x.shape[-1])
        out_order = order_in - 1
        if out_order < 0:
            raise ValueError("cannot differentiate order-0 jets")
        self.require(out_order + 1, "covariant derivative")
        n, nc = self.n, jets._size(self.jet_dim, out_order)
        gam = self.dense("gamma", out_order)
        low = x[..., :nc]
        out = jets.partials(x, self.jet_dim, order_in, n)
        for s, var in enumerate(variances):
            if var == "V*":  # -T[.. m ..] Theta_a[m, i]: the product T Theta_a, Theta on the right
                moved = jets.moveaxis(low, s, -2)
                r = moved.shape[-2]
                term = self._contract(moved.reshape(-1, r, nc),
                                      theta[..., :nc].transpose(1, 0, 2, 3).reshape(r, n * r, nc))
                out -= jets.moveaxis(term.reshape(moved.shape[:-2] + (n, r, nc)), (-3, -2),
                                     (0, s + 1))
                continue
            # cross[a, i, m]: coefficient of T[.. m ..] in nabla_a T[.. i ..] (slot s)
            mat = gam.transpose(1, 0, 2, 3) if var in ("u", "d") else theta[..., :nc]
            cross = mat if var in ("u", "V") else -mat.transpose(0, 2, 1, 3)
            moved = jets.moveaxis(low, s, 0)
            r = moved.shape[0]
            term = self._contract(cross.reshape(n * r, r, -1), moved.reshape(r, -1, nc))
            out += jets.moveaxis(term.reshape((n, r) + moved.shape[1:]), 1, s + 1)
        return out

    def trace(self, x: np.ndarray) -> np.ndarray:
        """g^{ea} x[e, a, ...] for a dense x whose first two axes are down slots."""
        self._single("trace")
        n = self.n
        gl = self.dense("ginv", jets.order_of(self.jet_dim, x.shape[-1]))
        tr = self._contract(gl.reshape(1, n * n, -1), x.reshape(n * n, -1, x.shape[-1]))
        return tr.reshape(x.shape[2:])

    def lower(self, x: np.ndarray) -> np.ndarray:
        """g_ab x[b, ...] for a dense x whose first axis is an up slot."""
        self._single("lower")
        n = self.n
        low = self._contract(self.dense("g")[..., : x.shape[-1]], x.reshape(n, -1, x.shape[-1]))
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
