"""Batch verification harness.

Runs identity suites over seeded sample points of a catalog or file
metric and emits a deterministic certificate: a fixed-width table for
humans or JSON for machines.  Identical configuration (including the
seed) produces byte-identical JSON.

Every check is one row of ``_CHECKS`` (id, suite, statement, function,
the dimensions it runs in), in report order.  Each function takes
``fn(pt, rng)``, a ``_Point`` record of one sample point and the run's
generator, and returns a residual or, where the residual is *supposed* to
be large on metrics with a visibly nonzero obstruction, a (residual,
prediction norm, gap) triple.  ``_verdict`` is the one rule: a residual
passes at most tol, and NaN fails; a triple whose norm exceeds 10*tol is
an expected negative, passing when the residual exceeds tol and the gap
is at most OBSTRUCTION_MATCH_TOL*max(1, norm); a norm or gap that is not
finite fails.
"""
from __future__ import annotations

import argparse
import json
import math
import platform
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__, catalog, detour, jets, prolong, tractor
from .connections import covector_connection, killing_connection, tractor_connection
from .dsl import MetricSyntaxError, MetricValidationError, load_metric
from .geometry import Geometry

SCHEMA = "detourcert-report/1"
SUITES = ("curvature", "tractor", "detour", "prolong", "deformation")
MIN_ORDER = {"curvature": 4, "tractor": 5, "detour": 6, "prolong": 3,
             "deformation": 6}
# match tolerance for expected-negative residuals against the predicted value
OBSTRUCTION_MATCH_TOL = 1e-6
DEFAULT_BOX_HALF_WIDTH = 0.5


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    metric: str
    suites: tuple
    points: int = 3
    seed: int = 0
    tol: float = 1e-8
    jet_order: Optional[int] = None
    fmt: str = "text"

    def __post_init__(self):
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suite {unknown[0]!r}; choose from {', '.join(SUITES)}")
        if not self.suites:
            raise ConfigError("no suites selected")
        if self.points < 1:
            raise ConfigError("points must be at least 1")
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"--tol must be positive and finite, got {self.tol!r}")
        if self.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {self.seed}")
        need = self.required_order()
        if self.jet_order is not None and self.jet_order < need:
            table = ", ".join(f"{s}>={MIN_ORDER[s]}" for s in self.suites)
            raise ConfigError(
                f"jet order {self.jet_order} is below the minimum {need} "
                f"for the selected suites ({table})"
            )

    def required_order(self) -> int:
        return max(MIN_ORDER[s] for s in self.suites)

    def resolved_order(self) -> int:
        return self.jet_order if self.jet_order is not None else self.required_order()


@dataclass
class CheckRecord:
    check_id: str
    suite: str
    statement: str
    max_residual: float
    tolerance: float
    passed: bool
    points: int
    expected_negative: bool = False
    prediction_gap: Optional[float] = None

    def as_dict(self) -> dict:
        out = {
            "id": self.check_id,
            "suite": self.suite,
            "statement": self.statement,
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "points": int(self.points),
            "expected_negative": bool(self.expected_negative),
        }
        if self.prediction_gap is not None:
            out["prediction_gap"] = float(self.prediction_gap)
        return out


@dataclass
class Report:
    config: dict
    environment: dict
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA,
            "config": self.config,
            "environment": self.environment,
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        head = f"{'check':34s} {'suite':12s} {'residual':>12s} {'tol':>9s} {'status':>10s}"
        lines = [head, "-" * len(head)]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            if c.expected_negative:
                status = "neg-" + status
            lines.append(
                f"{c.check_id:34s} {c.suite:12s} {c.max_residual:12.3e} "
                f"{c.tolerance:9.1e} {status:>10s}"
            )
        lines.append("-" * len(head))
        lines.append(f"metric: {self.config['metric']}   points: {self.config['points']}   "
                     f"seed: {self.config['seed']}   jet order: {self.environment['jet_order']}")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# metric resolution and sampling


def resolve_metric(source: str):
    """Catalog name or file path -> (spec, sample box)."""
    if source in catalog.names():
        entry = catalog.get(source)
        return entry.spec(), entry.sample_box, entry
    spec = load_metric(source)
    box = ((-DEFAULT_BOX_HALF_WIDTH, DEFAULT_BOX_HALF_WIDTH),) * spec.dim
    return spec, box, None


@dataclass
class _Point:
    """What a check reads at one sample point."""

    geom: Geometry
    box: tuple
    entry: Optional[catalog.CatalogEntry]

    @cached_property
    def twist(self):
        """Order-2 covector connection of the ym-* checks, which read its curvature to order 1."""
        return covector_connection(self.geom, 2)


def _rand_jets(rng, shape, n, order, reads=None) -> np.ndarray:
    """Standard normal dense jets drawn at order entry by entry in C order, cut to reads."""
    x = rng.standard_normal(shape + (jets._size(n, order),))
    return x if reads is None else x[..., : jets._size(n, reads)]


def _worst(residuals) -> float:
    """Largest residual, or NaN if any is not finite: NaN fails every tolerance test."""
    vals = [float(r) for r in residuals]
    return max([0.0] + vals) if all(map(math.isfinite, vals)) else math.nan


def _max_abs(x) -> float:
    """Largest |entry| of a float array, NaN if any entry is not finite."""
    m = float(np.max(np.abs(x), initial=0.0))
    return m if math.isfinite(m) else math.nan


def _rel_diff(lhs, rhs) -> float:
    """max |lhs - rhs| over two value arrays, relative to the larger of them (at least 1)."""
    return _max_abs(lhs - rhs) / max(1.0, _max_abs(lhs), _max_abs(rhs))


# ---------------------------------------------------------------------------
# per-point check functions, fn(pt, rng).  Each reads its tensors through
# Geometry.dense or a public operator given dense arrays, and their values at
# the point as the coefficient 0.  Each computes only the jet orders its
# residual reads: draw at the recorded order, then truncate to the order the
# residual reads.  Truncation is exact, so the residuals and the rng stream
# are those of the full-order computation.


def _check_algebraic_bianchi(pt, rng):
    rd = pt.geom.dense("riemann_down", 0)[..., 0]
    cyclic = rd + rd.transpose(2, 0, 1, 3) + rd.transpose(1, 2, 0, 3)
    return _max_abs(cyclic) / max(1.0, _max_abs(rd))


def _check_contracted_bianchi(pt, rng):
    geom = pt.geom
    dric = geom.covd_array(geom.dense("ricci", 1), ("d", "d"))[..., 0]
    gi = geom.dense("ginv", 0)[..., 0]
    div = np.einsum("ea,eab->b", gi, dric)
    dsc = jets.partials(geom.dense("scalar", 1), geom.jet_dim, geom.n)[:, 0]
    return _max_abs(div - 0.5 * dsc) / max(1.0, _max_abs(dric))


def _check_weyl_trace(pt, rng):
    w = pt.geom.dense("weyl", 0)[..., 0]
    gi = pt.geom.dense("ginv", 0)[..., 0]
    traces = [np.einsum("ab,acbd->cd", gi, w), np.einsum("ab,abcd->cd", gi, w)]
    return _max_abs(traces) / max(1.0, _max_abs(w))


def _check_cotton_trace(pt, rng):
    cot = pt.geom.dense("cotton", 0)[..., 0]
    gi = pt.geom.dense("ginv", 0)[..., 0]
    traces = [np.einsum("ab,abc->c", gi, cot), np.einsum("ab,cab->c", gi, cot)]
    return _max_abs(traces) / max(1.0, _max_abs(cot))


def _check_bach_shape(pt, rng):
    b = pt.geom.dense("bach", 0)[..., 0]
    gi = pt.geom.dense("ginv", 0)[..., 0]
    return _worst([abs(np.einsum("ij,ij->", gi, b)), _max_abs(b - b.T)]) / max(1.0, _max_abs(b))


def _check_tractor_metric_parallel(pt, rng):
    # compatibility of the position dependent pairing: d_a h = T_a^T h + h T_a
    geom, n = pt.geom, pt.geom.n
    t = tractor.connection_matrices(geom, 1)[..., 0]
    h = tractor.gram_matrix(geom)
    dh = np.zeros_like(t)
    dh[:, 1 : n + 1, 1 : n + 1] = jets.partials(geom.dense("ginv", 1), geom.jet_dim, n)[..., 0]
    skew = t.transpose(0, 2, 1) @ h + h @ t - dh
    return _max_abs(skew) / max(1.0, _max_abs(t), _max_abs(dh))


def _check_splitting_commutation(pt, rng):
    geom = pt.geom
    sigma = _rand_jets(rng, (), geom.n, min(geom.order, 5), 3)  # each side reads 3 orders
    lhs = tractor.apply_connection(tractor.splitting(sigma, geom), geom)
    rhs = tractor.op_E(tractor.op_D(sigma, geom), geom)
    return _rel_diff(lhs.as_matrix()[..., 0], rhs.as_matrix()[..., 0])


def _check_adjoint_factorization(pt, rng):
    geom, n = pt.geom, pt.geom.n
    nu = _rand_jets(rng, (n, n), n, 3)
    phi = tractor.TractorOneForm(_rand_jets(rng, (n,), n, 3), nu, _rand_jets(rng, (n,), n, 3))
    lhs = tractor.splitting_star(tractor.coupled_divergence(phi, geom), geom)
    rhs = tractor.op_D_star(tractor.op_E_star(phi, geom), geom)
    return abs(lhs[0] - rhs[0]) / max(1.0, abs(lhs[0]), abs(rhs[0]))


def _check_tractor_curvature_skew(pt, rng):
    m = tractor.tractor_curvature(pt.geom, 0)[..., 0]
    h = tractor.gram_matrix(pt.geom)
    skew = [m + m.swapaxes(0, 1), m.swapaxes(-1, -2) @ h + h @ m]
    return _max_abs(skew) / max(1.0, _max_abs(m))


def _check_signature(pt, rng):
    p = int(np.sum(np.linalg.eigvalsh(pt.geom.dense("g", 0)[..., 0]) > 0))
    got = tractor.tractor_signature(pt.geom)
    return 0.0 if got == (p + 1, pt.geom.n - p + 1) else 1.0


def _ym_exterior(pt, rng):
    # M(d f) = + current acting on f, for a section f of the twist bundle
    conn = pt.twist
    f = _rand_jets(rng, (conn.n,), conn.n, 4, 3)  # d, d and delta: three orders
    lhs = detour.op_M(detour.twisted_d(detour.TwistedForm(0, f), conn), conn)
    rhs = detour.current_action(detour.ym_current(conn), f)
    return _rel_diff(lhs.comps[..., 0], rhs[..., 0])


def _ym_interior(pt, rng):
    conn = pt.twist
    phi = detour.TwistedForm(1, _rand_jets(rng, (conn.n, conn.n), conn.n, 4, 3))
    lhs = detour.twisted_delta(detour.op_M(phi, conn), conn)
    rhs = detour.current_contraction(detour.ym_current(conn), phi, conn)
    return _rel_diff(lhs.comps[..., 0], -rhs[..., 0])


def _complex_composition(pt, rng):
    geom = pt.geom
    sigma = _rand_jets(rng, (), geom.n, min(geom.order, 6))
    comp = detour.op_MT(tractor.op_D(sigma, geom), geom).comps[..., 0]
    pred = detour.einstein_detour_expected(sigma, geom).comps[..., 0]
    return _max_abs(comp), _max_abs(pred), _max_abs(comp - pred)


def _kernel_bound(pt, rng):
    listed = len(pt.entry.killing_fields) if pt.entry is not None else 0
    dim = prolong.kernel_dimension(killing_connection(pt.geom))
    return float(max(0, listed - dim))


def _scale_kernel_bound(pt, rng):
    listed = 1 if pt.entry is not None and pt.entry.einstein_scale is not None else 0
    dim = prolong.kernel_dimension(tractor_connection(pt.geom))
    return float(max(0, listed - dim))


def _transport_roundtrip(pt, rng):
    spec, box = pt.geom.spec, pt.box
    p0 = np.array([rng.uniform(lo, hi) for lo, hi in box])
    p1 = p0 + 0.4 * (np.array([rng.uniform(lo, hi) for lo, hi in box]) - p0)
    v0 = rng.standard_normal(spec.dim + 2)
    back = prolong.transport(spec, tractor_connection, (p0, p1, p0), v0,
                             rtol=1e-11, atol=1e-13, refine=False)  # the legs share one build
    return float(np.max(np.abs(back.end - v0)))


def _gauge_linearization(pt, rng):
    # along the gauge direction K0 v the obstruction moves by its Lie
    # derivative plus the conformal weight term: L_v B + (2/n) div(v) B
    geom, n = pt.geom, pt.geom.n
    v = np.zeros((n, jets._size(n, geom.order)))  # order-3 field, zero padded
    v[:, : jets._size(n, 3)] = rng.standard_normal((n, jets._size(n, 3))) * 0.5
    h = detour.op_K0(v, geom).comps[..., : jets._size(n, 4)]  # the value of bp reads h to order 4
    bp = detour.linearized_bach(h, geom)
    bach = geom.dense("bach", 1)
    db = geom.covd_array(bach, ("d", "d"))[..., 0]  # nabla_c B_ab at [c, a, b]
    dv = geom.covd_array(v[:, : jets._size(n, 1)], ("u",))[..., 0]  # nabla_a v^c at [a, c]
    b = bach[..., 0]
    lie = (np.einsum("c,cab->ab", v[:, 0], db) + np.einsum("cb,ac->ab", b, dv)
           + np.einsum("ac,bc->ab", b, dv))
    return _rel_diff(bp[..., 0], (2.0 / n) * np.trace(dv) * b + lie)


# ---------------------------------------------------------------------------
# the check table and its verdict rule


class _Check(NamedTuple):
    id: str
    suite: str
    statement: str
    fn: Callable
    dims: Optional[tuple] = None  # the metric dimensions it runs in; None: all

    def runs_in(self, dim: int) -> bool:
        return self.dims is None or dim in self.dims


_CHECKS = (
    _Check("algebraic-bianchi", "curvature", "curvature satisfies R_[abc]d = 0",
           _check_algebraic_bianchi),
    _Check("contracted-bianchi", "curvature", "div Ric = d(scal)/2", _check_contracted_bianchi),
    _Check("weyl-trace", "curvature", "Weyl tensor is totally trace-free", _check_weyl_trace, (4,)),
    _Check("cotton-trace", "curvature", "Cotton tensor vanishes under both metric traces",
           _check_cotton_trace),
    _Check("bach-shape", "curvature", "obstruction tensor is symmetric and trace-free",
           _check_bach_shape, (4,)),
    _Check("tractor-metric-parallel", "tractor", "connection coefficients are skew for the "
           "tractor metric", _check_tractor_metric_parallel),
    _Check("splitting-commutation", "tractor", "connection applied to the canonical splitting "
           "equals the injected second-order operator", _check_splitting_commutation),
    _Check("adjoint-factorization", "tractor", "divergence adjoint of the splitting factors "
           "through the form adjoints", _check_adjoint_factorization),
    _Check("curvature-skew", "tractor", "tractor curvature is antisymmetric and metric skew",
           _check_tractor_curvature_skew),
    _Check("signature", "tractor", "tractor metric signature is (p+1, q+1)", _check_signature),
    _Check("ym-source-exterior", "detour", "composition with the twisted differential "
           "returns the source current", _ym_exterior),
    _Check("ym-source-interior", "detour", "twisted divergence of the operator returns minus "
           "the contracted current", _ym_interior),
    _Check("complex-composition", "detour", "translated operator composed with the splitting "
           "operator reproduces the curvature obstruction", _complex_composition),
    _Check("kernel-bound", "prolong", "stacked obstruction kernel admits every listed "
           "Killing field", _kernel_bound),
    _Check("scale-kernel-bound", "prolong", "parallel scale kernel admits the recorded "
           "Einstein scale", _scale_kernel_bound),
    _Check("transport-roundtrip", "prolong", "forward and reverse parallel transport return "
           "the fiber", _transport_roundtrip),
    _Check("gauge-linearization", "deformation", "linearized obstruction along gauge "
           "directions equals the transported obstruction", _gauge_linearization, (4,)),
)


def _verdict(check: _Check, results: list, tol: float) -> CheckRecord:
    """The record of a check from its per-point residuals or (residual, norm, gap) triples."""
    worst, *prediction = map(_worst, zip(*(r if isinstance(r, tuple) else (r,) for r in results)))
    ok, negative, gap = worst <= tol, False, None
    if prediction:
        norm, gap = prediction
        negative = norm > 10.0 * tol
        if negative:
            ok = worst > tol and gap <= OBSTRUCTION_MATCH_TOL * max(1.0, norm)
        ok = ok and math.isfinite(norm) and math.isfinite(gap)  # fail closed on the prediction
    return CheckRecord(check.id, check.suite, check.statement, worst, tol, ok, len(results),
                       negative, gap)


def run(config: RunConfig) -> Report:
    spec, box, entry = resolve_metric(config.metric)
    order = config.resolved_order()
    checks = [c for c in _CHECKS if c.suite in config.suites and c.runs_in(spec.dim)]
    empty = [s for s in SUITES if s in config.suites and all(c.suite != s for c in checks)]
    if empty:
        raise ConfigError(f"{empty[0]} suite has no check for a {spec.dim} dimensional metric")

    rng = np.random.default_rng(config.seed)
    points = [tuple(float(rng.uniform(lo, hi)) for lo, hi in box)
              for _ in range(config.points)]
    # only prolong reads past value coefficients, and jet truncation is exact
    build = order if "prolong" in config.suites else config.required_order()
    pts = [_Point(Geometry(spec, p, order=build), box, entry) for p in points]

    return Report(
        config={
            "metric": config.metric,
            "suites": [s for s in SUITES if s in config.suites],
            "points": config.points,
            "seed": config.seed,
            "tol": config.tol,
            "jet_order": order,
            "format": config.fmt,
        },
        environment={
            "jet_order": order,
            "seed": config.seed,
            "prng": "numpy PCG64",
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "detourcert": __version__,
            },
        },
        # the draws go suite by suite, check by check, point by point
        checks=[_verdict(c, [c.fn(pt, rng) for pt in pts], config.tol) for c in checks],
    )


# ---------------------------------------------------------------------------
# entry point


def _emit(text: str, path: str | None) -> bool:
    """Write text to the file path, or to stdout if path is empty; False after an OSError."""
    try:
        if not path:
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_verify(args) -> int:
    suites = tuple(s.strip() for s in args.suite.split(",") if s.strip())
    try:
        if args.suite == "all":  # the suites with a check in the metric's dimension
            dim = resolve_metric(args.metric)[0].dim
            suites = tuple(dict.fromkeys(c.suite for c in _CHECKS if c.runs_in(dim)))
        config = RunConfig(args.metric, suites, points=args.points, seed=args.seed,
                           tol=args.tol, jet_order=args.jet_order, fmt=args.fmt)
        report = run(config)
    except (ConfigError, MetricSyntaxError, MetricValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RecursionError, prolong.CertificationError) as exc:
        # the metric (or a derived quantity) cannot be evaluated at a sample point
        print(f"error: evaluating {args.metric}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    text = report.to_json() if config.fmt == "json" else report.to_text()
    if not _emit(text, args.out):
        return 2
    return 0 if report.passed else 1


def _cmd_catalog(args) -> int:
    if args.subcommand == "list":
        head = f"{'name':18s} {'dim':>3s} {'signature':12s} facts"
        print(head)
        print("-" * len(head))
        for entry in catalog.entries():
            spec = entry.spec()
            sig = "".join("+" if s > 0 else "-" for s in spec.signature)
            facts = " ".join(f"{k}={'y' if v else 'n'}" for k, v in entry.facts.items())
            print(f"{entry.name:18s} {spec.dim:3d} {sig:12s} {facts}")
        return 0
    if args.subcommand == "export":
        try:
            entry = catalog.get(args.name)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        return 0 if _emit(entry.text, "" if args.path == "-" else args.path) else 2
    return 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="detourcert",
        description="Pointwise verification of conformal tractor operators "
                    "and detour complexes on explicit metrics.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run identity suites on a metric")
    v.add_argument("--metric", required=True,
                   help="catalog name or path to a metric file")
    v.add_argument("--suite", default="all",
                   help="comma separated subset of: " + ", ".join(SUITES))
    v.add_argument("--points", type=int, default=3)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=1e-8)
    v.add_argument("--jet-order", type=int, default=None, dest="jet_order")
    v.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    v.add_argument("--out", default=None)
    v.set_defaults(fn=_cmd_verify)

    c = sub.add_parser("catalog", help="inspect built-in metrics")
    csub = c.add_subparsers(dest="subcommand", required=True)
    csub.add_parser("list", help="list catalog entries and facts")
    e = csub.add_parser("export", help="write a catalog metric to a file")
    e.add_argument("name")
    e.add_argument("path", help="output path, or - for stdout")
    c.set_defaults(fn=_cmd_catalog)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
