"""Batch verification harness.

Runs identity suites over seeded sample points of a catalog or file
metric and emits a deterministic certificate: a fixed-width table for
humans or JSON for machines.  Identical configuration (including the
seed) produces byte-identical JSON.

Checks whose residual is *supposed* to be large (operator compositions
on metrics where the obstruction tensor is visibly nonzero) are
classified as expected negatives at runtime: they pass when the
residual exceeds the tolerance and matches the predicted obstruction
value.
"""
from __future__ import annotations

import argparse
import json
import math
import platform
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy

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
# per-point check functions; each returns a residual, optionally with a
# (prediction_norm, prediction_gap) pair for obstruction-style checks.  Each
# reads its tensors through Geometry.dense or a public operator given dense
# arrays, and their values at the point as the coefficient 0.


def _check_algebraic_bianchi(geom, rng):
    rd = geom.dense("riemann_down")[..., 0]
    cyclic = rd + rd.transpose(2, 0, 1, 3) + rd.transpose(1, 2, 0, 3)
    return _max_abs(cyclic) / max(1.0, _max_abs(rd))


def _check_contracted_bianchi(geom, rng):
    dric = geom.covd_array(geom.dense("ricci", 1), ("d", "d"))[..., 0]
    gi = geom.dense("ginv")[..., 0]
    div = np.einsum("ea,eab->b", gi, dric)
    dsc = jets.partials(geom.dense("scalar", 1), geom.jet_dim, 1, geom.n)[:, 0]
    return _max_abs(div - 0.5 * dsc) / max(1.0, _max_abs(dric))


def _check_weyl_trace(geom, rng):
    w = geom.dense("weyl")[..., 0]
    gi = geom.dense("ginv")[..., 0]
    traces = [np.einsum("ab,acbd->cd", gi, w), np.einsum("ab,abcd->cd", gi, w)]
    return _max_abs(traces) / max(1.0, _max_abs(w))


def _check_cotton_trace(geom, rng):
    cot = geom.dense("cotton")[..., 0]
    gi = geom.dense("ginv")[..., 0]
    traces = [np.einsum("ab,abc->c", gi, cot), np.einsum("ab,cab->c", gi, cot)]
    return _max_abs(traces) / max(1.0, _max_abs(cot))


def _check_bach_shape(geom, rng):
    b = geom.dense("bach")[..., 0]
    gi = geom.dense("ginv")[..., 0]
    return _worst([abs(np.einsum("ij,ij->", gi, b)), _max_abs(b - b.T)]) / max(1.0, _max_abs(b))


def _check_tractor_metric_parallel(geom, rng):
    # compatibility of the position dependent pairing: d_a h = T_a^T h + h T_a
    n = geom.n
    t = tractor.connection_matrices(geom, 1)[..., 0]
    h = tractor.gram_matrix(geom)
    dh = np.zeros_like(t)
    dh[:, 1 : n + 1, 1 : n + 1] = jets.partials(geom.dense("ginv"), geom.jet_dim,
                                                geom.order, n)[..., 0]
    skew = t.transpose(0, 2, 1) @ h + h @ t - dh
    return _max_abs(skew) / max(1.0, _max_abs(t), _max_abs(dh))


def _check_splitting_commutation(geom, rng):
    sigma = _rand_jets(rng, (), geom.n, min(geom.order, 5), 3)  # each side reads 3 orders
    lhs = tractor.apply_connection(tractor.splitting(sigma, geom), geom)
    rhs = tractor.op_E(tractor.op_D(sigma, geom), geom)
    return _rel_diff(lhs.as_matrix()[..., 0], rhs.as_matrix()[..., 0])


def _check_adjoint_factorization(geom, rng):
    n = geom.n
    nu = _rand_jets(rng, (n, n), n, 3)
    phi = tractor.TractorOneForm(_rand_jets(rng, (n,), n, 3), nu, _rand_jets(rng, (n,), n, 3))
    lhs = tractor.splitting_star(tractor.coupled_divergence(phi, geom), geom)
    rhs = tractor.op_D_star(tractor.op_E_star(phi, geom), geom)
    return abs(lhs[0] - rhs[0]) / max(1.0, abs(lhs[0]), abs(rhs[0]))


def _check_tractor_curvature_skew(geom, rng):
    m = tractor.tractor_curvature(geom)[..., 0]
    h = tractor.gram_matrix(geom)
    skew = [m + m.swapaxes(0, 1), m.swapaxes(-1, -2) @ h + h @ m]
    return _max_abs(skew) / max(1.0, _max_abs(m))


def _check_signature(geom, rng):
    p = int(np.sum(np.linalg.eigvalsh(geom.dense("g")[..., 0]) > 0))
    got = tractor.tractor_signature(geom)
    return 0.0 if got == (p + 1, geom.n - p + 1) else 1.0


def _ym_exterior(conn, rng):
    # M(d f) = + current acting on f, for a section f of the twist bundle
    f = _rand_jets(rng, (conn.n,), conn.n, 4, 3)  # d, d and delta: three orders
    lhs = detour.op_M(detour.twisted_d(detour.TwistedForm(0, f), conn), conn)
    rhs = detour.current_action(detour.ym_current(conn), f)
    return _rel_diff(lhs.comps[..., 0], rhs[..., 0])


def _ym_interior(conn, rng):
    phi = detour.TwistedForm(1, _rand_jets(rng, (conn.n, conn.n), conn.n, 4, 3))
    lhs = detour.twisted_delta(detour.op_M(phi, conn), conn)
    rhs = detour.current_contraction(detour.ym_current(conn), phi, conn)
    return _rel_diff(lhs.comps[..., 0], -rhs[..., 0])


def _complex_composition(geom, rng):
    sigma = _rand_jets(rng, (), geom.n, min(geom.order, 6))
    comp = detour.op_MT(tractor.op_D(sigma, geom), geom).comps[..., 0]
    pred = detour.einstein_detour_expected(sigma, geom).comps[..., 0]
    return _max_abs(comp), _max_abs(pred), _max_abs(comp - pred)


def _kernel_bound(geom, rng, entry):
    listed = len(entry.killing_fields) if entry is not None else 0
    dim = prolong.kernel_dimension(killing_connection(geom))
    return float(max(0, listed - dim))


def _scale_kernel_bound(geom, rng, entry):
    listed = 1 if entry is not None and entry.einstein_scale is not None else 0
    dim = prolong.kernel_dimension(tractor_connection(geom))
    return float(max(0, listed - dim))


def _transport_roundtrip(spec, box, rng):
    p0 = np.array([rng.uniform(lo, hi) for lo, hi in box])
    p1 = p0 + 0.4 * (np.array([rng.uniform(lo, hi) for lo, hi in box]) - p0)
    v0 = rng.standard_normal(spec.dim + 2)
    fwd = prolong.transport(spec, tractor_connection, prolong.segment(p0, p1), v0,
                            rtol=1e-9, atol=1e-11, refine=False)
    back = prolong.transport(spec, tractor_connection, prolong.segment(p1, p0), fwd.end,
                             rtol=1e-9, atol=1e-11, refine=False)
    return float(np.max(np.abs(back.end - v0)))


def _gauge_linearization(geom, rng):
    # along the gauge direction K0 v the obstruction moves by its Lie
    # derivative plus the conformal weight term: L_v B + (2/n) div(v) B
    n = geom.n
    v = np.zeros((n, jets._size(n, geom.order)))  # order-3 field, zero padded
    v[:, : jets._size(n, 3)] = rng.standard_normal((n, jets._size(n, 3))) * 0.5
    h = detour.op_K0(v, geom).comps[..., : jets._size(n, 4)]  # the value of bp reads h to order 4
    bp = detour.linearized_bach(h, geom)
    bach = geom.dense("bach")
    db = geom.covd_array(bach, ("d", "d"))[..., 0]  # nabla_c B_ab at [c, a, b]
    dv = geom.covd_array(v[:, : jets._size(n, 1)], ("u",))[..., 0]  # nabla_a v^c at [a, c]
    b = bach[..., 0]
    lie = (np.einsum("c,cab->ab", v[:, 0], db) + np.einsum("cb,ac->ab", b, dv)
           + np.einsum("ac,bc->ab", b, dv))
    return _rel_diff(bp[..., 0], (2.0 / n) * np.trace(dv) * b + lie)


# ---------------------------------------------------------------------------
# suite tables: (check id, statement, function, needs dim 4).  Each check
# computes only the jet orders its residual reads: draw at the recorded order,
# then truncate to the order the residual reads.  Truncation is exact, so the
# residuals and the rng stream are those of the full-order computation.

_CURVATURE = [
    ("algebraic-bianchi", "curvature satisfies R_[abc]d = 0", _check_algebraic_bianchi, False),
    ("contracted-bianchi", "div Ric = d(scal)/2", _check_contracted_bianchi, False),
    ("weyl-trace", "Weyl tensor is totally trace-free", _check_weyl_trace, True),
    ("cotton-trace", "Cotton tensor vanishes under both metric traces", _check_cotton_trace, False),
    ("bach-shape", "obstruction tensor is symmetric and trace-free", _check_bach_shape, True),
]

_TRACTOR = [
    ("tractor-metric-parallel", "connection coefficients are skew for the tractor metric",
     _check_tractor_metric_parallel, False),
    ("splitting-commutation",
     "connection applied to the canonical splitting equals the injected "
     "second-order operator", _check_splitting_commutation, False),
    ("adjoint-factorization",
     "divergence adjoint of the splitting factors through the form adjoints",
     _check_adjoint_factorization, False),
    ("curvature-skew", "tractor curvature is antisymmetric and metric skew",
     _check_tractor_curvature_skew, False),
    ("signature", "tractor metric signature is (p+1, q+1)", _check_signature, False),
]

# the detour checks take the covector connection of the point instead of its
# geometry, at order 2: their curvature is read to order 1, its derivative to 0
_DETOUR = [
    ("ym-source-exterior", "composition with the twisted differential returns "
     "the source current", _ym_exterior, False),
    ("ym-source-interior", "twisted divergence of the operator returns minus "
     "the contracted current", _ym_interior, False),
]


def run(config: RunConfig) -> Report:
    spec, box, entry = resolve_metric(config.metric)
    order = config.resolved_order()
    if "deformation" in config.suites and spec.dim != 4:
        raise ConfigError("deformation suite requires a four dimensional metric")

    rng = np.random.default_rng(config.seed)
    points = [tuple(float(rng.uniform(lo, hi)) for lo, hi in box)
              for _ in range(config.points)]
    # only prolong reads past value coefficients, and jet truncation is exact
    build = order if "prolong" in config.suites else config.required_order()
    geoms = [Geometry(spec, pt, order=build) for pt in points]

    suites = tuple(s for s in SUITES if s in config.suites)
    report = Report(
        config={
            "metric": config.metric,
            "suites": list(suites),
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
                "scipy": scipy.__version__,
                "detourcert": __version__,
            },
        },
    )

    def plain(suite, table, per_point):
        for check_id, statement, fn, dim4_only in table:
            if dim4_only and spec.dim != 4:
                continue
            worst = _worst([fn(x, rng) for x in per_point])
            report.checks.append(CheckRecord(
                check_id, suite, statement, worst, config.tol,
                worst <= config.tol, config.points))

    for suite in suites:
        if suite == "curvature":
            plain(suite, _CURVATURE, geoms)
        elif suite == "tractor":
            plain(suite, _TRACTOR, geoms)
        elif suite == "detour":
            # one twist per point, shared by both current checks
            plain(suite, _DETOUR, [covector_connection(geom, 2) for geom in geoms])
            rows = [_complex_composition(geom, rng) for geom in geoms]
            worst, pred_norm, gap = (_worst(col) for col in zip(*rows))
            negative = pred_norm > 10.0 * config.tol
            if negative:
                ok = worst > config.tol and gap <= OBSTRUCTION_MATCH_TOL * max(1.0, pred_norm)
            else:
                ok = worst <= config.tol
            report.checks.append(CheckRecord(
                "complex-composition", suite,
                "translated operator composed with the splitting operator "
                "reproduces the curvature obstruction",
                worst, config.tol, ok, config.points,
                expected_negative=negative, prediction_gap=gap))
        elif suite == "prolong":
            for check_id, statement, fn in [
                ("kernel-bound",
                 "stacked obstruction kernel admits every listed Killing field",
                 _kernel_bound),
                ("scale-kernel-bound",
                 "parallel scale kernel admits the recorded Einstein scale",
                 _scale_kernel_bound),
            ]:
                worst = _worst([fn(geom, rng, entry) for geom in geoms])
                report.checks.append(CheckRecord(
                    check_id, suite, statement, worst, config.tol,
                    worst <= config.tol, config.points))
            worst = _worst([_transport_roundtrip(spec, box, rng)
                            for _ in range(config.points)])
            report.checks.append(CheckRecord(
                "transport-roundtrip", suite,
                "forward and reverse parallel transport return the fiber",
                worst, config.tol, worst <= config.tol, config.points))
        elif suite == "deformation":
            worst = _worst([_gauge_linearization(geom, rng) for geom in geoms])
            report.checks.append(CheckRecord(
                "gauge-linearization", suite,
                "linearized obstruction along gauge directions equals the "
                "transported obstruction",
                worst, config.tol, worst <= config.tol, config.points))
    return report


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
        if args.suite == "all":  # the suites that apply to the metric's dimension
            dim = resolve_metric(args.metric)[0].dim
            suites = tuple(s for s in SUITES if s != "deformation" or dim == 4)
        config = RunConfig(args.metric, suites, points=args.points, seed=args.seed,
                           tol=args.tol, jet_order=args.jet_order, fmt=args.fmt)
        report = run(config)
    except (ConfigError, MetricSyntaxError, MetricValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, prolong.CertificationError) as exc:
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
