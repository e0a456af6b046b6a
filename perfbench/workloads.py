"""Workloads of the verify benchmark and the hand-written verdict table.

A workload is an endless sequence of *cycles*.  A cycle is a fixed list of
verify calls (catalog metric, suite set, jet order, one sample point); the
workload seed only chooses each call's ``RunConfig.seed``, which in turn
chooses the sample point inside the catalog's box.  A run always measures
whole cycles, so the mix of calls behind every percentile is the same in
every run and on every seed.

The expected verdicts are written out by hand from the claims in the
README: every check passes on every catalog metric, and the detour
``complex-composition`` check is an expected negative (``neg-pass``)
exactly on the two metrics that are not Bach-flat, ``generic_bump4`` and
``generic_bump3``.  Verdicts are judged from the individual check records,
never from ``Report.passed``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# catalog metric -> dimension, written out so that a metric added to the
# catalog later does not change what the benchmark measures
DIMS = {
    "flat4": 4, "minkowski4": 4, "sphere4": 4, "hyperbolic4": 4,
    "conf_flat_poly4": 4, "schwarzschild": 4, "s2xs2": 4, "generic_bump4": 4,
    "flat3": 3, "sphere3": 3, "generic_bump3": 3,
}

# suite -> (check id, only on four dimensional metrics), in report order
SUITE_CHECKS = {
    "curvature": (("algebraic-bianchi", False), ("contracted-bianchi", False),
                  ("weyl-trace", True), ("cotton-trace", False), ("bach-shape", True)),
    "tractor": (("tractor-metric-parallel", False), ("splitting-commutation", False),
                ("adjoint-factorization", False), ("curvature-skew", False),
                ("signature", False)),
    "detour": (("ym-source-exterior", False), ("ym-source-interior", False),
               ("complex-composition", False)),
    "prolong": (("kernel-bound", False), ("scale-kernel-bound", False),
                ("transport-roundtrip", False)),
    "deformation": (("gauge-linearization", True),),
}
SUITE_ORDER = ("curvature", "tractor", "detour", "prolong", "deformation")

# (metric, check id) pairs whose residual must be large and match the
# predicted obstruction: the two catalog metrics that are not Bach-flat
EXPECTED_NEGATIVES = {
    ("generic_bump4", "complex-composition"),
    ("generic_bump3", "complex-composition"),
}


@dataclass(frozen=True)
class Call:
    """One verify call before its seed is drawn."""

    metric: str
    suites: tuple
    jet_order: int | None = None


# sphere4 and hyperbolic4 are left out of curvature-sweep: near the angular
# poles of their sample boxes bach-shape and gauge-linearization fail at
# about one point in a hundred and three hundred (see README.md)
_CURVATURE_METRICS = tuple(m for m in DIMS if m not in ("sphere4", "hyperbolic4"))


def _curvature_sweep() -> list:
    # each metric runs once bundled (one cached Geometry serves every suite)
    # and once suite by suite; which order gets the bundle alternates
    calls = []
    for i, metric in enumerate(_CURVATURE_METRICS):
        dim = DIMS[metric]
        suites = ("curvature", "tractor") + (("deformation",) if dim == 4 else ())
        for j, order in enumerate((None, 8)):
            if (i + j) % 2 == 0:
                calls.append(Call(metric, suites, order))
            else:
                calls.extend(Call(metric, (s,), order) for s in suites)
    return calls


_DETOUR_METRICS = ("schwarzschild", "s2xs2", "conf_flat_poly4", "sphere3",
                   "generic_bump4", "generic_bump3")
# schwarzschild, s2xs2 and sphere3 are left out of transport: their prolong
# time varies over 10x with the point, and schwarzschild's
# transport-roundtrip fails at about one point in twenty (see README.md)
_TRANSPORT_METRICS = ("conf_flat_poly4", "generic_bump4", "generic_bump3")

CYCLES = {
    "curvature-sweep": tuple(_curvature_sweep()),
    "detour-closure": tuple(Call(m, ("detour",), 6) for m in _DETOUR_METRICS),
    "transport": tuple(Call(m, ("prolong",)) for m in _TRANSPORT_METRICS),
}

# the tail percentile of each workload: whole cycles keep the mix of calls
# below and above it the same in every run; a run measures at least
# TAIL_BEYOND calls beyond it
TAIL_PERCENTILE = {"curvature-sweep": 85, "detour-closure": 75, "transport": 70}
TAIL_BEYOND = 10


def tail_rank(workload: str, n: int) -> int:
    """Sorted index of the tail percentile among n calls (nearest rank)."""
    return max(0, math.ceil(TAIL_PERCENTILE[workload] * n / 100) - 1)


def jet_shapes(workload: str) -> list:
    """(variables, order) of every jet a workload's calls can build.

    Geometry jets carry one variable per coordinate, the deformation suite
    adds one more, and every order from the call's down to 0 appears.
    """
    from detourcert.cli import MIN_ORDER

    shapes = set()
    for call in CYCLES[workload]:
        top = call.jet_order or max(MIN_ORDER[s] for s in call.suites)
        dims = {DIMS[call.metric]}
        if "deformation" in call.suites:
            dims.add(DIMS[call.metric] + 1)
        shapes.update((d, k) for d in dims for k in range(top + 1))
    return sorted(shapes)


def configs(workload: str, seed: int, cycle: int) -> list:
    """RunConfigs of one cycle; the same (seed, cycle) gives the same list."""
    from detourcert.cli import RunConfig

    rng = np.random.default_rng([seed, cycle])
    return [RunConfig(c.metric, c.suites, points=1, jet_order=c.jet_order,
                      seed=int(rng.integers(2**31)))
            for c in CYCLES[workload]]


def expected_checks(metric: str, suites) -> list:
    """[(check id, suite, expected_negative)] in the order reports list them."""
    dim = DIMS[metric]
    return [(check_id, suite, (metric, check_id) in EXPECTED_NEGATIVES)
            for suite in SUITE_ORDER if suite in suites
            for check_id, dim4_only in SUITE_CHECKS[suite]
            if dim == 4 or not dim4_only]


def judge(report, config) -> list:
    """Problems with one report against the table; empty means correct.

    Fails closed: a non-finite residual or prediction gap is a problem even
    when the record says it passed.
    """
    want = expected_checks(config.metric, config.suites)
    got = [(c.check_id, c.suite, bool(c.expected_negative)) for c in report.checks]
    if got != want:
        return [f"checks {got} differ from the table {want}"]
    problems = []
    for c in report.checks:
        if not math.isfinite(c.max_residual):
            problems.append(f"{c.check_id}: non-finite residual {c.max_residual}")
        if c.prediction_gap is not None and not math.isfinite(c.prediction_gap):
            problems.append(f"{c.check_id}: non-finite prediction gap {c.prediction_gap}")
        if not c.passed:
            problems.append(f"{c.check_id}: failed with residual {c.max_residual:.3e}")
        if c.points != config.points:
            problems.append(f"{c.check_id}: {c.points} points, expected {config.points}")
    return problems
