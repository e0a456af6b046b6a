"""Self-checks of the verify benchmark.

Run from the repository root:

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from hostspeed import REFERENCE_PROBE_S, SENSITIVITY  # noqa: E402
from tracer import LAYER_METRICS, REPEATABLE_COUNTS, TARGETS, Tracer  # noqa: E402
from workloads import (CYCLES, TAIL_PERCENTILE, configs, expected_checks,  # noqa: E402
                       judge, tail_rank)

cli = run.import_program()

# one short call that reaches every module: all five suites on a dim-4 metric
SHORT = cli.RunConfig("generic_bump4", cli.SUITES, points=1, seed=5)
# wrapped functions that no verify call reaches (kept for tests of the program)
UNREACHED = {("tractor", "curvature_divergence")}


def _traced(config, profile=None):
    with Tracer() as tracer:
        if profile is not None:
            profile.enable()
        try:
            report = cli.run(config)
        finally:
            if profile is not None:
                profile.disable()
    assert not judge(report, config)
    return tracer


def _code(modname, path):
    *owner_path, attr = path.split(".")
    owner = sys.modules["detourcert." + modname]
    for part in owner_path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    return getattr(raw, "func", raw).__code__


def test_traced_call_counts_equal_cprofile_ncalls():
    # a name imported somewhere before it was patched would run unwrapped:
    # cProfile still counts the original function, the tracer would not
    profile = cProfile.Profile()
    tracer = _traced(SHORT, profile)
    stats = pstats.Stats(profile).stats
    for modname, path, _, _ in TARGETS:
        code = _code(modname, path)
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        ncalls = stats[key][1] if key in stats else 0
        assert tracer.target_calls[(modname, path)] == ncalls, (modname, path)
        if (modname, path) not in UNREACHED:
            assert ncalls > 0, (modname, path)


def test_tracer_restores_every_patched_name():
    before = {(m, p): _code(m, p) for m, p, _, _ in TARGETS}
    _traced(cli.RunConfig("generic_bump3", ("curvature",), points=1))
    assert {(m, p): _code(m, p) for m, p, _, _ in TARGETS} == before
    assert cli.run.__module__ == "detourcert.cli"


def test_count_metrics_repeat_exactly():
    first = _traced(SHORT).metrics(1.0)
    second = _traced(SHORT).metrics(1.0)
    for name in REPEATABLE_COUNTS:
        assert first[name][0] > 0, name
        assert first[name] == second[name], name


def test_layer_metrics_are_complete():
    metrics = _traced(cli.RunConfig("generic_bump3", ("curvature",), points=1)).metrics(1.5)
    assert list(metrics) == list(LAYER_METRICS)
    assert metrics["trace.overhead_ratio"] == (1.5, "ratio")


def _records(metric, suites, residual=1e-15):
    return [cli.CheckRecord(check_id, suite, "", residual, 1e-8, True, 1,
                            expected_negative=neg)
            for check_id, suite, neg in expected_checks(metric, suites)]


def test_judge_accepts_the_table_and_fails_closed():
    config = cli.RunConfig("generic_bump3", ("curvature", "detour"), points=1)
    env = {}
    assert judge(cli.Report({}, env, _records("generic_bump3", config.suites)), config) == []
    # NaN residual that the record calls a pass
    nan = cli.Report({}, env, _records("generic_bump3", config.suites, float("nan")))
    assert nan.passed and judge(nan, config)
    # a verdict kind that differs from the table
    flipped = _records("generic_bump3", config.suites)
    flipped[-1].expected_negative = False
    assert judge(cli.Report({}, env, flipped), config)
    # a missing check and a failing check
    assert judge(cli.Report({}, env, _records("generic_bump3", config.suites)[1:]), config)
    failing = _records("generic_bump3", config.suites)
    failing[0].passed = False
    assert judge(cli.Report({}, env, failing), config)


def test_expected_negatives_are_the_non_bach_flat_metrics():
    negatives = {m for m in ("generic_bump4", "generic_bump3", "schwarzschild", "sphere3")
                 if any(neg for _, _, neg in expected_checks(m, ("detour",)))}
    assert negatives == {"generic_bump4", "generic_bump3"}
    assert [c for c, _, _ in expected_checks("sphere3", ("curvature",))] == [
        "algebraic-bianchi", "contracted-bianchi", "cotton-trace"]


def test_configs_are_seeded():
    for workload in CYCLES:
        assert configs(workload, 1, 0) == configs(workload, 1, 0)
        assert configs(workload, 1, 0) != configs(workload, 2, 0)
        assert configs(workload, 1, 0) != configs(workload, 1, 1)


def test_tail_rank_leaves_the_percentile_beyond_it():
    assert tail_rank("curvature-sweep", 100) == 84
    assert tail_rank("curvature-sweep", 82) == 69
    assert tail_rank("transport", 1) == 0


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(CYCLES)
    for w in bench["workloads"]:
        assert w["why"].endswith(f"tail p{TAIL_PERCENTILE[w['name']]}"), w["name"]
    assert set(SENSITIVITY) == {"setup", *CYCLES}
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        k: v[:2] for k, v in LAYER_METRICS.items()}
    calls = [{"wall_s": 0.5, "points": 3, "probe_s": REFERENCE_PROBE_S}]
    metrics = run.end_to_end("transport", calls, [(1.0, REFERENCE_PROBE_S)])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: unit for k, (_, unit) in metrics.items()}


def test_timings_are_scaled_by_the_probe_next_to_them():
    # a host k times slower than the reference stretches every timing by k**power
    power, setup_power = SENSITIVITY["transport"], SENSITIVITY["setup"]
    slow = [1.0, 2.0, 1.5]
    calls = [{"wall_s": 0.5 * k**power, "points": 3, "probe_s": k * REFERENCE_PROBE_S}
             for k in slow]
    setup = [(1.0 * k**setup_power, k * REFERENCE_PROBE_S) for k in slow]
    scaled = run.end_to_end("transport", calls, setup)
    for name in ("setup_s", "verdict_s_p50", "verdict_s_tail"):
        assert scaled[name][0] == pytest.approx(0.5 if name != "setup_s" else 1.0)
    assert scaled["check_points_per_s"][0] == pytest.approx(6.0)
    wall = run.end_to_end("transport", calls, setup, host=False)
    assert wall["setup_s"][0] == 1.5**setup_power
    assert wall["verdict_s_p50"][0] == 0.5 * 1.5**power
    assert wall["check_points_per_s"][0] == pytest.approx(9 / sum(c["wall_s"] for c in calls))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transport", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
