"""Smoke test of tools/report_diff.py, which compares the verify reports of two trees."""
import copy
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "report_diff.py"
CHEAP = ["--metrics", "flat3,flat4", "--suites", "curvature,tractor"]


def test_source_tree_against_itself_is_identical():
    src = str(ROOT / "src")
    out = subprocess.run([sys.executable, str(TOOL), src, src] + CHEAP,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[0] == "4 reports, 4 byte-identical"
    assert "0 residuals changed" in out.stdout


def test_verdict_changes_are_listed_and_residual_changes_are_not():
    sys.path.insert(0, str(TOOL.parent))
    try:
        import report_diff
    finally:
        sys.path.pop(0)
    worker = subprocess.run([sys.executable, str(TOOL), "--worker", str(ROOT / "src"),
                             "--metrics", "flat4", "--suites", "curvature"],
                            capture_output=True, text=True, timeout=300, check=True)
    old = json.loads(worker.stdout)
    report = json.loads(old[0][3])
    report["checks"][0]["max_residual"] += 1e-15
    new = copy.deepcopy(old)
    new[0][3] = json.dumps(report)
    changes, identical, residuals = report_diff.compare(old, new)
    assert (changes, identical, len(residuals)) == ([], 0, 1)
    report["checks"][0]["passed"] = not report["checks"][0]["passed"]
    new[0][2] = 1
    new[0][3] = json.dumps(report)
    changes, _, _ = report_diff.compare(old, new)
    assert len(changes) == 2 and "exit code 0 -> 1" in changes[0]


def test_the_five_largest_residual_changes_are_listed():
    sys.path.insert(0, str(TOOL.parent))
    try:
        import report_diff
    finally:
        sys.path.pop(0)
    worker = subprocess.run([sys.executable, str(TOOL), "--worker", str(ROOT / "src"),
                             "--metrics", "flat4", "--suites", "curvature,tractor"],
                            capture_output=True, text=True, timeout=300, check=True)
    old = json.loads(worker.stdout)
    new, moved, k = copy.deepcopy(old), [], 0
    for row in new:
        report = json.loads(row[3])
        for check in report["checks"]:
            k += 1
            check["max_residual"] += 1e-15 * k
            moved.append((k, f"{row[0]}/{row[1]} {check['id']} max_residual",
                          check["max_residual"]))
        row[3] = json.dumps(report)
    changes, _, residuals = report_diff.compare(old, new)
    assert changes == [] and len(residuals) == k > 5
    lines = report_diff.residual_lines(residuals)
    assert lines[0] == f"{k} residuals changed, the 5 largest:"
    assert len(lines) == 6
    # largest first, each naming metric/suite, check and old -> new
    for line, (_, where, value) in zip(lines[1:], sorted(moved, reverse=True)):
        assert f"  {where}: " in line and line.endswith(f" -> {value!r}")
    assert report_diff.residual_lines([]) == ["0 residuals changed"]


def test_a_suite_without_checks_in_the_dimension_is_not_applicable():
    # the CLI decides applicability: generic_bump3 has no deformation check, so the
    # pair is left out of the counts, and a pair that applies on one tree is a change
    sys.path.insert(0, str(TOOL.parent))
    try:
        import report_diff
    finally:
        sys.path.pop(0)
    worker = subprocess.run([sys.executable, str(TOOL), "--worker", str(ROOT / "src"),
                             "--metrics", "generic_bump3,flat4", "--suites", "deformation"],
                            capture_output=True, text=True, timeout=300, check=True)
    rows = json.loads(worker.stdout)
    assert [(m, s, c, t is None) for m, s, c, t in rows] == [
        ("generic_bump3", "deformation", 2, True), ("flat4", "deformation", 0, False)]
    assert report_diff.compare(rows, copy.deepcopy(rows)) == ([], 1, [])
    applies = copy.deepcopy(rows)
    applies[0][2:] = [0, rows[1][3]]
    changes, _, _ = report_diff.compare(rows, applies)
    assert changes == ["generic_bump3/deformation: applies on the new tree only"]
    changes, _, _ = report_diff.compare(applies, rows)
    assert changes == ["generic_bump3/deformation: applies on the old tree only"]
    out = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src"), str(ROOT / "src"),
                          "--metrics", "generic_bump3", "--suites", "deformation,curvature"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[:2] == ["1 reports, 1 byte-identical",
                                           "1 reports at --jet-order 8, 1 byte-identical"]


def test_the_second_pass_runs_every_suite_at_order_8():
    worker = subprocess.run([sys.executable, str(TOOL), "--worker", str(ROOT / "src"),
                             "--worker-order", "8", "--metrics", "flat3",
                             "--suites", "curvature,prolong"],
                            capture_output=True, text=True, timeout=300, check=True)
    rows = json.loads(worker.stdout)
    assert [(m, s, c) for m, s, c, _ in rows] == [("flat3", "curvature@8", 0),
                                                  ("flat3", "prolong@8", 0)]
    assert all(json.loads(t)["config"]["jet_order"] == 8 for *_, t in rows)


def test_every_report_runs_at_the_seed_asked_for():
    def worker(*seed):
        out = subprocess.run([sys.executable, str(TOOL), "--worker", str(ROOT / "src"),
                              "--metrics", "generic_bump3", "--suites", "curvature", *seed],
                             capture_output=True, text=True, timeout=300, check=True)
        return [json.loads(t) for *_, t in json.loads(out.stdout)]

    (zero,), (default,), (one,) = worker("--seed", "0"), worker(), worker("--seed", "1")
    assert zero == default and zero["config"]["seed"] == 0
    assert one["config"]["seed"] == one["environment"]["seed"] == 1
    assert [c["max_residual"] for c in one["checks"]] != [c["max_residual"] for c in zero["checks"]]
    out = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src"), str(ROOT / "src"),
                          "--seed", "1"] + CHEAP, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[:2] == ["4 reports, 4 byte-identical",
                                           "4 reports at --jet-order 8, 4 byte-identical"]
