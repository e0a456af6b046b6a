"""Compare the `verify` JSON reports of two source trees.

    python tools/report_diff.py OLD_SRC NEW_SRC [--metrics a,b] [--suites s,t]

OLD_SRC and NEW_SRC are directories holding a `detourcert` package (a
checkout's `src`).  For every catalog metric and suite (seed 0, the default
points and jet order) the script runs `detourcert verify --format json`.
A pair is not applicable where the CLI exits 2 with "suite has no check
for a N dimensional metric"; it is left out of the counts, and a pair that
applies on one tree only is a change.  Every suite then runs a second
time at `--jet-order 8`, above each suite's minimum; those reports are
labelled `suite@8`.  Each pass runs all reports of one tree in
one subprocess.  The script lists every report whose exit code, overall
`passed`, check ids, or per-check `passed`, `expected_negative` or other
non-residual field changed.  It prints how many reports are
byte-identical, first at the default orders and then at order 8, how many
residuals (`max_residual`, `prediction_gap`) changed, and the five largest
changes with their metric, suite, check and old -> new values.  The exit
code is 1 when anything besides a residual changed, else 0.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

RESIDUALS = ("max_residual", "prediction_gap")
LARGEST = 5  # residual changes listed
HIGH_ORDER = 8  # the second pass runs every suite at this jet order
NOT_APPLICABLE = re.compile(r"suite has no check for a \d+ dimensional metric")


def run_reports(src: str, metrics: list | None, suites: list | None,
                order: int | None = None) -> list:
    """Every verify report of the package under src, as [metric, suite label, exit, text].

    With an order, every suite runs at that jet order, labelled suite@order.
    text is None where the suite does not apply to the metric (NOT_APPLICABLE).
    """
    sys.path.insert(0, str(Path(src).resolve()))
    from detourcert import catalog, cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"error: imported detourcert from {cli.__file__}, not from {src}")
    extra = ["--jet-order", str(order)] if order else []
    out = []
    for metric in metrics or catalog.names():
        for suite in suites or cli.SUITES:
            text, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(["verify", "--metric", metric, "--suite", suite,
                                     "--format", "json"] + extra)
                except Exception as exc:  # an uncaught error exits 1 from the shell
                    code, text = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
            applies = not (code == 2 and NOT_APPLICABLE.search(err.getvalue()))
            out.append([metric, f"{suite}@{order}" if order else suite, code,
                        text.getvalue() if applies else None])
    return out


def compare(old: list, new: list) -> tuple:
    """(changes, identical count, residual changes as (delta, where, a, b))."""
    new_by_key = {(m, s): (c, t) for m, s, c, t in new}
    changes, residuals, identical = [], [], 0
    for metric, suite, code, text in old:
        where = f"{metric}/{suite}"
        if (metric, suite) not in new_by_key:
            changes.append(f"{where}: missing in the new tree")
            continue
        new_code, new_text = new_by_key.pop((metric, suite))
        if text is None or new_text is None:
            if text is not new_text:
                changes.append(f"{where}: applies on the {'new' if text is None else 'old'} tree only")
            continue
        if new_text == text and new_code == code:
            identical += 1
            continue
        if new_code != code:
            changes.append(f"{where}: exit code {code} -> {new_code}")
        try:
            a, b = json.loads(text), json.loads(new_text)
        except json.JSONDecodeError:
            changes.append(f"{where}: output is not a report on both sides")
            continue
        if a["passed"] != b["passed"]:
            changes.append(f"{where}: passed {a['passed']} -> {b['passed']}")
        ids_a, ids_b = [c["id"] for c in a["checks"]], [c["id"] for c in b["checks"]]
        if ids_a != ids_b:
            changes.append(f"{where}: check ids {ids_a} -> {ids_b}")
            continue
        for ca, cb in zip(a["checks"], b["checks"]):
            for key in sorted(set(ca) | set(cb)):
                va, vb = ca.get(key), cb.get(key)
                if va == vb:
                    continue
                if key in RESIDUALS and va is not None and vb is not None:
                    residuals.append((abs(vb - va), f"{where} {ca['id']} {key}", va, vb))
                else:
                    changes.append(f"{where} {ca['id']}: {key} {va} -> {vb}")
        if a["config"] != b["config"]:
            changes.append(f"{where}: config changed")
    changes.extend(f"{m}/{s}: missing in the old tree" for m, s in new_by_key)
    return changes, identical, residuals


def residual_lines(residuals: list) -> list:
    """The count of residual changes, then the LARGEST biggest, one line each."""
    if not residuals:
        return ["0 residuals changed"]
    top = sorted(residuals, key=lambda r: r[0], reverse=True)[:LARGEST]
    return [f"{len(residuals)} residuals changed, the {len(top)} largest:"] + [
        f"  {delta:.3e}  {where}: {a!r} -> {b!r}" for delta, where, a, b in top]


def _worker_cmd(src: str, order: int | None, args) -> list:
    cmd = [sys.executable, __file__, "--worker", src]
    if order:
        cmd += ["--worker-order", str(order)]
    if args.metrics:
        cmd += ["--metrics", args.metrics]
    if args.suites:
        cmd += ["--suites", args.suites]
    return cmd


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_src", nargs="?")
    p.add_argument("new_src", nargs="?")
    p.add_argument("--metrics", default=None, help="comma separated catalog names")
    p.add_argument("--suites", default=None, help="comma separated suites")
    p.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    p.add_argument("--worker-order", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    split = (lambda s: s.split(",") if s else None)
    if args.worker:
        json.dump(run_reports(args.worker, split(args.metrics), split(args.suites),
                              args.worker_order), sys.stdout)
        return 0
    if not (args.old_src and args.new_src):
        p.error("need OLD_SRC and NEW_SRC")
    changes, residuals = [], []
    for order in (None, HIGH_ORDER):
        procs = [subprocess.Popen(_worker_cmd(src, order, args), stdout=subprocess.PIPE,
                                  text=True) for src in (args.old_src, args.new_src)]
        sides = []
        for proc in procs:
            text, _ = proc.communicate()
            if proc.returncode != 0:
                print(f"error: the report run of one tree exited {proc.returncode}",
                      file=sys.stderr)
                return 2
            sides.append(json.loads(text))
        part, identical, moved = compare(*sides)
        changes += part
        residuals += moved
        title = f" at --jet-order {order}" if order else ""
        reports = sum(text is not None for *_, text in sides[0])
        print(f"{reports} reports{title}, {identical} byte-identical")
    for line in changes:
        print("changed: " + line)
    for line in residual_lines(residuals):
        print(line)
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
