"""Verify benchmark: time to verdict of ``detourcert verify`` on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload curvature-sweep --seed 1 --seconds 36 --trace 0

The benchmark drives the program only through ``cli.run(RunConfig(...))``,
one verify call at a time, in this single process.  Workloads and the
hand-written verdict table live in ``workloads.py``; every call's check
records are judged against that table.

``--trace 0`` measures whole cycles of the workload for about ``--seconds``
and reports the end-to-end metrics.  Each timing is scaled to a reference
host speed by the fixed probe of ``hostspeed.py`` taken next to it; the
plain wall-time values are printed beside them and recorded.  ``--trace 1``
runs cycle 0 once untraced and once under the span tracer of ``tracer.py``
and reports the per-layer metrics, with the tracing overhead as traced over
untraced wall time.  Either way the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Every run
also writes its metrics, calls and environment to ``.perfbench_out/`` in
the checkout, and a traced run writes its spans there.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from workloads import (CYCLES, TAIL_BEYOND, TAIL_PERCENTILE, configs,  # noqa: E402
                       jet_shapes, judge, tail_rank)

SETUP_PROBES = 3
# host probes per set-up sample, taken after the child is ready
SETUP_HOST_PROBES = 3
# stop starting cycles after this long, so that a run ends within 180 s
MAX_MEASURE_S = 110.0


def import_program():
    """Import detourcert.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "detourcert" / "__init__.py").is_file():
        raise SystemExit(f"error: no detourcert sources under {SRC}; "
                         "run the benchmark from a repository checkout")
    sys.path.insert(0, str(SRC))
    import detourcert.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "detourcert":
        raise SystemExit(f"error: imported detourcert from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str):
    """What every CLI invocation pays before its first verify call.

    Imports the CLI, resolves and parses each metric of the workload, and
    fills the jet tables for every (variables, order) the workload reaches
    with one product, one partial per variable and one extension.
    """
    cli = import_program()
    from detourcert import jets

    for metric in sorted({c.metric for c in CYCLES[workload]}):
        cli.resolve_metric(metric)
    for dim, order in jet_shapes(workload):
        x = jets.variable(0.3, 0, dim, order)
        x * jets.variable(0.7, dim - 1, dim, order)
        x.extended(1)
        if order:
            for slot in range(dim):
                x.partial(slot)
    return cli


def measure_setup(workload: str) -> list:
    """(seconds, probe) per fresh interpreter started until setup() returns.

    The child takes the host probe after it reports ready, so the probe
    is not part of the set-up time.
    """
    samples = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                t1 = time.perf_counter()
                probe = proc.stdout.read().strip()
                code = proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
        if line != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        samples.append((t1 - t0, float(probe)))
    return samples


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            getter.argtypes = []
            threads = getter()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
    }


def verify(cli, config) -> dict:
    """One timed verify call, judged against the verdict table."""
    report = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        report = cli.run(config)
    except Exception as exc:  # a raising call is a failed call, not a crash
        problems = [f"raised {type(exc).__name__}: {exc}"]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if report is not None:
        problems = judge(report, config)
    return {
        "metric": config.metric, "suites": list(config.suites),
        "jet_order": config.jet_order, "seed": config.seed,
        "wall_s": wall, "cpu_s": cpu,
        "points": sum(c.points for c in report.checks) if report is not None else 0,
        "problems": problems,
    }


def run_cycles(cli, workload: str, seed: int, seconds: float):
    """Whole cycles until the next one would end nearer past the deadline.

    Keeps going, within MAX_MEASURE_S, until TAIL_BEYOND calls lie beyond
    the workload's tail percentile.
    """
    calls = []
    cycles = 0
    probe = hostspeed.HostProbe()
    start = time.perf_counter()
    before = probe()
    while True:
        for config in configs(workload, seed, cycles):
            call = verify(cli, config)
            after = probe()
            # the host's speed during the call, from the probes on either side
            call["probe_s"] = (before + after) / 2
            calls.append(call)
            before = after
        cycles += 1
        elapsed = time.perf_counter() - start
        n = len(calls)
        enough = n - 1 - tail_rank(workload, n) >= TAIL_BEYOND
        if elapsed > MAX_MEASURE_S or (enough and elapsed * (1 + 0.5 / cycles) >= seconds):
            return calls, cycles


def end_to_end(workload: str, calls: list, setup_samples: list, host: bool = True) -> dict:
    """The end-to-end metrics, each timing scaled to the reference host speed.

    Every call's and set-up sample's wall time is scaled by the host probe
    taken next to it (see hostspeed.py); with ``host=False`` the timings
    are the plain wall times.
    """
    def scaled(seconds, probe, kind=workload):
        return seconds * hostspeed.scale(kind, probe) if host else seconds

    walls = sorted(scaled(c["wall_s"], c["probe_s"]) for c in calls)
    return {
        "setup_s": (statistics.median(scaled(s, p, "setup") for s, p in setup_samples), "s"),
        "verdict_s_p50": (statistics.median(walls), "s"),
        "verdict_s_tail": (walls[tail_rank(workload, len(walls))], "s"),
        "check_points_per_s": (sum(c["points"] for c in calls) / sum(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(CYCLES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        setup(args.workload)
        print("ready", flush=True)
        probe = hostspeed.HostProbe()
        print(statistics.median(probe() for _ in range(SETUP_HOST_PROBES)))
        return 0

    cli = setup(args.workload)
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    wall0, cpu0 = time.perf_counter(), time.process_time()
    info = {}
    if args.trace:
        from tracer import Tracer

        cycle = configs(args.workload, args.seed, 0)
        plain = [verify(cli, c) for c in cycle]
        with Tracer() as tracer:
            traced = [verify(cli, c) for c in cycle]
        calls = plain + traced
        overhead = sum(c["wall_s"] for c in traced) / sum(c["wall_s"] for c in plain)
        metrics = tracer.metrics(overhead)
    else:
        setup_samples = measure_setup(args.workload)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        calls, cycles = run_cycles(cli, args.workload, args.seed, args.seconds)
        metrics = end_to_end(args.workload, calls, setup_samples)
        wall_metrics = end_to_end(args.workload, calls, setup_samples, host=False)
        info.update(cycles=cycles, setup_samples_s=setup_samples,
                    wall_metrics={k: v for k, (v, _) in wall_metrics.items()},
                    tail_percentile=TAIL_PERCENTILE[args.workload])
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    failed = [c for c in calls if c["problems"]]
    info.update(wall_s=wall, cpu_s=cpu, failed_frac=len(failed) / len(calls))

    for c in failed[:10]:
        print(f"FAILED {c['metric']} {','.join(c['suites'])} order={c['jet_order']} "
              f"seed={c['seed']}: {'; '.join(c['problems'])}")
    print(f"calls {len(calls)}  failed {len(failed)}  failed_frac {info['failed_frac']:.4f}  "
          f"wall_s {wall:.3f}  cpu_s {cpu:.3f}  cpu/wall {cpu / wall:.3f}")
    if not args.trace:
        print(f"tail is p{info['tail_percentile']} of {len(calls)} calls "
              f"({info['cycles']} cycles); setup samples "
              + " ".join(f"{s:.3f}" for s, _ in setup_samples))
        probes = [c["probe_s"] for c in calls]
        print(f"host probe median {statistics.median(probes) * 1e3:.2f} ms over the calls, "
              f"{statistics.median(p for _, p in setup_samples) * 1e3:.2f} ms over set-up, "
              f"reference {hostspeed.REFERENCE_PROBE_S * 1e3:.2f} ms; columns: scaled, wall")
    for name, (value, unit) in metrics.items():
        wall_value = info.get("wall_metrics", {}).get(name)
        print(f"{name:40s} {value:>16.6g} {unit:6s}"
              + (f" {wall_value:>12.6g}" if wall_value is not None else ""))

    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "info": info,
              "metrics": as_json, "calls": calls}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.dump(OUT / f"spans-{stem}.json", {"environment": env, "workload": args.workload,
                                                  "seed": args.seed})
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": as_json,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
