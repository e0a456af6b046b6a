"""Harness behavior: determinism, exit codes, expected negatives, formats."""
import importlib.util
import json
import math
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from detourcert import catalog, cli, detour, jets, prolong, tractor
from detourcert.geometry import Geometry
from detourcert.jets import Jet


def run_config(**kw):
    base = dict(metric="sphere4", suites=("tractor",), points=2, seed=9,
                tol=1e-8, fmt="json")
    base.update(kw)
    return cli.RunConfig(**base)


def test_json_is_byte_identical_for_same_config():
    a = cli.run(run_config()).to_json()
    b = cli.run(run_config()).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["schema"] == cli.SCHEMA
    assert payload["passed"] is True
    assert {c["id"] for c in payload["checks"]} == {
        "tractor-metric-parallel", "splitting-commutation",
        "adjoint-factorization", "curvature-skew", "signature",
    }


def test_different_seed_changes_sample_points_not_verdict():
    a = cli.run(run_config(seed=1))
    b = cli.run(run_config(seed=2))
    assert a.passed and b.passed
    ra = [c.max_residual for c in a.checks]
    rb = [c.max_residual for c in b.checks]
    assert ra != rb  # different points, different roundoff


def test_expected_negative_composition_on_bump():
    report = cli.run(run_config(metric="generic_bump4", suites=("detour",),
                                points=1, seed=3))
    rec = {c.check_id: c for c in report.checks}["complex-composition"]
    assert rec.expected_negative
    assert rec.passed
    assert rec.max_residual > 1e-8
    assert rec.prediction_gap is not None and rec.prediction_gap < 1e-6
    assert report.passed


def test_composition_is_positive_on_einstein_background():
    report = cli.run(run_config(metric="sphere4", suites=("detour",),
                                points=1, seed=3))
    rec = {c.check_id: c for c in report.checks}["complex-composition"]
    assert not rec.expected_negative
    assert rec.passed and rec.max_residual < 1e-8


def test_jet_order_below_suite_minimum_rejected():
    with pytest.raises(cli.ConfigError, match="below the minimum"):
        run_config(suites=("detour",), jet_order=4)


def test_unknown_suite_rejected():
    with pytest.raises(cli.ConfigError, match="unknown suite"):
        run_config(suites=("spectral",))


@pytest.mark.parametrize("tol", ["inf", "1e400", "nan"])
def test_non_finite_tolerance_rejected(tol, capsys):
    # an infinite tolerance would pass every finite residual
    with pytest.raises(cli.ConfigError, match="--tol"):
        run_config(tol=float(tol))
    assert cli.main(["verify", "--metric", "flat3", "--suite", "curvature",
                     "--tol", tol]) == 2
    assert capsys.readouterr().err.startswith("error: --tol must be positive and finite")


def test_negative_seed_rejected(capsys):
    # a config error, not an evaluation error of the metric
    with pytest.raises(cli.ConfigError, match="--seed"):
        run_config(seed=-1)
    assert cli.main(["verify", "--metric", "flat3", "--suite", "curvature",
                     "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: --seed must be non-negative")


def test_deformation_needs_dimension_four():
    with pytest.raises(cli.ConfigError, match="deformation suite has no check"):
        cli.run(run_config(metric="generic_bump3", suites=("deformation",),
                           points=1))


def test_residuals_do_not_grow_with_extra_jet_orders():
    lo = cli.run(run_config(metric="sphere4", suites=("curvature",), points=1,
                            seed=5, jet_order=4))
    hi = cli.run(run_config(metric="sphere4", suites=("curvature",), points=1,
                            seed=5, jet_order=6))
    by_id_lo = {c.check_id: c.max_residual for c in lo.checks}
    for c in hi.checks:
        assert c.max_residual <= by_id_lo[c.check_id] + 1e-12


def test_main_exit_codes(tmp_path, capsys):
    assert cli.main(["verify", "--metric", "flat4", "--suite", "curvature",
                     "--points", "1"]) == 0
    capsys.readouterr()
    # nonzero residual above an absurd tolerance -> failure exit
    assert cli.main(["verify", "--metric", "sphere4", "--suite", "tractor",
                     "--points", "1", "--tol", "1e-18"]) == 1
    capsys.readouterr()
    assert cli.main(["verify", "--metric", "no_such_metric",
                     "--suite", "curvature"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_default_suites_follow_the_metric_dimension(capsys):
    # "all" leaves out the deformation suite on a metric that is not four dimensional
    assert cli.main(["verify", "--metric", "generic_bump3", "--points", "1"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out and "transport-roundtrip" in out
    assert "gauge-linearization" not in out


@pytest.mark.parametrize("seed,points", [(2092325071, 1), (1560023975, 1), (13, 1), (9, 1),
                                         (29, 3)])
def test_schwarzschild_transport_roundtrip_passes_at_the_default_tol(seed, points):
    # the roundtrip residual is integrator error, which scales with the
    # integrator's rtol; at these points rtol=1e-9 left it above the 1e-8 tol
    report = cli.run(cli.RunConfig("schwarzschild", ("prolong",), points=points, seed=seed))
    record = {c.check_id: c for c in report.checks}["transport-roundtrip"]
    assert record.passed and record.max_residual <= 1e-9


def test_scale_kernel_bound_passes_near_the_sphere4_pole():
    # the third point sits at p2 = 0.22, where the rank floor must follow Theta's jets
    report = cli.run(cli.RunConfig("sphere4", ("prolong",), seed=153, jet_order=6))
    assert {c.check_id: c for c in report.checks}["scale-kernel-bound"].passed


def test_signature_reads_the_eigenvalues_of_a_non_diagonal_metric(tmp_path):
    # null coordinates: the Lorentzian metric has no positive diagonal entry in (x, y)
    path = tmp_path / "null.metric"
    path.write_text('dimension = 3\ncoords = x y z\nsignature = "-++"\n'
                    'g[1][2] = "1"\ng[3][3] = "1 + 0.1*x^2"\n')
    report = cli.run(run_config(metric=str(path), suites=("tractor",), points=1))
    assert {c.check_id: c.max_residual for c in report.checks}["signature"] == 0.0
    assert report.passed


def test_text_report_shape(capsys):
    assert cli.main(["verify", "--metric", "flat3", "--suite", "curvature",
                     "--points", "1", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "algebraic-bianchi" in out
    # n=3: no Weyl or obstruction tensor rows
    assert "weyl-trace" not in out
    assert "bach-shape" not in out


def test_catalog_export_roundtrips_through_verify(tmp_path, capsys):
    path = tmp_path / "bump.metric"
    assert cli.main(["catalog", "export", "generic_bump4", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--metric", str(path), "--suite", "curvature",
                     "--points", "2", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_catalog_export_unknown_name(capsys):
    assert cli.main(["catalog", "export", "nope", "-"]) == 2
    assert "unknown catalog metric" in capsys.readouterr().err


def test_catalog_list_names(capsys):
    assert cli.main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("flat4", "schwarzschild", "generic_bump3"):
        assert name in out


def test_report_written_to_file(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--metric", "flat4", "--suite", "curvature",
                     "--points", "1", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["environment"]["prng"] == "numpy PCG64"
    assert payload["environment"]["versions"]["detourcert"]
    assert all(c["passed"] for c in payload["checks"])


def test_flat_all_suites_clean():
    config = cli.RunConfig("flat4", tuple(cli.SUITES), points=2, seed=0)
    report = cli.run(config)
    assert report.passed
    assert all(c.max_residual < 1e-9 for c in report.checks)


def _nan_residual(fn):
    """The check function fn with its residual replaced by NaN, beside any real prediction."""
    def patched(pt, rng):
        out = fn(pt, rng)
        return (math.nan,) + out[1:] if isinstance(out, tuple) else math.nan
    return patched


def _table_with(check_id, fn):
    """A copy of the check table whose row check_id runs fn."""
    return tuple(c._replace(fn=fn) if c.id == check_id else c for c in cli._CHECKS)


def _nan_patches():
    """(check id, suite, check table) making that one row's residual NaN, for every row."""
    for row in cli._CHECKS:
        yield row.id, row.suite, _table_with(row.id, _nan_residual(row.fn))


def test_verify_never_builds_jets_views(monkeypatch):
    # every check runs on dense arrays from its random draw to its residual
    def refuse(*args):
        raise AssertionError("verify built a jets view")

    monkeypatch.setattr(jets, "to_jets", refuse)
    assert cli.run(run_config(metric="generic_bump4", suites=cli.SUITES, points=1)).passed
    default = tuple(s for s in cli.SUITES if s != "deformation")  # --suite all in dimension 3
    assert cli.run(run_config(metric="generic_bump3", suites=default, points=1)).passed


def test_nan_residual_fails_the_check(monkeypatch):
    # each check of every suite in turn returns NaN: its record and the report fail
    seen = set()
    for check_id, suite, table in _nan_patches():
        with monkeypatch.context() as m:
            m.setattr(cli, "_CHECKS", table)
            report = cli.run(run_config(metric="flat4", suites=(suite,), points=1))
        rec = {c.check_id: c for c in report.checks}
        assert not rec[check_id].passed and math.isnan(rec[check_id].max_residual), check_id
        assert all(c.passed for c in report.checks if c.check_id != check_id), check_id
        assert not report.passed, check_id
        assert "FAIL" in report.to_text() and '"passed": false' in report.to_json()
        seen.add(check_id)
    assert len(seen) == 17


def test_non_finite_prediction_fails_the_check(monkeypatch):
    # a NaN prediction norm is not above 10*tol, so it must not pass as a plain positive
    table = _table_with("complex-composition", lambda pt, rng: (1e-15, math.nan, math.nan))
    monkeypatch.setattr(cli, "_CHECKS", table)
    report = cli.run(run_config(metric="flat4", suites=("detour",), points=1))
    rec = {c.check_id: c for c in report.checks}["complex-composition"]
    assert not rec.passed and not report.passed
    assert '"passed": false' in report.to_json()


_COMPOSITION = next(c for c in cli._CHECKS if c.id == "complex-composition")
TOL = 1e-8
GAP_TOL = cli.OBSTRUCTION_MATCH_TOL


@pytest.mark.parametrize("results, passed, negative", [
    ([1e-12, 3e-9], True, False),  # plain pass
    ([1e-12, 2e-8], False, False),  # plain fail
    ([1e-12, math.nan], False, False),
    ([math.inf, 1e-12], False, False),
    ([(1e-15, 0.0, 1e-15)], True, False),  # no obstruction: a positive
    ([(3.0, 3.0, 1e-12), (1e-9, 1e-3, 1e-15)], True, True),  # expected negative
    ([(3.0, 3.0, 1.01 * GAP_TOL * 3.0)], False, True),  # gap above the match tolerance
    ([(2.0, 0.5, 1.01 * GAP_TOL)], False, True),  # gap tolerance is at least GAP_TOL
    ([(2.0, 0.5, 0.99 * GAP_TOL)], True, True),
    ([(0.5 * TOL, 1.0, 1e-12)], False, True),  # a negative whose residual is within tol
    ([(TOL, 1.0, 1e-12)], False, True),
    ([(2 * TOL, 10 * TOL, 1e-15)], False, False),  # a norm of exactly 10*tol is a positive
    ([(0.5 * TOL, 10 * TOL, 1e-15)], True, False),
    ([(2 * TOL, 5 * TOL, 1e-15)], False, False),  # the band (tol, 10*tol]: judged a positive
    ([(0.5 * TOL, 5 * TOL, 1e-15)], True, False),
    ([(1e-15, math.nan, math.nan)], False, False),  # a non-finite prediction fails closed
    ([(1e-15, 0.0, math.inf)], False, False),
    ([(1e-15, math.inf, 1e-12)], False, False),
    ([(3.0, 3.0, math.nan)], False, True),
    ([(math.nan, 3.0, 1e-12)], False, True),
])
def test_verdict(results, passed, negative):
    rec = cli._verdict(_COMPOSITION, results, TOL)
    assert (rec.passed, rec.expected_negative) == (passed, negative)
    assert rec.points == len(results) and rec.tolerance == TOL
    assert (rec.prediction_gap is None) == (not isinstance(results[0], tuple))
    worst = cli._worst(r[0] if isinstance(r, tuple) else r for r in results)
    assert rec.max_residual == worst or math.isnan(rec.max_residual) and math.isnan(worst)


def test_benchmark_table_matches_the_check_table(monkeypatch):
    # perfbench/workloads.py keeps a hand-written copy of the check ids; a
    # check id added on one side only fails here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    assert workloads.SUITE_ORDER == cli.SUITES
    for suite in cli.SUITES:
        rows = tuple((c.id, c.dims == (4,)) for c in cli._CHECKS if c.suite == suite)
        assert workloads.SUITE_CHECKS[suite] == rows, suite


def _with_nan_entry(arr):
    """Copy of a tensor of jets, object or dense, whose second entry is NaN throughout."""
    if arr.dtype != object:
        out = np.array(arr, order="C")  # so that the reshape below is a view
        out.reshape(-1, out.shape[-1])[1] = np.nan
        return out
    out = arr.copy()
    j = out.flat[1]
    out.flat[1] = Jet(j.dim, j.order, np.full_like(j.coeffs, np.nan))
    return out


@pytest.mark.parametrize("owner, attr, suite, check_id", [
    (Geometry, "riemann_down", "curvature", "algebraic-bianchi"),
    (Geometry, "ricci", "curvature", "contracted-bianchi"),
    (Geometry, "weyl", "curvature", "weyl-trace"),
    (Geometry, "cotton", "curvature", "cotton-trace"),
    (Geometry, "bach", "curvature", "bach-shape"),
    (tractor, "connection_matrices", "tractor", "tractor-metric-parallel"),
    (tractor, "tractor_curvature", "tractor", "curvature-skew"),
    (detour, "linearized_bach", "deformation", "gauge-linearization"),
])
def test_nan_entry_inside_one_point_fails_its_check(monkeypatch, owner, attr, suite, check_id):
    # one NaN tensor entry must reach the report, not be folded away by
    # max(0.0, nan) == 0.0 inside the per-point check
    orig = vars(owner)[attr]
    if isinstance(orig, cached_property):
        # a Geometry stage: the NaN goes into the dense array its function
        # returns, which Geometry.dense keeps and the checks read
        stage = type(orig)(lambda self, *a: _with_nan_entry(orig.func(self, *a)))
        stage.__set_name__(owner, attr)
        monkeypatch.setattr(owner, attr, stage)
    else:
        monkeypatch.setattr(owner, attr, lambda *args: _with_nan_entry(orig(*args)))
    report = cli.run(run_config(metric="flat4", suites=(suite,), points=1))
    rec = {c.check_id: c for c in report.checks}[check_id]
    assert not rec.passed
    assert math.isnan(rec.max_residual)


def _metric_file(tmp_path, g11):
    path = tmp_path / "bad.metric"
    path.write_text('dimension = 3\ncoords = x y z\nsignature = "+++"\n'
                    f'g[1][1] = "{g11}"\ng[2][2] = "1"\ng[3][3] = "1"\n')
    return str(path)


@pytest.mark.parametrize("g11, name", [("log(x)", "ValueError"),
                                       ("0*x", "SingularMetricError")])
def test_evaluation_error_exits_with_code_2(tmp_path, capsys, g11, name):
    code = cli.main(["verify", "--metric", _metric_file(tmp_path, g11),
                     "--suite", "curvature", "--seed", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err


def test_integrator_failure_exits_with_code_2(monkeypatch, capsys):
    # a transport whose integrator gives up is an evaluation error, not a traceback
    def non_finite(spec, builder, points):
        return np.full(np.shape(points) + (spec.dim + 2, spec.dim + 2), np.nan)

    monkeypatch.setattr(prolong, "_theta_values", non_finite)
    code = cli.main(["verify", "--metric", "generic_bump3", "--suite", "prolong",
                     "--points", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "CertificationError: integrator failed" in err


def test_the_node_cap_exits_with_code_2(monkeypatch, capsys):
    # s2xs2 at seed 0 needs the 17-node grid; with the cap at 8 and no split the transport
    # gives up
    monkeypatch.setattr(prolong, "_MAX_N", 8)
    monkeypatch.setattr(prolong, "_SPLITS", 0)
    code = cli.main(["verify", "--metric", "s2xs2", "--suite", "prolong", "--points", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "CertificationError: integrator failed: no convergence on 9 nodes" in err


def _python(*argv) -> subprocess.CompletedProcess:
    """Run the interpreter with the package under test first on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def test_the_runtime_needs_no_scipy():
    # scipy is a test dependency only: importing the CLI loads none of it, a run
    # with scipy unimportable passes, and the report names no scipy version
    out = _python("-c", "import sys, detourcert.cli; "
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
    out = _python("-c", "import sys; sys.modules['scipy'] = None; "
                  "from detourcert import cli; sys.exit(cli.main(['verify', '--metric', "
                  "'generic_bump4', '--points', '1', '--format', 'json']))")
    assert out.returncode == 0, out.stderr
    versions = json.loads(out.stdout)["environment"]["versions"]
    assert sorted(versions) == ["detourcert", "numpy", "python"]


@pytest.mark.parametrize("argv", [
    ["verify", "--metric", "flat3", "--suite", "curvature", "--points", "1", "--out"],
    ["catalog", "export", "flat3"],
])
def test_unwritable_output_path_exits_with_code_2(tmp_path, argv):
    # exit 1 means a check failed; a path that cannot be written is a usage error
    out = _python("-m", "detourcert.cli", *argv, str(tmp_path / "missing" / "out.txt"))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


@pytest.mark.parametrize("g11", ["1 + (0-2)^0.5 * x", "1 + (0-2)^0.5"])
def test_a_complex_constant_exits_with_code_2(tmp_path, g11):
    # a negative constant to a fractional power has no real value: an evaluation
    # error (exit 2), not a traceback with the exit code of a failed check
    out = _python("-m", "detourcert.cli", "verify", "--metric", _metric_file(tmp_path, g11),
                  "--points", "1")
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


@pytest.mark.filterwarnings("error")  # inf - inf while evaluating warns nothing
@pytest.mark.parametrize("suite", ["curvature", "tractor", "detour", "prolong"])
@pytest.mark.parametrize("g11, name", [("1 + 1e999 * x", "number out of range"),
                                       ("1 + 1e308*10*x*x - 1e308*10*x*x", "non-finite")])
def test_a_non_finite_metric_exits_with_code_2(tmp_path, capsys, suite, g11, name):
    # an overflowing literal is a syntax error, and a metric that evaluates to inf
    # or nan is refused before any check: an evaluation error, never a failed check
    code = cli.main(["verify", "--metric", _metric_file(tmp_path, g11), "--suite", suite,
                     "--points", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err and err.count("\n") == 1


@pytest.mark.parametrize("g11", ["(" * 5000 + "1+x" + ")" * 5000, "1 + 0.1*" + "-" * 5000 + "x",
                                 "1 + 0.1*" + "sin(" * 2000 + "x" + ")" * 2000],
                         ids=["5000-parentheses", "5000-minus-signs", "2000-sin-calls"])
def test_deeply_nested_metric_text_verifies(tmp_path, g11):
    # the parser and the compile loop on explicit stacks: deep nesting is
    # evaluated, at the default recursion limit of a fresh interpreter
    out = _python("-m", "detourcert.cli", "verify", "--metric", _metric_file(tmp_path, g11),
                  "--points", "1")
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""


def test_a_sum_of_5000_terms_verifies_every_suite(tmp_path, capsys):
    # the compile is one pass on an explicit stack: a long sum is evaluated, not refused
    g11 = "1" + " + 0.001*x" * 4999
    assert cli.main(["verify", "--metric", _metric_file(tmp_path, g11), "--points", "1"]) == 0
    assert "error" not in capsys.readouterr().err


def test_detour_suite_builds_one_covector_connection_per_point(monkeypatch):
    # both current checks share the twist of a point, so its curvature and
    # Yang-Mills current are computed once per point
    built, currents = [], []
    build, current = cli.covector_connection, detour.ym_current

    def counting_build(geom, *order):
        built.append(geom)
        return build(geom, *order)

    def counting_current(conn):
        if "ym_current" not in conn.cache:
            currents.append(conn)
        return current(conn)

    monkeypatch.setattr(cli, "covector_connection", counting_build)
    monkeypatch.setattr(detour, "ym_current", counting_current)
    report = cli.run(run_config(metric="generic_bump4", suites=("detour",), points=2))
    assert report.passed
    assert len(built) == 2 and built[0] is not built[1]
    assert len(currents) == 2


def test_gauge_linearization_passes_where_the_obstruction_is_alive():
    # on a Bach-flat metric every term of the check vanishes; generic_bump4
    # gives each term of L_v B + (2/n) div(v) B its weight
    report = cli.run(run_config(metric="generic_bump4", suites=("deformation",), points=1))
    assert report.passed


def _value_checks(n):
    """The table rows that run in dimension n and read only values: all but prolong."""
    return [c for c in cli._CHECKS if c.suite != "prolong" and c.runs_in(n)]


@pytest.mark.parametrize("name", ["sphere4", "schwarzschild", "generic_bump4", "generic_bump3"])
def test_value_checks_are_bit_identical_at_the_suite_minimum_and_at_order_8(name):
    # the proof obligation behind cli.run building every suite but prolong
    # at its minimum order: a higher jet order changes no residual bit
    entry = catalog.get(name)
    point = entry.sample_point(np.random.default_rng(3))
    high = Geometry(entry.spec(), point, order=8)
    rngs = [np.random.default_rng(11), np.random.default_rng(11)]  # one stream per side
    for check in _value_checks(len(point)):
        low = Geometry(entry.spec(), point, order=cli.MIN_ORDER[check.suite])
        lo, hi = (check.fn(cli._Point(g, entry.sample_box, entry), rng)
                  for g, rng in zip([low, high], rngs))
        assert lo == hi, (check.id, lo, hi)


@pytest.mark.parametrize("order", [6, 8])
def test_gauge_linearization_reads_h_to_order_4_and_v_to_order_1(order):
    # the values the check reads are the same from the truncated inputs
    # as from the whole padded field and its full-order K0 image
    entry = catalog.get("generic_bump4")
    geom = Geometry(entry.spec(), entry.sample_point(np.random.default_rng(4)), order=order)
    n = geom.n
    v = np.zeros((n, jets._size(n, order)))
    v[:, : jets._size(n, 3)] = np.random.default_rng(5).standard_normal((n, jets._size(n, 3)))
    h = detour.op_K0(v, geom).comps
    full = detour.linearized_bach(h, geom)[..., 0]
    cut = detour.linearized_bach(h[..., : jets._size(n, 4)], geom)[..., 0]
    assert np.array_equal(full, cut) and np.any(full != 0)
    dv = geom.covd_array(v, ("u",))[..., 0]
    assert np.array_equal(dv, geom.covd_array(v[:, : jets._size(n, 1)], ("u",))[..., 0])


def test_only_prolong_builds_geometry_at_the_requested_order(monkeypatch):
    orders, build = [], cli.Geometry

    def recording(spec, point, order):
        orders.append(order)
        return build(spec, point, order=order)

    monkeypatch.setattr(cli, "Geometry", recording)
    for suite, built in [("curvature", 4), ("prolong", 8)]:
        orders.clear()
        report = cli.run(run_config(metric="flat3", suites=(suite,), points=1, jet_order=8))
        assert orders == [built], suite
        assert report.config["jet_order"] == report.environment["jet_order"] == 8
