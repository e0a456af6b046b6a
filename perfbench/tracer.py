"""Span tracer for the traced benchmark run.

The tracer wraps public functions of each detourcert module from the
outside: the name is replaced on its module or class (and on every other
detourcert module that imported it by name), and a ``cached_property`` is
replaced by one whose function is wrapped, so only cache misses are timed.
Nothing inside ``src/`` changes.

Each wrapped call opens a frame on one stack.  A frame accumulates the time
of its traced children, so a call's self time is its duration minus the
part its traced children cover.  Two jet methods (``Jet.__mul__`` and
``Jet.__init__``) run millions of times per run; they are aggregated into
counts and times only.  Every other call is kept in memory as a span
``(id, name, start, end, parent, verify call, self time, raised)`` and the
spans are written out when the run ends.
"""
from __future__ import annotations

import gc
import importlib
import json
import math
import sys
import time
from functools import cached_property

# (module, attribute path, span name, kind); kind is "hot" for aggregated
# jet methods, "cached" for cached_property stages and "span" otherwise
TARGETS = (
    ("jets", "Jet.__mul__", "jets.mul", "hot"),
    ("jets", "Jet.__init__", "jets.new", "hot"),
    ("dsl", "parse_metric_text", "dsl.parse", "span"),
    ("dsl", "MetricSpec.metric_jets", "dsl.metric_jets", "span"),
    ("catalog", "CatalogEntry.spec", "catalog.spec", "span"),
    ("geometry", "Geometry.__init__", "geometry.build", "span"),
    ("geometry", "Geometry.ginv", "geometry.ginv", "cached"),
    ("geometry", "Geometry.gamma", "geometry.gamma", "cached"),
    ("geometry", "Geometry.riemann", "geometry.riemann", "cached"),
    ("geometry", "Geometry.riemann_down", "geometry.riemann", "cached"),
    ("geometry", "Geometry.ricci", "geometry.ricci_schouten", "cached"),
    ("geometry", "Geometry.scalar", "geometry.ricci_schouten", "cached"),
    ("geometry", "Geometry.jtrace", "geometry.ricci_schouten", "cached"),
    ("geometry", "Geometry.schouten", "geometry.ricci_schouten", "cached"),
    ("geometry", "Geometry.schouten_up", "geometry.ricci_schouten", "cached"),
    ("geometry", "Geometry.weyl", "geometry.weyl", "cached"),
    ("geometry", "Geometry.cotton", "geometry.cotton", "cached"),
    ("geometry", "Geometry.bach", "geometry.bach", "cached"),
    ("geometry", "Geometry.covd_array", "geometry.covd_array", "span"),
    ("tractor", "connection_matrices", "tractor.connection_matrices", "span"),
    ("tractor", "splitting", "tractor.splitting_ops", "span"),
    ("tractor", "op_D", "tractor.splitting_ops", "span"),
    ("tractor", "op_E", "tractor.splitting_ops", "span"),
    ("tractor", "op_E_star", "tractor.splitting_ops", "span"),
    ("tractor", "op_D_star", "tractor.splitting_ops", "span"),
    ("tractor", "splitting_star", "tractor.splitting_ops", "span"),
    ("tractor", "apply_connection", "tractor.splitting_ops", "span"),
    ("tractor", "coupled_divergence", "tractor.splitting_ops", "span"),
    ("tractor", "tractor_curvature", "tractor.curvature", "span"),
    ("tractor", "curvature_divergence", "tractor.curvature", "span"),
    ("connections", "curvature", "connections.curvature", "span"),
    ("connections", "covd_section", "connections.covd_section", "span"),
    ("connections", "covd_endomorphism", "connections.covd_endomorphism", "span"),
    ("connections", "matmul", "connections.matmul", "span"),
    ("detour", "op_M", "detour.op_M", "span"),
    ("detour", "ym_current", "detour.ym_current", "span"),
    ("detour", "op_MT", "detour.op_MT", "span"),
    ("detour", "linearized_bach", "detour.linearized_bach", "span"),
    ("prolong", "kernel_dimension", "prolong.kernel_dimension", "span"),
    ("prolong", "transport", "prolong.transport", "span"),
    ("cli", "run", "cli.run", "span"),
)

MODULES = ("jets", "dsl", "catalog", "geometry", "tractor", "connections",
           "detour", "prolong", "cli")

GEOMETRY_STAGES = ("ginv", "gamma", "riemann", "ricci_schouten", "weyl", "cotton", "bach")
_STAGE_SPANS = {"geometry." + s: s for s in GEOMETRY_STAGES}

_CS, _DC, _TR = "curvature-sweep", "detour-closure", "transport"
_P50_PTS = "verdict_s_p50, check_points_per_s"
_TAIL_PTS = "verdict_s_tail, check_points_per_s"
# per-layer metric -> (unit, better, end-to-end metric and workloads it
# should move, workloads where the prediction is no change), written down
# before any optimisation is measured
LAYER_METRICS = {
    "jets.mul_calls": ("count", "lower", f"{_P50_PTS} on {_CS}, {_DC}", "none"),
    "jets.mul_macs": ("count", "lower", f"{_P50_PTS} on {_CS}, {_DC}",
                      f"{_TR} (jets of <= 15 coefficients)"),
    "jets.mul_s": ("s", "lower", f"{_P50_PTS} on {_CS}, {_DC}", "none"),
    "jets.new_calls": ("count", "lower", f"verdict_s_p50 on {_CS}, {_DC}; verdict_s_tail on {_TR}",
                       "none"),
    "jets.self_s": ("s", "lower", f"{_P50_PTS} on {_CS}, {_DC}; verdict_s_tail on {_TR}", "none"),
    "dsl.parse_calls": ("count", "lower", "setup_s on every workload", f"verdict_s_p50 on {_CS}, {_DC}"),
    "dsl.parse_s": ("s", "lower", "setup_s on every workload", f"verdict_s_p50 on {_CS}, {_DC}"),
    "dsl.metric_jets_calls": ("count", "lower", f"setup_s on every workload; verdict_s_tail on {_TR}",
                              f"verdict_s_p50 on {_CS}, {_DC}"),
    "dsl.metric_jets_s": ("s", "lower", f"setup_s on every workload; verdict_s_tail on {_TR}",
                          f"verdict_s_p50 on {_CS}, {_DC}"),
    "catalog.spec_calls": ("count", "lower", "setup_s on every workload", f"verdict_s_p50 on {_CS}, {_DC}"),
    "catalog.spec_s": ("s", "lower", "setup_s on every workload", f"verdict_s_p50 on {_CS}, {_DC}"),
    "geometry.builds": ("count", "lower", f"per prolong.transport_nfev: {_TAIL_PTS} on {_TR}",
                        f"{_CS}, {_DC} (one build per call)"),
    **{f"geometry.{s}_s": ("s", "lower", f"verdict_s_p50 on {_CS}", _TR if s in ("weyl", "cotton", "bach")
                           else "none") for s in GEOMETRY_STAGES},
    "geometry.covd_array_calls": ("count", "lower", f"verdict_s_p50 on {_CS}", _TR),
    "geometry.covd_array_s": ("s", "lower", f"verdict_s_p50 on {_CS}", _TR),
    "tractor.connection_matrices_calls": ("count", "lower",
                                          f"verdict_s_p50 on {_CS}, {_DC}; verdict_s_tail on {_TR}", "none"),
    "tractor.connection_matrices_s": ("s", "lower",
                                      f"verdict_s_p50 on {_CS}, {_DC}; verdict_s_tail on {_TR}", "none"),
    "tractor.splitting_ops_s": ("s", "lower", f"verdict_s_p50 on {_CS}, {_DC}", _TR),
    "tractor.curvature_s": ("s", "lower", f"verdict_s_p50 on {_CS}", f"{_DC}, {_TR}"),
    **{f"connections.{m}": (u, "lower", f"{_P50_PTS} on {_DC}", _CS) for m, u in (
        ("curvature_calls", "count"), ("curvature_s", "s"), ("curvature_repeat_frac", "frac"),
        ("covd_section_s", "s"), ("covd_endomorphism_calls", "count"),
        ("covd_endomorphism_s", "s"), ("matmul_calls", "count"), ("matmul_s", "s"))},
    **{f"detour.{m}": (u, "lower", f"{_P50_PTS} on {_DC}", f"{_CS}, {_TR}") for m, u in (
        ("op_M_calls", "count"), ("op_M_s", "s"), ("ym_current_calls", "count"),
        ("ym_current_s", "s"), ("op_MT_s", "s"))},
    "detour.linearized_bach_s": ("s", "lower", f"verdict_s_p50 on {_CS} (deformation suite)",
                                 f"{_DC}, {_TR}"),
    **{f"prolong.{m}": (u, "lower", f"{_TAIL_PTS} on {_TR}", f"{_CS}, {_DC}") for m, u in (
        ("kernel_dimension_calls", "count"), ("kernel_dimension_s", "s"),
        ("transport_calls", "count"), ("transport_s", "s"))},
    "prolong.transport_nfev": ("count", "lower", "nothing: it must not change under a change that "
                               "keeps the numbers", "every workload"),
    "prolong.rhs_ms": ("ms", "lower", f"{_TAIL_PTS} on {_TR}", f"{_CS}, {_DC}"),
    "cli.run_s": ("s", "lower", "every end-to-end time on every workload", "none"),
    "cli.self_s": ("s", "lower", "verdict_s_p50 on every workload", "none"),
    "runtime.gc_s": ("s", "lower", "verdict_s_p50, verdict_s_tail on every workload", "none"),
    "runtime.gc_collections": ("count", "lower", "verdict_s_p50, verdict_s_tail on every workload", "none"),
    **{f"{m}.errors": ("count", "lower", "the failed count on every workload", "every workload (0)")
       for m in MODULES},
    "trace.overhead_ratio": ("ratio", "lower", "nothing: traced over untraced wall time of the "
                             "same calls", "every workload"),
}

# count metrics that must repeat exactly between two traced runs on one seed
REPEATABLE_COUNTS = ("jets.mul_calls", "jets.new_calls", "geometry.builds",
                     "connections.curvature_calls", "detour.ym_current_calls",
                     "prolong.transport_nfev")


def _macs(dim: int, order: int) -> int:
    # pairs of multi-indices (alpha, beta) in dim variables with
    # |alpha| + |beta| <= order: the multi-indices of degree <= order in
    # 2 * dim variables
    return math.comb(order + 2 * dim, 2 * dim)


class Tracer:
    """Installs wrappers on enter, restores every patched name on exit."""

    def __init__(self):
        self.spans = []
        self.hot = {}          # name -> [calls, total s, self s, errors]
        self.target_calls = {}  # (module, attribute path) -> calls
        self.mul_macs = 0
        self.transport_nfev = 0
        self.curvature_repeats = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._stack = [[0.0]]  # frames: [child time]; the root never pops
        self._open = [0]       # ids of open spans; 0 is the root
        self._next_id = 1
        self._verify = 0
        self._seen_curvature = {}
        self._gc_start = 0.0
        self._undo = []

    # -- wrappers -------------------------------------------------------------

    def _hot_wrapper(self, orig, key, name):
        stat = self.hot.setdefault(name, [0, 0.0, 0.0, 0])
        stack, pc, counts = self._stack, time.perf_counter, self.target_calls
        counts[key] = 0
        is_mul = name == "jets.mul"
        macs_of = {}
        tracer = self

        def wrapper(*args, **kw):
            counts[key] += 1
            if is_mul and len(args) == 2 and type(args[1]) is type(args[0]):
                shape = (args[0].dim, args[0].order)
                m = macs_of.get(shape)
                if m is None:
                    m = macs_of[shape] = _macs(*shape)
                tracer.mul_macs += m
            frame = [0.0]
            stack.append(frame)
            t0 = pc()
            try:
                return orig(*args, **kw)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                dur = pc() - t0
                stack.pop()
                stack[-1][0] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]

        return wrapper

    def _span_wrapper(self, orig, key, name):
        stack, opened, spans = self._stack, self._open, self.spans
        pc, counts = time.perf_counter, self.target_calls
        counts[key] = 0
        tracer = self

        def wrapper(*args, **kw):
            counts[key] += 1
            if name == "cli.run":
                tracer._verify += 1
                tracer._seen_curvature.clear()
            elif name == "connections.curvature":
                tracer._note_curvature(args[0] if args else kw["conn"])
            sid = tracer._next_id
            tracer._next_id += 1
            parent = opened[-1]
            frame = [0.0]
            stack.append(frame)
            opened.append(sid)
            raised = False
            t0 = pc()
            try:
                result = orig(*args, **kw)
            except BaseException:
                raised = True
                raise
            finally:
                t1 = pc()
                dur = t1 - t0
                stack.pop()
                opened.pop()
                stack[-1][0] += dur
                spans.append((sid, name, t0, t1, parent, tracer._verify,
                              dur - frame[0], raised))
            if name == "prolong.transport":
                tracer.transport_nfev += int(result.nfev)
            return result

        return wrapper

    def _note_curvature(self, conn):
        # a repeat is a (geometry, connection label) already seen in this
        # verify call; the geometry is kept alive so its id is not reused
        key = (id(conn.geom), conn.label)
        if key in self._seen_curvature:
            self.curvature_repeats += 1
        else:
            self._seen_curvature[key] = conn.geom

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- install / restore -------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "detourcert" or n.startswith("detourcert.")]
        for modname, path, name, kind in TARGETS:
            mod = importlib.import_module("detourcert." + modname)
            *owner_path, attr = path.split(".")
            owner = mod
            for part in owner_path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            key = (modname, path)
            if kind == "cached":
                new = cached_property(self._span_wrapper(raw.func, key, name))
                new.__set_name__(owner, attr)
                self._set(owner, attr, new)
                continue
            make = self._hot_wrapper if kind == "hot" else self._span_wrapper
            wrapper = make(raw, key, name)
            # every alias of the original: the owner itself, other names on
            # the same class (Jet.__rmul__ = __mul__) and names imported into
            # other modules with "from ... import"
            for holder in [owner] + modules:
                for alias, value in list(vars(holder).items()):
                    if value is raw:
                        self._set(holder, alias, wrapper)
        gc.callbacks.append(self._gc_callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._gc_callback)
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict:
        """Every per-layer metric as {name: (value, unit)}."""
        by_id = {s[0]: s for s in self.spans}
        calls, total, self_s, errors = {}, {}, {}, {}
        for name, (c, t, st, e) in self.hot.items():
            calls[name], total[name], self_s[name] = c, t, st
            errors[name.split(".")[0]] = errors.get(name.split(".")[0], 0) + e
        stage = {s: 0.0 for s in GEOMETRY_STAGES}
        for sid, name, t0, t1, parent, _, st, raised in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + st
            module = name.split(".")[0]
            errors[module] = errors.get(module, 0) + int(raised)
            # inclusive time counts only the outermost span of a name, so
            # nested calls of one name are not counted twice
            p = parent
            while p and by_id[p][1] != name:
                p = by_id[p][4]
            if not p:
                total[name] = total.get(name, 0.0) + (t1 - t0)
            # a geometry stage owns its time minus the stages it forced
            if name in _STAGE_SPANS:
                stage[_STAGE_SPANS[name]] += t1 - t0
                p = parent
                while p and by_id[p][1] not in _STAGE_SPANS:
                    p = by_id[p][4]
                if p:
                    stage[_STAGE_SPANS[by_id[p][1]]] -= t1 - t0

        def n(name):
            return calls.get(name, 0)

        def s(name):
            return total.get(name, 0.0)

        nfev = self.transport_nfev
        values = {
            "jets.mul_calls": n("jets.mul"),
            "jets.mul_macs": self.mul_macs,
            "jets.mul_s": s("jets.mul"),
            "jets.new_calls": n("jets.new"),
            "jets.self_s": self_s.get("jets.mul", 0.0) + self_s.get("jets.new", 0.0),
            "dsl.parse_calls": n("dsl.parse"),
            "dsl.parse_s": s("dsl.parse"),
            "dsl.metric_jets_calls": n("dsl.metric_jets"),
            "dsl.metric_jets_s": s("dsl.metric_jets"),
            "catalog.spec_calls": n("catalog.spec"),
            "catalog.spec_s": s("catalog.spec"),
            "geometry.builds": n("geometry.build"),
            **{f"geometry.{k}_s": v for k, v in stage.items()},
            "geometry.covd_array_calls": n("geometry.covd_array"),
            "geometry.covd_array_s": s("geometry.covd_array"),
            "tractor.connection_matrices_calls": n("tractor.connection_matrices"),
            "tractor.connection_matrices_s": s("tractor.connection_matrices"),
            "tractor.splitting_ops_s": s("tractor.splitting_ops"),
            "tractor.curvature_s": s("tractor.curvature"),
            "connections.curvature_calls": n("connections.curvature"),
            "connections.curvature_s": s("connections.curvature"),
            "connections.curvature_repeat_frac":
                self.curvature_repeats / max(1, n("connections.curvature")),
            "connections.covd_section_s": s("connections.covd_section"),
            "connections.covd_endomorphism_calls": n("connections.covd_endomorphism"),
            "connections.covd_endomorphism_s": s("connections.covd_endomorphism"),
            "connections.matmul_calls": n("connections.matmul"),
            "connections.matmul_s": s("connections.matmul"),
            "detour.op_M_calls": n("detour.op_M"),
            "detour.op_M_s": s("detour.op_M"),
            "detour.ym_current_calls": n("detour.ym_current"),
            "detour.ym_current_s": s("detour.ym_current"),
            "detour.op_MT_s": s("detour.op_MT"),
            "detour.linearized_bach_s": s("detour.linearized_bach"),
            "prolong.kernel_dimension_calls": n("prolong.kernel_dimension"),
            "prolong.kernel_dimension_s": s("prolong.kernel_dimension"),
            "prolong.transport_calls": n("prolong.transport"),
            "prolong.transport_s": s("prolong.transport"),
            "prolong.transport_nfev": nfev,
            "prolong.rhs_ms": 1000.0 * s("prolong.transport") / nfev if nfev else 0.0,
            "cli.run_s": s("cli.run"),
            "cli.self_s": self_s.get("cli.run", 0.0),
            "runtime.gc_s": self.gc_s,
            "runtime.gc_collections": self.gc_collections,
            **{f"{m}.errors": errors.get(m, 0) for m in MODULES},
            "trace.overhead_ratio": overhead_ratio,
        }
        return {k: (values[k], LAYER_METRICS[k][0]) for k in LAYER_METRICS}

    def dump(self, path, extra: dict):
        """Write the spans and aggregates kept in memory as one JSON file."""
        payload = dict(extra)
        payload["span_fields"] = ["id", "name", "start", "end", "parent", "verify_call",
                                  "self_s", "raised"]
        payload["spans"] = self.spans
        payload["aggregated"] = {k: dict(zip(("calls", "total_s", "self_s", "errors"), v))
                                 for k, v in self.hot.items()}
        with open(path, "w") as fh:
            json.dump(payload, fh)
