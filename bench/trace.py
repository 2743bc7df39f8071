"""Span recorder and wrap table of the traced benchmark run.

The untraced run touches only the repository's front door. The traced run
(``--trace 1``) additionally wraps the internal entry points listed in
:data:`WRAPS` with a span recorder, from here — nothing under ``src/`` knows
it is being traced. A span is ``(name id, start ns, end ns, parent span, op
id)``; spans stay in memory and are dumped once at exit. A layer's ``_s``
metric is the *self* time of its spans: duration minus the part covered by
child spans, so the layers partition the traced wall time instead of
double-counting it.

Only entry points called at most a few hundred times per op are wrapped
(``KernelCostModel.__call__``, never the recursive ``_expr_cost``), which is
what keeps ``trace.overhead_frac`` below a quarter. A target that no longer
exists is reported on stderr and its metrics read ``null``; it never fails
the run, so the table can trail a refactor by one PR.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time

import numpy as np

#: (module, attribute path, span name). Several targets may share a span
#: name; nested spans of one name are harmless because only self time is
#: summed. Functions imported by name into another ``repro`` module are
#: patched in the importing namespace too (see :meth:`Recorder.install`).
WRAPS = (
    ("repro.poly.basic_set", "BasicSet.project_out", "poly.project"),
    ("repro.poly.basic_set", "BasicSet.project_out_params", "poly.project"),
    ("repro.poly.basic_set", "BasicSet.is_empty", "poly.emptiness"),
    ("repro.poly.astbuild", "build_scan_ast", "poly.astbuild_codegen"),
    ("repro.poly.astbuild", "build_scan_ast_union", "poly.astbuild_codegen"),
    ("repro.poly.codegen", "prepare_scanner", "poly.astbuild_codegen"),
    ("repro.poly.codegen", "compile_scanner", "poly.astbuild_codegen"),
    ("repro.poly.vectorize", "vector_program", "poly.vectorize"),
    ("repro.poly.vectorize", "VectorProgram.run", "poly.vectorize"),
    ("repro.poly.intervals", "normalize_intervals", "poly.intervals"),
    ("repro.poly.intervals", "union_intervals", "poly.intervals"),
    ("repro.poly.intervals", "intersect_intervals", "poly.intervals"),
    ("repro.poly.intervals", "subtract_intervals", "poly.intervals"),
    ("repro.poly.intervals", "atomic_decomposition", "poly.intervals"),
    ("repro.compiler.pipeline", "compile_app", "compiler.pipeline"),
    ("repro.compiler.access_analysis", "analyze_kernel", "compiler.access_analysis"),
    ("repro.compiler.enumerators", "build_enumerator", "compiler.enumerators.build"),
    ("repro.compiler.enumerators", "Enumerator.element_ranges", "compiler.enumerators.scan"),
    ("repro.compiler.costmodel", "KernelCostModel.__call__", "compiler.costmodel"),
    ("repro.analysis.races", "RaceDetector.run", "analysis.races"),
    ("repro.analysis.bounds", "BoundsProver.run", "analysis.bounds"),
    ("repro.analysis.partitionability", "PartitionabilityLint.run", "analysis.partitionability"),
    ("repro.analysis.dataflow", "DataflowPass.run", "analysis.dataflow"),
    ("repro.analysis.dataflow", "runtime_exact_read_ranges", "analysis.dataflow"),
    ("repro.runtime.launch", "launch_partitioned", "runtime.launch"),
    ("repro.runtime.launch", "launch_fallback", "runtime.launch"),
    ("repro.runtime.tracker", "SegmentTracker.query", "runtime.tracker"),
    ("repro.runtime.tracker", "SegmentTracker.query_many", "runtime.tracker"),
    ("repro.runtime.tracker", "SegmentTracker.update", "runtime.tracker"),
    ("repro.runtime.tracker", "SegmentTracker.update_many", "runtime.tracker"),
    ("repro.runtime.tracker", "SegmentTracker.add_sharer", "runtime.tracker"),
    ("repro.runtime.tracker", "SegmentTracker.footprint_digest", "runtime.tracker"),
    ("repro.runtime.sync", "plan_stale_copies_tiered", "runtime.sync.plan_stale"),
    ("repro.runtime.memcpy", "h2d_scatter", "runtime.memcpy.h2d"),
    ("repro.runtime.memcpy", "d2h_gather", "runtime.memcpy.d2h"),
    ("repro.sched.graph", "build_plan_skeleton", "sched.graph.build_skeleton"),
    ("repro.sched.graph", "instantiate_plan", "sched.graph.instantiate"),
    ("repro.sched.graph", "instantiate_plan_replay", "sched.graph.replay"),
    ("repro.sched.graph", "replay_query_counts", "sched.graph.replay"),
    ("repro.sched.executor", "apply_plan_functional", "sched.executor.apply_functional"),
    ("repro.sched.executor", "issue_plan_sim", "sched.executor.issue_sim"),
    ("repro.sched.executor", "DataflowLog.note_read", "sched.executor.dataflow"),
    ("repro.sched.executor", "DataflowLog.note_write", "sched.executor.dataflow"),
    ("repro.sched.executor", "DataflowLog.write_event", "sched.executor.dataflow"),
    ("repro.sched.executor", "DataflowLog.instance_free", "sched.executor.dataflow"),
    ("repro.sched.executor", "DataflowLog.copy_deps", "sched.executor.dataflow"),
    ("repro.sched.policy", "estimate_plan_times", "sched.policy.estimate"),
    ("repro.sim.engine", "SimMachine.launch_kernel", "sim.engine"),
    ("repro.sim.engine", "SimMachine.transfer", "sim.engine"),
    ("repro.sim.engine", "SimMachine.stream_transfer", "sim.engine"),
    ("repro.sim.engine", "SimMachine.host_compute", "sim.engine"),
    ("repro.sim.engine", "SimMachine.synchronize", "sim.engine"),
    ("repro.sim.engine", "SimMachine.wait_device", "sim.engine"),
    ("repro.sim.engine", "SimMachine.wait_until", "sim.engine"),
    ("repro.cluster.engine", "ClusterSimMachine._copy_resources", "cluster.engine"),
    ("repro.cluster.engine", "ClusterSimMachine.node_resource_avail", "cluster.engine"),
    ("repro.cuda.exec.interpreter", "run_kernel", "cuda.interpreter.run"),
    ("repro.tasks.graph", "TaskGraph.finalize", "tasks.graph.build"),
    ("repro.tasks.graph", "TaskGraph.run", "tasks.graph.run"),
)

#: The six applications of ``functional_mix``; the benchmark opens a
#: ``workloads.<app>.run`` span itself around each host program.
APPS = ("hotspot", "nbody", "matmul", "dstencil", "cholesky", "imgpipe")

_STAGES = ("fingerprint", "skeleton", "residual", "submit")

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _imports_by_name(name, module):
    """Whether ``module`` is one whose ``from x import fn`` copies must be
    re-pointed at the traced function: the package and the benchmark."""
    if name.startswith("repro"):
        return True
    return os.path.dirname(getattr(module, "__file__", None) or "") == _BENCH_DIR


def _m(unit, better, kind, source=None):
    return {"unit": unit, "better": better, "kind": kind, "source": source}


def _self_s(span):
    return _m("s", "lower", "self_s", span)


def _calls(span):
    return _m("count", "lower", "calls", span)


def _count(key, better="lower", unit="count"):
    return _m(unit, better, "count", key)


#: Every per-layer metric: unit, direction and where its value comes from.
#: ``self_s``/``calls`` read the spans named ``source`` (seconds of self
#: time, or number of calls, per lap); ``count`` reads the lap's exact
#: counters; ``host`` reads host seconds the program itself reported;
#: ``derived`` is computed in :func:`layer_metrics`.
LAYER_METRICS = {
    "poly.project_s": _self_s("poly.project"),
    "poly.project_calls": _calls("poly.project"),
    "poly.emptiness_s": _self_s("poly.emptiness"),
    "poly.astbuild_codegen_s": _self_s("poly.astbuild_codegen"),
    "poly.vectorize_s": _self_s("poly.vectorize"),
    "poly.intervals_s": _self_s("poly.intervals"),
    "compiler.pass1_s": _m("s", "lower", "host", "compiler_pass1_s"),
    "compiler.pass2_s": _m("s", "lower", "host", "compiler_pass2_s"),
    "compiler.pipeline_s": _self_s("compiler.pipeline"),
    "compiler.access_analysis_s": _self_s("compiler.access_analysis"),
    "compiler.enumerators.build_s": _self_s("compiler.enumerators.build"),
    "compiler.enumerators.scan_s": _self_s("compiler.enumerators.scan"),
    "compiler.enumerators.scan_calls": _calls("compiler.enumerators.scan"),
    "compiler.enumerators.ranges": _count("ranges_emitted"),
    "compiler.enumerators.specialized": _count("enumerator_specialized", "higher"),
    "compiler.enumerators.fallback": _count("enumerator_fallback"),
    "compiler.costmodel_s": _self_s("compiler.costmodel"),
    "compiler.costmodel_calls": _calls("compiler.costmodel"),
    "analysis.races_s": _self_s("analysis.races"),
    "analysis.bounds_s": _self_s("analysis.bounds"),
    "analysis.partitionability_s": _self_s("analysis.partitionability"),
    "analysis.dataflow_s": _self_s("analysis.dataflow"),
    "analysis.diagnostics": _count("diagnostics"),
    "runtime.launch_s": _self_s("runtime.launch"),
    "runtime.fingerprint_us": _m("us", "lower", "derived"),
    "runtime.skeleton_us": _m("us", "lower", "derived"),
    "runtime.residual_us": _m("us", "lower", "derived"),
    "runtime.submit_us": _m("us", "lower", "derived"),
    "runtime.launch.cold": _count("launches_cold"),
    "runtime.launch.warm": _count("launches_warm"),
    "runtime.launch.replay": _count("launches_replay", "higher"),
    "runtime.launch.fallback": _count("fallback_launches"),
    "runtime.launch.cold_us": _m("us", "lower", "derived"),
    "runtime.plancache.hit_ratio": _m("frac", "higher", "derived"),
    "runtime.plancache.evictions": _count("plan_cache_evictions"),
    "runtime.residual_cache.hit_ratio": _m("frac", "higher", "derived"),
    "runtime.residual_cache.evictions": _count("residual_cache_evictions"),
    "runtime.tracker_s": _self_s("runtime.tracker"),
    "runtime.tracker.query_ops": _count("tracker_query_ops"),
    "runtime.tracker.update_ops": _count("tracker_update_ops"),
    "runtime.tracker.share_ops": _count("tracker_share_ops"),
    "runtime.tracker.invalidate_ops": _count("tracker_invalidate_ops"),
    "runtime.sync.plan_stale_s": _self_s("runtime.sync.plan_stale"),
    "runtime.memcpy.h2d_s": _self_s("runtime.memcpy.h2d"),
    "runtime.memcpy.d2h_s": _self_s("runtime.memcpy.d2h"),
    "runtime.memcpy.bytes": _m("B", "lower", "derived"),
    "sched.graph.build_skeleton_s": _self_s("sched.graph.build_skeleton"),
    "sched.graph.instantiate_s": _self_s("sched.graph.instantiate"),
    "sched.graph.replay_s": _self_s("sched.graph.replay"),
    "sched.executor.apply_functional_s": _self_s("sched.executor.apply_functional"),
    "sched.executor.issue_sim_s": _self_s("sched.executor.issue_sim"),
    "sched.executor.flushes": _count("pipeline_flushes"),
    "sched.executor.dataflow_s": _self_s("sched.executor.dataflow"),
    "sched.policy.estimate_s": _self_s("sched.policy.estimate"),
    "sched.plan.transfers_per_launch": _m("count", "lower", "derived"),
    "sim.engine_s": _self_s("sim.engine"),
    "sim.engine.events": _count("sim_events"),
    "sim.engine.events_per_host_s": _m("1/s", "higher", "derived"),
    "sim.busy.application_s": _count("sim_busy_application_s", unit="sim_s"),
    "sim.busy.transfers_s": _count("sim_busy_transfers_s", unit="sim_s"),
    "sim.busy.patterns_s": _count("sim_busy_patterns_s", unit="sim_s"),
    "sim.transfers.hidden_s": _count("sim_hidden_s", "higher", unit="sim_s"),
    "sim.transfers.exposed_s": _count("sim_exposed_s", unit="sim_s"),
    "cluster.engine_s": _self_s("cluster.engine"),
    "cluster.inter_node_transfers": _count("inter_node_transfers"),
    "cluster.inter_node_bytes": _count("inter_node_bytes", unit="B"),
    "cluster.exposed_inter_s": _count("sim_exposed_inter_s", unit="sim_s"),
    "cluster.exposed_intra_s": _count("sim_exposed_intra_s", unit="sim_s"),
    "cuda.interpreter.run_s": _self_s("cuda.interpreter.run"),
    "cuda.interpreter.runs": _calls("cuda.interpreter.run"),
    "tasks.graph.build_s": _self_s("tasks.graph.build"),
    "tasks.graph.run_s": _self_s("tasks.graph.run"),
    "tasks.graph.edges": _count("task_edges"),
    "tasks.graph.waves": _count("task_waves"),
    **{f"workloads.{app}.run_s": _self_s(f"workloads.{app}.run") for app in APPS},
    "op_us_p90": _m("us", "lower", "derived"),
    "op_us_p99": _m("us", "lower", "derived"),
    "trace.overhead_frac": _m("frac", "lower", "derived"),
    "trace.coverage_frac": _m("frac", "higher", "derived"),
}


class NullTracer:
    """The untraced run's tracer: every hook is a no-op."""

    _null = contextlib.nullcontext()

    def op(self, name):
        return self._null

    def timed(self):
        return self._null

    def attach(self, api):
        pass

    def profile(self):
        return None


class Recorder:
    """In-memory span recorder; also the tracer handed to traced laps."""

    def __init__(self):
        self.names = []  # span name id -> name
        self._ids = {}
        #: (name id, start ns, end ns, parent span index or -1, op id or -1)
        self.spans = []
        self._stack = []
        self._op = -1
        self._n_ops = 0
        self.windows = []  # timed regions, (start ns, end ns)
        self.missing = set()  # span names with a wrap target that is gone
        self.bench_spans = set()  # name ids of spans opened by the benchmark itself
        self._profiler = None

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans the benchmark opens itself ------------------------------------

    @contextlib.contextmanager
    def op(self, name):
        """A root span around one timed op; the spans inside share its op id."""
        name_id = self._name_id(name)
        self.bench_spans.add(name_id)
        self._op = self._n_ops
        self._n_ops += 1
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[index] = (name_id, start, end, -1, self._op)
            self._op = -1

    @contextlib.contextmanager
    def timed(self):
        """The timed region of a lap; spans outside any are not counted."""
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.windows.append((start, time.perf_counter_ns()))

    # -- the LaunchProfiler hook ---------------------------------------------

    def attach(self, api):
        """Share one public ``LaunchProfiler`` across the lap's runtimes."""
        if self._profiler is None:
            try:
                from repro.runtime.profiler import LaunchProfiler
            except ImportError:
                print(
                    "trace: repro.runtime.profiler.LaunchProfiler no longer exists; "
                    "the per-stage runtime metrics read null",
                    file=sys.stderr,
                )
                self.missing.add("LaunchProfiler")
                return
            self._profiler = LaunchProfiler()
        api.profiler = self._profiler

    def profile(self):
        """Take the profiler accumulated since the last call (or None)."""
        prof, self._profiler = self._profiler, None
        return prof

    # -- wrapping --------------------------------------------------------------

    def _traced(self, fn, name_id):
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserved so children can name their parent
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self._op)

        return traced

    def install(self, wraps=WRAPS):
        """Wrap every target of the table that still exists."""
        for module_name, path, span_name in wraps:
            name_id = self._name_id(span_name)
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if parents else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                print(
                    f"trace: {module_name}.{path} no longer exists; "
                    f"{span_name} metrics read null",
                    file=sys.stderr,
                )
                self.missing.add(span_name)
                continue
            traced = self._traced(original, name_id)
            setattr(owner, attr, traced)
            if not parents:
                # ``from module import fn`` copies the reference: patch the
                # importing namespaces as well or those call sites stay dark.
                for name, module in list(sys.modules.items()):
                    if module is None or not _imports_by_name(name, module):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)

    # -- aggregation -----------------------------------------------------------

    def _table(self):
        """Closed spans inside a timed region, as an ``n x 5`` int64 array
        whose parent column is re-indexed to the kept rows."""
        if not self.spans:
            return np.zeros((0, 5), dtype=np.int64)
        # A slot still None belongs to a span that never closed; it keeps
        # its position (parents are positions) and falls outside any window.
        never = (0, 0, 0, -1, -1)
        table = np.array([s or never for s in self.spans], dtype=np.int64)
        keep = np.zeros(len(table), dtype=bool)
        for start, end in self.windows:
            keep |= (table[:, 1] >= start) & (table[:, 2] <= end)
        remap = np.cumsum(keep) - 1
        parents = table[:, 3]
        # A span opened before the timed region is no parent inside it.
        parents = np.where((parents >= 0) & keep[parents], remap[parents], -1)
        table = table[keep]
        table[:, 3] = parents[keep]
        return table

    def summary(self):
        """Per span name: self seconds and call count inside timed regions,
        plus the total timed wall seconds."""
        table = self._table()
        duration = table[:, 2] - table[:, 1]
        self_ns = duration.astype(np.float64)
        has_parent = table[:, 3] >= 0
        np.subtract.at(self_ns, table[has_parent, 3], duration[has_parent])
        n = len(self.names)
        self_s = np.bincount(table[:, 0], weights=self_ns, minlength=n) * 1e-9
        calls = np.bincount(table[:, 0], minlength=n)
        wall_s = sum(end - start for start, end in self.windows) * 1e-9
        return {
            "self_s": {name: float(self_s[i]) for i, name in enumerate(self.names)},
            "calls": {name: int(calls[i]) for i, name in enumerate(self.names)},
            "wall_s": wall_s,
            "layer_self_s": float(
                sum(self_s[i] for i in range(n) if i not in self.bench_spans)
            ),
        }

    def dump(self, path, max_spans=200_000):
        """Write the recorded spans (the first ``max_spans`` of them)."""
        closed = [s for s in self.spans if s is not None]
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["name", "start_ns", "end_ns", "parent", "op"],
                    "names": self.names,
                    "n_spans": len(closed),
                    "truncated": len(closed) > max_spans,
                    "windows": self.windows,
                    "spans": closed[:max_spans],
                },
                fh,
            )


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(recorder, laps, untraced, warmup):
    """Every :data:`LAYER_METRICS` value for one traced run.

    ``laps`` are the traced laps (all replay one op stream, so their exact
    counters agree and the first lap's are used; ``_s`` values are the mean
    per lap), ``untraced`` the lap measured before the wrappers went in,
    ``warmup`` the leading ops of a lap the percentiles leave out.
    """
    summary = recorder.summary()
    n_laps = len(laps)
    counts = laps[0].counts
    prof = laps[0].profile
    launches = sum(prof.launches.values()) if prof else 0
    op_us = np.array([us for lap in laps for us in lap.op_us[warmup:]])

    def stage_us(stage):
        """Mean host us per launch in one planner stage, all temperatures."""
        if "LaunchProfiler" in recorder.missing:
            return None
        if not launches:
            return 0.0
        return 1e6 * sum(v for (_, s), v in prof.seconds.items() if s == stage) / launches

    self_s = summary["self_s"]
    engine_s = (self_s.get("sim.engine", 0.0) + self_s.get("cluster.engine", 0.0)) / n_laps
    traced_wall = float(np.median([lap.wall_s for lap in laps]))
    derived = {
        **{f"runtime.{stage}_us": stage_us(stage) for stage in _STAGES},
        "runtime.launch.cold_us": prof.per_launch_us("cold").get("total", 0.0) if prof else 0.0,
        "runtime.plancache.hit_ratio": _ratio(
            counts["plan_cache_hits"], counts["plan_cache_hits"] + counts["plan_cache_misses"]
        ),
        "runtime.residual_cache.hit_ratio": _ratio(
            counts["residual_cache_hits"],
            counts["residual_cache_hits"] + counts["residual_cache_misses"],
        ),
        "runtime.memcpy.bytes": counts["h2d_bytes"] + counts["d2h_bytes"],
        "sched.plan.transfers_per_launch": _ratio(counts["sync_transfers"], launches),
        "sim.engine.events_per_host_s": _ratio(counts["sim_events"], engine_s),
        "op_us_p90": float(np.percentile(op_us, 90)),
        "op_us_p99": float(np.percentile(op_us, 99)),
        "trace.overhead_frac": traced_wall / untraced.wall_s - 1.0,
        "trace.coverage_frac": _ratio(summary["layer_self_s"], summary["wall_s"]),
    }
    if prof:
        counts = {**counts, **{f"launches_{t}": n for t, n in prof.launches.items()}}

    out = {}
    for name, spec in LAYER_METRICS.items():
        kind, source = spec["kind"], spec["source"]
        if kind in ("self_s", "calls") and source in recorder.missing:
            value = None
        elif kind == "self_s":
            value = summary["self_s"].get(source, 0.0) / n_laps
        elif kind == "calls":
            value = summary["calls"].get(source, 0) / n_laps
        elif kind == "count":
            value = counts.get(source, 0)
        elif kind == "host":
            value = sum(lap.host.get(source, 0.0) for lap in laps) / n_laps
        else:
            value = derived[name]
        out[name] = value
    return out
