"""The ``repro bench`` registry: one declarative entry per experiment.

Every experiment of ``python -m repro bench <name>`` is a :class:`Bench`:

* ``run(args)`` measures and returns the study's points;
* ``table(points, args)`` turns them into ``(title, headers, rows)``
  triples for :func:`~repro.harness.report.format_table`, usually
  through :func:`columns`, one ``(header, cell)`` pair per column;
* ``checks(points, args)`` returns failure strings (None: not
  self-checking);
* ``artifact`` is the default ``--json`` destination.

``flags`` maps each argparse destination the entry reads to its default.
The CLI builds one sub-command per entry from :data:`FLAGS` with exactly
those flags, plus ``--json``. :func:`run_bench` runs every entry. It
prints the tables, runs the checks, writes the JSON payload (the points
through ``dataclasses`` fields plus properties, the flags and the
failures) and exits through
:func:`~repro.harness.report.finish_self_checks`.

Adding a bench is one entry::

    Bench(
        name="figure7",
        help="Figure 7: application / transfers / patterns time breakdown",
        flags={"gpu_counts": list(GPU_COUNTS), "schedule": None},
        run=lambda args: ex.figure7(gpu_counts=tuple(args.gpu_counts), schedule=args.schedule),
        table=columns(
            "Figure 7 (medium problems)",
            ("Workload", "{p.workload}"),
            ("Application", "{p.t_application:.3f}"),
            ...
        ),
        artifact="benchmarks/results/figure7.json",
    )

A self-checking entry adds ``checks`` (and ``claims``, the summary printed
when they pass).

The bitwise-invisibility checks go through
:func:`~repro.harness.identity.identity_sweep`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.engine import ClusterSimMachine
from repro.compiler.pipeline import compile_app
from repro.harness import experiments as ex
from repro.harness.calibration import GPU_COUNTS, K80_CLUSTER_SPEC, k80_cluster
from repro.harness.identity import identity_sweep, observe
from repro.harness import overhead
from repro.harness.report import finish_self_checks, format_table, to_csv, write_json_report
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sched.policy import SCHEDULES
from repro.serve import bench as serve_bench
from repro.tasks import bench as taskgraph_bench
from repro.tasks.bench import MIN_MAKESPAN_WIN, TASKGRAPH_WORKLOADS
from repro.workloads import ALL_WORKLOADS, functional_config

__all__ = ["Bench", "BENCHES", "FLAGS", "columns", "run_bench"]

Table = Tuple[str, Sequence[str], List[Sequence[Any]]]

#: Every flag an entry may declare: destination -> (option, argparse kwargs).
#: Single-size studies read the first of ``--sizes``.
FLAGS: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "gpu_counts": ("--gpu-counts", dict(type=int, nargs="*", help="simulated GPU counts")),
    "sizes": ("--sizes", dict(nargs="*", help="problem sizes (small, medium, large)")),
    "csv": ("--csv", dict(metavar="PATH", help="also write the first table as CSV")),
    "schedule": ("--schedule", dict(choices=list(SCHEDULES) + ["auto"], help="scheduler policy")),
    "workloads": ("--workloads", dict(nargs="*", help="workloads to run")),
    "workload": ("--workload", dict(choices=sorted(TASKGRAPH_WORKLOADS), help="one workload")),
    "nodes": ("--nodes", dict(type=int, help="cluster node count")),
    "gpus_per_node": ("--gpus-per-node", dict(type=int, help="GPUs per cluster node")),
    "gpus": ("--gpus", dict(type=int, help="simulated GPU count")),
    "window": ("--window", dict(type=int, help="an extra pipeline window (1, 2, 4 always run)")),
    "tenants": ("--tenants", dict(type=int, help="tenant count")),
    "load": ("--load", dict(type=float, nargs="*", metavar="L", help="loads x measured capacity")),
    "jobs": ("--jobs", dict(type=int, help="jobs offered per load point")),
    "queue_capacity": ("--queue-capacity", dict(type=int, help="per-tenant queue bound")),
}


@dataclass(frozen=True)
class Bench:
    """One ``repro bench`` experiment; see the module docstring."""

    name: str
    help: str
    flags: Dict[str, Any]
    run: Callable[[argparse.Namespace], Any]
    table: Callable[[Any, argparse.Namespace], List[Table]]
    artifact: str
    checks: Optional[Callable[[Any, argparse.Namespace], List[str]]] = None
    #: What ``checks`` asserts, printed after ``checks passed:``.
    claims: str = ""


def _jsonable(obj: Any) -> Any:
    """Dataclass fields plus properties, recursively; everything else as is."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        row = {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        for name, attr in vars(type(obj)).items():
            if isinstance(attr, property):
                row[name] = getattr(obj, name)
        return row
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def columns(title, *cols) -> Callable[[Any, argparse.Namespace], List[Table]]:
    """A one-table ``table`` from ``(header, cell)`` columns.

    A cell is a ``str.format`` template over the point ``p``, or a
    callable of the point. ``title`` is a template over ``args``, or a
    callable of ``(points, args)``.
    """
    headers = [header for header, _ in cols]

    def table(points, args) -> List[Table]:
        rows = [
            [cell(p) if callable(cell) else cell.format(p=p) for _, cell in cols]
            for p in points
        ]
        heading = title(points, args) if callable(title) else title.format(args=args)
        return [(heading, headers, rows)]

    return table


def run_bench(bench: Bench, args: argparse.Namespace) -> int:
    """Run one entry: tables, checks, ``--json``/``--csv``, exit code."""
    points = bench.run(args)
    tables = bench.table(points, args)
    for title, headers, rows in tables:
        print(format_table(headers, rows, title=title))
    if getattr(args, "csv", None):
        _, headers, rows = tables[0]
        with open(args.csv, "w") as fh:
            fh.write(to_csv(headers, rows))
        print(f"wrote {args.csv}")
    failures = bench.checks(points, args) if bench.checks else []
    if args.json:
        payload = {
            "bench": bench.name,
            "args": {name: getattr(args, name) for name in bench.flags},
            "points": _jsonable(points),
            "failures": failures,
        }
        write_json_report(args.json, bench.artifact, payload)
    if bench.checks is None:
        return 0
    return finish_self_checks(failures, bench.claims)


@functools.lru_cache(maxsize=8)
def _prepared(name: str):
    """(workload, inputs, compiled app) of a functional-size Table 1 run."""
    wl = ALL_WORKLOADS[name](functional_config(name))
    return wl, wl.make_inputs(seed=0), compile_app(wl.build_kernels())


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def _schedule_checks(points, args) -> List[str]:
    """Overlap never loses to sequential, P2P never to overlap; 16 GPUs gain."""
    by = {(p.workload, p.n_gpus, p.schedule): p.speedup for p in points}
    failures = []
    for workload, g in sorted({(p.workload, p.n_gpus) for p in points}):
        seq, ovl, p2p = (by[(workload, g, s)] for s in SCHEDULES)
        if ovl < seq * 0.999:
            failures.append(
                f"regression: {workload} overlap {ovl:.2f}x slower than sequential "
                f"{seq:.2f}x at {g} GPUs"
            )
        if p2p < ovl * 0.999:
            failures.append(
                f"regression: {workload} overlap+p2p {p2p:.2f}x slower than overlap "
                f"{ovl:.2f}x at {g} GPUs"
            )
    if ("hotspot", 16, "overlap") in by:
        seq, ovl = by[("hotspot", 16, "sequential")], by[("hotspot", 16, "overlap")]
        if ovl <= seq * 1.05:
            failures.append(
                f"headline: hotspot overlap {ovl:.2f}x shows no >5% gain over "
                f"sequential {seq:.2f}x at 16 GPUs"
            )
    return failures


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------


def _one_node_sweep(workloads, total, schedules) -> List[str]:
    """A 1-node cluster must match the flat node bitwise, under every schedule."""

    def run(workload, schedule):
        wl, inputs, app = _prepared(workload)
        cfg = RuntimeConfig(n_gpus=total, schedule=schedule)
        flat = MultiGpuApi(app, cfg)
        flat_out = wl.run(flat, inputs)
        one = MultiGpuApi(app, cfg, machine=ClusterSimMachine(k80_cluster(1, total)))
        return {
            "flat node": observe(flat, flat_out),
            "1-node cluster": observe(one, wl.run(one, inputs)),
        }

    cells = [dict(workload=w, schedule=s) for w in workloads for s in schedules]
    return identity_sweep(run, cells, ("outputs",))


def _cluster_schedules(args) -> Tuple[str, ...]:
    return (args.schedule,) if args.schedule else tuple(SCHEDULES)


def _cluster_run(args):
    total = args.nodes * args.gpus_per_node
    # Hold total GPUs constant: the 1-node shape is the network-free
    # baseline the clustered shape is judged against.
    shapes = ((1, total), (args.nodes, args.gpus_per_node)) if args.nodes > 1 else ((1, total),)
    return ex.cluster_scaling(
        tuple(args.workloads), shapes, size=args.sizes[0], schedules=_cluster_schedules(args)
    )


def _cluster_checks(points, args) -> List[str]:
    total = args.nodes * args.gpus_per_node
    failures = _one_node_sweep(args.workloads, total, _cluster_schedules(args))
    baseline = {(p.workload, p.schedule): p.inter_exposed for p in points if p.n_nodes == 1}
    for p in points:
        shape = f"{p.n_nodes}x{p.gpus_per_node}"
        if p.exposure_identity_error > 1e-9 * max(1.0, p.transfers_busy):
            failures.append(
                f"accounting identity: {p.workload} {shape} {p.schedule}: tier split "
                f"drifts from busy_time(TRANSFERS) by {p.exposure_identity_error:.3e}s"
            )
        if p.n_nodes == 1 and (p.inter_exposed > 0 or p.inter_node_transfers > 0):
            failures.append(
                f"1-node run reports inter-node traffic: {p.workload} {p.schedule} "
                f"({p.inter_node_transfers} copies, {p.inter_exposed:.3e}s exposed)"
            )
        ref = baseline.get((p.workload, p.schedule))
        if p.n_nodes > 1 and ref is not None and p.inter_exposed < ref:
            failures.append(
                f"sanity: {p.workload} {p.schedule}: {shape} reports less inter-node "
                f"exposed time ({p.inter_exposed:.3e}s) than 1x{total} ({ref:.3e}s)"
            )
    return failures


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def _windows(args) -> Tuple[int, ...]:
    return tuple(sorted({1, 2, 4} | ({args.window} if args.window else set())))


def _pipeline_shape(args) -> Tuple[int, int, int]:
    n_gpus = args.gpu_counts[0]
    # Default cluster shape matches the flat GPU count (2x8 = 16): the
    # interesting comparison holds total GPUs constant across topologies.
    return n_gpus, args.nodes, args.gpus_per_node or max(1, n_gpus // args.nodes)


def _pipeline_run(args):
    n_gpus, nodes, gpn = _pipeline_shape(args)
    cluster_shape = (nodes, gpn) if nodes > 1 else None
    return ex.pipeline_study(
        tuple(args.workloads), _windows(args), n_gpus, cluster_shape, size=args.sizes[0]
    )


def _window_sweep(workloads, n_gpus, windows) -> List[str]:
    """Pipelining is bitwise invisible: every window matches window=1."""

    def run(workload, schedule, shared_copies):
        wl, inputs, app = _prepared(workload)
        runs = {}
        for window in sorted({1, *windows}):
            cfg = RuntimeConfig(n_gpus=n_gpus, schedule=schedule, pipeline_window=window,
                                shared_copies=shared_copies)
            api = MultiGpuApi(app, cfg)
            runs[f"window={window}"] = observe(api, wl.run(api, inputs))
        return runs

    cells = [
        dict(workload=w, schedule=s, shared_copies=sh)
        for w in workloads
        for s in list(SCHEDULES) + ["auto"]
        for sh in (False, True)
    ]
    return identity_sweep(run, cells, ("outputs",))


def _pipeline_checks(points, args) -> List[str]:
    # Keyed per (workload, topology): the sequential window=1 row is the
    # per-launch baseline; overlap+p2p rows carry the windows.
    failures: List[str] = []
    eps = 1e-9
    groups: Dict[Tuple[str, str], list] = {}
    for p in points:
        groups.setdefault((p.workload, p.topology), []).append(p)
    for (name, topo), group in groups.items():
        seq = next(p for p in group if p.schedule == "sequential")
        p2p = {p.pipeline_window: p for p in group if p.schedule == "overlap+p2p"}
        for w, p in sorted(p2p.items()):
            if p.exposed_transfer_time > p2p[1].exposed_transfer_time + eps:
                failures.append(
                    f"regression: {name} {topo} overlap+p2p window={w} exposes "
                    f"{p.exposed_transfer_time:.3e}s transfer time vs "
                    f"{p2p[1].exposed_transfer_time:.3e}s at window=1"
                )
        wide = p2p[max(p2p)]
        if wide.exposed_transfer_time > 0.75 * seq.exposed_transfer_time + eps:
            failures.append(
                f"headline: {name} {topo} window={wide.pipeline_window} exposed "
                f"transfer time {wide.exposed_transfer_time:.3e}s is not >=25% "
                f"below the per-launch sequential baseline "
                f"{seq.exposed_transfer_time:.3e}s"
            )
        if wide.time * 1.1 > seq.time + eps:
            failures.append(
                f"headline: {name} {topo} window={wide.pipeline_window} "
                f"end-to-end {wide.time:.4f}s is not >=1.1x faster than the "
                f"per-launch sequential baseline {seq.time:.4f}s"
            )
    n_gpus, _, _ = _pipeline_shape(args)
    return failures + _window_sweep(args.workloads, min(n_gpus, 4), _windows(args))


# ---------------------------------------------------------------------------
# redundancy
# ---------------------------------------------------------------------------

_REDUNDANCY_ITERATIONS = 8


def _redundancy_shapes(args) -> Tuple[Tuple[int, int], ...]:
    nodes, gpn = args.nodes, args.gpus_per_node
    return ((1, nodes * gpn), (nodes, gpn)) if nodes > 1 else ((1, gpn),)


def _redundancy_schedules(args) -> Tuple[str, ...]:
    return (args.schedule,) if args.schedule else ("sequential", "overlap")


def _redundancy_run(args):
    return ex.redundancy_study(
        iterations=_REDUNDANCY_ITERATIONS,
        shapes=_redundancy_shapes(args),
        schedules=_redundancy_schedules(args),
        irredundant=(False, True),
        stencil=True,
    )


def _stencil_linter_agreement(by, shapes, schedules) -> List[str]:
    """The RP6xx dataflow analyzer simulates the launch sequence the runtime
    executes, so its byte classification (required, redundant,
    over-approximated; per tier) must *equal* the measured dstencil
    counters. Any disagreement is a bug in one of the two models."""
    from repro.analysis.dataflow import analyze_transfers
    from repro.compiler.access_analysis import analyze_kernel
    from repro.cuda.dim3 import Dim3
    from repro.workloads.dstencil import BLOCK, build_dstencil_kernel

    side = 64
    info = analyze_kernel(build_dstencil_kernel(side))
    grid = Dim3(x=-(-side // BLOCK.x), y=-(-side // BLOCK.x))
    failures: List[str] = []
    for n_nodes, gpus_per_node in shapes:
        cluster = K80_CLUSTER_SPEC.with_shape(n_nodes, gpus_per_node) if n_nodes > 1 else None
        for irr in (False, True):
            summary = analyze_transfers(
                info, n_gpus=n_nodes * gpus_per_node, launches=_REDUNDANCY_ITERATIONS,
                grid=grid, block=BLOCK, scalars={}, irredundant=irr, cluster=cluster,
            )
            for sched in schedules:
                p = by[("dstencil", n_nodes, sched, True, irr)]
                pairs = [
                    ("required", p.total_sync_bytes),
                    ("redundant", p.redundant_bytes_avoided),
                    ("redundant_inter", p.redundant_bytes_avoided_inter),
                    ("overapprox", p.overapprox_bytes_avoided),
                    ("overapprox_inter", p.overapprox_bytes_avoided_inter),
                ]
                for what, measured in pairs:
                    linted = summary.total(what)
                    if linted != measured:
                        failures.append(
                            f"linter disagreement: dstencil {what} bytes — linter "
                            f"{linted}, runtime {measured} ({n_nodes} node(s), "
                            f"{sched}, irredundant={irr})"
                        )
    return failures


def _redundancy_checks(points, args) -> List[str]:
    shapes, schedules = _redundancy_shapes(args), _redundancy_schedules(args)
    by = {(p.kernel, p.n_nodes, p.schedule, p.shared_copies, p.irredundant): p for p in points}
    failures: List[str] = []
    for (n_nodes, _), sched in itertools.product(shapes, schedules):
        where = f"{n_nodes} node(s), {sched}"
        # Each remedy against its baseline, as (shared_copies, irredundant):
        # shared copies on broadcast and aligned reads; trimming the
        # bounding-range slack on top of shared copies for the stencil.
        for kernel, base_key, key, remedy in (
            ("broadcast", (False, False), (True, False), "shared copies"),
            ("aligned", (False, False), (True, False), "shared copies"),
            ("dstencil", (True, False), (True, True), "irredundant transfers"),
        ):
            base = by[(kernel, n_nodes, sched, *base_key)]
            got = by[(kernel, n_nodes, sched, *key)]
            if got.checksum != base.checksum:
                failures.append(f"bitwise: {kernel} output differs with {remedy} ({where})")
            cuts_fabric = n_nodes > 1 and kernel != "aligned"
            if cuts_fabric and got.inter_node_bytes >= base.inter_node_bytes:
                failures.append(
                    f"cluster: {kernel} inter-node bytes did not drop with {remedy} "
                    f"({base.inter_node_bytes} -> {got.inter_node_bytes}, {sched})"
                )
            if kernel == "broadcast" and (
                base.steady_bytes == 0 or got.steady_bytes * 2 > base.steady_bytes
            ):
                failures.append(
                    f"reduction: broadcast steady-state {base.steady_bytes} -> "
                    f"{got.steady_bytes} bytes misses the 2x bar ({where})"
                )
            if kernel == "aligned" and got.total_sync_bytes > base.total_sync_bytes:
                failures.append(
                    f"regression: aligned traffic grew {base.total_sync_bytes} -> "
                    f"{got.total_sync_bytes} ({where})"
                )
            if kernel == "dstencil":
                if got.total_sync_bytes >= base.total_sync_bytes:
                    failures.append(
                        f"reduction: dstencil irredundant transfers did not cut traffic "
                        f"({base.total_sync_bytes} -> {got.total_sync_bytes}, {where})"
                    )
                if got.overapprox_bytes_avoided == 0:
                    failures.append(f"trim: dstencil trimmed no slack bytes ({where})")
    return failures + _stencil_linter_agreement(by, shapes, schedules)


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def _serve_run(args):
    return serve_bench.saturation_study(
        tenants=args.tenants,
        loads=tuple(args.load),
        jobs=args.jobs,
        n_nodes=args.nodes,
        gpus_per_node=args.gpus_per_node,
        queue_capacity=args.queue_capacity,
    )


def _serve_checks(points, args) -> List[str]:
    # The serve path must be indistinguishable from the direct api path
    # for a lone tenant — across pipelining and the overlap schedule — and
    # sharing one skeleton cache across tenants must be bitwise invisible.
    cells = [
        dict(schedule="sequential", pipeline_window=1, shared_copies=False),
        dict(schedule="sequential", pipeline_window=4, shared_copies=False),
        dict(schedule="overlap", pipeline_window=1, shared_copies=True),
    ]
    return (
        serve_bench.saturation_failures(points)
        + serve_bench.single_tenant_sweep(
            cells, n_nodes=args.nodes, gpus_per_node=args.gpus_per_node
        )
        + serve_bench.shared_skeleton_sweep(n_gpus=args.gpus_per_node)
    )


# ---------------------------------------------------------------------------
# taskgraph
# ---------------------------------------------------------------------------


def _taskgraph_table(study, args) -> List[Table]:
    serialized = {p.workload: p.time for p in study.points if p.mode == "serialized"}
    timing = columns(
        f"Dynamic task graph vs serialized ({study.n_gpus} simulated GPUs)",
        ("Workload", "{p.workload}"),
        ("Mode", "{p.mode}"),
        ("GPUs", "{p.n_gpus}"),
        ("Tasks", "{p.tasks}"),
        ("Edges", "{p.edges}"),
        ("Time [ms]", lambda p: f"{p.time * 1e3:.3f}"),
        ("Win", lambda p: f"{serialized[p.workload] / p.time:.2f}x"),
    )
    structure = columns(
        "Graph structure (functional run)",
        ("Workload", "{p[0]}"),
        ("Tasks", "{p[1][tasks]}"),
        ("Edges", "{p[1][edges]}"),
        ("Waves", "{p[1][waves]}"),
        ("Ready peak", "{p[1][ready_peak]}"),
        ("Opaque", "{p[1][nonaffine_tasks]}"),
        ("Syncs", "{p[1][whole_buffer_syncs]}"),
        ("Diagnostics", lambda p: ", ".join(p[1]["diagnostic_codes"]) or "none"),
    )
    return timing(study.points, args) + structure(list(study.graph_stats.items()), args)


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

_ALL_SIZES = ["small", "medium", "large"]

BENCHES: Dict[str, Bench] = {
    b.name: b
    for b in (
        Bench(
            name="figure6",
            help="Figure 6: speedup over the single-GPU reference",
            flags={"gpu_counts": list(GPU_COUNTS), "sizes": _ALL_SIZES, "schedule": None,
                   "csv": None},
            run=lambda args: ex.figure6(
                gpu_counts=tuple(args.gpu_counts), sizes=tuple(args.sizes), schedule=args.schedule
            ),
            table=columns(
                "Figure 6",
                ("Workload", "{p.workload}"),
                ("Size", "{p.size_label}"),
                ("GPUs", "{p.n_gpus}"),
                ("Time [s]", "{p.time:.3f}"),
                ("Speedup", "{p.speedup:.2f}"),
            ),
            artifact="benchmarks/results/figure6.json",
        ),
        Bench(
            name="figure7",
            help="Figure 7: application / transfers / patterns time breakdown",
            flags={"gpu_counts": list(GPU_COUNTS), "schedule": None},
            run=lambda args: ex.figure7(gpu_counts=tuple(args.gpu_counts), schedule=args.schedule),
            table=columns(
                "Figure 7 (medium problems)",
                ("Workload", "{p.workload}"),
                ("GPUs", "{p.n_gpus}"),
                ("Application", "{p.t_application:.3f}"),
                ("Transfers", "{p.t_transfers:.3f}"),
                ("Patterns", "{p.t_patterns:.4f}"),
            ),
            artifact="benchmarks/results/figure7.json",
        ),
        Bench(
            name="figure8",
            help="Figure 8: non-transfer overhead fraction per GPU count",
            flags={"gpu_counts": list(GPU_COUNTS), "sizes": _ALL_SIZES},
            run=lambda args: ex.figure8(gpu_counts=tuple(args.gpu_counts), sizes=tuple(args.sizes)),
            table=columns(
                "Figure 8",
                ("GPUs", "{p.n_gpus}"),
                ("p25", lambda s: f"{s.percentile(0.25):.4%}"),
                ("median", "{p.median:.4%}"),
                ("p75", lambda s: f"{s.percentile(0.75):.4%}"),
                ("max", lambda s: f"{max(s.fractions):.4%}"),
            ),
            artifact="benchmarks/results/figure8.json",
        ),
        Bench(
            name="table1",
            help="Table 1: the problem sizes and iteration counts",
            flags={},
            run=lambda args: ex.table1_rows(),
            table=columns(
                "Table 1",
                ("Benchmark", "{p[0]}"),
                ("Small", "{p[1]}"),
                ("Medium", "{p[2]}"),
                ("Large", "{p[3]}"),
                ("Iterations", "{p[4]}"),
            ),
            artifact="benchmarks/results/table1.json",
        ),
        Bench(
            name="overhead",
            help="§9.2 single-GPU slowdown + planner-cache invisibility sweeps",
            flags={"sizes": _ALL_SIZES},
            run=lambda args: ex.single_gpu_overhead(sizes=tuple(args.sizes)),
            table=columns(
                "Single-GPU slowdown",
                ("Configuration", "{p[0]}"),
                ("Slowdown", "{p[1]:.4%}"),
            ),
            checks=lambda rows, args: overhead.cache_sweep() + overhead.mutation_sweep(),
            claims="plan and residual caches bitwise/trace/tracker/stats invisible "
            "across schedule x shared-copies x window x topology, digest misses "
            "under adversarial memcpy/memset/free interleavings",
            artifact="benchmarks/results/launch_overhead.json",
        ),
        Bench(
            name="schedules",
            help="sequential vs overlap vs overlap+p2p, side by side",
            flags={"workloads": ["hotspot"], "gpu_counts": [1, 4, 16], "sizes": ["small"]},
            run=lambda args: ex.schedule_comparison(
                workloads=tuple(args.workloads),
                gpu_counts=tuple(args.gpu_counts),
                size=args.sizes[0],
            ),
            table=columns(
                "Schedule comparison",
                ("Workload", "{p.workload}"),
                ("GPUs", "{p.n_gpus}"),
                ("Schedule", "{p.schedule}"),
                ("Time [s]", "{p.time:.4f}"),
                ("Speedup", "{p.speedup:.2f}"),
                ("Hidden", "{p.hidden_fraction:.1%}"),
            ),
            checks=_schedule_checks,
            claims="overlap >= sequential and overlap+p2p >= overlap at every GPU "
            "count, >5% overlap gain on hotspot at 16 GPUs",
            artifact="benchmarks/results/schedule_comparison.json",
        ),
        Bench(
            name="cluster",
            help="multi-node scaling at equal total GPU count",
            flags={
                "nodes": 2, "gpus_per_node": 4, "workloads": ["hotspot"], "sizes": ["small"],
                "schedule": None,
            },
            run=_cluster_run,
            table=columns(
                "Cluster scaling ({args.sizes[0]} problems)",
                ("Workload", "{p.workload}"),
                ("Shape", "{p.n_nodes}x{p.gpus_per_node}"),
                ("Schedule", "{p.schedule}"),
                ("Time [s]", "{p.time:.4f}"),
                ("Speedup", "{p.speedup:.2f}"),
                ("Intra exposed [s]", "{p.intra_exposed:.5f}"),
                ("Inter exposed [s]", "{p.inter_exposed:.5f}"),
                ("Inter copies", "{p.inter_node_transfers}"),
            ),
            checks=_cluster_checks,
            claims="1-node equivalence, accounting identity, tier sanity",
            artifact="benchmarks/results/cluster_scaling.json",
        ),
        Bench(
            name="redundancy",
            help="shared-copy coherence and irredundant transfers",
            flags={"nodes": 2, "gpus_per_node": 4, "schedule": None},
            run=_redundancy_run,
            table=columns(
                "Redundant transfers: sole-owner vs shared-copy trackers",
                ("Kernel", "{p.kernel}"),
                ("Shape", "{p.n_nodes}x{p.gpus_per_node}"),
                ("Schedule", "{p.schedule}"),
                ("Shared", lambda p: "on" if p.shared_copies else "off"),
                ("Irred", lambda p: "on" if p.irredundant else "off"),
                ("Steady [B]", "{p.steady_bytes}"),
                ("Total sync [B]", "{p.total_sync_bytes}"),
                ("Avoided [B]", "{p.redundant_bytes_avoided}"),
                ("Trimmed [B]", "{p.overapprox_bytes_avoided}"),
                ("Inter-node [B]", "{p.inter_node_bytes}"),
            ),
            checks=_redundancy_checks,
            claims=">=2x steady-state reduction, bitwise equality, no regression, "
            "irredundant stencil reduction, linter agreement",
            artifact="benchmarks/results/redundant_transfers.json",
        ),
        Bench(
            name="pipeline",
            help="cross-launch pipelining: fused launch windows",
            flags={
                "window": None, "workloads": ["hotspot", "nbody"], "sizes": ["small"],
                "gpu_counts": [16], "nodes": 2, "gpus_per_node": None,
            },
            run=_pipeline_run,
            table=columns(
                "Cross-launch pipelining ({args.sizes[0]} problems)",
                ("Workload", "{p.workload}"),
                ("Topology", "{p.n_nodes}x{p.gpus_per_node}"),
                ("Schedule", "{p.schedule}"),
                ("Window", "{p.pipeline_window}"),
                ("Time [s]", "{p.time:.4f}"),
                ("Speedup", "{p.speedup:.2f}"),
                ("Exposed [ms]", lambda p: f"{p.exposed_transfer_time * 1e3:.3f}"),
                ("Hidden", "{p.hidden_fraction:.1%}"),
                ("Flushes", "{p.pipeline_flushes}"),
                ("Batch", "{p.pipeline_max_batch}"),
            ),
            checks=_pipeline_checks,
            claims="exposed transfer time never above window=1, >=25% exposed "
            "reduction and >=1.1x speedup vs sequential baseline, bitwise "
            "equality across schedule x window x shared-copies",
            artifact="benchmarks/results/pipeline.json",
        ),
        Bench(
            name="serve",
            help="multi-tenant serving saturation",
            flags={
                "tenants": 4, "load": [0.25, 0.5, 1.0, 2.0, 4.0], "jobs": 48, "nodes": 2,
                "gpus_per_node": 2, "queue_capacity": 8,
            },
            run=_serve_run,
            table=columns(
                lambda points, args: (
                    f"Serve saturation — {args.tenants} tenants on "
                    f"{args.nodes}x{args.gpus_per_node} (queue capacity "
                    f"{points[0].queue_capacity}, service "
                    f"{points[0].service_time * 1e3:.3f} ms/job)"
                ),
                ("Load", "{p.load:g}"),
                ("Offered/s", "{p.offered_rate:.0f}"),
                ("Submitted", "{p.submitted}"),
                ("Done", "{p.completed}"),
                ("Shed", "{p.shed}"),
                ("Jobs/s", "{p.throughput:.0f}"),
                ("p50 ms", lambda p: f"{p.p50_delay * 1e3:.3f}"),
                ("p99 ms", lambda p: f"{p.p99_delay * 1e3:.3f}"),
            ),
            checks=_serve_checks,
            claims="graceful saturation (throughput plateau, bounded p99, "
            "backpressure only under overload, fair shares), single-tenant serve "
            "identity (bitwise, trace, clock, stats), shared-skeleton-cache identity",
            artifact="benchmarks/results/serve_saturation.json",
        ),
        Bench(
            name="taskgraph",
            help="dynamic task graphs vs barrier-serialized execution",
            flags={"workload": None, "gpus": 16},
            run=lambda args: taskgraph_bench.taskgraph_study(
                workloads=[args.workload] if args.workload else None, n_gpus=args.gpus
            ),
            table=_taskgraph_table,
            checks=lambda study, args: taskgraph_bench.taskgraph_failures(study),
            claims="bitwise identity graph/serialized/permuted across schedule x "
            f"shared-copies x window, >={MIN_MAKESPAN_WIN}x makespan win with "
            "conserved transfer busy time, numerics vs numpy, opaque-task degradation",
            artifact="benchmarks/results/taskgraph.json",
        ),
    )
}
