"""The ``repro bench`` registry: one declarative entry per experiment.

Every experiment of ``python -m repro bench <name>`` is a :class:`Bench`:

* ``run(args)`` measures and returns the study's points;
* ``table(points, args)`` turns them into ``(title, headers, rows)``
  triples for :func:`~repro.harness.report.format_table`, usually
  through :func:`columns`, one ``(header, cell)`` pair per column;
* ``checks(points, args)`` returns failure strings, and ``claims`` is
  the summary printed when there are none;
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
        flags={"gpu_counts": list(ex.FIGURE7_GPU_COUNTS), "schedule": None},
        run=lambda args: ex.figure7(gpu_counts=tuple(args.gpu_counts), schedule=args.schedule),
        table=columns(
            "Figure 7 (medium problems)",
            ("Workload", "{p.workload}"),
            ("Application", "{p.t_application:.3f}"),
            ...
        ),
        checks=_figure7_checks,
        claims="shares sum to 1, ...",
        artifact="results/figure7.json",
    )

The bitwise-invisibility checks go through
:func:`~repro.harness.identity.identity_sweep`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.cluster.engine import ClusterSimMachine
from repro.compiler.pipeline import compile_app
from repro.harness import experiments as ex
from repro.harness.calibration import GPU_COUNTS, K80_CLUSTER_SPEC, k80_cluster
from repro.harness.identity import identity_sweep, observe
from repro.harness import overhead, paper
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
    checks: Callable[[Any, argparse.Namespace], List[str]]
    #: What ``checks`` asserts, printed after ``checks passed:``.
    claims: str
    artifact: str


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
    failures = bench.checks(points, args)
    if args.json:
        payload = {
            "bench": bench.name,
            "args": {name: getattr(args, name) for name in bench.flags},
            "points": _jsonable(points),
            "failures": failures,
        }
        write_json_report(args.json, bench.artifact, payload)
    return finish_self_checks(failures, bench.claims)


@functools.lru_cache(maxsize=8)
def _prepared(name: str):
    """(workload, inputs, compiled app) of a functional-size Table 1 run."""
    wl = ALL_WORKLOADS[name](functional_config(name))
    return wl, wl.make_inputs(seed=0), compile_app(wl.build_kernels())


# ---------------------------------------------------------------------------
# figure6 / figure7 / figure8 / table1 / overhead: the paper's claims
# ---------------------------------------------------------------------------

#: Fig. 6 curves with a peak claim: (workload, size, peak by GPUs, falls
#: after it, peak speedup band).
_FIG6_PEAKS = (
    ("nbody", "large", 16, False, (9.0, 15.0)),
    ("matmul", "large", 14, True, (4.0, 8.0)),
    ("hotspot", "small", 12, True, None),
)


def _best(points) -> Dict[str, Any]:
    """Per workload, its fastest point over every size and GPU count."""
    best: Dict[str, Any] = {}
    for p in points:
        if p.workload not in best or p.speedup > best[p.workload].speedup:
            best[p.workload] = p
    return best


def _paper_vs_measured(title, label, paper_cell, measured_cell):
    return columns(title, (label, "{p}"), ("Paper", paper_cell), ("Measured", measured_cell))


def _figure6_table(points, args) -> List[Table]:
    best = _best(points)
    return columns(
        "Figure 6",
        ("Workload", "{p.workload}"),
        ("Size", "{p.size_label}"),
        ("GPUs", "{p.n_gpus}"),
        ("Time [s]", "{p.time:.3f}"),
        ("Speedup", "{p.speedup:.2f}"),
    )(points, args) + _paper_vs_measured(
        "Figure 6 maxima",
        "Workload",
        lambda w: f"{paper.MAX_SPEEDUP[w]:.1f}x @ {paper.MAX_SPEEDUP_GPUS[w]} GPUs",
        lambda w: f"{best[w].speedup:.2f}x @ {best[w].n_gpus} GPUs",
    )([w for w in paper.MAX_SPEEDUP if w in best], args)


def _figure6_checks(points, args) -> List[str]:
    """Fig. 6's curve shapes; a claim about 16 GPUs or a size needs them in the grid."""
    curves: Dict[Tuple[str, str], Dict[int, float]] = {}
    for p in points:
        curves.setdefault((p.workload, p.size_label), {})[p.n_gpus] = p.speedup
    failures = [
        f"baseline: {w}/{size} runs at {ys[1]:.3f}x on 1 GPU, outside [0.9, 1.01]"
        for (w, size), ys in curves.items()
        if 1 in ys and not 0.9 <= ys[1] <= 1.01
    ]
    full = {key: ys for key, ys in curves.items() if 16 in ys}
    for w, size, latest, falls, band in _FIG6_PEAKS:
        ys = full.get((w, size))
        if not ys:
            continue
        g = max(ys, key=ys.get)
        if g > latest or (not falls and ys[16] < ys[g]):
            failures.append(f"peak: {w}/{size} peaks at {g} GPUs, not by {latest}")
        if falls and ys[16] >= ys[g]:
            failures.append(f"decline: {w}/{size} peaks at {g} GPUs and does not fall by 16")
        if band and not band[0] <= ys[g] <= band[1]:
            failures.append(f"peak: {w}/{size} peaks at {ys[g]:.2f}x, outside {list(band)}")
    for w in ("hotspot", "nbody", "matmul"):
        at16 = [full[(w, size)][16] for size in _ALL_SIZES if (w, size) in full]
        if at16 != sorted(at16):
            failures.append(f"sizes: {w} at 16 GPUs does not scale better with size: {at16}")
    best = _best(points)
    if full and len(full) == len(curves) and len(best) == 3:
        failures += [
            f"ordering: {w}'s maximum {best[w].speedup:.2f}x does not beat matmul's"
            for w in ("nbody", "hotspot")
            if best[w].speedup <= best["matmul"].speedup
        ]
    return failures


def _figure7_checks(rows, args) -> List[str]:
    """α/β/γ shares partition the runtime, transfers dominate (§9.2), overhead grows."""
    failures: List[str] = []
    for r in rows:
        where = f"{r.workload} at {r.n_gpus} GPUs"
        if abs(r.t_application + r.t_transfers + r.t_patterns - 1.0) > 1e-6:
            failures.append(f"shares: {where} do not sum to 1")
        if r.t_application <= 0:
            failures.append(f"shares: {where} spends no time in the application")
        # One GPU has no coherence transfers to carry the overhead.
        if r.n_gpus > 1 and r.t_transfers < r.t_patterns:
            failures.append(f"overhead: {where} spends less in transfers than in patterns")
    by = {(r.workload, r.n_gpus): r for r in rows}
    for w in sorted({r.workload for r in rows}):
        two, sixteen = by.get((w, 2)), by.get((w, 16))
        if two and sixteen and not (
            sixteen.t_application < two.t_application and sixteen.t_transfers > two.t_transfers
        ):
            failures.append(f"growth: {w} overhead share does not grow from 2 to 16 GPUs")
    return failures


def _figure8_table(stats, args) -> List[Table]:
    fractions = [f for s in stats for f in s.fractions]
    quantiles = {"p25": 0.25, "median": 0.5, "p75": 0.75, "max": 1.0}
    reported = {**paper.OVERHEAD_PERCENTILES, "max": paper.NON_TRANSFER_OVERHEAD_MAX}
    return columns(
        "Figure 8",
        ("GPUs", "{p.n_gpus}"),
        ("p25", lambda s: f"{s.percentile(0.25):.4%}"),
        ("median", "{p.median:.4%}"),
        ("p75", lambda s: f"{s.percentile(0.75):.4%}"),
        ("max", lambda s: f"{max(s.fractions):.4%}"),
    )(stats, args) + _paper_vs_measured(
        "Figure 8 over every GPU count and size",
        "Statistic",
        lambda q: f"{reported[q]:.3%}",
        lambda q: f"{ex.percentile(fractions, quantiles[q]):.4%}",
    )(list(quantiles), args)


def _figure8_checks(stats, args) -> List[str]:
    """The non-transfer overhead grows with the GPU count and stays small."""
    medians = {s.n_gpus: s.median for s in stats}
    chain = [medians[g] for g in (1, 2, 16) if g in medians]
    fractions = [f for s in stats for f in s.fractions]
    failures = [] if chain == sorted(chain) else [f"growth: median overhead at 1/2/16 GPUs: {chain}"]
    for name, q, bound in (("median", 0.5, 0.05), ("p25", 0.25, 0.01), ("max", 1.0, 0.30)):
        value = ex.percentile(fractions, q)
        if value >= bound:
            failures.append(f"bound: overall {name} overhead {value:.4%} is not below {bound:.0%}")
    return failures


def _overhead_table(points, args) -> List[Table]:
    slowdowns, ratios = points
    fractions = [f for _, f in slowdowns]
    quantiles = {"p25": 0.25, "median": 0.5, "p75": 0.75}
    low, high = paper.COMPILE_TIME_RATIO
    return (
        columns("Single-GPU slowdown", ("Configuration", "{p[0]}"), ("Slowdown", "{p[1]:.4%}"))(
            slowdowns, args
        )
        + _paper_vs_measured(
            "Single-GPU slowdown (§9.2)",
            "Statistic",
            lambda q: f"{paper.SINGLE_GPU_SLOWDOWN[q]:.2%}",
            lambda q: f"{ex.percentile(fractions, quantiles[q]):.4%}",
        )(list(quantiles), args)
        + columns(
            f"Compile-time increase of the two-pass pipeline (§3; paper {low}x - {high}x)",
            ("Application", "{p[0]}"),
            ("Pipeline / single pass", "{p[1]:.2f}x"),
        )(sorted(ratios.items()), args)
    )


def _overhead_checks(points, args) -> List[str]:
    """§9.2's single-GPU slowdown, §3's compile-time band, then the memo sweeps."""
    slowdowns, ratios = points
    failures = [
        f"slowdown: {cfg} runs {frac:.4%} slower on 1 GPU, outside [-0.5%, 8%]"
        for cfg, frac in slowdowns
        if not -0.005 <= frac <= 0.08
    ]
    median = ex.percentile((f for _, f in slowdowns), 0.5)
    if median > 0.03:
        failures.append(f"slowdown: median {median:.4%} above 3%")
    failures += [
        f"compile time: {name} pipeline takes {ratio:.2f}x a single pass, outside (1.05, 3.0)"
        for name, ratio in sorted(ratios.items())
        if not 1.05 < ratio < 3.0
    ]
    return failures + overhead.cache_sweep() + overhead.mutation_sweep()


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def _schedule_checks(points, args) -> List[str]:
    """Overlap never loses to sequential and hides more transfer time, P2P
    never loses to overlap; the overlap gain grows with the GPU count."""
    cell = {(p.workload, p.n_gpus, p.schedule): p for p in points}
    by = {key: p.speedup for key, p in cell.items()}
    failures = []
    for workload, g in sorted({(p.workload, p.n_gpus) for p in points}):
        seq, ovl, p2p = (by[(workload, g, s)] for s in SCHEDULES)
        sequential, overlap = (cell[(workload, g, s)] for s in SCHEDULES[:2])
        if sequential.hidden_transfer_time + sequential.exposed_transfer_time > 0 and (
            overlap.hidden_fraction <= sequential.hidden_fraction
        ):
            failures.append(f"overlap: {workload} overlap hides no more than sequential at {g} GPUs")
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
    for workload in sorted({p.workload for p in points}):
        gain = [by[(workload, g, "overlap")] / by[(workload, g, "sequential")]
                for g in (4, 16) if (workload, g, "overlap") in by]
        if len(gain) == 2 and gain[1] <= gain[0]:
            failures.append(f"scaling: {workload} overlap gain does not grow from 4 to 16 GPUs")
    if ("hotspot", 16, "overlap") in by:
        seq, ovl, p2p = (by[("hotspot", 16, s)] for s in SCHEDULES)
        if ovl <= seq * 1.05:
            failures.append(
                f"headline: hotspot overlap {ovl:.2f}x shows no >5% gain over "
                f"sequential {seq:.2f}x at 16 GPUs"
            )
        if p2p <= ovl:
            failures.append(f"headline: hotspot overlap+p2p {p2p:.2f}x does not beat overlap at 16 GPUs")
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
    nodes, gpn = args.nodes, args.gpus_per_node
    # Hold total GPUs constant: the 1-node shape is the network-free
    # baseline the clustered shapes are judged against, and twice the nodes
    # at half the GPUs each gives the seams check two multi-node shapes.
    shapes = [(1, nodes * gpn)]
    if nodes > 1:
        shapes.append((nodes, gpn))
        if gpn % 2 == 0:
            shapes.append((2 * nodes, gpn // 2))
    return ex.cluster_scaling(
        tuple(args.workloads), tuple(shapes), size=args.sizes[0], schedules=_cluster_schedules(args)
    )


def _cluster_checks(points, args) -> List[str]:
    total = args.nodes * args.gpus_per_node
    failures = _one_node_sweep(args.workloads, total, _cluster_schedules(args))
    baseline = {(p.workload, p.schedule): p.inter_exposed for p in points if p.n_nodes == 1}
    copies: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
    for p in points:
        shape = f"{p.n_nodes}x{p.gpus_per_node}"
        copies.setdefault((p.workload, p.schedule), []).append((p.n_nodes, p.inter_node_transfers))
        if p.n_nodes > 1 and p.inter_node_transfers and p.inter_node_bytes <= 0:
            failures.append(f"sanity: {p.workload} {shape} {p.schedule}: inter-node copies move no bytes")
        if p.exposure_identity_error > 1e-9 * max(1.0, p.transfers_busy):
            failures.append(
                f"accounting identity: {p.workload} {shape} {p.schedule}: tier split "
                f"drifts from busy_time(TRANSFERS) by {p.exposure_identity_error:.3e}s"
            )
        if p.n_nodes == 1 and (p.inter_exposed > 0 or p.inter_hidden > 0 or p.inter_node_transfers > 0):
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
    for (workload, schedule), by_nodes in sorted(copies.items()):
        counts = [n for _, n in sorted(by_nodes)]
        if counts != sorted(counts):
            failures.append(f"seams: {workload} {schedule}: more nodes, fewer inter-node copies")
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
    """The copy order is bitwise invisible: every window matches window=1."""

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
            if p.time > p2p[1].time + eps:
                failures.append(f"regression: {name} {topo} overlap+p2p window={w} takes longer than window=1")
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
    for p in points:
        if not 0.0 <= p.hidden_fraction <= 1.0:
            failures.append(f"accounting: {p.workload} {p.topology} hides {p.hidden_fraction:.3f}")
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
        cluster = K80_CLUSTER_SPEC.with_shape(n_nodes, gpus_per_node)
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
            if kernel == "broadcast" and got.total_sync_bytes >= base.total_sync_bytes:
                failures.append(f"reduction: broadcast traffic did not drop ({where})")
            if kernel == "broadcast" and not (
                min(got.redundant_bytes_avoided, got.tracker_share_ops) > 0
                and base.redundant_bytes_avoided == base.tracker_share_ops == 0
            ):
                failures.append(f"sharers: broadcast shares without shared copies or not with them ({where})")
            if kernel == "aligned" and got.total_sync_bytes > base.total_sync_bytes:
                failures.append(
                    f"regression: aligned traffic grew {base.total_sync_bytes} -> "
                    f"{got.total_sync_bytes} ({where})"
                )
            if kernel == "aligned" and (base.steady_bytes or got.steady_bytes):
                failures.append(f"steady state: aligned reads move bytes every iteration ({where})")
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
            table=_figure6_table,
            checks=_figure6_checks,
            claims="Fig. 6 curve shapes: baselines, peaks, declines, size order, ranking",
            artifact="results/figure6.json",
        ),
        Bench(
            name="figure7",
            help="Figure 7: application / transfers / patterns time breakdown",
            flags={"gpu_counts": list(ex.FIGURE7_GPU_COUNTS), "schedule": None},
            run=lambda args: ex.figure7(gpu_counts=tuple(args.gpu_counts), schedule=args.schedule),
            table=columns(
                "Figure 7 (medium problems)",
                ("Workload", "{p.workload}"),
                ("GPUs", "{p.n_gpus}"),
                ("Application", "{p.t_application:.3f}"),
                ("Transfers", "{p.t_transfers:.3f}"),
                ("Patterns", "{p.t_patterns:.4f}"),
            ),
            checks=_figure7_checks,
            claims="shares partition the runtime, transfers dominate, overhead grows",
            artifact="results/figure7.json",
        ),
        Bench(
            name="figure8",
            help="Figure 8: non-transfer overhead fraction per GPU count",
            flags={"gpu_counts": list(GPU_COUNTS), "sizes": _ALL_SIZES},
            run=lambda args: ex.figure8(gpu_counts=tuple(args.gpu_counts), sizes=tuple(args.sizes)),
            table=_figure8_table,
            checks=_figure8_checks,
            claims="overhead grows with GPUs; overall median < 5%, p25 < 1%, max < 30%",
            artifact="results/figure8.json",
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
            checks=lambda rows, args: [f"table1: no row {r}" for r in paper.TABLE1 if r not in rows],
            claims="the paper's three rows",
            artifact="results/table1.json",
        ),
        Bench(
            name="overhead",
            help="§9.2 single-GPU slowdown, §3 compile-time increase, memo invisibility sweeps",
            flags={"sizes": _ALL_SIZES},
            run=lambda args: (
                ex.single_gpu_overhead(sizes=tuple(args.sizes)), ex.compile_time_ratio()
            ),
            table=_overhead_table,
            checks=_overhead_checks,
            claims="small single-GPU slowdown, compile-time band; every memo hit "
            "audit-clean and the shipped run equal to the debug_audit run (outputs, trace, "
            "tracker, stats, clock) across schedule x shared-copies x window x topology, "
            "digest misses under adversarial memcpy/memset/free interleavings",
            artifact="results/launch_overhead.json",
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
            "count, overlap hides more transfer time, its gain grows from 4 to 16 GPUs, "
            ">5% overlap gain and a p2p gain on hotspot at 16 GPUs",
            artifact="results/schedule_comparison.json",
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
            claims="1-node equivalence, accounting identity, tier sanity, seams",
            artifact="results/cluster_scaling.json",
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
            "sharer accounting, irredundant stencil reduction, linter agreement",
            artifact="results/redundant_transfers.json",
        ),
        Bench(
            name="pipeline",
            help="pipeline_window: plan-order vs halo-first cluster copies",
            flags={
                "window": None, "workloads": ["hotspot", "nbody"], "sizes": ["small"],
                "gpu_counts": [16], "nodes": 2, "gpus_per_node": None,
            },
            run=_pipeline_run,
            table=columns(
                "Pipeline window: plan-order vs halo-first copies ({args.sizes[0]} problems)",
                ("Workload", "{p.workload}"),
                ("Topology", "{p.n_nodes}x{p.gpus_per_node}"),
                ("Schedule", "{p.schedule}"),
                ("Window", "{p.pipeline_window}"),
                ("Time [s]", "{p.time:.4f}"),
                ("Speedup", "{p.speedup:.2f}"),
                ("Exposed [ms]", lambda p: f"{p.exposed_transfer_time * 1e3:.3f}"),
                ("Hidden", "{p.hidden_fraction:.1%}"),
            ),
            checks=_pipeline_checks,
            claims="exposed transfer time and end-to-end time never above window=1, "
            ">=25% exposed reduction and >=1.1x speedup vs sequential baseline, "
            "bitwise equality across schedule x window x shared-copies",
            artifact="results/pipeline.json",
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
            artifact="results/serve_saturation.json",
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
            artifact="results/taskgraph.json",
        ),
    )
}
