"""Self-checking benchmark of the dynamic task-graph frontend.

``repro bench taskgraph`` measures each workload (tiled Cholesky and the
overlapped-tiling image pipeline) with :func:`taskgraph_study` and *fails
the process* (exit 1) when :func:`taskgraph_failures` finds a claim that
does not hold:

* **Identity sweep** (:func:`order_sweep`) — graph, serialized and
  adversarially reordered execution agree bitwise, tracker state included.
* **Overlap study** — on a simulated 16-GPU machine, graph execution must
  beat barrier-serialized execution by ``>= 1.3x`` makespan (the barriers
  after every task serialize transfers that dependence-driven execution
  packs side by side), transfer *busy* time
  must be bitwise-conserved across the two modes (same transfers, only
  earlier), and the :meth:`~repro.sim.trace.Trace.transfer_exposure`
  accounting identity ``hidden + exposed == busy(TRANSFERS)`` must hold
  on both runs.
* **Evidence checks** — Cholesky must match ``numpy.linalg.cholesky``
  within float32 tolerance; the image pipeline's deliberately opaque stats
  task must demonstrably degrade (``RP701``/``RP702`` diagnostics, a
  whole-buffer graph barrier, and one kernel-level single-GPU fallback
  launch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.pipeline import compile_app
from repro.harness.calibration import K80_NODE_SPEC
from repro.harness.identity import Observation, facet_diff, identity_sweep, observe
from repro.runtime.api import MultiGpuApi, host_planner_counters
from repro.runtime.config import RuntimeConfig
from repro.sched.policy import SCHEDULES
from repro.sim.engine import SimMachine
from repro.sim.trace import Category
from repro.workloads import EXTRA_WORKLOADS, functional_config
from repro.workloads.common import ProblemConfig

__all__ = [
    "TaskGraphPoint",
    "TaskGraphStudy",
    "taskgraph_study",
    "taskgraph_failures",
    "order_sweep",
    "TASKGRAPH_WORKLOADS",
]

#: Workloads the study accepts, with (identity size, overlap size).
TASKGRAPH_WORKLOADS: Dict[str, Tuple[int, int]] = {
    "cholesky": (32, 256),
    "imgpipe": (64, 256),
}

#: Critical-path (makespan) improvement the overlap study must demonstrate.
MIN_MAKESPAN_WIN = 1.3


@dataclass(frozen=True)
class TaskGraphPoint:
    """One timed 16-GPU execution (graph or serialized) of one workload."""

    workload: str
    mode: str
    n_gpus: int
    tasks: int
    edges: int
    time: float
    exposed_transfer_time: float
    hidden_transfer_time: float
    transfer_busy_time: float

    @property
    def hidden_fraction(self) -> float:
        total = self.hidden_transfer_time + self.exposed_transfer_time
        return self.hidden_transfer_time / total if total else 0.0


@dataclass
class TaskGraphStudy:
    """Everything ``repro bench taskgraph`` measures; judged by :func:`taskgraph_failures`."""

    workloads: List[str]
    n_gpus: int
    points: List[TaskGraphPoint] = field(default_factory=list)
    #: ``TaskGraph.summary()`` of each workload's functional graph-mode run
    #: (structure, waves, diagnostic codes).
    graph_stats: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Staged-planner counters (:data:`~repro.runtime.api.
    #: HOST_PLANNER_COUNTERS`) of the overlap study's graph-mode run,
    #: per workload — the dependence-driven path reuses plan skeletons
    #: across bands/tiles, so hits dominate misses here.
    host_counters: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Single-GPU fallback launches of each functional run.
    fallback_launches: Dict[str, int] = field(default_factory=dict)
    cholesky_max_err: Optional[float] = None
    #: ``numpy.allclose`` of the factor against ``numpy.linalg.cholesky``.
    cholesky_close: Optional[bool] = None


def _alternative_order(graph) -> List[int]:
    """A valid topological order maximally unlike creation order.

    Kahn's algorithm popping the *highest* creation index first — the
    adversarial counterpart of the scheduler's lowest-first priority.
    """
    indeg = {t.index: 0 for t in graph.tasks}
    succs: Dict[int, List[int]] = {t.index: [] for t in graph.tasks}
    for e in graph.edges:
        indeg[e.dst] += 1
        succs[e.src].append(e.dst)
    ready = sorted(i for i, d in indeg.items() if d == 0)
    order: List[int] = []
    while ready:
        i = ready.pop()  # highest index first
        order.append(i)
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
                ready.sort()
    return order


def order_sweep(name: str, windows: Sequence[int] = (1, 4)) -> List[str]:
    """Bitwise identity of graph / serialized / permuted execution.

    Each ``schedule x shared_copies x pipeline_window`` cell runs the
    workload serialized (the reference), dependency-driven, and, in the
    last cell, in the adversarial order of :func:`_alternative_order`.
    Outputs and final tracker state must match the cell's serialized run.
    Outputs must also match the first cell's: shared copies legitimately
    change which devices hold read replicas, so tracker state is compared
    only within a cell.
    """
    size, _ = TASKGRAPH_WORKLOADS[name]
    wl = EXTRA_WORKLOADS[name](functional_config(name, size=size))
    inputs = wl.make_inputs(seed=7)
    app = compile_app(wl.build_kernels())
    first: List[Observation] = []

    def run(schedule, shared_copies, window) -> Dict[str, Observation]:
        cfg = RuntimeConfig(
            n_gpus=4, schedule=schedule, shared_copies=shared_copies, pipeline_window=window
        )
        runs = {}
        for mode in ("serialized", "graph"):
            api = MultiGpuApi(app, cfg)
            runs[mode] = observe(api, wl.run(api, inputs, mode=mode))
        if schedule == "auto" and shared_copies and window == max(windows):
            api = MultiGpuApi(app, cfg)
            got = wl.run(api, inputs, mode="graph", order=_alternative_order(wl.last_graph))
            runs["order"] = observe(api, got)
        first[:] = first or [runs["serialized"]]
        return runs

    def across_cells(cell, runs) -> List[str]:
        what = facet_diff("outputs", first[0], runs["serialized"])
        if what:
            return [f"outputs: serialized differs from the first cell's ({what}) at {cell}"]
        return []

    cells = [
        dict(schedule=s, shared_copies=sh, window=w)
        for s in list(SCHEDULES) + ["auto"]
        for sh in (False, True)
        for w in windows
    ]
    failures = identity_sweep(run, cells, ("outputs", "tracker"), check=across_cells)
    return [f"{name}: {f}" for f in failures]


def _overlap_study(study: TaskGraphStudy, name: str) -> None:
    """Timed 16-GPU graph-vs-serialized comparison."""
    _, size = TASKGRAPH_WORKLOADS[name]
    iterations = 4 if name == "imgpipe" else 1
    cfg = ProblemConfig(name, "bench", size, iterations)
    rt = RuntimeConfig(n_gpus=study.n_gpus, schedule="overlap+p2p", pipeline_window=4)

    for mode in ("serialized", "graph"):
        wl = EXTRA_WORKLOADS[name](cfg)
        app = compile_app(wl.build_kernels())
        machine = SimMachine(K80_NODE_SPEC.with_gpus(study.n_gpus))
        api = MultiGpuApi(app, rt, machine=machine, functional=False)
        wl.run(api, None, mode=mode)
        elapsed = api.elapsed()
        exposure = machine.trace.transfer_exposure()
        study.points.append(
            TaskGraphPoint(
                workload=name,
                mode=mode,
                n_gpus=study.n_gpus,
                tasks=wl.last_graph.stats.tasks,
                edges=wl.last_graph.stats.edges,
                time=elapsed,
                exposed_transfer_time=exposure["exposed"],
                hidden_transfer_time=exposure["hidden"],
                transfer_busy_time=machine.trace.busy_time(Category.TRANSFERS),
            )
        )
        if mode == "graph":
            study.host_counters[name] = host_planner_counters(api.stats)


def _functional_run(study: TaskGraphStudy, name: str) -> None:
    """The evidence run: numerics, graph structure and fallback launches."""
    size, _ = TASKGRAPH_WORKLOADS[name]
    wl = EXTRA_WORKLOADS[name](functional_config(name, size=size))
    inputs = wl.make_inputs(seed=13)
    api = MultiGpuApi(compile_app(wl.build_kernels()), RuntimeConfig(n_gpus=4))
    got = wl.run(api, inputs)
    study.graph_stats[name] = wl.last_graph.summary()
    study.fallback_launches[name] = api.stats.fallback_launches
    if name == "cholesky":
        ref = wl.reference(inputs)["factor"]
        study.cholesky_max_err = float(np.max(np.abs(got["factor"] - ref)))
        study.cholesky_close = bool(np.allclose(got["factor"], ref, atol=2e-4, rtol=2e-4))


def taskgraph_study(
    workloads: Optional[List[str]] = None, n_gpus: int = 16
) -> TaskGraphStudy:
    """Run the timed overlap study and the functional evidence runs."""
    names = list(workloads or TASKGRAPH_WORKLOADS)
    unknown = [n for n in names if n not in TASKGRAPH_WORKLOADS]
    if unknown:
        raise ValueError(f"unknown taskgraph workload(s): {', '.join(unknown)}")
    study = TaskGraphStudy(workloads=names, n_gpus=n_gpus)
    for name in names:
        _overlap_study(study, name)
        _functional_run(study, name)
    return study


def taskgraph_failures(study: TaskGraphStudy) -> List[str]:
    """The bench's claims over a study, plus each workload's order sweep."""

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= 1e-9 * max(b, 1.0)

    failures: List[str] = []
    for name in study.workloads:
        ser, gra = (
            next(p for p in study.points if p.workload == name and p.mode == mode)
            for mode in ("serialized", "graph")
        )
        for p in (ser, gra):
            hidden, exposed = p.hidden_transfer_time, p.exposed_transfer_time
            busy = p.transfer_busy_time
            if not close(hidden + exposed, busy):
                failures.append(
                    f"accounting: {name}/{p.mode} hidden+exposed != transfer busy time "
                    f"({hidden:.9f}+{exposed:.9f} vs {busy:.9f})"
                )
        # Both modes issue the identical set of kernels and transfers; the
        # graph merely removes the inter-launch barriers. Transfer *busy*
        # time is therefore conserved across modes, and all the win shows
        # up on the critical path.
        win = ser.time / max(gra.time, 1e-18)
        if win < MIN_MAKESPAN_WIN:
            failures.append(
                f"overlap: {name} graph makespan {gra.time:.6f}s vs serialized "
                f"{ser.time:.6f}s — {win:.2f}x win, need >= {MIN_MAKESPAN_WIN}x"
            )
        if not close(gra.transfer_busy_time, ser.transfer_busy_time):
            failures.append(
                f"conservation: {name} transfer busy time differs across modes "
                f"({ser.transfer_busy_time:.9f}s serialized vs "
                f"{gra.transfer_busy_time:.9f}s graph) — the graph must issue "
                "the same transfers, only earlier"
            )
        graph = study.graph_stats[name]
        fallbacks = study.fallback_launches[name]
        opaque = graph["nonaffine_tasks"], graph["whole_buffer_syncs"]
        if name == "cholesky":
            if not study.cholesky_close:
                failures.append(
                    f"numerics: cholesky deviates from numpy.linalg.cholesky "
                    f"(max abs err {study.cholesky_max_err:.3e})"
                )
            if fallbacks:
                failures.append(
                    f"degrade: cholesky is fully affine but took {fallbacks} fallback launches"
                )
            if any(opaque):
                failures.append("degrade: cholesky graph reports opaque tasks")
        else:
            codes = sorted(graph["diagnostic_codes"])
            if not {"RP701", "RP702"} <= set(codes):
                failures.append(
                    f"degrade: imgpipe opaque stats task emitted {codes}, expected RP701 and RP702"
                )
            if not all(opaque):
                failures.append("degrade: imgpipe graph did not whole-buffer-sync its opaque task")
            if not fallbacks:
                failures.append(
                    "degrade: imgpipe stats kernel did not take the runtime's "
                    "single-GPU fallback path"
                )
        failures += order_sweep(name)
    return failures
