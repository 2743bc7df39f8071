"""The task-graph runtime: dependence derivation and dependency-driven runs.

``TaskGraph`` collects tasks (:mod:`repro.tasks.spec`), lowers their
declared accesses to byte intervals (:mod:`repro.tasks.footprints`), and
derives the dependence edges between tasks the same way the launch
scheduler derives cross-launch edges — by interval intersection:

* **RAW** — an earlier task writes bytes a later task reads,
* **WAR** — an earlier task reads bytes a later task overwrites,
* **WAW** — two tasks write overlapping bytes (program order is kept).

Explicit ``deps=[...]`` entries add control edges on top.  Cycles (which
are constructible through :class:`~repro.tasks.spec.TaskSpace` forward
references) and dangling references raise
:class:`~repro.errors.TaskGraphError`.

Execution turns the graph into a stream of launches against an existing
runtime API.  ``mode="graph"`` executes the graph as *dependence waves*:
every currently-ready task (in deterministic creation-index order) runs as
one wave with *no* inter-task barriers — each body's launches flow through
the normal ``api.launch`` path into the scheduler's executor.  Because any
read/write overlap between two tasks induces an edge, the members of a
wave are provably pairwise footprint-disjoint; the wave id is stamped onto
their launches so the scheduler's dataflow log
(:class:`~repro.sched.executor.DataflowLog`) can let them overlap instead
of conservatively serializing disjoint tiles of one shared buffer.  The
machine keeps cross-wave ordering through the interval-precise dataflow
events, so any topological order is bitwise-identical to
``mode="serialized"``, which runs one task at a time behind a device
barrier — the baseline the ``repro bench taskgraph`` self-checks compare
against.

Non-affine tasks (opaque footprints, ``RP701``) degrade to whole-buffer
synchronization: the graph synchronizes the device before and after the
task's body — the task-level counterpart of the
runtime's whole-buffer plans for unpartitionable kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import make_diagnostic
from repro.analysis.passes import LintReport
from repro.errors import TaskGraphError
from repro.poly.intervals import total_bytes
from repro.tasks.footprints import lower_access
from repro.tasks.spec import _GRAPH_STACK, Task, TaskHandle

__all__ = ["TaskEdge", "TaskGraph", "TaskGraphStats"]

_PASS_NAME = "taskgraph"


@dataclass(frozen=True)
class TaskEdge:
    """One dependence edge between two tasks."""

    src: int  # creation index of the earlier task
    dst: int  # creation index of the later task
    kinds: FrozenSet[str]  # subset of {"RAW", "WAR", "WAW", "control"}
    #: Bytes of footprint overlap behind the edge (0 for pure control edges).
    overlap_bytes: int = 0
    #: True when the overlap involves a non-affine (whole-buffer) footprint.
    opaque: bool = False


@dataclass
class TaskGraphStats:
    """Structural and execution counters of one graph."""

    tasks: int = 0
    edges: int = 0
    edge_kinds: Dict[str, int] = field(default_factory=dict)
    nonaffine_tasks: int = 0
    #: Barrier synchronizations inserted for non-affine tasks (graph mode).
    whole_buffer_syncs: int = 0
    executed: int = 0
    #: Largest simultaneously-ready set seen while scheduling (graph mode).
    ready_peak: int = 0
    #: Dependence waves executed (graph mode; 0 in serialized/order runs).
    waves: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form for the bench payload."""
        return {
            "tasks": self.tasks,
            "edges": self.edges,
            "edge_kinds": dict(sorted(self.edge_kinds.items())),
            "nonaffine_tasks": self.nonaffine_tasks,
            "whole_buffer_syncs": self.whole_buffer_syncs,
            "executed": self.executed,
            "ready_peak": self.ready_peak,
            "waves": self.waves,
        }


class TaskGraph:
    """A data-driven task graph executed against a runtime API."""

    def __init__(self, name: str = "taskgraph") -> None:
        self.name = name
        self.tasks: List[Task] = []
        self.edges: List[TaskEdge] = []
        #: RP701/RP702 findings, rendered with the standard lint renderers.
        self.report = LintReport()
        self.stats = TaskGraphStats()
        #: Task indices by dependence wave, derived by :meth:`finalize`.
        self._waves: List[List[int]] = []
        self._finalized = False

    # -- construction --------------------------------------------------------

    def __enter__(self) -> "TaskGraph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _GRAPH_STACK.pop()

    def add_task(
        self,
        fn: Callable[..., Any],
        *,
        handle: Optional[TaskHandle] = None,
        deps: Sequence[Any] = (),
        reads: Sequence[Any] = (),
        writes: Sequence[Any] = (),
        placement: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Task:
        """Create a task node; see :func:`repro.tasks.spec.task`."""
        label = name or (handle.label if handle is not None else getattr(fn, "__name__", "task"))
        t = Task(
            index=len(self.tasks),
            name=label,
            fn=fn,
            reads=[lower_access(s) for s in reads],
            writes=[lower_access(s) for s in writes],
            deps=tuple(deps),
            placement=placement,
        )
        if handle is not None:
            if handle.task is not None:
                raise TaskGraphError(
                    f"task-space slot {handle.label} is already bound to "
                    f"task #{handle.task.index}"
                )
            handle.task = t
        self.tasks.append(t)
        if t.name not in self.report.kernels:
            self.report.kernels.append(t.name)
        for fp in t.reads + t.writes:
            if not fp.affine:
                self.report.diagnostics.append(
                    make_diagnostic(
                        "RP701",
                        f"task {t.name!r}: {fp.note}; degraded to a "
                        f"whole-buffer footprint of {total_bytes(fp.intervals)} "
                        "bytes with barrier synchronization",
                        kernel=t.name,
                        witness={
                            "task": t.index,
                            "nbytes": total_bytes(fp.intervals),
                            "note": fp.note,
                        },
                        pass_name=_PASS_NAME,
                    )
                )
        self._finalized = False
        return t

    def task(self, handle: Optional[TaskHandle] = None, **kwargs) -> Callable[[Callable], Task]:
        """Decorator form of :meth:`add_task` bound to this graph."""

        def decorate(fn: Callable) -> Task:
            return self.add_task(fn, handle=handle, **kwargs)

        return decorate

    # -- dependence derivation ----------------------------------------------

    def _resolve_dep(self, t: Task, dep: Any) -> Task:
        if isinstance(dep, Task):
            return dep
        if isinstance(dep, TaskHandle):
            if dep.task is None:
                raise TaskGraphError(
                    f"task {t.name!r} depends on unbound slot {dep.label}"
                )
            return dep.task
        if isinstance(dep, str):
            for cand in self.tasks:
                if cand.name == dep:
                    return cand
            raise TaskGraphError(f"task {t.name!r} depends on unknown task {dep!r}")
        raise TaskGraphError(
            f"task {t.name!r}: dependency {dep!r} is not a Task, TaskHandle or name"
        )

    def finalize(self) -> "TaskGraph":
        """Derive all edges and check the graph is executable (acyclic).

        Idempotent; called automatically by :meth:`run`.  Raises
        :class:`~repro.errors.TaskGraphError` for dangling references and
        dependency cycles.
        """
        if self._finalized:
            return self
        self.edges = []
        self.report.diagnostics = [
            d for d in self.report.diagnostics if d.code != "RP702"
        ]
        pairs: Dict[Tuple[int, int], Dict[str, Any]] = {}

        def note(src: int, dst: int, kind: str, nbytes: int, opaque: bool) -> None:
            rec = pairs.setdefault((src, dst), {"kinds": set(), "bytes": 0, "opaque": False})
            rec["kinds"].add(kind)
            rec["bytes"] += nbytes
            rec["opaque"] = rec["opaque"] or opaque

        for t in self.tasks:
            for dep in t.deps:
                src = self._resolve_dep(t, dep)
                if src.index == t.index:
                    raise TaskGraphError(f"task {t.name!r} depends on itself")
                note(src.index, t.index, "control", 0, False)
        # Per buffer, one sweep over every footprint interval in start
        # order. An interval meets exactly the open ones that end after it
        # starts (footprints are normalized when lowered, so a footprint's
        # own intervals never meet): a read is checked against the open
        # writes, a write against every open interval.
        by_buffer: Dict[Any, List[Tuple[int, int, int, bool, bool]]] = {}
        for t in self.tasks:
            for writes, footprints in ((False, t.reads), (True, t.writes)):
                for fp in footprints:
                    runs = by_buffer.setdefault(fp.key, [])
                    runs.extend((lo, hi, t.index, writes, fp.affine) for lo, hi in fp.intervals)
        for runs in by_buffer.values():
            runs.sort(key=lambda run: run[0])
            open_reads: List[Tuple[int, int, int, bool, bool]] = []
            open_writes: List[Tuple[int, int, int, bool, bool]] = []
            for run in runs:
                lo, hi, i, writes, affine = run
                open_writes = [o for o in open_writes if o[1] > lo]
                if writes:
                    open_reads = [o for o in open_reads if o[1] > lo]
                for _, o_hi, j, o_writes, o_affine in (
                    open_reads + open_writes if writes else open_writes
                ):
                    if i != j:
                        (s, s_writes), (d, d_writes) = sorted([(i, writes), (j, o_writes)])
                        kind = "WAW" if s_writes and d_writes else "RAW" if s_writes else "WAR"
                        note(s, d, kind, min(hi, o_hi) - lo, not (affine and o_affine))
                (open_writes if writes else open_reads).append(run)

        for (src, dst), rec in sorted(pairs.items()):
            edge = TaskEdge(
                src, dst, frozenset(rec["kinds"]), rec["bytes"], rec["opaque"]
            )
            self.edges.append(edge)
            if edge.opaque:
                self.report.diagnostics.append(
                    make_diagnostic(
                        "RP702",
                        f"edge {self.tasks[src].name!r} -> "
                        f"{self.tasks[dst].name!r} "
                        f"({'/'.join(sorted(edge.kinds))}) is ordered through "
                        "a conservative whole-buffer footprint",
                        kernel=self.tasks[dst].name,
                        witness={"src": src, "dst": dst, "bytes": edge.overlap_bytes},
                        pass_name=_PASS_NAME,
                    )
                )

        self._waves = self._dependence_waves()
        self.stats.tasks = len(self.tasks)
        self.stats.edges = len(self.edges)
        kinds: Dict[str, int] = {}
        for e in self.edges:
            for k in e.kinds:
                kinds[k] = kinds.get(k, 0) + 1
        self.stats.edge_kinds = kinds
        self.stats.nonaffine_tasks = sum(1 for t in self.tasks if not t.affine)
        self._finalized = True
        return self

    def _dependence_waves(self) -> List[List[int]]:
        """The tasks by dependence wave (Kahn's algorithm, level by level).

        A wave holds every task whose predecessors all ran in earlier
        waves, in creation-index order. Raises on a dependency cycle.
        """
        indegree = [0] * len(self.tasks)
        succs: List[List[int]] = [[] for _ in self.tasks]
        for e in self.edges:
            indegree[e.dst] += 1
            succs[e.src].append(e.dst)
        waves: List[List[int]] = []
        ready = [i for i, d in enumerate(indegree) if d == 0]
        while ready:
            waves.append(ready)
            unlocked: List[int] = []
            for i in ready:
                for nxt in succs[i]:
                    indegree[nxt] -= 1
                    if indegree[nxt] == 0:
                        unlocked.append(nxt)
            ready = sorted(unlocked)
        if sum(map(len, waves)) != len(self.tasks):
            stuck = sorted(i for i, d in enumerate(indegree) if d > 0)
            names = ", ".join(self.tasks[i].name for i in stuck[:4])
            raise TaskGraphError(
                f"dependency cycle through {len(stuck)} task(s): {names}"
                + ("..." if len(stuck) > 4 else "")
            )
        return waves

    # -- execution -----------------------------------------------------------

    def _run_task(self, api, t: Task) -> None:
        # The placement hint applies in *every* mode (it is task metadata,
        # not a scheduling decision), so serialized/graph/order runs build
        # identical partitions and stay bitwise-comparable.
        api._placement_offset = t.placement
        try:
            if not t.affine:
                # Whole-buffer degrade: barrier the machine around the
                # opaque body.
                api.cudaDeviceSynchronize()
                t.fn(api)
                api.cudaDeviceSynchronize()
                self.stats.whole_buffer_syncs += 1
            else:
                t.fn(api)
        finally:
            api._placement_offset = None
        self.stats.executed += 1

    def run(
        self,
        api,
        mode: str = "graph",
        order: Optional[Sequence[Any]] = None,
    ) -> "TaskGraph":
        """Execute every task against ``api``.

        ``mode="graph"`` streams dependence waves (every currently-ready
        task, creation-index order) with no inter-task barriers;
        ``mode="serialized"`` runs one task at a time behind a device
        barrier (the identity baseline).  ``order`` (graph mode only)
        overrides the default wave schedule with an explicit execution
        order, which must be topological — the property test's entry point.
        """
        if mode not in ("graph", "serialized"):
            raise TaskGraphError(f"unknown execution mode {mode!r}")
        self.finalize()
        if order is not None:
            if mode != "graph":
                raise TaskGraphError("an explicit order requires mode='graph'")
            return self._run_in_order(api, order)
        if mode == "serialized":
            for t in self.tasks:
                self._run_task(api, t)
                api.cudaDeviceSynchronize()
            return self
        # A single-device CudaApi keeps no dataflow log and has no waves.
        log = getattr(api, "dataflow", None)
        try:
            for ready in self._waves:
                self.stats.ready_peak = max(self.stats.ready_peak, len(ready))
                self.stats.waves += 1
                # Every member of a wave was ready simultaneously, so any
                # pair is either footprint-disjoint or RAR-only — there is
                # no edge between them by construction. The shared wave id
                # tells the dataflow log their launches may overlap.
                wave = log.new_wave() if log is not None else None
                for i in ready:
                    t = self.tasks[i]
                    # Opaque tasks barrier anyway; keep them wave-less so
                    # their whole-buffer events are never skipped.
                    api._dataflow_wave = wave if t.affine else None
                    self._run_task(api, t)
        finally:
            api._dataflow_wave = None
        return self

    def _run_in_order(self, api, order: Sequence[Any]) -> "TaskGraph":
        indices = []
        for item in order:
            if isinstance(item, Task):
                indices.append(item.index)
            elif isinstance(item, int):
                indices.append(item)
            else:
                raise TaskGraphError(f"order entry {item!r} is not a Task or index")
        if sorted(indices) != list(range(len(self.tasks))):
            raise TaskGraphError(
                "execution order must be a permutation of all tasks"
            )
        position = {idx: pos for pos, idx in enumerate(indices)}
        for e in self.edges:
            if position[e.src] > position[e.dst]:
                raise TaskGraphError(
                    f"execution order violates {'/'.join(sorted(e.kinds))} edge "
                    f"{self.tasks[e.src].name!r} -> {self.tasks[e.dst].name!r}"
                )
        for idx in indices:
            self._run_task(api, self.tasks[idx])
        return self

    # -- introspection -------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Structure + diagnostics digest for reports and the bench JSON."""
        self.finalize()
        return {
            "name": self.name,
            **self.stats.as_dict(),
            "diagnostic_codes": sorted({d.code for d in self.report.diagnostics}),
        }
