"""Cross-launch dataflow analysis: MAIRS-style irredundant transfer sets.

The paper's §6.1 enumerators ship *bounding* per-row ranges, and the §8
tracker (sole-owner mode) forgets every copy a synchronization made — so
iterative applications both re-transfer data the destination already holds
and transfer bytes the kernel provably never reads. This module makes that
waste a first-class polyhedral object, in the spirit of MAIRS (Maximal
Atomic Irredundant Sets; Ferry et al., see PAPERS.md):

* :func:`exact_read_ranges` / :class:`ExactReadOracle` — the *exact* flat
  byte set one partition reads of one array. Each thread-granular raw
  access (the race detector's concretization), restricted to the
  partition's block box, is scanned by a compiled §6 scanner
  (:func:`~repro.poly.codegen.compile_scanner`) and its rows are flattened
  to array elements in numpy. Sound: any failure to model an access
  returns ``None`` and the caller keeps the bounding ranges.
* :func:`analyze_transfers` — replays ``launches`` back-to-back launches of
  one kernel against a real :class:`~repro.runtime.tracker.SegmentTracker`
  (the same planning code the runtime uses) and classifies every would-be
  transfer byte as *required*, *redundant* (destination already holds a
  valid copy) or *over-approximated* (bounding-range slack outside the
  exact read set). The per-array read sets are also decomposed into
  maximal atomic irredundant sets — maximal byte runs with identical
  reader sets (:func:`repro.poly.intervals.atomic_decomposition`).
* :class:`DataflowPass` — an opt-in lint pass surfacing the waste as
  ``RP601`` (redundant re-transfer), ``RP602`` (bounding-range slack) and
  ``RP603`` (false cross-launch serialization from the envelope cap of
  the dataflow log's event runs).
* :func:`runtime_exact_read_ranges` — the runtime hook
  :attr:`~repro.runtime.config.RuntimeConfig.irredundant_transfers` uses to
  trim planned synchronization copies to the exact read set.

The analyzer and the runtime share the planning primitives
(:func:`~repro.runtime.sync.plan_stale_copies_tiered`,
:func:`~repro.runtime.sync.trim_copies`), so their byte counts agree
exactly — ``repro bench redundancy`` cross-checks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.concretize import (
    GID_COORDS,
    UnmodelledAccess,
    concrete_extents,
    concretize_access,
    thread_box_constraints,
)
from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.analysis.passes import AnalysisPass, LaunchContext, register_pass
from repro.compiler.access_analysis import KernelAccessInfo, SymAff
from repro.compiler.enumerators import Enumerator, EnumeratorTable
from repro.compiler.strategy import Partition, choose_strategy
from repro.cuda.dim3 import Dim3
from repro.errors import PolyhedralError
from repro.memo import MISS, Memo
from repro.poly.affine import Aff
from repro.poly.basic_set import BasicSet
from repro.poly.codegen import compile_scanner
from repro.poly.constraint import Constraint
from repro.poly.intervals import (
    Atom,
    atomic_decomposition,
    intersect_intervals,
    normalize_intervals,
    subtract_intervals,
    total_bytes,
)
from repro.poly.space import Space
from repro.runtime.memcpy import linear_chunks
from repro.runtime.sync import plan_stale_copies_tiered, trim_copies
from repro.runtime.tracker import SegmentTracker

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import ClusterSpec

__all__ = [
    "ExactReadOracle",
    "exact_read_ranges",
    "runtime_exact_read_ranges",
    "TransferFlow",
    "DataflowSummary",
    "analyze_transfers",
    "DataflowPass",
]

#: Enumeration budget of one (access, partition) read-set extraction. The
#: oracle gives up (returns None → no trimming) beyond it; lint contexts
#: use functional-size launches, far below the cap.
MAX_READ_POINTS = 200_000
#: Exact read sets one oracle keeps, per (array, partition, launch shape).
EXACT_READ_CAPACITY = 512


# ---------------------------------------------------------------------------
# Exact read sets
# ---------------------------------------------------------------------------


def _partition_box_constraints(
    space: Space,
    coords: Tuple[str, ...],
    partition: Partition,
    block: Dim3,
) -> List[Constraint]:
    """Restrict one copy of the thread coords to the partition's block box."""
    out: List[Constraint] = []
    for axis in ("z", "y", "x"):
        lo, hi = partition.range_of(axis)
        if coords == GID_COORDS:
            bd = block.axis(axis)
            v = Aff.var(space, f"g_{axis}")
            out.append(Constraint.ineq(v - Aff.const(space, lo * bd)))
            out.append(Constraint.ineq(Aff.const(space, hi * bd - 1) - v))
        else:
            v = Aff.var(space, f"bi_{axis}")
            out.append(Constraint.ineq(v - Aff.const(space, lo)))
            out.append(Constraint.ineq(Aff.const(space, hi - 1) - v))
    return out


def _scanned_elements(
    cand: BasicSet,
    dims: Tuple[str, ...],
    indices: Sequence[SymAff],
    extents: Sequence[int],
    strides: Sequence[int],
    max_points: int,
) -> np.ndarray:
    """Flat elements of every point of ``cand``, scanned row by row.

    The compiled scanner emits each row's innermost range; the rows are
    flattened together in numpy. Raises :exc:`PolyhedralError` beyond
    ``max_points`` points, when the scan stops.
    """
    rows: List[Tuple[int, ...]] = []
    los: List[int] = []
    his: List[int] = []
    count = 0

    def emit(row: Tuple[int, ...], lo: int, hi: int) -> None:
        nonlocal count
        count += hi - lo + 1
        if count > max_points:
            raise PolyhedralError("exact read set: too many points")
        rows.append(row)
        los.append(lo)
        his.append(hi)

    compile_scanner(cand)((), emit)
    lo = np.array(los, dtype=np.int64)
    sizes = np.array(his, dtype=np.int64) - lo + 1
    # Each point's row, and its innermost coordinate.
    which = np.repeat(np.arange(len(rows)), sizes)
    inner = np.arange(count, dtype=np.int64) - np.repeat(np.cumsum(sizes) - sizes - lo, sizes)
    outer = np.array(rows, dtype=np.int64).reshape(len(rows), len(dims) - 1)
    flat = np.zeros(count, dtype=np.int64)
    for aff, extent, stride in zip(indices, extents, strides):
        coeffs = dict(aff.terms)
        per_row = aff.const + outer @ np.array([coeffs.get(d, 0) for d in dims[:-1]], dtype=np.int64)
        val = per_row[which] + coeffs.get(dims[-1], 0) * inner
        # Clamp like the runtime's guarded accesses would; phantom
        # out-of-range points (approximate domains) only widen the kept
        # set — still sound.
        flat += np.minimum(np.maximum(val, 0), extent - 1) * stride
    return flat


def exact_read_ranges(
    info: KernelAccessInfo,
    array: str,
    extents: Sequence[int],
    elem_size: int,
    partition: Partition,
    grid: Dim3,
    block: Dim3,
    scalars: Mapping[str, int],
    *,
    max_points: int = MAX_READ_POINTS,
) -> Optional[List[Tuple[int, int]]]:
    """Exact flat byte ranges ``partition`` reads of ``array``, or ``None``.

    Every read raw access of the array is concretized (the race detector's
    machinery) and restricted to the partition's block box. Each non-empty
    convex piece is scanned by its compiled scanner, which visits exactly
    the piece's integer points as per-row innermost ranges; the rows'
    subscripts are evaluated in numpy, flattened row-major, and the
    distinct cells merged into runs. A piece with more than ``max_points``
    points, or an unbounded one, returns ``None``. The result
    over-approximates the true read set only through
    approximate *domains* (dropped non-affine guards) — never under: any
    access that cannot be modelled at all makes the whole oracle return
    ``None``, and the caller keeps the untrimmed bounding ranges. Sound by
    construction for :func:`~repro.runtime.sync.trim_copies`.
    """
    if partition.is_empty:
        return []
    reads = [
        raw
        for raw in info.raw_accesses
        if raw.mode == "read" and raw.array == array
    ]
    chunks: List[np.ndarray] = []
    strides = [1] * len(extents)
    for d in range(len(extents) - 2, -1, -1):
        strides[d] = strides[d + 1] * extents[d + 1]
    n_elems = strides[0] * extents[0] if extents else 0
    for raw in reads:
        if raw.indices is None:
            return None
        try:
            acc = concretize_access(raw, info.kernel, grid, block, scalars)
        except UnmodelledAccess:
            return None
        dims = acc.coords + acc.iterators
        space = Space.set_space(dims, ())
        base = thread_box_constraints(space, acc.coords, grid, block)
        base += _partition_box_constraints(space, acc.coords, partition, block)
        for conj in acc.domain or ((),):
            cons = base + [
                Constraint(kind, aff.to_aff(space).vec) for kind, aff in conj
            ]
            cand = BasicSet(space, cons)
            if cand.is_empty():
                continue
            try:
                chunks.append(
                    _scanned_elements(cand, dims, acc.indices, extents, strides, max_points)
                )
            except PolyhedralError:
                return None
    elements = np.unique(np.concatenate(chunks)) if chunks else []
    if n_elems and len(elements) > n_elems:  # pragma: no cover - safety net
        return None
    if not len(elements):
        return []
    # Half-open runs of consecutive elements.
    cuts = np.flatnonzero(np.diff(elements) != 1) + 1
    starts = elements[np.r_[0, cuts]] * elem_size
    ends = (elements[np.r_[cuts - 1, -1]] + 1) * elem_size
    return list(zip(starts.tolist(), ends.tolist()))


class ExactReadOracle:
    """Memoized :func:`exact_read_ranges` for one kernel's access info."""

    def __init__(self, info: KernelAccessInfo, *, max_points: int = MAX_READ_POINTS):
        self.info = info
        self.max_points = max_points
        self._cache = Memo("exact_read", EXACT_READ_CAPACITY)

    def read_ranges(
        self,
        array: str,
        extents: Sequence[int],
        elem_size: int,
        partition: Partition,
        grid: Dim3,
        block: Dim3,
        scalars: Mapping[str, int],
        *,
        audit: bool = False,
    ) -> Optional[List[Tuple[int, int]]]:
        """The memoized answer; ``audit`` recomputes it on a hit and raises
        :exc:`~repro.errors.MemoAuditError` if the two differ."""
        key = (
            array,
            tuple(extents),
            elem_size,
            partition.as_tuple(),
            grid,
            block,
            tuple(sorted(scalars.items())),
        )
        cached = self._cache.get(key)
        if cached is MISS or audit:
            fresh = exact_read_ranges(
                self.info, array, extents, elem_size, partition, grid, block, scalars,
                max_points=self.max_points,
            )
            if cached is MISS:
                self._cache.put(key, fresh)
                return fresh
            self._cache.audit(key, cached, fresh)
        return cached


def runtime_exact_read_ranges(
    api,
    info: KernelAccessInfo,
    enum: Enumerator,
    partition: Partition,
    grid: Dim3,
    block: Dim3,
    scalars: Mapping[str, int],
    shape: Sequence[int],
    elem_size: int,
) -> Optional[List[Tuple[int, int]]]:
    """The runtime's entry point: exact read byte ranges, or ``None``.

    An *exact* enumerator image emits exact per-row ranges already (each
    convex piece is row-contiguous), so there is no slack to trim and the
    enumeration cost is skipped. The api holds one oracle per kernel —
    iterative applications re-ask for identical partitions every launch.
    """
    if enum.exact:
        return None
    return api.exact_reads[info.kernel.name].read_ranges(
        enum.array, tuple(shape), elem_size, partition, grid, block, scalars,
        audit=api.config.debug_audit,
    )


# ---------------------------------------------------------------------------
# Cross-launch transfer simulation
# ---------------------------------------------------------------------------


@dataclass
class TransferFlow:
    """Transfer classification for one (launch, array, destination)."""

    launch: int
    array: str
    gpu: int
    #: Bytes actually transferred (after sharer skips and trimming).
    required: int = 0
    #: Bytes a sole-owner tracker would have re-transferred (destination
    #: already holds a valid copy).
    redundant: int = 0
    redundant_inter: int = 0
    #: Bounding-range slack bytes outside the exact read set.
    overapprox: int = 0
    overapprox_inter: int = 0
    #: Byte ranges behind the counts (envelope witnesses for diagnostics).
    transferred_ranges: List[Tuple[int, int]] = field(default_factory=list)
    redundant_ranges: List[Tuple[int, int]] = field(default_factory=list)
    slack_ranges: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class DataflowSummary:
    """Result of :func:`analyze_transfers` for one kernel."""

    kernel: str
    n_gpus: int
    launches: int
    irredundant: bool
    flows: List[TransferFlow] = field(default_factory=list)
    #: MAIRS decomposition of each read array's per-partition read sets.
    atoms: Dict[str, List[Atom]] = field(default_factory=dict)
    #: Arrays the simulation had to skip (symbolic extents).
    unmodelled: List[str] = field(default_factory=list)
    #: Read arrays whose exact read set could not be computed (no trimming).
    inexact_arrays: List[str] = field(default_factory=list)

    def total(self, name: str) -> int:
        """Sum of one counter over every launch."""
        return sum(getattr(f, name) for f in self.flows)

    def steady(self, name: str) -> int:
        """Sum of one counter over the final (steady-state) launch."""
        last = self.launches - 1
        return sum(getattr(f, name) for f in self.flows if f.launch == last)

    def steady_flows(self) -> List[TransferFlow]:
        last = self.launches - 1
        return [f for f in self.flows if f.launch == last]


def analyze_transfers(
    info: KernelAccessInfo,
    *,
    n_gpus: int,
    launches: int,
    grid: Dim3,
    block: Dim3,
    scalars: Mapping[str, int],
    irredundant: bool = False,
    cluster: Optional["ClusterSpec"] = None,
    oracle: Optional[ExactReadOracle] = None,
    enums: Optional[EnumeratorTable] = None,
) -> DataflowSummary:
    """Replay ``launches`` identical launches and classify transfer bytes.

    The model is the runtime's own: a linear host-to-device distribution
    initializes one :class:`SegmentTracker` per read array, each launch
    plans every partition's synchronization copies in device order with
    :func:`plan_stale_copies_tiered` (registering the destination as a
    sharer of every copied range, as ``shared_copies`` mode does), then
    marks the write sets. With ``irredundant`` the planned copies are
    trimmed to the exact read set first — exactly the
    ``irredundant_transfers`` runtime path. Byte counts therefore match
    the runtime's ``RunStats`` counters for the same schedule of launches.

    ``redundant`` counts what a *sole-owner* tracker would have
    re-transferred; ``overapprox`` counts bounding-range slack (only
    non-zero with ``irredundant``, which is when it is measured).
    ``cluster`` is the runtime's topology, by default one node of
    ``n_gpus`` GPUs.
    """
    summary = DataflowSummary(
        kernel=info.kernel.name,
        n_gpus=n_gpus,
        launches=launches,
        irredundant=irredundant,
    )
    from repro.cluster.partition import hierarchical_partitions
    from repro.cluster.topology import ClusterSpec

    # The runtime's split: node intervals first, then per-GPU ranges.
    cluster = cluster or ClusterSpec.single_node(n_gpus)
    parts = hierarchical_partitions(choose_strategy(info), grid, cluster)
    enums = enums or EnumeratorTable.build(info)
    arrays = {p.name: p for p in info.kernel.array_params}
    oracle = oracle or ExactReadOracle(info)

    read_enums = enums.for_kernel(info.kernel.name, "read")
    write_enums = enums.for_kernel(info.kernel.name, "write")

    # Per-array byte model: extents, element size, tracker, read byte ranges
    # per partition (launch-invariant for identical launches).
    trackers: Dict[str, SegmentTracker] = {}
    meta: Dict[str, Tuple[Tuple[int, ...], int]] = {}
    read_ranges: Dict[str, Dict[int, List[Tuple[int, int]]]] = {}
    for enum in read_enums:
        try:
            extents = concrete_extents(arrays[enum.array], scalars)
        except UnmodelledAccess:
            summary.unmodelled.append(enum.array)
            continue
        elem = arrays[enum.array].dtype.size
        nbytes = elem
        for e in extents:
            nbytes *= e
        meta[enum.array] = (extents, elem)
        tracker = SegmentTracker(nbytes)
        for dev_idx, lo, hi in linear_chunks(nbytes, n_gpus):
            tracker.update(lo, hi, dev_idx)
        trackers[enum.array] = tracker
        per_part: Dict[int, List[Tuple[int, int]]] = {}
        for gpu, part in enumerate(parts):
            ranges, _ = enum.element_ranges(part, block, grid, scalars, extents)
            per_part[gpu] = [(lo * elem, hi * elem) for lo, hi in ranges]
        read_ranges[enum.array] = per_part
        summary.atoms[enum.array] = atomic_decomposition(per_part)

    for launch in range(launches):
        # Synchronization phase: plan (and apply sharer registration) in
        # device order — the sequential runtime's Figure-4 orchestration.
        for enum in read_enums:
            if enum.array not in trackers:
                continue
            tracker = trackers[enum.array]
            extents, elem = meta[enum.array]
            for gpu, part in enumerate(parts):
                ranges = read_ranges[enum.array][gpu]
                if not ranges:
                    continue
                flow = TransferFlow(launch=launch, array=enum.array, gpu=gpu)
                segments = tracker.query_many(list(ranges))
                flow.redundant_ranges = normalize_intervals(
                    (s.start, s.end)
                    for s in segments
                    if gpu in s.holders and s.owner != gpu
                )
                copies, avoided, avoided_inter = plan_stale_copies_tiered(
                    segments, gpu, cluster
                )
                flow.redundant = avoided
                flow.redundant_inter = avoided_inter
                if irredundant and copies:
                    keep = oracle.read_ranges(
                        enum.array, extents, elem, part, grid, block, scalars
                    ) if not enum.exact else None
                    if keep is None and not enum.exact:
                        if enum.array not in summary.inexact_arrays:
                            summary.inexact_arrays.append(enum.array)
                    if keep is not None:
                        planned = [(s.start, s.end) for s in copies]
                        copies, over, over_inter = trim_copies(
                            copies, keep, gpu, cluster
                        )
                        flow.overapprox = over
                        flow.overapprox_inter = over_inter
                        flow.slack_ranges = subtract_intervals(planned, keep)
                for seg in copies:
                    flow.required += seg.nbytes
                    flow.transferred_ranges.append((seg.start, seg.end))
                    tracker.add_sharer(seg.start, seg.end, gpu)
                summary.flows.append(flow)
        # Update phase: every partition's writes invalidate sharer copies.
        for enum in write_enums:
            if enum.array not in trackers:
                continue
            tracker = trackers[enum.array]
            extents, elem = meta[enum.array]
            for gpu, part in enumerate(parts):
                ranges, _ = enum.element_ranges(part, block, grid, scalars, extents)
                byte_rngs = [(lo * elem, hi * elem) for lo, hi in ranges]
                if byte_rngs:
                    tracker.update_many(byte_rngs, gpu)
    return summary


# ---------------------------------------------------------------------------
# The lint pass
# ---------------------------------------------------------------------------


def _envelope(ranges: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    return (min(lo for lo, _ in ranges), max(hi for _, hi in ranges))


@register_pass
class DataflowPass(AnalysisPass):
    """Cross-launch transfer waste: RP601/RP602/RP603.

    Opt-in (``default = False``): the pass models a multi-launch multi-GPU
    execution, which only makes sense when the caller provides a launch
    context sized for it (``repro lint --dataflow``).
    """

    name = "dataflow"
    default = False

    def run(self, info: KernelAccessInfo, launch: LaunchContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        if not info.partitionable or launch.n_gpus < 2 or not info.reads:
            return diags
        # The multi-launch transfer model needs concrete values for every
        # scalar parameter (enumerators substitute them per launch); a lint
        # context without them (e.g. tile-offset kernels driven by a task
        # graph) has no meaningful launch sequence to replay — skip.
        if any(p.name not in launch.scalars for p in info.kernel.scalar_params):
            return diags
        oracle = ExactReadOracle(info)
        enums = EnumeratorTable.build(info)
        common = dict(
            n_gpus=launch.n_gpus,
            launches=max(2, launch.launches),
            grid=launch.grid,
            block=launch.block,
            scalars=launch.scalars,
            oracle=oracle,
            enums=enums,
        )
        if not launch.irredundant:
            base = analyze_transfers(info, irredundant=False, **common)
            diags += self._redundancy_diags(info, base)
            trimmed = analyze_transfers(info, irredundant=True, **common)
            diags += self._overapprox_diags(info, trimmed)
        diags += self._serialization_diags(info, launch, enums)
        return diags

    # -- RP601 ---------------------------------------------------------------

    def _redundancy_diags(
        self, info: KernelAccessInfo, base: DataflowSummary
    ) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for flow in base.steady_flows():
            if flow.redundant <= 0:
                continue
            lo, hi = _envelope(flow.redundant_ranges)
            atoms = base.atoms.get(flow.array, [])
            shared = sum(a.nbytes for a in atoms if a.multiplicity > 1)
            diags.append(
                make_diagnostic(
                    "RP601",
                    f"every launch re-transfers {flow.redundant} bytes of "
                    f"{flow.array!r} to partition {flow.gpu} although it "
                    "already holds a valid copy (sole-owner tracking "
                    "forgets synchronization copies)",
                    kernel=info.kernel.name,
                    array=flow.array,
                    witness={
                        "partition": flow.gpu,
                        "lo": lo,
                        "hi": hi,
                        "bytes": flow.redundant,
                        "launch": flow.launch,
                        "shared_read_bytes": shared,
                    },
                    pass_name=self.name,
                )
            )
        return diags

    # -- RP602 ---------------------------------------------------------------

    def _overapprox_diags(
        self, info: KernelAccessInfo, trimmed: DataflowSummary
    ) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for flow in trimmed.steady_flows():
            if flow.overapprox <= 0:
                continue
            lo, hi = _envelope(flow.slack_ranges)
            diags.append(
                make_diagnostic(
                    "RP602",
                    f"bounding-range enumeration ships {flow.overapprox} "
                    f"slack bytes of {flow.array!r} to partition {flow.gpu} "
                    "per launch that the partition provably never reads",
                    kernel=info.kernel.name,
                    array=flow.array,
                    witness={
                        "partition": flow.gpu,
                        "lo": lo,
                        "hi": hi,
                        "bytes": flow.overapprox,
                        "launch": flow.launch,
                    },
                    pass_name=self.name,
                )
            )
        return diags

    # -- RP603 ---------------------------------------------------------------

    def _serialization_diags(
        self,
        info: KernelAccessInfo,
        launch: LaunchContext,
        enums: EnumeratorTable,
    ) -> List[Diagnostic]:
        """Envelope capping creating write->read edges the exact sets refute.

        The scheduler's :class:`~repro.sched.executor.DataflowLog` keys
        events by :func:`~repro.sched.graph.merge_event_ranges`-compressed
        intervals; past the run cap the ranges collapse to their envelope.
        Between two adjacent identical launches, a reader whose *capped*
        ranges overlap a writer's capped ranges waits on it even when the
        exact (uncapped) ranges are disjoint — a false serialization.
        """
        from repro.sched.graph import merge_event_ranges

        diags: List[Diagnostic] = []
        strategy = choose_strategy(info)
        parts = strategy.partitions(launch.grid, launch.n_gpus)
        arrays = {p.name: p for p in info.kernel.array_params}
        for array in sorted(set(info.reads) & set(info.writes)):
            renum = enums.get(info.kernel.name, array, "read")
            wenum = enums.get(info.kernel.name, array, "write")
            if renum is None or wenum is None:
                continue
            try:
                extents = concrete_extents(arrays[array], launch.scalars)
            except UnmodelledAccess:
                continue
            elem = arrays[array].dtype.size

            def byte_rngs(enum: Enumerator, part: Partition) -> List[Tuple[int, int]]:
                ranges, _ = enum.element_ranges(
                    part, launch.block, launch.grid, launch.scalars, extents
                )
                return [(lo * elem, hi * elem) for lo, hi in ranges]

            reads = [byte_rngs(renum, p) for p in parts]
            writes = [byte_rngs(wenum, p) for p in parts]
            capped_r = [merge_event_ranges(r) for r in reads]
            capped_w = [merge_event_ranges(w) for w in writes]
            for q in range(launch.n_gpus):
                if not reads[q]:
                    continue
                phantom: List[Tuple[int, int]] = []
                for p in range(launch.n_gpus):
                    if not writes[p]:
                        continue
                    if intersect_intervals(reads[q], writes[p]):
                        continue  # a true dependency; capping is harmless
                    phantom += intersect_intervals(capped_r[q], capped_w[p])
                phantom = normalize_intervals(phantom)
                if not phantom:
                    continue
                lo, hi = _envelope(phantom)
                diags.append(
                    make_diagnostic(
                        "RP603",
                        f"partition {q}'s capped read envelope of {array!r} "
                        "overlaps writes its exact ranges never touch; the "
                        "scheduler's dataflow log serializes independent "
                        f"launches over {total_bytes(phantom)} phantom bytes",
                        kernel=info.kernel.name,
                        array=array,
                        witness={
                            "partition": q,
                            "lo": lo,
                            "hi": hi,
                            "bytes": total_bytes(phantom),
                        },
                        pass_name=self.name,
                    )
                )
        return diags
