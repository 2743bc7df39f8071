"""Per-launch task DAG construction.

The paper's Figure 4 host code is barrier-structured: synchronize *all*
read buffers, barrier, launch every partition, update every tracker. But
the information the generated enumerators produce is strictly finer than a
barrier needs — each kernel partition depends only on the transfers that
feed *its own* read set. This module turns one kernel launch into an
explicit task DAG:

* one :class:`TransferTask` per stale tracker segment of one partition's
  read set (source = owning device, destination = the partition's device),
* one :class:`KernelTask` per non-empty grid partition, with edges to
  exactly the transfer tasks feeding its reads,
* one :class:`WriteUpdate` per (partition, written array) — host-side
  tracker bookkeeping, ordered exactly as Figure 4's third loop so the
  final tracker state is bit-identical to the sequential orchestration.

Building the plan performs the same enumerator scans and tracker queries
Figure 4's loops would, in the same order — the host-side *cost* of each
step is recorded on the task and charged by the executor at issue time, so
the ``sequential`` policy reproduces the paper's host-time evolution
exactly while ``overlap`` merely re-orders device work.

Construction is staged: everything that depends only on the *launch
fingerprint* (partition intervals, enumerated read/write byte ranges,
merged event runs, DAG shape) lives in a :class:`PlanSkeleton` built by
:func:`build_plan_skeleton` and cacheable across launches, while the
tracker-dependent residual — which stale segments actually need copying —
is a buffer-free :class:`ResidualRecord`. One materialiser turns
``(skeleton, buffer binding, record)`` into plan nodes; its two feeders
differ only in where the record comes from: :func:`instantiate_plan`
derives it from the live trackers, :func:`instantiate_plan_replay` takes a
memoized one. The unstaged :func:`build_launch_plan` composes fingerprint,
skeleton and live residual and remains the single-call entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.compiler.enumerators import Enumerator
from repro.compiler.pipeline import CompiledKernel
from repro.compiler.strategy import Partition
from repro.cuda.api import resolve_array_shapes, split_launch_args
from repro.cuda.dim3 import Dim3
from repro.memo import Memo
from repro.runtime.fingerprint import launch_fingerprint
from repro.runtime.sync import byte_ranges, plan_stale_copies_tiered, trim_copies
from repro.runtime.vbuffer import VirtualBuffer

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.api import MultiGpuApi

__all__ = [
    "merge_event_ranges",
    "TransferTask",
    "ReadSync",
    "KernelTask",
    "WriteUpdate",
    "LaunchPlan",
    "ReadScan",
    "WriteScan",
    "SkeletonPartition",
    "PlanSkeleton",
    "ResidualRecord",
    "REPLAY_PLAN_BINDINGS",
    "launch_partitions",
    "build_plan_skeleton",
    "instantiate_plan",
    "instantiate_plan_replay",
    "replay_query_counts",
    "build_launch_plan",
]


def launch_partitions(api: "MultiGpuApi", ck: CompiledKernel, grid: Dim3) -> List[Partition]:
    """The grid partitions one launch uses, in global-device order.

    The split is hierarchical — node intervals first, then per-GPU ranges
    within each node (``repro.cluster.partition``) — so only partition
    seams at node boundaries exchange halos across the network. A flat
    node is the 1-node cluster, whose split is the flat balanced one.
    """
    from repro.cluster.partition import hierarchical_partitions

    parts = hierarchical_partitions(ck.strategy, grid, api.cluster)
    # Placement hint (task-graph frontend): rotate the partition->device
    # mapping so partition 0 lands on the hinted device. A tile-sized
    # launch (one partition) then runs *on* its task's device instead of
    # always device 0 — the trackers make data follow the writes, so tile
    # ownership distributes across the machine. Pure relabeling of which
    # device runs which partition: functional results and tracker state
    # are device-id-keyed and identical under every rotation-consistent
    # mode (the hint is task metadata, applied in every execution mode).
    offset = api._placement_offset
    if offset:
        k = offset % len(parts)
        parts = parts[-k:] + parts[:-k]
    return parts


def merge_event_ranges(
    ranges: List[Tuple[int, int]], cap: int = 64
) -> List[Tuple[int, int]]:
    """Sorted byte ranges compressed into contiguous runs for dataflow events.

    The :class:`~repro.sched.executor.DataflowLog` keys events by byte
    interval; a stencil's thousands of per-row ranges would make every
    event query linear in that count. Adjacent/overlapping ranges merge
    into runs, and more than ``cap`` runs collapse to their envelope — a
    conservative (sound) over-approximation of the accessed bytes.
    """
    runs: List[Tuple[int, int]] = []
    for lo, hi in ranges:
        if lo >= hi:
            continue
        if runs and lo <= runs[-1][1]:
            if hi > runs[-1][1]:
                runs[-1] = (runs[-1][0], hi)
        else:
            runs.append((lo, hi))
    if len(runs) > cap:
        runs = [(runs[0][0], runs[-1][1])]
    return runs


@dataclass
class TransferTask:
    """One coalesced stale-segment copy feeding one partition's reads."""

    node: int
    gpu: int  # destination device
    owner: int  # source device (the nearest valid copy per the tracker)
    vb: VirtualBuffer
    array: str
    start: int  # byte offsets into the virtual buffer
    end: int

    @property
    def nbytes(self) -> int:
        return self.end - self.start


@dataclass
class ReadSync:
    """One read-enumerator evaluation for one partition (Fig. 4 lines 3-7)."""

    gpu: int
    array: str
    vb: VirtualBuffer
    enum: Optional[Enumerator]  # None in a fallback plan
    ranges: List[Tuple[int, int]]  # byte ranges of the partition's read set
    emitted: int  # raw enumerator callback count (host-cost driver)
    n_segments: int  # tracker segments returned by the query
    #: Bytes a sole-owner tracker would have re-transferred but the sharer
    #: set proved already valid on the destination (§8.3 redundancy).
    avoided: int = 0
    #: The share of ``avoided`` whose re-transfer would have crossed the
    #: cluster's node fabric (sole-owner source on another node).
    avoided_inter: int = 0
    #: Bounding-range slack bytes trimmed off the planned copies by the
    #: irredundant-transfer path (provably never read by the partition).
    overapprox: int = 0
    overapprox_inter: int = 0
    #: The planned copies that cross the node fabric, and their bytes.
    inter_transfers: int = 0
    inter_bytes: int = 0
    transfers: List[TransferTask] = field(default_factory=list)


@dataclass
class KernelTask:
    """One partition of the kernel on one device."""

    node: int
    gpu_idx: int
    gpu: int
    part: Partition
    transfer_deps: List[int] = field(default_factory=list)  # TransferTask nodes
    #: (buffer, contiguous byte runs) accessed by this partition — the
    #: interval-keyed dataflow events the executor records and waits on.
    reads: List[Tuple[VirtualBuffer, List[Tuple[int, int]]]] = field(default_factory=list)
    writes: List[Tuple[VirtualBuffer, List[Tuple[int, int]]]] = field(default_factory=list)


@dataclass
class WriteUpdate:
    """Tracker bookkeeping for one partition's writes (Fig. 4 lines 22-25)."""

    gpu: int
    array: str
    vb: VirtualBuffer
    enum: Optional[Enumerator]
    ranges: List[Tuple[int, int]]
    emitted: int


@dataclass
class LaunchPlan:
    """The task DAG of one kernel launch."""

    ck: CompiledKernel
    grid: Dim3
    block: Dim3
    by_name: Mapping[str, object]
    scalars: Mapping[str, int]
    shapes: Mapping[str, Sequence[int]]
    parts: List[Partition]
    #: Launch fingerprint (repro.runtime.fingerprint) of the skeleton this
    #: plan was instantiated from.
    fingerprint: tuple
    #: True for a single-GPU fallback plan: its one kernel task runs the
    #: unmodified kernel over the whole grid (see PlanSkeleton.fallback).
    fallback: bool = False
    #: Per non-empty partition (in device order): its read-enumerator syncs.
    reads: List[List[ReadSync]] = field(default_factory=list)
    kernels: List[KernelTask] = field(default_factory=list)
    #: Per non-empty partition (in device order): its tracker updates.
    updates: List[List[WriteUpdate]] = field(default_factory=list)
    #: Lowered simulated issue per policy, filled on first issue
    #: (repro.sched.executor.issue_plan_sim). Derived from the fields above
    #: (and the api's halo-first order), so it takes no part in plan equality.
    issue_programs: Dict[object, tuple] = field(
        default_factory=dict, compare=False, repr=False
    )
    #: ``schedule="auto"``'s (transfer, compute) seconds estimate, filled on
    #: first use (repro.sched.policy.estimate_plan_times); derived like the
    #: issue programs, so it takes no part in plan equality either.
    estimate: Optional[Tuple[float, float]] = field(default=None, compare=False, repr=False)

    @property
    def transfers(self) -> List[TransferTask]:
        return [t for syncs in self.reads for rs in syncs for t in rs.transfers]

    def edges(self) -> List[Tuple[int, int]]:
        """(transfer node -> kernel node) dependency edges."""
        return [(dep, k.node) for k in self.kernels for dep in k.transfer_deps]

    def validate(self) -> None:
        """Structural invariants (tests): edges are intra-device and acyclic.

        Transfer nodes are numbered before the kernel node of the same
        partition, so every edge goes from a lower to a higher node id —
        the DAG is acyclic by construction; this re-checks it, plus that a
        kernel only ever waits for transfers into *its own* device.
        """
        transfers = {t.node: t for t in self.transfers}
        for k in self.kernels:
            for dep in k.transfer_deps:
                t = transfers[dep]
                if t.gpu != k.gpu:
                    raise AssertionError(
                        f"kernel on gpu {k.gpu} depends on transfer into gpu {t.gpu}"
                    )
                if dep >= k.node:
                    raise AssertionError(f"edge {dep} -> {k.node} is not topological")


@dataclass
class ReadScan:
    """Tracker-independent scan of one read enumerator for one partition.

    A fallback skeleton's whole-buffer scans have ``enum=None``: no
    enumerator ran and no exact read set trims them.
    """

    enum: Optional[Enumerator]
    array: str
    elem_size: int
    #: Byte ranges of the partition's read set. Shared by every plan
    #: instantiated from the skeleton; treated as immutable downstream.
    ranges: List[Tuple[int, int]]
    emitted: int
    #: ``merge_event_ranges(ranges)`` — the dataflow-event runs.
    event_runs: List[Tuple[int, int]]


@dataclass
class WriteScan:
    """Tracker-independent scan of one write enumerator for one partition.

    ``ranges is None`` encodes the γ configuration (tracking disabled): no
    enumerators ran and the write conservatively covers the whole buffer.
    ``enum is None`` marks a fallback skeleton's whole-buffer write.
    """

    enum: Optional[Enumerator]
    array: str
    ranges: Optional[List[Tuple[int, int]]]
    emitted: int
    event_runs: Optional[List[Tuple[int, int]]]


@dataclass
class SkeletonPartition:
    """One non-empty grid partition's scans within a plan skeleton."""

    gpu_idx: int
    gpu: int
    part: Partition
    reads: List[ReadScan]
    writes: List[WriteScan]


@dataclass
class PlanSkeleton:
    """The tracker-independent half of a launch plan, cacheable per fingerprint.

    Everything here is a pure function of the launch fingerprint: the
    partition list, each partition's enumerated read/write byte ranges and
    merged event runs, and the implicit DAG shape (scan order fixes node
    numbering). What it deliberately does *not* contain: buffer bindings,
    tracker query results, stale-segment copies — the per-launch residual
    :func:`instantiate_plan` derives against live tracker state.
    """

    fingerprint: tuple
    ck: CompiledKernel
    grid: Dim3
    block: Dim3
    scalars: Mapping[str, int]
    shapes: Mapping[str, Sequence[int]]
    parts: List[Partition]
    #: True for the single-GPU fallback (repro.runtime.launch.launch_fallback):
    #: the compiler rejected the kernel, or runtime coverage validation
    #: rejected this launch shape, so the one partition is the whole grid
    #: on device 0 and every scan covers a whole buffer.
    fallback: bool = False
    partitions: List[SkeletonPartition] = field(default_factory=list)
    #: Lazily-computed per-array read-footprint envelopes (see
    #: :attr:`read_footprints`); fingerprint-determined, so caching on the
    #: skeleton is sound.
    _read_footprints: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def read_footprints(self) -> Tuple[Tuple[str, Tuple[Tuple[int, int], ...]], ...]:
        """Per-array union envelope of every partition's read event runs.

        ``((array, ((lo, hi), ...)), ...)`` sorted by array name, each runs
        tuple merged to at most the dataflow-event cap. Every byte any
        read scan of this skeleton can query lies inside its array's
        envelope, so equal tracker digests over these envelopes imply equal
        ``query_many`` results for every scan — the domain the residual
        replay cache digests. A pure function of the fingerprint (scan
        ranges are), computed once per skeleton and ~64 runs per array, so
        the per-launch digest stays O(segments-in-footprint).
        """
        if self._read_footprints is None:
            by_array: Dict[str, List[Tuple[int, int]]] = {}
            for sp in self.partitions:
                for scan in sp.reads:
                    by_array.setdefault(scan.array, []).extend(scan.event_runs)
            self._read_footprints = tuple(
                (array, tuple(merge_event_ranges(sorted(runs))))
                for array, runs in sorted(by_array.items())
            )
        return self._read_footprints


#: Buffer bindings whose fully-built plans one ResidualRecord keeps (a
#: ping-pong loop needs two; the bound only guards binding churn).
REPLAY_PLAN_BINDINGS = 8


@dataclass(frozen=True)
class ResidualRecord:
    """The tracker-dependent half of one launch's plan.

    One entry per read scan, in skeleton partition/scan order:
    ``(copies, n_segments, avoided, avoided_inter, overapprox,
    overapprox_inter, inter_transfers, inter_bytes)`` where ``copies`` is
    the final (source-picked, trimmed) stale-copy list as
    ``(start, end, src)`` byte tuples and the last two count the copies
    that cross the node fabric.
    Deliberately *buffer-free* — no VirtualBuffer references — so a
    ping-pong loop's alternating buffer bindings replay the same record;
    materialising a plan rebinds live buffers through the launch's
    ``by_name`` mapping.

    ``plans`` additionally memoizes the fully-built :class:`LaunchPlan` per
    concrete buffer binding (tuple of array vb_ids): the executor treats
    plans as read-only, so a recurring (fingerprint, digest, binding)
    triple resubmits the identical plan object with zero construction work.
    Buffer ids are monotone, so a freed buffer's binding never recurs.
    """

    scans: Tuple[
        Tuple[Tuple[Tuple[int, int, int], ...], int, int, int, int, int, int, int], ...
    ]
    plans: Memo = field(
        default_factory=lambda: Memo("replay_binding", REPLAY_PLAN_BINDINGS),
        repr=False, compare=False,
    )


def build_plan_skeleton(
    api: "MultiGpuApi",
    ck: CompiledKernel,
    grid: Dim3,
    block: Dim3,
    scalars: Mapping[str, int],
    *,
    fingerprint: tuple,
    validate: bool = False,
    stats=None,
) -> PlanSkeleton:
    """Build the fingerprint-determined half of one launch's plan.

    Runs the enumerator scans (vectorized where possible) but touches no
    tracker. A kernel the compiler rejected gets the single-GPU fallback
    skeleton of :func:`~repro.runtime.launch.launch_fallback`. With
    ``validate=True`` the staged launch path's checks run here too:
    unit-axis extents raise :class:`PartitioningError` *before* anything is
    cached, and a failed runtime-coverage validation also returns the
    fallback skeleton — both are fingerprint-determined, so caching their
    outcome is sound. ``stats`` (the launch path passes the
    api's ``RunStats``) counts each enumerator scan;
    the default None keeps direct plan construction stats-pure.
    """
    from repro.runtime.launch import launch_fallback

    kernel = ck.kernel
    shapes = resolve_array_shapes(kernel, scalars)
    if not ck.partitionable:
        return launch_fallback(api, ck, grid, block, scalars, shapes, fingerprint)
    if validate:
        for axis in ck.model.unit_axes:
            if grid.axis(axis) * block.axis(axis) != 1:
                from repro.errors import PartitioningError

                raise PartitioningError(
                    f"kernel {kernel.name!r}: injectivity proof requires grid axis "
                    f"{axis!r} to have unit extent, launch uses "
                    f"{grid.axis(axis)}x{block.axis(axis)}"
                )
    parts = launch_partitions(api, ck, grid)
    skel = PlanSkeleton(fingerprint, ck, grid, block, scalars, shapes, parts)
    if validate and ck.model.runtime_coverage:
        from repro.compiler.coverage import coverage_validates

        for access in ck.info.writes.values():
            if access.exact:
                continue
            spec = access.coverage
            ok = spec is not None and all(
                coverage_validates(spec, part, block, grid)
                for part in parts
                if not part.is_empty
            )
            if not ok:
                return launch_fallback(api, ck, grid, block, scalars, shapes, fingerprint)

    read_enums = api.app.enumerators.for_kernel(kernel.name, "read")
    write_enums = api.app.enumerators.for_kernel(kernel.name, "write")
    tracking = api.config.tracking_enabled
    audit = api.config.debug_audit
    for gpu_idx, part in enumerate(parts):
        if part.is_empty:
            continue
        gpu = api.devices[gpu_idx].device_id
        reads: List[ReadScan] = []
        writes: List[WriteScan] = []
        if tracking:
            for enum in read_enums:
                elem_size = kernel.param(enum.array).dtype.size
                ranges, emitted = byte_ranges(
                    enum, part, block, grid, scalars, shapes[enum.array],
                    elem_size, stats=stats, audit=audit,
                )
                reads.append(
                    ReadScan(
                        enum, enum.array, elem_size, ranges, emitted,
                        merge_event_ranges(ranges),
                    )
                )
            for enum in write_enums:
                elem_size = kernel.param(enum.array).dtype.size
                ranges, emitted = byte_ranges(
                    enum, part, block, grid, scalars, shapes[enum.array],
                    elem_size, stats=stats, audit=audit,
                )
                writes.append(
                    WriteScan(enum, enum.array, ranges, emitted, merge_event_ranges(ranges))
                )
        else:
            # γ configuration: no enumerators run; order conservatively on
            # the whole buffer of every written array.
            for enum in write_enums:
                writes.append(WriteScan(enum, enum.array, None, 0, None))
        skel.partitions.append(SkeletonPartition(gpu_idx, gpu, part, reads, writes))
    return skel


def _materialise_plan(
    skel: PlanSkeleton, by_name: Mapping[str, object], record: ResidualRecord
) -> LaunchPlan:
    """Plan nodes from a skeleton, a buffer binding and a residual record.

    The only constructor of plan nodes. Pure bookkeeping: no tracker is
    touched and nothing is charged — host costs are charged later by the
    executor, per policy, from the emit/segment counts carried on the
    nodes. Node numbering — transfers of each partition, then its kernel —
    follows skeleton scan order, so it is the same whichever launch built
    the skeleton and wherever the record came from.
    """
    plan = LaunchPlan(
        skel.ck, skel.grid, skel.block, by_name, skel.scalars, skel.shapes,
        skel.parts, skel.fingerprint, skel.fallback,
    )
    next_node = 0
    entries = iter(record.scans)

    for sp in skel.partitions:
        syncs: List[ReadSync] = []
        transfer_nodes: List[int] = []
        reads_vbs: List[Tuple[VirtualBuffer, List[Tuple[int, int]]]] = []
        for scan in sp.reads:
            vb = by_name[scan.array]
            copies, *counts = next(entries)
            rs = ReadSync(sp.gpu, scan.array, vb, scan.enum, scan.ranges, scan.emitted, *counts)
            for start, end, src in copies:
                task = TransferTask(
                    next_node, sp.gpu, src, vb, scan.array, start, end
                )
                next_node += 1
                rs.transfers.append(task)
                transfer_nodes.append(task.node)
            syncs.append(rs)
            reads_vbs.append((vb, scan.event_runs))
        plan.reads.append(syncs)

        ktask = KernelTask(next_node, sp.gpu_idx, sp.gpu, sp.part)
        next_node += 1
        ktask.transfer_deps = transfer_nodes
        ktask.reads = reads_vbs
        plan.kernels.append(ktask)

        ups: List[WriteUpdate] = []
        for scan in sp.writes:
            vb = by_name[scan.array]
            if scan.ranges is None:
                ktask.writes.append((vb, [(0, vb.nbytes)]))
            else:
                ups.append(
                    WriteUpdate(
                        sp.gpu, scan.array, vb, scan.enum, scan.ranges, scan.emitted
                    )
                )
                ktask.writes.append((vb, scan.event_runs))
        plan.updates.append(ups)

    return plan


def instantiate_plan(
    api: "MultiGpuApi", skel: PlanSkeleton, by_name: Mapping[str, object]
) -> Tuple[LaunchPlan, ResidualRecord]:
    """The live residual: ``(plan, record)`` against current tracker state.

    Derives the :class:`ResidualRecord` the way Figure 4's first loop
    resolves dependencies — per partition and read scan, one tracker
    ``query_many``, stale-copy planning with nearest-source selection and,
    under ``irredundant_transfers``, trimming to the exact read set — then
    materialises it. The trackers are only *queried*, and all queries
    happen before any of this launch's updates. The record is what the
    replay cache memoizes.
    """
    cluster = api.cluster
    irredundant = api.config.irredundant_transfers
    scans: List[tuple] = []
    for sp in skel.partitions:
        for scan in sp.reads:
            segments = by_name[scan.array].tracker.query_many(scan.ranges)
            copies, avoided, avoided_inter = plan_stale_copies_tiered(
                segments, sp.gpu, cluster
            )
            overapprox = overapprox_inter = 0
            # Whole-buffer scans (no enumerator) have no exact read set.
            if irredundant and copies and scan.enum is not None:
                from repro.analysis.dataflow import runtime_exact_read_ranges

                keep = runtime_exact_read_ranges(
                    api, skel.ck.info, scan.enum, sp.part, skel.grid,
                    skel.block, skel.scalars, skel.shapes[scan.array],
                    scan.elem_size,
                )
                if keep is not None:
                    copies, overapprox, overapprox_inter = trim_copies(
                        copies, keep, sp.gpu, cluster
                    )
            inter = [seg.nbytes for seg in copies if not cluster.same_node(seg.owner, sp.gpu)]
            scans.append(
                (
                    tuple((seg.start, seg.end, seg.owner) for seg in copies),
                    len(segments), avoided, avoided_inter,
                    overapprox, overapprox_inter, len(inter), sum(inter),
                )
            )
    record = ResidualRecord(tuple(scans))
    return _materialise_plan(skel, by_name, record), record


def instantiate_plan_replay(
    skel: PlanSkeleton, by_name: Mapping[str, object], record: ResidualRecord
) -> LaunchPlan:
    """The recorded residual: a plan from a memoized record, no tracker queries.

    The replay-cache hit path. Sound because the cache key's footprint
    digest was recomputed against the live trackers this launch: equal
    digests mean ``query_many`` + ``plan_stale_copies_tiered``
    (+ ``trim_copies``) *would have* produced this record. Buffer
    identities are rebound through ``by_name``, so a ping-pong loop's
    alternating bindings replay one record. The per-range ``op_counts``
    charge of ``query_many`` is mirrored so tracker accounting stays
    bit-identical with replay on or off.
    """
    replay_query_counts(skel, by_name)
    return _materialise_plan(skel, by_name, record)


def replay_query_counts(skel: PlanSkeleton, by_name: Mapping[str, object]) -> None:
    """Mirror ``query_many``'s per-range op charge for a replayed launch.

    A replay serves every tracker answer from the memoized record, but the
    logical dependency-resolution queries still happened from the host
    program's point of view — the cost model and `op_counts` accounting
    must be bit-identical with the replay cache on or off. ``query_many``
    early-returns before counting on empty range lists, hence the guard.
    """
    for sp in skel.partitions:
        for scan in sp.reads:
            if scan.ranges:
                by_name[scan.array].tracker.op_counts["query"] += len(scan.ranges)


def build_launch_plan(
    api: "MultiGpuApi", ck: CompiledKernel, grid: Dim3, block: Dim3, args: Sequence[object]
) -> LaunchPlan:
    """Build the per-launch DAG from the enumerators and tracker queries.

    Composes :func:`~repro.runtime.fingerprint.launch_fingerprint`,
    :func:`build_plan_skeleton` and :func:`instantiate_plan` without
    consulting any cache — the uncached path the staged launcher (and every
    property test) measures the cached path against.
    """
    by_name, scalars = split_launch_args(ck.kernel, args)
    shapes = resolve_array_shapes(ck.kernel, scalars)
    key = launch_fingerprint(api, ck, grid, block, scalars, shapes)
    skel = build_plan_skeleton(api, ck, grid, block, scalars, fingerprint=key)
    return instantiate_plan(api, skel, by_name)[0]
