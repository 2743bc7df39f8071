"""Issue a launch plan onto the (simulated) machine, per policy.

The executor walks one :class:`~repro.sched.graph.LaunchPlan` through the
three loops of the paper's Figure 4 — synchronize read sets, launch
partitions, update write trackers — twice, because none of the bookkeeping
touches the machine:

* :func:`apply_plan_functional`, at submit time, does the **functional**
  work (stats, numpy segment copies, sharer registrations, interpreter
  kernel runs, tracker updates) — identical byte-for-byte in every policy,
  in the same host order, which is what makes the three policies
  bitwise-equivalent;
* :func:`issue_plan_sim`, right after it, does the **simulated** work
  (host pattern charges, transfer issues, the barrier, kernel launches) —
  where the policies differ:

  - ``sequential`` replays Figure 4 exactly: barrier-coupled transfers
    (:meth:`SimMachine.transfer`), a global device barrier, then the
    kernel launches;
  - ``overlap`` drops the barrier and issues transfers on the copy
    engines (:meth:`SimMachine.stream_transfer`) gated only by dataflow
    events, and each kernel partition waits only for the transfers
    feeding *its* read set;
  - ``overlap+p2p`` additionally routes device-to-device copies over
    direct peer DMA instead of staging them through host memory.

  The simulated half is decided by the plan and the policy alone, so it is
  lowered once (:func:`lower_issue_program`) into a flat tuple of
  plain-data ops memoized on the plan — copy routes, dataflow keys and
  trace columns resolved — and every later issue of the same plan, every
  replayed launch of a steady loop, runs that tuple in one pass: the host
  clock in a local, the copies placed on the machine's lanes, the
  dataflow records scanned in place and the intervals appended to the
  trace in bulk.

:func:`submit_plan` runs the two halves back to back for every launch, as
the paper's host code drains every launch (Figure 4).

Cross-launch dependencies are carried by :class:`DataflowLog`: per
(virtual buffer, device instance) it remembers the latest completion
event that wrote or read each *byte* of that instance, exactly, as the
paper's tracker (§8.1) remembers each byte's newest copy. A transfer out
of an instance must wait for the kernel that produced those bytes (RAW); a
transfer into an instance must wait for the last reader/writer of the
overwritten bytes (WAR/WAW). Keying events by byte instead of whole
buffer means non-overlapping writes to the same instance never falsely
serialize — e.g. two partitions' halo copies into disjoint rows of one
neighbour's buffer proceed concurrently, and so do the launches of
disjoint tiles of one shared buffer, however many records the instance
holds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.constants import HOST
from repro.cuda.exec.interpreter import AccessTrace, run_kernel
from repro.cuda.ir.kernel import ArrayParam, ScalarParam, partition_field_name
from repro.errors import MemoAuditError, PartitioningError, RuntimeApiError, SimulationError
from repro.runtime.vbuffer import VirtualBuffer
from repro.sched.graph import (
    KernelTask,
    LaunchPlan,
    ReadSync,
    TransferTask,
    merge_event_ranges,
)
from repro.sched.policy import (
    SchedulePolicy,
    auto_schedule_name,
    estimate_plan_times,
    select_policy,
)
from repro.sim.engine import _place
from repro.sim.trace import Category

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import ClusterSpec
    from repro.runtime.api import MultiGpuApi

__all__ = [
    "DataflowLog",
    "apply_plan_functional",
    "lower_issue_program",
    "issue_plan_sim",
    "submit_plan",
]

_Key = Tuple[int, int]
_Event = Tuple[int, int, float]
#: Indices of the write and read tables in :attr:`DataflowLog._tables`.
_W, _R = 0, 1


class DataflowLog:
    """Latest read/write completion event per (buffer, device, byte).

    Each table maps ``(vb_id, dev)`` to a list of ``(lo, hi, event)``
    records, exact per byte: a byte's latest event is the max event over
    the records covering it. Noting ``[lo, hi)`` at ``event`` drops or
    clips every overlapping record whose event is not later, keeping only
    its parts outside ``[lo, hi)``, then appends the new record; a later
    record stays whole, since it still holds its bytes' latest event. A
    query is the max event over the records overlapping it, so it never
    sees an event of a byte outside its interval. A single-GPU fallback
    plan's whole-buffer scans arrive as one full-range record per array.
    """

    def __init__(self) -> None:
        self._write: Dict[_Key, List[_Event]] = {}
        self._read: Dict[_Key, List[_Event]] = {}
        self._tables = (self._write, self._read)  # by _W, _R

    @staticmethod
    def _note(
        table: Dict[_Key, List[_Event]], key: _Key, lo: int, hi: int, event: float
    ) -> None:
        if lo >= hi:
            return
        records = table.get(key)
        if records is None:
            table[key] = [(lo, hi, event)]
            return
        # In place: a clipped record keeps its left part in its slot, and
        # its right part is appended, to be visited (and kept) by this loop.
        n = 0
        for r in records:
            l, h, e = r
            if h <= lo or l >= hi or e > event:
                records[n] = r
                n += 1
                continue
            if l < lo:
                records[n] = (l, lo, e)
                n += 1
            if h > hi:
                records.append((hi, h, e))
        del records[n:]
        records.append((lo, hi, event))

    def _latest(self, t: float, queries: Sequence[Tuple[int, _Key, int, int]]) -> float:
        """The latest of ``t`` and the events the ``(table, key, lo, hi)``
        queries see: the records under ``key`` overlapping ``[lo, hi)``."""
        tables = self._tables
        for table, key, lo, hi in queries:
            for l, h, e in tables[table].get(key, ()):
                if e > t and l < hi and h > lo:
                    t = e
        return t

    def note_write(self, vb_id: int, dev: int, lo: int, hi: int, event: float) -> None:
        self._note(self._write, (vb_id, dev), lo, hi, event)

    def note_read(self, vb_id: int, dev: int, lo: int, hi: int, event: float) -> None:
        self._note(self._read, (vb_id, dev), lo, hi, event)

    def write_event(self, vb_id: int, dev: int, lo: int, hi: int) -> float:
        """Event after which the newest data in ``[lo, hi)`` is ready (RAW)."""
        return self._latest(0.0, ((_W, (vb_id, dev), lo, hi),))  # events are >= 0

    def instance_free(self, vb_id: int, dev: int, lo: int, hi: int) -> List[float]:
        """Events after which ``[lo, hi)`` may be overwritten (WAR + WAW)."""
        return [
            self._latest(0.0, ((_R, (vb_id, dev), lo, hi),)),
            self._latest(0.0, ((_W, (vb_id, dev), lo, hi),)),
        ]

    def copy_deps(self, vb_id: int, src: int, dst: int, lo: int, hi: int) -> List[float]:
        """Dependency events of one stale-segment copy of ``[lo, hi)``, ``src`` -> ``dst``.

        :meth:`write_event` on the source plus :meth:`instance_free` on the
        destination, queried directly.
        """
        return [
            self._latest(0.0, ((_W, (vb_id, src), lo, hi),)),
            self._latest(0.0, ((_R, (vb_id, dst), lo, hi),)),
            self._latest(0.0, ((_W, (vb_id, dst), lo, hi),)),
        ]


def apply_plan_functional(api: "MultiGpuApi", plan: LaunchPlan) -> None:
    """The submit-time half of one launch: everything but the machine.

    Figure 4's three loops as bookkeeping: per partition, account each
    read-enumerator evaluation and copy its stale segments (lines 2-8,
    registering the destination as a sharer); interpret every partition
    (lines 10-19); mark each partition's write set in the trackers (lines
    21-26, in partition order, so the final tracker state never depends on
    the schedule). *No* simulated-machine interaction — no host charges, no
    device ops; :func:`issue_plan_sim` issues those.
    """
    share = api.config.shared_copies and api.config.transfers_enabled
    # Copied ranges per (buffer, destination), registered as sharers in one
    # splice each once every copy is applied: registration is a set union
    # per byte, so its order cannot change the tracker.
    shared: Dict[Tuple[int, int], Tuple[VirtualBuffer, List[Tuple[int, int]]]] = {}
    if api.config.tracking_enabled:
        for syncs in plan.reads:
            for rs in syncs:
                api.stats.enumerator_calls += 1
                api.stats.ranges_emitted += rs.emitted
                api.stats.tracker_ops += len(rs.ranges)
                api.stats.tracker_query_ops += len(rs.ranges)
                api.stats.redundant_bytes_avoided += rs.avoided
                api.stats.redundant_bytes_avoided_inter += rs.avoided_inter
                api.stats.overapprox_bytes_avoided += rs.overapprox
                api.stats.overapprox_bytes_avoided_inter += rs.overapprox_inter
                api.stats.inter_node_transfers += rs.inter_transfers
                api.stats.inter_node_bytes += rs.inter_bytes
                for t in rs.transfers:
                    api.stats.sync_transfers += 1
                    api.stats.sync_bytes += t.nbytes
                    if api.functional and api.config.transfers_enabled:
                        t.vb.bytes_on(t.gpu)[t.start : t.end] = t.vb.bytes_on(t.owner)[
                            t.start : t.end
                        ]
                    if share:
                        shared.setdefault((t.vb.vb_id, t.gpu), (t.vb, []))[1].append(
                            (t.start, t.end)
                        )
        for (_, gpu), (vb, ranges) in shared.items():
            vb.tracker.add_sharer_many(ranges, gpu)
            api.stats.tracker_share_ops += len(ranges)

    for ktask in plan.kernels:
        if api.functional:
            _run_partition(api, plan, ktask)
        if plan.fallback:
            api.stats.fallback_launches += 1
        else:
            api.stats.partition_launches += 1

    if api.config.tracking_enabled:
        for ups in plan.updates:
            for up in ups:
                api.stats.enumerator_calls += 1
                api.stats.ranges_emitted += up.emitted
                api.stats.tracker_ops += len(up.ranges)
                api.stats.tracker_update_ops += len(up.ranges)
                api.stats.tracker_invalidate_ops += up.vb.tracker.update_many(
                    up.ranges, up.gpu
                )
        if api.config.debug_audit:
            # The replay cache's "equal digests => equal answers" rests on
            # maximally coalesced segments: check every tracker touched.
            touched = dict.fromkeys(
                [t.vb.tracker for syncs in plan.reads for rs in syncs for t in rs.transfers]
                + [up.vb.tracker for ups in plan.updates for up in ups]
            )
            for tracker in touched:
                tracker.check_invariants()


# -- the simulated half: lower once, run per launch ------------------------------

#: Op tags of an issue program: the first field of every op.
#:
#: * ``(_CHARGE, seconds)`` — host work: a pattern charge, or a call's
#:   issue or barrier overhead;
#: * ``(_STREAM_COPY, src, dst, lo, hi, route, queries, notes)`` — a copy on
#:   the copy engines gated by its dataflow ``queries``
#:   (:meth:`SimMachine.stream_transfer`), and ``_COPY`` alike, a
#:   barrier-era copy that waits for its devices instead
#:   (:meth:`SimMachine.transfer`). ``route`` is
#:   :meth:`SimMachine._copy_route`'s, None for an empty copy; ``queries``
#:   and ``notes`` are ``(table, key, lo, hi)`` dataflow queries and records;
#: * ``(_SYNC,)`` — the global device barrier;
#: * ``(_KERNEL, gpu, n_blocks, dep_slots, queries, notes)`` — a partition
#:   launch; ``dep_slots`` index the copies it waits for and ``queries``
#:   its dataflow gating (both empty without ``overlap``);
#: * ``(_GANG_SYNC, n_nodes, copy_nodes, groups, tail)`` — per-node barriers
#:   on a multi-node cluster, always the last op before ``_TRACE``:
#:   ``copy_nodes`` holds the endpoint nodes of each copy in issue order,
#:   ``groups`` one ``(node, program)`` per node, issued in barrier-event
#:   order, and ``tail`` the program issued after them;
#: * ``(_TRACE, resources, categories, labels, tagged)`` — always last: the
#:   constant trace columns of the intervals the program records, in record
#:   order; ``tagged`` is 1 where an interval carries the launch index.
#:
#: Copy completion events are numbered in issue order: copy ``i`` of a
#: program is event slot ``i``.
_CHARGE, _COPY, _STREAM_COPY, _SYNC, _KERNEL, _GANG_SYNC, _TRACE = range(7)

IssueProgram = Tuple[tuple, ...]


class _Emitter:
    """An issue program under construction: its ops, and the trace row
    ``(resource, category, label, tagged)`` of each interval they record."""

    def __init__(self) -> None:
        self.ops: List[tuple] = []
        self.rows: List[tuple] = []

    def host(self, seconds: float, label="patterns", category=Category.PATTERNS) -> None:
        """Host work: an interval only when it takes time."""
        if seconds > 0:
            self.ops.append((_CHARGE, seconds))
            self.rows.append(("host", category, label, 0))

    def overhead(self, seconds: float, label: str) -> None:
        """A call's host overhead; negative fails, as the call itself would."""
        if seconds < 0:
            raise SimulationError("negative host_compute duration")
        self.host(seconds, label, Category.HOST)

    def device(self, op: tuple, resource: Optional[str], category: Category, label: str) -> None:
        """A device op, and its interval on ``resource`` unless that is None."""
        self.ops.append(op)
        if resource is not None:
            self.rows.append((resource, category, label, 1))

    def program(self) -> IssueProgram:
        columns = tuple(map(tuple, zip(*self.rows))) or ((),) * 4
        return tuple(self.ops) + ((_TRACE,) + columns,)


#: Halo-first reordering applies only when the node-crossing copies are a
#: *minority* of the plan's transfer bytes. The priority targets seam
#: exchanges (a thin halo ahead of a fat interior); when most traffic
#: crosses nodes anyway — e.g. an all-to-all broadcast — there is no
#: interior worth backfilling and hoisting the whole network leg only
#: delays the intra-node copies it was meant to overlap with.
HALO_MAJORITY_RATIO = 0.5


def halo_first_order(
    plan: LaunchPlan, cluster: "ClusterSpec"
) -> Optional[List[Tuple[ReadSync, TransferTask]]]:
    """The plan's (read sync, copy) pairs halo-first, or None for plan order.

    Three issue tiers, plan order kept within each:

    * tier 0 — inter-node copies (they occupy the scarce NIC/fabric tier,
      and a seam partition of the *next* launch blocks on them; ``HOST``
      sits on the head node, so H2D traffic into a remote node is one too);
    * tier 1 — node-seam feeders: intra-node copies overlapping the merged
      byte runs of their buffer's tier-0 copies (e.g. the intra-node leg of
      a seam exchange);
    * tier 2 — interior copies, which can backfill any remaining lane gaps.

    None when every copy sits in one tier or when tier 0 carries at least
    :data:`HALO_MAJORITY_RATIO` of the plan's copy bytes.
    """
    pairs = [(rs, t) for syncs in plan.reads for rs in syncs for t in rs.transfers]
    halo = [not cluster.same_node(t.owner, t.gpu) for _, t in pairs]
    runs: Dict[int, List[Tuple[int, int]]] = {}
    for (_, t), crosses in zip(pairs, halo):
        if crosses:
            runs.setdefault(t.vb.vb_id, []).append((t.start, t.end))
    runs = {vb_id: merge_event_ranges(sorted(r)) for vb_id, r in runs.items()}
    tiers = [
        0 if crosses
        else 1 if any(lo < t.end and hi > t.start for lo, hi in runs.get(t.vb.vb_id, ()))
        else 2
        for (_, t), crosses in zip(pairs, halo)
    ]
    if len(set(tiers)) <= 1:
        return None
    total = sum(t.nbytes for _, t in pairs)
    crossing = sum(t.nbytes for (_, t), tier in zip(pairs, tiers) if tier == 0)
    if total == 0 or crossing >= HALO_MAJORITY_RATIO * total:
        return None
    # Stable sort: within a tier the plan order is preserved.
    order = sorted(range(len(pairs)), key=tiers.__getitem__)
    return [pairs[i] for i in order]


def lower_issue_program(
    api: "MultiGpuApi", plan: LaunchPlan, policy: SchedulePolicy
) -> IssueProgram:
    """One plan's simulated issue under ``policy`` as a flat op tuple.

    Figure 4's three loops on the simulated machine, in issue order: per
    partition, the setup and read-enumerator pattern charges with each
    stale-segment copy issued behind its charge (lines 2-8) and, under a
    ``barrier`` policy, the device barrier; per partition, the setup charge
    and the kernel launch (lines 10-19); per partition, the update-phase
    pattern charges (lines 21-26), which run on the host concurrently with
    the asynchronous kernels.

    With ``pipeline_window > 1`` the copies issue in
    :func:`halo_first_order` when it gives one (on a multi-node cluster
    whose halo is a minority of the bytes): the per-read-sync pattern
    charges are then batched ahead of the reordered copies. Plans live in
    their api's residual memo, and the cluster and window belong to the
    api, so whether an order exists is fixed per plan object.

    Everything the issue depends on but the machine's state is decided
    here — charges, copy routes, dataflow keys, which copies each kernel
    waits for, the trace columns — and every check on them runs here, so
    the program holds plain data only; a machine-less runtime issues
    nothing and lowers to ``()``.
    """
    machine = api.machine
    if machine is None:
        return ()
    spec = machine.spec
    config = api.config
    emit = _Emitter()
    # Transfer node -> event slot, for the copies actually issued.
    slots: Dict[int, int] = {}
    share_cost = spec.tracker_op_cost if config.shared_copies and config.tracking_enabled else 0.0
    p2p = True if policy.p2p and policy.overlap else None

    def read_sync(rs: ReadSync) -> None:
        # One aggregated host interval covering: the enumerator call, the
        # per-emitted-range callback work, and one tracker query per range.
        emit.host(
            spec.enumerator_call_cost
            + spec.per_range_cost * rs.emitted
            + spec.tracker_op_cost * max(len(rs.ranges), rs.n_segments)
        )

    def copy(rs: ReadSync, t: TransferTask) -> None:
        if not config.transfers_enabled:
            return
        slots[t.node] = len(slots)
        label = f"sync:{rs.array}"
        lo, hi = t.start, t.end
        src, dst = (t.vb.vb_id, t.owner), (t.vb.vb_id, t.gpu)
        route = machine._copy_route(t.owner, t.gpu, hi - lo, p2p, label)
        if hi == lo:
            route = None  # an empty copy records no interval
        emit.overhead(spec.issue_overhead, f"issue:{label}")
        # Dataflow events are noted under every policy, so that an overlap
        # launch of an adaptive (auto) run sees the copies its sequential
        # predecessor issued; only an overlap copy waits for them: RAW on
        # the source, WAR and WAW on the destination.
        queries = ((_W, src, lo, hi), (_R, dst, lo, hi), (_W, dst, lo, hi))
        notes = ((_R, src, lo, hi), (_W, dst, lo, hi))
        kind = _STREAM_COPY if policy.overlap else _COPY
        op = (kind, t.owner, t.gpu, lo, hi, route, queries, notes)
        emit.device(op, route[2] if route else None, Category.TRANSFERS, label)
        # The sharer registration itself happened at submit; its tracker-op
        # host charge belongs here, right after the copy's issue.
        emit.host(share_cost)

    gang = None
    if config.tracking_enabled:
        order = None
        if config.pipeline_window > 1:
            order = halo_first_order(plan, api.cluster)
        for syncs in plan.reads:
            emit.host(spec.partition_setup_cost)
            for rs in syncs:
                read_sync(rs)
                if order is None:
                    for t in rs.transfers:
                        copy(rs, t)
        for rs, t in order or ():
            copy(rs, t)
        if policy.barrier:
            if api.cluster.n_nodes == 1:
                emit.overhead(spec.sync_overhead, "sync")  # all_devs_synchronize()
                emit.ops.append((_SYNC,))
            else:
                gang = api.cluster

    ck = plan.ck
    label = ck.kernel.name if plan.fallback else ck.partitioned.name

    def kernel(ktask: KernelTask, emit: _Emitter) -> None:
        gpu = ktask.gpu
        machine._check_dev(gpu)
        reads = [((vb.vb_id, gpu), lo, hi) for vb, runs in ktask.reads for lo, hi in runs]
        writes = [((vb.vb_id, gpu), lo, hi) for vb, runs in ktask.writes for lo, hi in runs]
        notes = tuple((_R, *r) for r in reads) + tuple((_W, *w) for w in writes)
        deps = queries = ()
        if policy.overlap:
            deps = tuple(slots[n] for n in ktask.transfer_deps if n in slots)
            # RAW on what it reads, WAR and WAW on what it writes.
            queries = tuple((_W, *r) for r in reads)
            queries += tuple((t, *w) for w in writes for t in (_R, _W))
        emit.host(spec.partition_setup_cost)
        emit.overhead(spec.issue_overhead, f"issue:{label}")
        op = (_KERNEL, gpu, ktask.part.n_blocks, deps, queries, notes)
        emit.device(op, f"gpu{gpu}", Category.APPLICATION, label)

    tail = emit
    if gang is None:
        for ktask in plan.kernels:
            kernel(ktask, emit)
    else:
        # On a multi-node cluster the barrier is per node: each node's gang
        # waits for its own resources to drain plus this plan's copies that
        # touch the node, so one node's interior copies do not hold up the
        # other nodes' kernels. Nodes issue in barrier-event order, decided
        # when the program runs. Partitions write disjoint ranges (and CUDA
        # gives no cross-block write order anyway), so reordering across
        # nodes cannot change functional results.
        groups: Dict[int, _Emitter] = {}
        for ktask in plan.kernels:
            kernel(ktask, groups.setdefault(gang.node_of(ktask.gpu), _Emitter()))
        by_node = {t.node: t for t in plan.transfers}
        copy_nodes = tuple(
            tuple({gang.endpoint_node(by_node[n].owner), gang.endpoint_node(by_node[n].gpu)})
            for n in slots
        )
        # One host-side barrier charge, exactly as the global path pays.
        emit.overhead(spec.sync_overhead, "gang-sync")
        tail = _Emitter()

    if config.tracking_enabled:
        for ups in plan.updates:
            tail.host(spec.partition_setup_cost)
            for up in ups:
                tail.host(
                    spec.enumerator_call_cost
                    + spec.per_range_cost * up.emitted
                    + spec.tracker_op_cost * len(up.ranges)
                )
    if gang is not None:
        programs = tuple((node, group.program()) for node, group in groups.items())
        emit.ops.append((_GANG_SYNC, gang.n_nodes, copy_nodes, programs, tail.program()))
    return emit.program()


def _run_issue_program(
    api: "MultiGpuApi",
    plan: LaunchPlan,
    program: IssueProgram,
    launch: Optional[int],
    events: List[float],
) -> None:
    """Issue one lowered program onto the machine in one pass.

    The host clock and the intervals' starts and ends are locals; copies
    are placed on the machine's lanes (:func:`~repro.sim.engine._place`),
    dataflow records scanned and noted in place, and the intervals
    appended to the trace in one step. Every float is the one the
    machine's per-op calls would compute, in the same order. ``events``
    collects the copies' completion events by slot.
    """
    machine = api.machine
    host, dev_avail, lanes = machine.host_time, machine._dev_avail, machine._lanes
    log = api.dataflow
    tables, latest, note = log._tables, log._latest, log._note
    kernel_cost = api.kernel_cost
    kernel, block, scalars = plan.ck.kernel, plan.block, plan.scalars
    starts, ends = [], []
    begin, finish = starts.append, ends.append
    gang = None
    for op in program:
        kind = op[0]
        if kind == _CHARGE:
            begin(host)
            host += op[1]
            finish(host)
        elif kind == _STREAM_COPY or kind == _COPY:
            _, src, dst, _, _, route, queries, notes = op
            t = host
            if kind == _STREAM_COPY:
                t = latest(t, queries)
            else:  # barrier-era: the endpoints' compute queues must drain
                for dev in (src, dst):
                    if dev != HOST and dev_avail[dev] > t:
                        t = dev_avail[dev]
            if route is None:  # an empty copy completes at its issue
                end = host
            else:
                duration, route_lanes, _, what = route
                start, end = _place(lanes, route_lanes, t, duration, what)
                begin(start)
                finish(end)
            for table, key, lo, hi in notes:
                note(tables[table], key, lo, hi, end)
            events.append(end)
        elif kind == _KERNEL:
            _, gpu, n_blocks, dep_slots, queries, notes = op
            duration = 0.0
            if kernel_cost is not None:
                # Cost the *original* kernel: the partition clone only adds
                # loop-invariant offset arithmetic that any real backend
                # hoists (the paper measures a median 2.1 % single-GPU
                # slowdown, i.e. the clone itself is not slower).
                duration = kernel_cost(kernel, n_blocks, block, scalars)
                if duration < 0:
                    raise SimulationError("negative kernel duration")
            t = max(host, dev_avail[gpu])
            for slot in dep_slots:
                if events[slot] > t:
                    t = events[slot]
            if queries:
                t = latest(t, queries)
            end = t + duration
            dev_avail[gpu] = end
            begin(t)
            finish(end)
            for table, key, lo, hi in notes:
                note(tables[table], key, lo, hi, end)
        elif kind == _SYNC:
            host = max(host, *dev_avail, *[lane.avail for lane in lanes])
        elif kind == _GANG_SYNC:
            gang = op
    _, resources, categories, labels, tagged = program[-1]
    # ``tagged`` holds 0 (host work: no launch) or 1 (a device op) per interval.
    launches = list(map((None, launch).__getitem__, tagged))
    machine.trace.extend(resources, starts, ends, categories, labels, launches)
    machine.host_time = host
    if gang is not None:
        _, n_nodes, copy_nodes, groups, tail = gang
        barriers = [machine.node_resource_avail(n) for n in range(n_nodes)]
        # Completion events, not lane occupancies: a cross-node copy's
        # per-resource busy windows (NIC, bus) can end before the copy's
        # full duration does.
        for end, nodes in zip(events, copy_nodes):
            for n in nodes:
                if end > barriers[n]:
                    barriers[n] = end
        for node, group in sorted(groups, key=lambda g: (barriers[g[0]], g[0])):
            machine.host_time = max(machine.host_time, barriers[node])
            _run_issue_program(api, plan, group, launch, events)
        _run_issue_program(api, plan, tail, launch, events)


def issue_plan_sim(
    api: "MultiGpuApi",
    plan: LaunchPlan,
    policy: SchedulePolicy,
    *,
    launch: Optional[int] = None,
) -> None:
    """The simulated half of one launch: host charges + device ops.

    Issues the plan's program (:func:`lower_issue_program`) for ``policy``,
    lowering it on the plan's first issue under that policy: a replayed
    plan is the same object every iteration, so a steady loop lowers once
    and only runs afterwards. ``launch`` tags every device op for
    per-launch trace attribution.
    """
    program = plan.issue_programs.get(policy)
    if program is None:
        program = plan.issue_programs[policy] = lower_issue_program(api, plan, policy)
    elif api.config.debug_audit:
        fresh = lower_issue_program(api, plan, policy)
        if fresh != program:
            raise MemoAuditError(
                f"plan of kernel {plan.ck.kernel.name!r} served a stale issue "
                f"program for schedule {policy.name!r}"
            )
    if program:
        _run_issue_program(api, plan, program, launch, [])


def submit_plan(api: "MultiGpuApi", plan: LaunchPlan) -> None:
    """Run one launch: its functional half, then its simulated issue.

    Under ``schedule="auto"`` the policy is chosen per launch from the
    plan's transfer/compute estimate (:func:`estimate_plan_times`) and
    counted in ``RunStats.auto_choices``.
    """
    apply_plan_functional(api, plan)
    policy = api.policy
    if api.auto_schedule:
        policy = select_policy(auto_schedule_name(*estimate_plan_times(api, plan)))
        api.stats.auto_choices[policy.name] = api.stats.auto_choices.get(policy.name, 0) + 1
    issue_plan_sim(api, plan, policy, launch=api._launch_index)


def _audit_write_scan(api: "MultiGpuApi", plan: LaunchPlan, part, trace) -> None:
    """Debug audit: scanned write sets must equal the executed writes.

    Runs only under ``RuntimeConfig.debug_audit`` in functional
    mode. An over-claimed cell would mislead the trackers into serving stale
    data from the wrong device; an under-claimed cell would let a newer copy
    go unnoticed — either way, fail loudly at the offending launch.
    """
    name = plan.ck.kernel.name
    for enum in api.app.enumerators.for_kernel(name, "write"):
        ranges, _ = enum.element_ranges(
            part, plan.block, plan.grid, plan.scalars, plan.shapes[enum.array]
        )
        scanned = set()
        for lo, hi in ranges:
            scanned.update(range(lo, hi))
        actual = trace.writes.get(enum.array, set())
        if scanned != actual:
            extra = sorted(scanned - actual)[:5]
            missing = sorted(actual - scanned)[:5]
            raise PartitioningError(
                f"write-scan audit failed for kernel {name!r}, "
                f"array {enum.array!r}, partition {part}: "
                f"scanned-but-unwritten {extra}, written-but-unscanned {missing}"
            )


def _run_partition(api: "MultiGpuApi", plan: LaunchPlan, ktask: KernelTask) -> None:
    """Interpret one kernel partition, or a fallback plan's whole grid."""
    ck = plan.ck
    bound: Dict[str, object] = {}
    for p in ck.kernel.params:
        if isinstance(p, ScalarParam):
            bound[p.name] = plan.by_name[p.name]
        elif isinstance(p, ArrayParam):
            vb = plan.by_name[p.name]
            if not isinstance(vb, VirtualBuffer):
                raise RuntimeApiError(
                    f"array argument {p.name!r} must be a VirtualBuffer, got {type(vb)}"
                )
            bound[p.name] = vb.typed_on(ktask.gpu, p.dtype.to_numpy(), plan.shapes[p.name])
    if plan.fallback:  # the original kernel; whole-buffer writes over-claim
        run_kernel(ck.kernel, plan.grid, plan.block, bound)
        return
    for f, value in zip(
        ("min_z", "max_z", "min_y", "max_y", "min_x", "max_x"), ktask.part.as_tuple()
    ):
        bound[partition_field_name("partition", f)] = value
    trace = AccessTrace() if api.config.debug_audit else None
    run_kernel(ck.partitioned, ktask.part.grid(), plan.block, bound, trace=trace)
    if trace is not None:
        _audit_write_scan(api, plan, ktask.part, trace)
