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
  plain-data ops memoized on the plan, and every later issue of the same
  plan — every replayed launch of a steady loop — only runs that tuple
  against the machine and the dataflow log.

:func:`submit_plan` runs the two halves back to back for every launch, as
the paper's host code drains every launch (Figure 4).

Cross-launch dependencies are carried by :class:`DataflowLog`: per
(virtual buffer, device instance) it remembers the last completion events
that wrote or read each *byte interval* of that instance. A transfer out
of an instance must wait for the kernel that produced those bytes (RAW); a
transfer into an instance must wait for the last reader/writer of the
overwritten bytes (WAR/WAW). Keying events by interval instead of whole
buffer means non-overlapping writes to the same instance no longer falsely
serialize — e.g. two partitions' halo copies into disjoint rows of one
neighbour's buffer proceed concurrently.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cuda.exec.interpreter import AccessTrace, run_kernel
from repro.cuda.ir.kernel import ArrayParam, ScalarParam, partition_field_name
from repro.errors import MemoAuditError, PartitioningError, RuntimeApiError
from repro.runtime.vbuffer import VirtualBuffer
from repro.sched.graph import KernelTask, LaunchPlan, ReadSync, TransferTask
from repro.sched.policy import (
    SchedulePolicy,
    auto_schedule_name,
    estimate_plan_times,
    select_policy,
)
from repro.sim.trace import Category

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.api import MultiGpuApi

__all__ = [
    "DataflowLog",
    "apply_plan_functional",
    "lower_issue_program",
    "issue_plan_sim",
    "submit_plan",
]

#: Interval lists longer than this collapse to their envelope — sound
#: (conservative) and keeps per-event queries O(small).
_MAX_EVENT_INTERVALS = 64

_Key = Tuple[int, int]
_Event = Tuple[int, int, float, Optional[int]]


class DataflowLog:
    """Last read/write completion events per (buffer, device, byte interval).

    Each table maps ``(vb_id, dev)`` to a short list of
    ``(lo, hi, event, wave)`` records. Noting an interval drops records it
    strictly dominates (contained, no later, same wave); querying takes the
    max event over overlapping records. A single-GPU fallback plan's
    whole-buffer scans arrive as one full-range record per array.

    **Waves.** A *dependence wave* groups launches that the task-graph
    frontend (:mod:`repro.tasks`) proved pairwise footprint-disjoint: any
    read/write or write/write overlap between two tasks induces a graph
    edge, so two tasks ready *simultaneously* cannot conflict. Kernel
    events are recorded under the issuing launch's wave and queries skip
    records of the *querying* wave — without this, the envelope collapse
    above would falsely serialize disjoint tiles of one shared buffer (the
    records of a whole wave collapse to a whole-buffer envelope that every
    peer then appears to conflict with). Transfer events are always
    recorded wave-less: a same-wave peer may legitimately consume a copy's
    bytes (overlapping *reads* carry no edge, and the sharer registry
    dedups the second copy), so copies must stay visible inside their own
    wave. Collapse is per-wave so the skip survives it; ``wave=None``
    everywhere (the default) reproduces the legacy single-envelope
    behavior bit for bit.
    """

    def __init__(self) -> None:
        self._write: Dict[_Key, List[_Event]] = {}
        self._read: Dict[_Key, List[_Event]] = {}
        self._waves = itertools.count(1)

    def new_wave(self) -> int:
        """A fresh wave id, unique and increasing within this log."""
        return next(self._waves)

    @staticmethod
    def _note(
        table: Dict[_Key, List[_Event]],
        key: _Key,
        lo: int,
        hi: int,
        event: float,
        wave: Optional[int],
    ) -> None:
        if lo >= hi:
            return
        records = table.get(key)
        if records is None:
            table[key] = [(lo, hi, event, wave)]
            return
        # Cross-wave domination is unsound: a same-wave query skips the
        # dominating record but must still see the dominated one.
        n = 0
        for r in records:
            if not (lo <= r[0] and r[1] <= hi and r[2] <= event and r[3] == wave):
                records[n] = r
                n += 1
        del records[n:]
        records.append((lo, hi, event, wave))
        if len(records) > _MAX_EVENT_INTERVALS:
            by_wave: Dict[Optional[int], List[_Event]] = {}
            for r in records:
                by_wave.setdefault(r[3], []).append(r)
            kept = [
                (
                    min(r[0] for r in grp),
                    max(r[1] for r in grp),
                    max(r[2] for r in grp),
                    w,
                )
                for w, grp in by_wave.items()
            ]
            if len(kept) > _MAX_EVENT_INTERVALS:
                # Pathologically many distinct waves: fold every wave but
                # the newest into one never-skipped envelope. Only the
                # current (newest) wave is ever queried for skipping.
                newest = max((w for w in by_wave if w is not None), default=None)
                old = [r for r in kept if r[3] != newest]
                kept = [r for r in kept if r[3] == newest] + [
                    (
                        min(r[0] for r in old),
                        max(r[1] for r in old),
                        max(r[2] for r in old),
                        None,
                    )
                ]
            table[key] = kept

    @staticmethod
    def _query(
        table: Dict[_Key, List[_Event]], key: _Key, lo: int, hi: int, wave: Optional[int]
    ) -> float:
        latest = 0.0  # events are simulated times, never negative
        for l, h, e, w in table.get(key, ()):
            if e > latest and l < hi and h > lo and (w is None or w != wave):
                latest = e
        return latest

    def note_write(
        self, vb_id: int, dev: int, lo: int, hi: int, event: float,
        wave: Optional[int] = None,
    ) -> None:
        self._note(self._write, (vb_id, dev), lo, hi, event, wave)

    def note_read(
        self, vb_id: int, dev: int, lo: int, hi: int, event: float,
        wave: Optional[int] = None,
    ) -> None:
        self._note(self._read, (vb_id, dev), lo, hi, event, wave)

    def write_event(
        self, vb_id: int, dev: int, lo: int, hi: int, wave: Optional[int] = None
    ) -> float:
        """Event after which the newest data in ``[lo, hi)`` is ready (RAW)."""
        return self._query(self._write, (vb_id, dev), lo, hi, wave)

    def instance_free(
        self, vb_id: int, dev: int, lo: int, hi: int, wave: Optional[int] = None
    ) -> List[float]:
        """Events after which ``[lo, hi)`` may be overwritten (WAR + WAW)."""
        return [
            self._query(self._read, (vb_id, dev), lo, hi, wave),
            self._query(self._write, (vb_id, dev), lo, hi, wave),
        ]

    def copy_deps(
        self, vb_id: int, src: int, dst: int, lo: int, hi: int, wave: Optional[int] = None
    ) -> List[float]:
        """Dependency events of one stale-segment copy of ``[lo, hi)``, ``src`` -> ``dst``.

        :meth:`write_event` on the source plus :meth:`instance_free` on the
        destination, queried directly.
        """
        query = self._query
        return [
            query(self._write, (vb_id, src), lo, hi, wave),
            query(self._read, (vb_id, dst), lo, hi, wave),
            query(self._write, (vb_id, dst), lo, hi, wave),
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
    cluster = api.cluster
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
                for t in rs.transfers:
                    api.stats.sync_transfers += 1
                    api.stats.sync_bytes += t.nbytes
                    if cluster is not None and not cluster.same_node(t.owner, t.gpu):
                        api.stats.inter_node_transfers += 1
                        api.stats.inter_node_bytes += t.nbytes
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
#: * ``(_CHARGE, seconds)`` — one host pattern charge;
#: * ``(_COPY, src, dst, lo, hi, vb_id, label)`` — a barrier-era copy
#:   (:meth:`SimMachine.transfer`);
#: * ``(_STREAM_COPY, src, dst, lo, hi, vb_id, label, p2p)`` — a copy on the
#:   copy engines gated by its dataflow events;
#: * ``(_SYNC,)`` — the global device barrier;
#: * ``(_GANG_SYNC, n_nodes, copy_nodes, groups)`` — per-node barriers on a
#:   multi-node cluster: ``copy_nodes`` holds the endpoint nodes of each
#:   copy in issue order, ``groups`` one ``(node, ops)`` sub-program per
#:   node, issued in barrier-event order;
#: * ``(_KERNEL, gpu, n_blocks, label, dep_slots, reads, writes)`` and
#:   ``_DAG_KERNEL`` alike — a partition launch, without and with dataflow
#:   gating; ``dep_slots`` index the copies it waits for, ``reads`` and
#:   ``writes`` are its ``(vb_id, lo, hi)`` event runs on its own device.
#:
#: Copy completion events are numbered in issue order: copy ``i`` of a
#: program is event slot ``i``.
_CHARGE, _COPY, _STREAM_COPY, _SYNC, _GANG_SYNC, _KERNEL, _DAG_KERNEL = range(7)

IssueProgram = Tuple[tuple, ...]
TransferOrder = Sequence[Tuple[ReadSync, TransferTask]]


def lower_issue_program(
    api: "MultiGpuApi",
    plan: LaunchPlan,
    policy: SchedulePolicy,
    transfer_order: Optional[TransferOrder] = None,
) -> IssueProgram:
    """One plan's simulated issue under ``policy`` as a flat op tuple.

    Figure 4's three loops on the simulated machine, in issue order: per
    partition, the setup and read-enumerator pattern charges with each
    stale-segment copy issued behind its charge (lines 2-8) and, under a
    ``barrier`` policy, the device barrier; per partition, the setup charge
    and the kernel launch (lines 10-19); per partition, the update-phase
    pattern charges (lines 21-26), which run on the host concurrently with
    the asynchronous kernels.

    ``transfer_order`` overrides the copy *issue* order (the halo-first
    order of :func:`repro.cluster.gang.halo_first_order`): the
    per-read-sync pattern charges are then batched ahead of the reordered
    copies.

    Everything the issue depends on but the machine's state is decided
    here — charges, routes, labels, which copies each kernel waits for —
    so the program holds plain data only; a machine-less runtime issues
    nothing and lowers to ``()``.
    """
    spec = api.spec
    if spec is None:
        return ()
    config = api.config
    ops: List[tuple] = []
    # Transfer node -> event slot, for the copies actually issued.
    slots: Dict[int, int] = {}
    share_cost = spec.tracker_op_cost if config.shared_copies and config.tracking_enabled else 0.0
    p2p = True if policy.p2p else None

    def charge(seconds: float) -> None:
        if seconds > 0:
            ops.append((_CHARGE, seconds))

    def read_sync(rs: ReadSync) -> None:
        # One aggregated host interval covering: the enumerator call, the
        # per-emitted-range callback work, and one tracker query per range.
        charge(
            spec.enumerator_call_cost
            + spec.per_range_cost * rs.emitted
            + spec.tracker_op_cost * max(len(rs.ranges), rs.n_segments)
        )

    def copy(rs: ReadSync, t: TransferTask) -> None:
        if not config.transfers_enabled:
            return
        slots[t.node] = len(slots)
        label = f"sync:{rs.array}"
        if policy.overlap:
            ops.append((_STREAM_COPY, t.owner, t.gpu, t.start, t.end, t.vb.vb_id, label, p2p))
        else:
            ops.append((_COPY, t.owner, t.gpu, t.start, t.end, t.vb.vb_id, label))
        # The sharer registration itself happened at submit; its tracker-op
        # host charge belongs here, right after the copy's issue.
        charge(share_cost)

    gang = None
    if config.tracking_enabled:
        for syncs in plan.reads:
            charge(spec.partition_setup_cost)
            for rs in syncs:
                read_sync(rs)
                if transfer_order is None:
                    for t in rs.transfers:
                        copy(rs, t)
        for rs, t in transfer_order or ():
            copy(rs, t)
        if policy.barrier:
            cluster = api.cluster
            if cluster is None or cluster.n_nodes <= 1:
                ops.append((_SYNC,))  # all_devs_synchronize()
            else:
                gang = cluster

    ck = plan.ck
    label = ck.kernel.name if plan.fallback else ck.partitioned.name
    tag = _DAG_KERNEL if policy.overlap else _KERNEL

    def kernel(ktask: KernelTask) -> List[tuple]:
        deps = tuple(slots[n] for n in ktask.transfer_deps if n in slots) if policy.overlap else ()
        reads = tuple((vb.vb_id, lo, hi) for vb, runs in ktask.reads for lo, hi in runs)
        writes = tuple((vb.vb_id, lo, hi) for vb, runs in ktask.writes for lo, hi in runs)
        setup = [(_CHARGE, spec.partition_setup_cost)] if spec.partition_setup_cost > 0 else []
        return setup + [(tag, ktask.gpu, ktask.part.n_blocks, label, deps, reads, writes)]

    if gang is None:
        for ktask in plan.kernels:
            ops.extend(kernel(ktask))
    else:
        # On a multi-node cluster the barrier is per node: each node's gang
        # waits for its own resources to drain plus this plan's copies that
        # touch the node, so one node's interior copies do not hold up the
        # other nodes' kernels. Nodes issue in barrier-event order, decided
        # when the program runs. Partitions write disjoint ranges (and CUDA
        # gives no cross-block write order anyway), so reordering across
        # nodes cannot change functional results.
        groups: Dict[int, List[tuple]] = {}
        for ktask in plan.kernels:
            groups.setdefault(gang.node_of(ktask.gpu), []).extend(kernel(ktask))
        by_node = {t.node: t for t in plan.transfers}
        copy_nodes = tuple(
            tuple({gang.endpoint_node(by_node[n].owner), gang.endpoint_node(by_node[n].gpu)})
            for n in slots
        )
        ops.append(
            (
                _GANG_SYNC,
                gang.n_nodes,
                copy_nodes,
                tuple((node, tuple(group)) for node, group in groups.items()),
            )
        )

    if config.tracking_enabled:
        for ups in plan.updates:
            charge(spec.partition_setup_cost)
            for up in ups:
                charge(
                    spec.enumerator_call_cost
                    + spec.per_range_cost * up.emitted
                    + spec.tracker_op_cost * len(up.ranges)
                )
    return tuple(ops)


def _run_issue_program(
    api: "MultiGpuApi",
    plan: LaunchPlan,
    program: IssueProgram,
    launch: Optional[int],
    wave: Optional[int],
    events: List[float],
) -> None:
    """Issue one lowered program onto the machine, op by op.

    Every op goes through the engine's public calls and the
    :class:`DataflowLog`'s, exactly as an interpretation of the plan
    would; ``events`` collects the copies' completion events by slot.
    """
    machine = api.machine
    dataflow = api.dataflow
    host_compute = machine.host_compute
    note_read, note_write = dataflow.note_read, dataflow.note_write
    kernel_cost = api.kernel_cost
    patterns, transfers = Category.PATTERNS, Category.TRANSFERS
    for op in program:
        kind = op[0]
        if kind == _CHARGE:
            host_compute(op[1], patterns, "patterns")
        elif kind == _STREAM_COPY:
            _, src, dst, lo, hi, vb_id, label, p2p = op
            end = machine.stream_transfer(
                src,
                dst,
                hi - lo,
                deps=dataflow.copy_deps(vb_id, src, dst, lo, hi, wave),
                category=transfers,
                label=label,
                p2p=p2p,
                launch=launch,
            )
            # Dataflow events are recorded under every policy so that
            # adjacent launches of an adaptive (auto) run may mix policies
            # soundly: an overlap launch must see the copies its sequential
            # predecessor issued.
            note_read(vb_id, src, lo, hi, end)
            note_write(vb_id, dst, lo, hi, end)
            events.append(end)
        elif kind == _COPY:
            _, src, dst, lo, hi, vb_id, label = op
            end = machine.transfer(
                src, dst, hi - lo, category=transfers, label=label, launch=launch
            )
            note_read(vb_id, src, lo, hi, end)
            note_write(vb_id, dst, lo, hi, end)
            events.append(end)
        elif kind == _DAG_KERNEL or kind == _KERNEL:
            _, gpu, n_blocks, label, dep_slots, reads, writes = op
            duration = 0.0
            if kernel_cost is not None:
                # Cost the *original* kernel: the partition clone only adds
                # loop-invariant offset arithmetic that any real backend
                # hoists (the paper measures a median 2.1 % single-GPU
                # slowdown, i.e. the clone itself is not slower).
                duration = kernel_cost(plan.ck.kernel, n_blocks, plan.block, plan.scalars)
            deps: List[float] = []
            if kind == _DAG_KERNEL:
                deps = [events[slot] for slot in dep_slots]
                for vb_id, lo, hi in reads:
                    deps.append(dataflow.write_event(vb_id, gpu, lo, hi, wave))
                for vb_id, lo, hi in writes:
                    deps.extend(dataflow.instance_free(vb_id, gpu, lo, hi, wave))
            end = machine.launch_kernel(gpu, duration, label=label, deps=deps, launch=launch)
            for vb_id, lo, hi in reads:
                note_read(vb_id, gpu, lo, hi, end, wave)
            for vb_id, lo, hi in writes:
                note_write(vb_id, gpu, lo, hi, end, wave)
        elif kind == _SYNC:
            machine.synchronize()
        else:
            _, n_nodes, copy_nodes, groups = op
            # One host-side barrier charge, exactly as the global path pays.
            host_compute(machine.spec.sync_overhead, Category.HOST, "gang-sync")
            barriers = [machine.node_resource_avail(n) for n in range(n_nodes)]
            # Completion events, not lane occupancies: a cross-node copy's
            # per-resource busy windows (NIC, bus) can end before the copy's
            # full duration does.
            for end, nodes in zip(events, copy_nodes):
                for n in nodes:
                    if end > barriers[n]:
                        barriers[n] = end
            for node, group in sorted(groups, key=lambda g: (barriers[g[0]], g[0])):
                machine.wait_until(barriers[node], label="node-barrier", charge=False)
                _run_issue_program(api, plan, group, launch, wave, events)


def issue_plan_sim(
    api: "MultiGpuApi",
    plan: LaunchPlan,
    policy: SchedulePolicy,
    *,
    launch: Optional[int] = None,
    wave: Optional[int] = None,
) -> None:
    """The simulated half of one launch: host charges + device ops.

    Issues the plan's program (:func:`lower_issue_program`) for ``policy``,
    lowering it on the plan's first issue under that policy: a replayed
    plan is the same object every iteration, so a steady loop lowers once
    and only runs afterwards. ``launch`` tags every device op for
    per-launch trace attribution; ``wave`` is the launch's dependence wave
    (see :class:`DataflowLog`).

    On a cluster with ``pipeline_window > 1`` the copies are lowered in
    the order :func:`~repro.cluster.gang.halo_first_order` gives. That
    order is computed only when lowering: plans live in their api's
    residual memo, and the cluster and window belong to the api, so
    whether an order exists is fixed per plan object.
    """
    def lower() -> IssueProgram:
        cluster = api.cluster
        order = None
        if cluster is not None and api.config.pipeline_window > 1:
            from repro.cluster.gang import halo_first_order

            order = halo_first_order(plan, cluster)
        return lower_issue_program(api, plan, policy, order)

    program = plan.issue_programs.get(policy)
    if program is None:
        program = plan.issue_programs[policy] = lower()
    elif api.config.debug_audit:
        fresh = lower()
        if fresh != program:
            raise MemoAuditError(
                f"plan of kernel {plan.ck.kernel.name!r} served a stale issue "
                f"program for schedule {policy.name!r}"
            )
    if program:
        _run_issue_program(api, plan, program, launch, wave, [])


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
    issue_plan_sim(api, plan, policy, launch=api._launch_index, wave=api._dataflow_wave)


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
