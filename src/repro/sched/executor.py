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
* :func:`issue_plan_sim`, when the :class:`PipelineExecutor` window
  flushes, does the **simulated** work (host pattern charges, transfer
  issues, the barrier, kernel launches) — where the policies differ:

  - ``sequential`` replays Figure 4 exactly: barrier-coupled transfers
    (:meth:`SimMachine.transfer`), a global device barrier, then the
    kernel launches;
  - ``overlap`` drops the barrier and issues transfers on the copy
    engines (:meth:`SimMachine.stream_transfer`) gated only by dataflow
    events, and each kernel partition waits only for the transfers
    feeding *its* read set;
  - ``overlap+p2p`` additionally routes device-to-device copies over
    direct peer DMA instead of staging them through host memory.

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

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cuda.exec.interpreter import AccessTrace, run_kernel
from repro.cuda.ir.kernel import ArrayParam, ScalarParam, partition_field_name
from repro.errors import PartitioningError, RuntimeApiError
from repro.runtime.sync import register_sharer
from repro.runtime.vbuffer import VirtualBuffer
from repro.sched.graph import (
    KernelTask,
    LaunchPlan,
    PipelinedPlan,
    ReadSync,
    TransferTask,
)
from repro.sched.policy import SchedulePolicy
from repro.sim.trace import Category

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.api import MultiGpuApi

__all__ = [
    "DataflowLog",
    "apply_plan_functional",
    "issue_plan_sim",
    "PipelineExecutor",
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

    def copy_deps(self, t: TransferTask, wave: Optional[int] = None) -> List[float]:
        """Dependency events of one stale-segment copy."""
        return [
            self.write_event(t.vb.vb_id, t.owner, t.start, t.end, wave)
        ] + self.instance_free(t.vb.vb_id, t.gpu, t.start, t.end, wave)


def _sequential_barrier(
    api: "MultiGpuApi",
    plan: LaunchPlan,
    transfer_events: Dict[int, float],
) -> Optional[Dict[int, float]]:
    """The post-transfer barrier of a ``barrier`` policy, per gang.

    On a flat machine or a 1-node cluster this is the global
    ``machine.synchronize()`` of Figure 4, unchanged. On a multi-node
    cluster the barrier is *per node*: each node's gang waits for its own
    resources to drain plus the completion of this plan's copies that
    touch the node — one node's interior copies no longer hold up every
    other node's kernels. Returns the per-node barrier events, or None
    when the global barrier ran.
    """
    machine = api.machine
    cluster = api.cluster
    if cluster is None or cluster.n_nodes <= 1:
        machine.synchronize()  # all_devs_synchronize()
        return None
    # One host-side barrier charge, exactly as the global path pays.
    machine.host_compute(machine.spec.sync_overhead, Category.HOST, "gang-sync")
    by_dag_node = {t.node: t for t in plan.transfers}
    events = {n: machine.node_resource_avail(n) for n in range(cluster.n_nodes)}
    for dag_node, end in transfer_events.items():
        t = by_dag_node.get(dag_node)
        if t is None:
            continue
        # Completion events, not lane occupancies: a cross-node copy's
        # per-resource busy windows (NIC, bus) can end before the copy's
        # full duration does.
        for n in {cluster.endpoint_node(t.owner), cluster.endpoint_node(t.gpu)}:
            if end > events[n]:
                events[n] = end
    return events


def _kernel_issue_order(
    api: "MultiGpuApi",
    plan: LaunchPlan,
    node_barriers: Optional[Dict[int, float]],
) -> List[Tuple[Optional[float], KernelTask]]:
    """Kernel issue sequence with per-node barrier waits attached.

    With ``node_barriers`` (multi-node sequential policy), kernels group
    by node and nodes issue in barrier-event order; the event rides on
    each node's first kernel, so the host waits for a node's gang barrier
    right before issuing that node's kernels and an early-barrier node
    starts while a late one is still copying. Partitions write disjoint
    ranges (and CUDA gives no cross-block write order anyway), so
    reordering across nodes cannot change functional results. Without
    barriers the plan order is kept with no waits.
    """
    if node_barriers is None:
        return [(None, k) for k in plan.kernels]
    cluster = api.cluster
    by_node: Dict[int, List[KernelTask]] = {}
    for ktask in plan.kernels:
        by_node.setdefault(cluster.node_of(ktask.gpu), []).append(ktask)
    order: List[Tuple[Optional[float], KernelTask]] = []
    for node in sorted(by_node, key=lambda n: (node_barriers.get(n, 0.0), n)):
        gang = by_node[node]
        order.append((node_barriers.get(node, 0.0), gang[0]))
        order.extend((None, ktask) for ktask in gang[1:])
    return order


def apply_plan_functional(api: "MultiGpuApi", plan: LaunchPlan) -> None:
    """The submit-time half of one launch: everything but the machine.

    Figure 4's three loops as bookkeeping: per partition, account each
    read-enumerator evaluation and copy its stale segments (lines 2-8,
    registering the destination as a sharer); interpret every partition
    (lines 10-19); mark each partition's write set in the trackers (lines
    21-26, in partition order, so the final tracker state never depends on
    the schedule). *No* simulated-machine interaction — no host charges, no
    device ops; :func:`issue_plan_sim` issues those when the window flushes.

    This half must stay eager: launch k+1's plan is *built* (tracker
    queries!) at submit time, so launch k's tracker updates and sharer
    registrations must already be applied — only the simulated clock lags
    behind.
    """
    cluster = api.cluster
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
                    if api.config.transfers_enabled:
                        if api.functional:
                            t.vb.bytes_on(t.gpu)[t.start : t.end] = t.vb.bytes_on(
                                t.owner
                            )[t.start : t.end]
                        register_sharer(api, t.vb, t.start, t.end, t.gpu, charge=False)

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


def _charge_read_sync_sim(api: "MultiGpuApi", rs: ReadSync) -> None:
    """Host cost of one read-enumerator evaluation (stats counted at submit)."""
    if api.spec:
        # One aggregated host interval covering: the enumerator call, the
        # per-emitted-range callback work, and one tracker query per range.
        api.host_pattern_cost(
            api.spec.enumerator_call_cost
            + api.spec.per_range_cost * rs.emitted
            + api.spec.tracker_op_cost * max(len(rs.ranges), rs.n_segments)
        )


def _issue_transfer_sim(
    api: "MultiGpuApi",
    policy: SchedulePolicy,
    t: TransferTask,
    label: str,
    events: Dict[int, float],
    launch: Optional[int],
    wave: Optional[int] = None,
) -> None:
    """Simulated issue of one stale-segment copy (+ its sharer host cost)."""
    if not api.config.transfers_enabled:
        return
    if api.machine is not None:
        if policy.overlap:
            end = api.machine.stream_transfer(
                t.owner,
                t.gpu,
                t.nbytes,
                deps=api.dataflow.copy_deps(t, wave),
                category=Category.TRANSFERS,
                label=label,
                p2p=True if policy.p2p else None,
                launch=launch,
            )
        else:
            end = api.machine.transfer(
                t.owner, t.gpu, t.nbytes, category=Category.TRANSFERS, label=label,
                launch=launch,
            )
        # Dataflow events are recorded under every policy so that adjacent
        # launches of an adaptive (auto) run may mix policies soundly: an
        # overlap launch must see the copies its sequential predecessor issued.
        api.dataflow.note_read(t.vb.vb_id, t.owner, t.start, t.end, end)
        api.dataflow.note_write(t.vb.vb_id, t.gpu, t.start, t.end, end)
        events[t.node] = end
    # The sharer registration itself happened at submit; its tracker-op
    # host charge belongs here, right after the copy's issue.
    if api.config.shared_copies and api.config.tracking_enabled and api.spec:
        api.host_pattern_cost(api.spec.tracker_op_cost)


def issue_plan_sim(
    api: "MultiGpuApi",
    plan: LaunchPlan,
    policy: SchedulePolicy,
    *,
    launch: Optional[int] = None,
    wave: Optional[int] = None,
    transfer_order: Optional[Sequence[Tuple[ReadSync, TransferTask]]] = None,
) -> None:
    """The flush-time half of one launch: simulated host charges + device ops.

    Figure 4's three loops on the simulated machine, for a plan whose
    functional half :func:`apply_plan_functional` already applied: per
    partition, the setup and read-enumerator pattern charges with each
    stale-segment copy issued behind its charge (lines 2-8) and, under a
    ``barrier`` policy, the device barrier; per partition, the setup charge
    and the kernel launch (lines 10-19); per partition, the update-phase
    pattern charges (lines 21-26), which run on the host concurrently with
    the asynchronous kernels. ``launch`` tags every device op for per-launch
    trace attribution; ``wave`` is the launch's dependence wave captured at
    submit time (see :class:`DataflowLog`).

    ``transfer_order`` overrides the transfer *issue* order (the pipelined
    executor passes the halo-first tiers on clusters): the per-read-sync
    pattern charges are then batched ahead of the reordered copies, since
    every one of them precedes every copy in the fused view. With
    ``transfer_order=None`` copies issue in plan order, each right behind
    its read sync's charge.
    """
    machine = api.machine
    transfer_events: Dict[int, float] = {}
    node_barriers: Optional[Dict[int, float]] = None

    if api.config.tracking_enabled:
        if transfer_order is None:
            for syncs in plan.reads:
                if api.spec:
                    api.host_pattern_cost(api.spec.partition_setup_cost)
                for rs in syncs:
                    _charge_read_sync_sim(api, rs)
                    for t in rs.transfers:
                        _issue_transfer_sim(
                            api, policy, t, f"sync:{rs.array}", transfer_events,
                            launch, wave,
                        )
        else:
            for syncs in plan.reads:
                if api.spec:
                    api.host_pattern_cost(api.spec.partition_setup_cost)
                for rs in syncs:
                    _charge_read_sync_sim(api, rs)
            for rs, t in transfer_order:
                _issue_transfer_sim(
                    api, policy, t, f"sync:{rs.array}", transfer_events, launch, wave
                )
        if machine and policy.barrier:
            node_barriers = _sequential_barrier(api, plan, transfer_events)

    ck = plan.ck
    label = ck.kernel.name if plan.fallback else ck.partitioned.name
    for barrier_event, ktask in _kernel_issue_order(api, plan, node_barriers):
        if barrier_event is not None and machine:
            machine.wait_until(barrier_event, label="node-barrier", charge=False)
        if api.spec:
            api.host_pattern_cost(api.spec.partition_setup_cost)
        if machine:
            duration = 0.0
            if api.kernel_cost is not None:
                # Cost the *original* kernel: the partition clone only adds
                # loop-invariant offset arithmetic that any real backend
                # hoists (the paper measures a median 2.1 % single-GPU
                # slowdown, i.e. the clone itself is not slower).
                duration = api.kernel_cost(
                    ck.kernel, ktask.part.n_blocks, plan.block, plan.scalars
                )
            deps: List[float] = []
            if policy.overlap:
                deps = [
                    transfer_events[n]
                    for n in ktask.transfer_deps
                    if n in transfer_events
                ]
                for vb, runs in ktask.reads:
                    for lo, hi in runs:
                        deps.append(
                            api.dataflow.write_event(vb.vb_id, ktask.gpu, lo, hi, wave)
                        )
                for vb, runs in ktask.writes:
                    for lo, hi in runs:
                        deps.extend(
                            api.dataflow.instance_free(vb.vb_id, ktask.gpu, lo, hi, wave)
                        )
            end = machine.launch_kernel(
                ktask.gpu, duration, label=label, deps=deps, launch=launch
            )
            # Recorded under every policy (see _issue_transfer_sim).
            for vb, runs in ktask.reads:
                for lo, hi in runs:
                    api.dataflow.note_read(vb.vb_id, ktask.gpu, lo, hi, end, wave)
            for vb, runs in ktask.writes:
                for lo, hi in runs:
                    api.dataflow.note_write(vb.vb_id, ktask.gpu, lo, hi, end, wave)

    if api.config.tracking_enabled:
        for ups in plan.updates:
            if api.spec:
                api.host_pattern_cost(api.spec.partition_setup_cost)
            for up in ups:
                if api.spec:
                    api.host_pattern_cost(
                        api.spec.enumerator_call_cost
                        + api.spec.per_range_cost * up.emitted
                        + api.spec.tracker_op_cost * len(up.ranges)
                    )


class PipelineExecutor:
    """Rolling-window batcher fusing consecutive launches into one DAG drain.

    ``submit`` applies a launch's functional half eagerly and buffers its
    plan in a :class:`~repro.sched.graph.PipelinedPlan`; once ``window``
    launches accumulate — or any host-visible operation (D2H memcpy,
    device/stream synchronize, memset, free, a user tracker query) calls
    :meth:`flush` — the buffered launches' simulated issue drains in
    program order. Cross-launch dependencies need no special casing: the
    :class:`DataflowLog` events recorded while draining launch k are
    exactly what launch k+1's transfer deps query.

    On clusters each flushed launch's transfers are issued halo-first (see
    :func:`repro.cluster.gang.transfer_priority_tiers`) when the window is
    fused (> 1). Under ``schedule="auto"`` the policy decision is deferred
    to the flush and made once over the *fused* window's transfer/compute
    estimate, so a transfer-light iteration inside a transfer-heavy window
    no longer flips the policy back and forth.
    """

    def __init__(self, api: "MultiGpuApi", window: int) -> None:
        self.api = api
        self.window = max(1, int(window))
        self.pending = PipelinedPlan()
        self._policies: List[Optional[SchedulePolicy]] = []

    @property
    def depth(self) -> int:
        """Number of launches currently buffered."""
        return len(self.pending)

    def submit(self, plan: LaunchPlan, policy: Optional[SchedulePolicy]) -> None:
        """Apply one launch's functional half and buffer its simulated issue.

        ``policy=None`` marks an adaptive (``auto``) launch whose concrete
        policy is chosen at flush time over the fused window.
        """
        apply_plan_functional(self.api, plan)
        self.pending.append(
            plan, self.api._launch_index, wave=self.api._dataflow_wave
        )
        self._policies.append(policy)
        if self.depth >= self.window:
            self.flush()

    #: Halo-first reordering applies only when the node-crossing copies are
    #: a *minority* of the plan's transfer bytes. The priority targets seam
    #: exchanges (a thin halo ahead of a fat interior); when most traffic
    #: crosses nodes anyway — e.g. an all-to-all broadcast — there is no
    #: interior worth backfilling and hoisting the whole network leg only
    #: delays the intra-node copies it was meant to overlap with.
    HALO_MAJORITY_RATIO = 0.5

    def _transfer_order(self, plan: LaunchPlan):
        """Halo-first issue order for one plan, or None to keep plan order."""
        cluster = self.api.cluster
        if cluster is None or self.window <= 1:
            return None
        from repro.cluster.gang import transfer_priority_tiers

        tiers = transfer_priority_tiers(plan, cluster)
        if len(set(tiers.values())) <= 1:
            return None
        total = sum(t.nbytes for t in plan.transfers)
        halo = sum(t.nbytes for t in plan.transfers if tiers[t.node] == 0)
        if total == 0 or halo >= self.HALO_MAJORITY_RATIO * total:
            return None
        pairs = [
            (rs, t) for syncs in plan.reads for rs in syncs for t in rs.transfers
        ]
        # Stable sort: within a tier the legacy plan order is preserved.
        return sorted(pairs, key=lambda pair: tiers[pair[1].node])

    def flush(self) -> None:
        """Drain every buffered launch onto the simulated machine, in order."""
        if not self.pending.plans:
            return
        api = self.api
        plans = self.pending.plans
        indices = self.pending.launch_indices
        policies = list(self._policies)
        if any(p is None for p in policies):
            from repro.sched.policy import auto_select_policy_window

            fused = auto_select_policy_window(api, plans)
            for i, p in enumerate(policies):
                if p is None:
                    policies[i] = fused
                    api.stats.auto_choices[fused.name] = (
                        api.stats.auto_choices.get(fused.name, 0) + 1
                    )
        batch = len(plans)
        for plan, launch_index, wave, policy in zip(
            plans, indices, self.pending.waves, policies
        ):
            issue_plan_sim(
                api,
                plan,
                policy,
                launch=launch_index,
                wave=wave,
                transfer_order=self._transfer_order(plan),
            )
        self.pending.clear()
        self._policies.clear()
        api.stats.pipeline_flushes += 1
        api.stats.pipeline_max_batch = max(api.stats.pipeline_max_batch, batch)


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
