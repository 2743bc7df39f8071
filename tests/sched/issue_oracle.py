"""The simulated issue as it stood before plans lowered to issue programs.

:func:`repro.sched.executor.issue_plan_sim` used to re-interpret the plan
on every launch: rebuild labels and host-charge sums, walk the read syncs,
transfer tasks and kernel tasks. Now it lowers each plan once per policy to
a flat op tuple and runs that. This module keeps the interpreting body and
its helpers verbatim — only ``DataflowLog.copy_deps`` takes the copy's
plain fields instead of its task — as the oracle the program must match
interval for interval (``tests/sched/test_issue_program.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.sched.graph import KernelTask, LaunchPlan, ReadSync, TransferTask
from repro.sched.policy import SchedulePolicy
from repro.sim.trace import Category

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.api import MultiGpuApi


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
                deps=api.dataflow.copy_deps(t.vb.vb_id, t.owner, t.gpu, t.start, t.end),
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
    trace attribution.

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
                            api, policy, t, f"sync:{rs.array}", transfer_events, launch
                        )
        else:
            for syncs in plan.reads:
                if api.spec:
                    api.host_pattern_cost(api.spec.partition_setup_cost)
                for rs in syncs:
                    _charge_read_sync_sim(api, rs)
            for rs, t in transfer_order:
                _issue_transfer_sim(
                    api, policy, t, f"sync:{rs.array}", transfer_events, launch
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
                            api.dataflow.write_event(vb.vb_id, ktask.gpu, lo, hi)
                        )
                for vb, runs in ktask.writes:
                    for lo, hi in runs:
                        deps.extend(
                            api.dataflow.instance_free(vb.vb_id, ktask.gpu, lo, hi)
                        )
            end = machine.launch_kernel(
                ktask.gpu, duration, label=label, deps=deps, launch=launch
            )
            # Recorded under every policy (see _issue_transfer_sim).
            for vb, runs in ktask.reads:
                for lo, hi in runs:
                    api.dataflow.note_read(vb.vb_id, ktask.gpu, lo, hi, end)
            for vb, runs in ktask.writes:
                for lo, hi in runs:
                    api.dataflow.note_write(vb.vb_id, ktask.gpu, lo, hi, end)

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
