"""Scheduling policies for the kernel-launch replacement.

Three policies share one launch plan (the task DAG) and differ only in how
device work is issued onto the simulated machine:

=============== ======== ============ ===========================================
policy          barrier  copy engines device-to-device route
=============== ======== ============ ===========================================
``sequential``  yes      no           staged through host memory (paper-faithful)
``overlap``     no       yes          staged through host memory
``overlap+p2p`` no       yes          direct peer DMA
=============== ======== ============ ===========================================

All three are *functionally* identical — the DAG may only reorder, never
drop, the paper's dependencies — so every policy produces bitwise-equal
buffers and identical final tracker state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from repro.errors import MemoAuditError, RuntimeApiError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.api import MultiGpuApi
    from repro.sched.graph import LaunchPlan

__all__ = [
    "SchedulePolicy",
    "SCHEDULES",
    "select_policy",
    "AUTO_SEQUENTIAL_MAX_RATIO",
    "AUTO_P2P_MIN_RATIO",
    "auto_schedule_name",
    "estimate_plan_times",
]


@dataclass(frozen=True)
class SchedulePolicy:
    """How one launch plan is issued onto the machine."""

    name: str
    #: Global device barrier between the transfer and kernel phases
    #: (Figure 4's ``all_devs_synchronize``).
    barrier: bool
    #: Issue transfers on the copy engines, gated by dataflow events, and
    #: gate each kernel partition on the transfers feeding its read set.
    overlap: bool
    #: Route device-to-device copies over direct peer DMA instead of
    #: staging them through host memory.
    p2p: bool


_POLICIES: Dict[str, SchedulePolicy] = {
    "sequential": SchedulePolicy("sequential", barrier=True, overlap=False, p2p=False),
    "overlap": SchedulePolicy("overlap", barrier=False, overlap=True, p2p=False),
    "overlap+p2p": SchedulePolicy("overlap+p2p", barrier=False, overlap=True, p2p=True),
}

#: Valid ``RuntimeConfig.schedule`` values, in documentation order.
SCHEDULES: Tuple[str, ...] = ("sequential", "overlap", "overlap+p2p")


def select_policy(name: str) -> SchedulePolicy:
    """The policy registered under ``name``."""
    try:
        return _POLICIES[name]
    except KeyError:
        raise RuntimeApiError(
            f"unknown schedule {name!r} (choose from {', '.join(SCHEDULES)})"
        ) from None


# -- adaptive per-launch selection (schedule="auto") --------------------------

#: Below this transfer/compute ratio the DAG machinery cannot pay for
#: itself: the barrier orchestration is already transfer-free in the steady
#: state, so stay paper-faithful.
AUTO_SEQUENTIAL_MAX_RATIO = 0.02
#: Above this ratio transfers dominate the launch; route device-to-device
#: copies over peer DMA on top of overlapping them.
AUTO_P2P_MIN_RATIO = 0.5


def auto_schedule_name(transfer_time: float, compute_time: float) -> str:
    """Pick a concrete schedule from one launch's estimated time split.

    Pure decision function (unit-tested boundary): no transfers means
    nothing to hide (``sequential``); transfer-dominated launches take
    ``overlap+p2p``; the middle ground overlaps without rerouting.
    """
    if transfer_time <= 0:
        return "sequential"
    if compute_time <= 0:
        return "overlap+p2p"
    ratio = transfer_time / compute_time
    if ratio <= AUTO_SEQUENTIAL_MAX_RATIO:
        return "sequential"
    if ratio >= AUTO_P2P_MIN_RATIO:
        return "overlap+p2p"
    return "overlap"


def estimate_plan_times(api: "MultiGpuApi", plan: "LaunchPlan") -> Tuple[float, float]:
    """(transfer seconds, compute seconds) one launch plan would take alone.

    Uncongested estimates from the machine spec and the kernel cost model;
    cross-node segments are priced at the cluster's network rate.
    Machine-less (functional-only) runs fall back to byte counts — only
    the zero/non-zero distinction matters then.

    The estimate is a pure function of the plan, memoized on it as its
    issue programs are, so a replayed launch reuses it. Under
    ``debug_audit`` a memoized estimate is recomputed and must equal it.
    """
    cached = plan.estimate
    if cached is None:
        cached = plan.estimate = _estimate(api, plan)
    elif api.config.debug_audit and _estimate(api, plan) != cached:
        raise MemoAuditError(
            f"memo 'estimate' served a stale entry for a plan of kernel "
            f"{plan.ck.kernel.name!r}"
        )
    return cached


def _estimate(api: "MultiGpuApi", plan: "LaunchPlan") -> Tuple[float, float]:
    """The uncached estimate behind :func:`estimate_plan_times`."""
    spec = api.spec
    if spec is None:
        return float(sum(t.nbytes for t in plan.transfers)), 0.0
    cluster = api.cluster
    transfer = 0.0
    for t in plan.transfers:
        if not cluster.same_node(t.owner, t.gpu):
            transfer += cluster.network_transfer_time(t.nbytes)
        else:
            transfer += spec.transfer_time(t.owner, t.gpu, t.nbytes)
    compute = 0.0
    if api.kernel_cost is not None:
        for k in plan.kernels:
            compute += api.kernel_cost(
                plan.ck.kernel, k.part.n_blocks, plan.block, plan.scalars
            )
    return transfer, compute
