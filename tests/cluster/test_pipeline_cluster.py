"""``pipeline_window`` on a cluster: bitwise invisibility and halo-first issue.

On a :class:`~repro.cluster.engine.ClusterSimMachine`, window > 1
*reorders* transfer issue (inter-node halo copies first) and so may
produce a different trace from window = 1 — but the functional half is
untouched: buffers, trackers, and sharer state stay bitwise identical
across every window x schedule x shared-copies combination, and the
reorder is only ever allowed to *reduce* exposed transfer time under the
overlap schedules. The halo-majority gate keeps the reorder away from
broadcast-style plans where hoisting the network leg would backfire.
"""

import numpy as np
import pytest

from repro.cluster.engine import ClusterSimMachine
from repro.cluster.topology import ClusterSpec
from repro.compiler.pipeline import compile_app
from repro.cuda.api import MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.harness.calibration import K80_NODE_SPEC
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sched import executor
from repro.sched.executor import halo_first_order
from repro.sched.graph import build_launch_plan
from repro.sched.policy import SCHEDULES
from repro.sim.trace import Category
from repro.workloads.hotspot import BLOCK, build_hotspot_kernel

N = 64
NBYTES = N * N * 4
GRID = Dim3(x=(N + BLOCK.x - 1) // BLOCK.x, y=(N + BLOCK.y - 1) // BLOCK.y)

ALL_SCHEDULES = tuple(SCHEDULES) + ("auto",)


def _cluster(n_nodes=2, gpus_per_node=2) -> ClusterSpec:
    return ClusterSpec(
        n_nodes=n_nodes, node=K80_NODE_SPEC.with_gpus(gpus_per_node)
    )


def _run(cluster, schedule, *, window=1, shared=False, iterations=4, seed=0):
    kernel = build_hotspot_kernel(N)
    app = compile_app([kernel])
    machine = ClusterSimMachine(cluster)
    api = MultiGpuApi(
        app,
        RuntimeConfig(
            n_gpus=cluster.total_gpus,
            schedule=schedule,
            pipeline_window=window,
            shared_copies=shared,
        ),
        machine=machine,
    )
    a = api.cudaMalloc(NBYTES)
    b = api.cudaMalloc(NBYTES)
    data = np.random.default_rng(seed).random((N, N)).astype(np.float32)
    api.cudaMemcpy(a, data, NBYTES, MemcpyKind.HostToDevice)
    api.cudaMemset(b, 0, NBYTES)
    src, dst = a, b
    for _ in range(iterations):
        api.launch(kernel, GRID, BLOCK, [src, dst])
        src, dst = dst, src
    out_a = np.zeros((N, N), dtype=np.float32)
    out_b = np.zeros((N, N), dtype=np.float32)
    api.cudaMemcpy(out_a, a, NBYTES, MemcpyKind.DeviceToHost)
    api.cudaMemcpy(out_b, b, NBYTES, MemcpyKind.DeviceToHost)
    trackers = [vb.coherence_state() for vb in (a, b)]
    return (out_a, out_b), trackers, api


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("schedule", ALL_SCHEDULES)
def test_cluster_pipelining_bitwise_invisible(schedule, shared):
    cluster = _cluster(2, 2)
    base = _run(cluster, schedule, window=1, shared=shared)
    for window in (2, 4):
        piped = _run(cluster, schedule, window=window, shared=shared)
        (ba, bb), bt, base_api = base
        (pa, pb), pt, piped_api = piped
        assert np.array_equal(ba, pa), (schedule, shared, window)
        assert np.array_equal(bb, pb), (schedule, shared, window)
        assert pt == bt, (schedule, shared, window)
        assert piped_api.stats.sync_bytes == base_api.stats.sync_bytes
        assert (
            piped_api.stats.inter_node_bytes == base_api.stats.inter_node_bytes
        )
        assert (
            piped_api.stats.tracker_share_ops == base_api.stats.tracker_share_ops
        )


def test_exposed_transfer_time_never_worse_with_wider_windows():
    """The only trace-level change a wider window makes is halo-first
    reordering, and that must not increase exposed transfer time.

    Strict for ``overlap+p2p`` — the direct-route schedule the halo-first
    priority targets (and the one ``repro bench pipeline`` enforces at
    paper sizes). The staged ``overlap`` route bounces copies through the
    head node, where reordering can shuffle sub-microsecond lane gaps
    either way, so it only gets a no-regression bound in the noise margin.
    """
    cluster = _cluster(2, 2)
    exposure = {}
    for schedule in ("overlap", "overlap+p2p"):
        for window in (1, 2, 4):
            api = _run(cluster, schedule, window=window, iterations=6)[2]
            tiers = api.machine.trace.transfer_exposure_by_tier()
            exposure[(schedule, window)] = sum(
                v["exposed"] for v in tiers.values()
            )
    for window in (2, 4):
        strict = exposure[("overlap+p2p", window)]
        assert strict <= exposure[("overlap+p2p", 1)] + 1e-12, exposure
        loose = exposure[("overlap", window)]
        assert loose <= exposure[("overlap", 1)] * 1.001, exposure


def _seam_api(cluster, window):
    kernel = build_hotspot_kernel(N)
    app = compile_app([kernel])
    api = MultiGpuApi(
        app,
        RuntimeConfig(
            n_gpus=cluster.total_gpus,
            schedule="overlap+p2p",
            pipeline_window=window,
        ),
        machine=ClusterSimMachine(cluster),
    )
    a = api.cudaMalloc(NBYTES)
    b = api.cudaMalloc(NBYTES)
    data = np.random.default_rng(3).random((N, N)).astype(np.float32)
    api.cudaMemcpy(a, data, NBYTES, MemcpyKind.HostToDevice)
    api.cudaMemset(b, 0, NBYTES)
    # One launch so the second plan (which has halo read-syncs) exists.
    api.launch(kernel, GRID, BLOCK, [a, b])
    api.cudaDeviceSynchronize()
    ck = app.kernel(kernel.name)
    plan = build_launch_plan(api, ck, GRID, BLOCK, [b, a])
    return api, plan


def test_transfer_order_is_halo_first_on_seam_stencil():
    cluster = _cluster(2, 2)
    api, plan = _seam_api(cluster, window=4)
    crosses = [not cluster.same_node(t.owner, t.gpu) for t in plan.transfers]
    assert any(crosses), "a 2-node seam stencil must cross the fabric"
    order = halo_first_order(plan, cluster)
    assert order is not None
    halo = [not cluster.same_node(t.owner, t.gpu) for _, t in order]
    # Every inter-node halo copy precedes every other copy in the issue order.
    assert halo == sorted(halo, reverse=True)
    assert halo[0]
    # Order is a permutation of the plan's (read-sync, transfer) pairs.
    assert sorted(t.node for _, t in order) == sorted(
        t.node for t in plan.transfers
    )


def _lowered_copies(api, plan):
    """The (src, dst, lo, hi) of every copy in the plan's lowered program."""
    executor.issue_plan_sim(api, plan, api.policy)
    (program,) = plan.issue_programs.values()
    return [op[1:5] for op in program if op[0] in (executor._COPY, executor._STREAM_COPY)]


def _copies(transfers):
    return [(t.owner, t.gpu, t.start, t.end) for t in transfers]


def test_transfer_order_gates(monkeypatch):
    cluster = _cluster(2, 2)
    api, plan = _seam_api(cluster, window=4)
    halo_first = _copies(t for _, t in halo_first_order(plan, cluster))
    assert halo_first != _copies(plan.transfers)
    assert _lowered_copies(api, plan) == halo_first

    # window=1 never reorders, even on a cluster.
    api, plan = _seam_api(cluster, window=1)
    assert halo_first_order(plan, cluster) is not None
    assert _lowered_copies(api, plan) == _copies(plan.transfers)

    # A flat (non-cluster) machine never reorders regardless of window.
    from repro.sim.engine import SimMachine

    kernel = build_hotspot_kernel(N)
    app = compile_app([kernel])
    flat = MultiGpuApi(
        app,
        RuntimeConfig(n_gpus=4, schedule="overlap+p2p", pipeline_window=4),
        machine=SimMachine(K80_NODE_SPEC.with_gpus(4)),
    )
    a = flat.cudaMalloc(NBYTES)
    b = flat.cudaMalloc(NBYTES)
    flat.cudaMemset(a, 0, NBYTES)
    flat.cudaMemset(b, 0, NBYTES)
    flat.launch(kernel, GRID, BLOCK, [a, b])
    flat_plan = build_launch_plan(flat, app.kernel(kernel.name), GRID, BLOCK, [b, a])
    assert flat_plan.transfers
    assert _lowered_copies(flat, flat_plan) == _copies(flat_plan.transfers)

    # Halo-majority gate: if node-crossing bytes dominate, keep plan order
    # (hoisting the whole network leg would delay the intra-node copies).
    monkeypatch.setattr(executor, "HALO_MAJORITY_RATIO", 0.0)  # every halo byte now "dominates"
    assert halo_first_order(plan, cluster) is None


def test_net_transfers_issue_before_intra_within_fused_launch():
    """At window > 1, each launch's inter-node copies are queued before its
    intra-node sync copies (halo-first priority)."""
    cluster = _cluster(2, 2)
    api = _run(cluster, "overlap+p2p", window=4, iterations=4)[2]
    by_launch = {}
    for iv in api.machine.trace.intervals:
        if iv.category is not Category.TRANSFERS or iv.launch is None:
            continue
        by_launch.setdefault(iv.launch, []).append(iv)
    mixed = {k: ivs for k, ivs in by_launch.items() if len(ivs) > 1}
    assert mixed, "expected launches with both net and intra transfers"
    saw_mixed = False
    for ivs in mixed.values():
        net = [iv for iv in ivs if iv.resource == "net"]
        intra = [iv for iv in ivs if iv.resource != "net"]
        if not net or not intra:
            continue
        saw_mixed = True
        # Issue order is record order; the earliest net copy of the launch
        # is recorded no later than the earliest intra copy.
        first_net = min(iv.start for iv in net)
        first_intra = min(iv.start for iv in intra)
        assert first_net <= first_intra + 1e-12, ivs
    assert saw_mixed
