"""Shared-copy coherence on clusters: nearest-copy routing and halo shrink.

Three layers of the same claim — a valid intra-node copy beats a
cross-fabric owner:

* :func:`~repro.runtime.sync.pick_source` ranks an intra-node sharer above
  the remote owner (unit);
* a broadcast-read workload on a 2x2 cluster moves strictly fewer
  inter-node bytes (and less network-tier transfer time) with shared
  copies on, with bitwise-identical results (integration);
* a launch plan's cross-node copies shrink to nothing once every
  node holds a sharer copy (plan-level).
"""

import numpy as np
import pytest

from repro.cluster.engine import ClusterSimMachine
from repro.cluster.topology import ClusterSpec
from repro.cuda.api import MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.harness.calibration import k80_cluster
from repro.harness.experiments import _redundancy_kernels
from repro.compiler.pipeline import compile_app
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.runtime.sync import pick_source
from repro.runtime.tracker import Segment
from repro.sched.graph import build_launch_plan
from repro.sim.trace import Category

N = 1024
NBYTES = N * 4


class TestPickSource:
    def test_no_cluster_returns_owner(self):
        # A flat node is the one-node cluster: every holder is equidistant.
        seg = Segment(0, 100, 1, frozenset({0, 3}))
        assert pick_source(seg, 2, ClusterSpec.single_node(4)) == 1

    def test_prefers_intra_node_sharer_over_remote_owner(self):
        cluster = k80_cluster(2, 2)  # node 0: {0, 1}; node 1: {2, 3}
        seg = Segment(0, 100, 0, frozenset({2}))
        # GPU 3 fetches: sharer 2 is on its own node, owner 0 is not.
        assert pick_source(seg, 3, cluster) == 2
        # GPU 1 fetches: the owner itself is intra-node.
        assert pick_source(seg, 1, cluster) == 0

    def test_owner_breaks_intra_node_ties(self):
        cluster = k80_cluster(2, 2)
        seg = Segment(0, 100, 1, frozenset({0}))
        # Both owner and sharer are on GPU 0's node: prefer the owner.
        assert pick_source(seg, 0, cluster) == 1

    def test_lowest_device_breaks_remaining_ties(self):
        cluster = k80_cluster(2, 2)
        seg = Segment(0, 100, 0, frozenset({2, 3}))
        # HOST endpoints live on the head node (node 0) — owner 0 is local.
        assert pick_source(seg, -1, cluster) == 0
        # For GPU 2, sharers 2 and 3 are both local and neither owns.
        assert pick_source(seg, 2, cluster) == 2

    def test_sole_owner_is_the_only_source(self):
        # The γ D2H gather builds sharer-less segments: even a remote owner
        # is the source, whatever node the destination is on.
        cluster = k80_cluster(2, 2)
        assert pick_source(Segment(0, 100, 3), -1, cluster) == 3
        assert pick_source(Segment(0, 100, 3), 0, cluster) == 3


def _run_broadcast(shared, iterations=4):
    aligned, broadcast = _redundancy_kernels(N)
    app = compile_app([broadcast])
    machine = ClusterSimMachine(k80_cluster(2, 2))
    api = MultiGpuApi(
        app,
        RuntimeConfig(n_gpus=4, schedule="sequential", shared_copies=shared),
        machine=machine,
    )
    table = api.cudaMalloc(NBYTES)
    out = api.cudaMalloc(NBYTES)
    api.cudaMemcpy(
        table, np.linspace(0.0, 1.0, N, dtype=np.float32), NBYTES, MemcpyKind.HostToDevice
    )
    api.cudaMemset(out, 0, NBYTES)
    grid, block = Dim3(N // 128), Dim3(128)
    for _ in range(iterations):
        api.launch(broadcast, grid, block, [table, out])
    result = np.zeros(N, dtype=np.float32)
    api.cudaMemcpy(result, out, NBYTES, MemcpyKind.DeviceToHost)
    return api, broadcast, (table, out), grid, block, result


class TestClusterTraffic:
    def test_inter_node_bytes_and_tier_time_drop(self):
        api_off, *_, ref = _run_broadcast(shared=False)
        api_on, *_, got = _run_broadcast(shared=True)
        assert np.array_equal(ref, got)
        assert api_on.stats.inter_node_bytes < api_off.stats.inter_node_bytes
        assert api_on.stats.inter_node_transfers < api_off.stats.inter_node_transfers
        assert api_on.stats.redundant_bytes_avoided > 0
        tiers_off = api_off.machine.trace.transfer_exposure_by_tier()
        tiers_on = api_on.machine.trace.transfer_exposure_by_tier()
        inter_off = tiers_off["inter"]["hidden"] + tiers_off["inter"]["exposed"]
        inter_on = tiers_on["inter"]["hidden"] + tiers_on["inter"]["exposed"]
        assert inter_on < inter_off

    def test_one_node_cluster_identical_to_flat_with_shared_copies(self):
        """The 1-node bitwise/clock equivalence must survive the new flag."""
        aligned, broadcast = _redundancy_kernels(N)
        app = compile_app([broadcast])
        outs = []
        for machine in (None, ClusterSimMachine(k80_cluster(1, 4))):
            api = MultiGpuApi(
                app,
                RuntimeConfig(n_gpus=4, shared_copies=True),
                machine=machine,
            )
            table = api.cudaMalloc(NBYTES)
            out = api.cudaMalloc(NBYTES)
            api.cudaMemcpy(
                table,
                np.linspace(0.0, 1.0, N, dtype=np.float32),
                NBYTES,
                MemcpyKind.HostToDevice,
            )
            api.cudaMemset(out, 0, NBYTES)
            for _ in range(3):
                api.launch(broadcast, Dim3(N // 128), Dim3(128), [table, out])
            result = np.zeros(N, dtype=np.float32)
            api.cudaMemcpy(result, out, NBYTES, MemcpyKind.DeviceToHost)
            outs.append((result, [table.coherence_state(), out.coherence_state()]))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1]


class TestGangHaloView:
    def test_halo_intervals_shrink_once_shared(self):
        api, kernel, (table, out), grid, block, _ = _run_broadcast(shared=True)
        cluster = api.cluster
        ck = api.app.kernel(kernel.name)
        # A fresh plan after warm-up: every node already shares the table,
        # so no copy crosses the fabric.
        plan = build_launch_plan(api, ck, grid, block, [table, out])
        assert all(cluster.same_node(t.owner, t.gpu) for t in plan.transfers)

        api_off, kernel_off, (table_off, out_off), grid, block, _ = _run_broadcast(
            shared=False
        )
        ck_off = api_off.app.kernel(kernel_off.name)
        plan_off = build_launch_plan(api_off, ck_off, grid, block, [table_off, out_off])
        halos = [
            t for t in plan_off.transfers if not api_off.cluster.same_node(t.owner, t.gpu)
        ]
        assert sum(t.nbytes for t in halos) > 0
        table_halos = [t for t in halos if t.vb.vb_id == table_off.vb_id]
        assert table_halos
        for t in table_halos:
            assert 0 <= t.start < t.end <= NBYTES
