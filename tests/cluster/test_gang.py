"""Gang projection of launch plans: per-node DAGs + halo exchange."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.cluster.engine import ClusterSimMachine
from repro.cluster.gang import build_gang_plan
from repro.cluster.topology import ClusterSpec
from repro.compiler.pipeline import compile_app
from repro.cuda.api import MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.errors import SimulationError
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sched.graph import build_launch_plan
from repro.sim.topology import MachineSpec

N = 32
BLOCK = Dim3(x=8, y=8)
GRID = Dim3(x=N // 8, y=N // 8)


def _stencil():
    kb = KernelBuilder("five")
    src = kb.array("src", f32, (N, N))
    dst = kb.array("dst", f32, (N, N))
    gy, gx = kb.global_id("y"), kb.global_id("x")
    with kb.if_((gy >= 1) & (gy < N - 1) & (gx >= 1) & (gx < N - 1)):
        dst[gy, gx] = (
            src[gy, gx]
            + src[gy - 1, gx]
            + src[gy + 1, gx]
            + src[gy, gx - 1]
            + src[gy, gx + 1]
        ) * 0.2
    return kb.finish()


def _cluster(n_nodes, gpus_per_node) -> ClusterSpec:
    return ClusterSpec(n_nodes=n_nodes, node=MachineSpec(n_gpus=gpus_per_node))


def _plan_on(cluster):
    """A second-iteration stencil plan (every partition seam needs a halo)."""
    kernel = _stencil()
    app = compile_app([kernel])
    api = MultiGpuApi(
        app,
        RuntimeConfig(n_gpus=cluster.total_gpus),
        machine=ClusterSimMachine(cluster),
        functional=True,
    )
    nbytes = N * N * 4
    a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
    data = np.random.default_rng(0).random((N, N)).astype(np.float32)
    api.cudaMemcpy(a, data, nbytes, MemcpyKind.HostToDevice)
    api.cudaMemset(b, 0, nbytes)
    api.launch(kernel, GRID, BLOCK, [a, b])
    return build_launch_plan(api, app.kernel("five"), GRID, BLOCK, [b, a]), api


class TestProjection:
    def test_validates_and_partitions_the_plan(self):
        cluster = _cluster(2, 4)
        plan, _ = _plan_on(cluster)
        gang = build_gang_plan(plan, cluster)
        gang.validate()
        n_local = sum(len(np_.local_transfers) for np_ in gang.nodes)
        assert n_local + len(gang.halo_transfers) == len(plan.transfers)
        assert sum(len(np_.kernels) for np_ in gang.nodes) == len(plan.kernels)

    def test_classification_matches_topology(self):
        cluster = _cluster(2, 4)
        plan, _ = _plan_on(cluster)
        gang = build_gang_plan(plan, cluster)
        for np_ in gang.nodes:
            for t in np_.local_transfers:
                assert cluster.same_node(t.owner, t.gpu)
            for t in np_.halo_in:
                assert not cluster.same_node(t.owner, t.gpu)
                assert cluster.endpoint_node(t.gpu) == np_.node
            for t in np_.halo_out:
                assert cluster.endpoint_node(t.owner) == np_.node
            for k in np_.kernels:
                assert cluster.node_of(k.gpu) == np_.node

    def test_halo_objects_are_shared_not_copied(self):
        cluster = _cluster(2, 4)
        plan, _ = _plan_on(cluster)
        gang = build_gang_plan(plan, cluster)
        outs = {id(t) for np_ in gang.nodes for t in np_.halo_out}
        ins = {id(t) for np_ in gang.nodes for t in np_.halo_in}
        assert outs == ins  # the same TransferTask objects, a view not a copy
        plan_ids = {id(t) for t in plan.transfers}
        assert ins <= plan_ids

    def test_stencil_on_two_nodes_has_one_halo_each_way(self):
        # A 1-D row split puts exactly one partition seam on the node
        # boundary; the 5-point stencil exchanges one halo per direction.
        cluster = _cluster(2, 4)
        plan, _ = _plan_on(cluster)
        gang = build_gang_plan(plan, cluster)
        assert [len(np_.halo_in) for np_ in gang.nodes] == [1, 1]
        assert [len(np_.halo_out) for np_ in gang.nodes] == [1, 1]
        assert gang.halo_bytes == sum(t.nbytes for t in gang.halo_transfers)
        assert gang.halo_bytes > 0

    def test_one_node_cluster_has_no_halos(self):
        cluster = _cluster(1, 8)
        plan, _ = _plan_on(cluster)
        gang = build_gang_plan(plan, cluster)
        assert gang.halo_transfers == []
        assert gang.halo_bytes == 0
        assert len(gang.nodes[0].local_transfers) == len(plan.transfers)


class TestValidate:
    def test_rejects_misclassified_halo(self):
        cluster = _cluster(2, 4)
        plan, _ = _plan_on(cluster)
        gang = build_gang_plan(plan, cluster)
        # Corrupt the projection: pretend a halo is node-local.
        victim = gang.nodes[0].halo_in.pop()
        gang.nodes[0].local_transfers.append(victim)
        with pytest.raises(SimulationError):
            gang.validate()

    def test_rejects_lost_transfer(self):
        cluster = _cluster(2, 4)
        plan, _ = _plan_on(cluster)
        gang = build_gang_plan(plan, cluster)
        gang.nodes[0].local_transfers.pop()
        with pytest.raises(SimulationError):
            gang.validate()


class TestHaloTierSummary:
    """One launch's coherence bytes by tier, as its ``RunStats`` deltas count them.

    Shipped bytes split by ``inter_node_bytes``, avoided bytes (shared
    copies, RP601) by ``redundant_bytes_avoided_inter`` and trimmed slack
    (irredundant transfers, RP602) by ``overapprox_bytes_avoided_inter``.
    """

    def _dstencil_launcher(self, cluster, irredundant):
        from repro.workloads.common import functional_config
        from repro.workloads.dstencil import DStencilWorkload, src_shape

        wl = DStencilWorkload(functional_config("dstencil"))
        app = compile_app([wl.kernel])
        api = MultiGpuApi(
            app,
            RuntimeConfig(
                n_gpus=cluster.total_gpus,
                shared_copies=True,
                irredundant_transfers=irredundant,
            ),
            machine=ClusterSimMachine(cluster),
            functional=True,
        )
        n = wl.cfg.size
        rows, cols = src_shape(n)
        grid, block = wl.launch_config()
        d_src = api.cudaMalloc(rows * cols * 4)
        d_out = api.cudaMalloc(n * n * 4)
        src = np.random.default_rng(0).random((rows, cols)).astype(np.float32)
        api.cudaMemcpy(d_src, src, rows * cols * 4, MemcpyKind.HostToDevice)
        args = [d_src, d_out]

        def launch():
            """The next launch's tier bytes, tied out against the plan it runs."""
            plan = build_launch_plan(api, app.kernel(wl.kernel.name), grid, block, args)
            before = replace(api.stats)
            api.launch(wl.kernel, grid, block, args)
            delta = {
                f.name: getattr(api.stats, f.name) - getattr(before, f.name)
                for f in fields(before)
                if f.name != "auto_choices"
            }
            inter = [
                t.nbytes for t in plan.transfers if not cluster.same_node(t.owner, t.gpu)
            ]
            reads = [rs for syncs in plan.reads for rs in syncs]
            assert delta["inter_node_transfers"] == len(inter)
            assert delta["inter_node_bytes"] == sum(inter)
            assert delta["sync_bytes"] == sum(t.nbytes for t in plan.transfers)
            assert delta["redundant_bytes_avoided"] == sum(rs.avoided for rs in reads)
            assert delta["overapprox_bytes_avoided"] == sum(rs.overapprox for rs in reads)
            return {
                "intra_bytes": delta["sync_bytes"] - delta["inter_node_bytes"],
                "inter_bytes": delta["inter_node_bytes"],
                "avoided_intra": delta["redundant_bytes_avoided"]
                - delta["redundant_bytes_avoided_inter"],
                "avoided_inter": delta["redundant_bytes_avoided_inter"],
                "trimmed_intra": delta["overapprox_bytes_avoided"]
                - delta["overapprox_bytes_avoided_inter"],
                "trimmed_inter": delta["overapprox_bytes_avoided_inter"],
            }

        return launch

    def test_cold_plan_ships_trimmed_halos_per_tier(self):
        launch = self._dstencil_launcher(_cluster(2, 2), irredundant=True)
        # The first launch ships the (trimmed) linear-distribution mismatch
        # and halo: exactly half the bounding bytes survive per tier (the
        # strided read keeps even columns only), nothing is avoided yet.
        assert launch() == dict(
            intra_bytes=512,
            inter_bytes=256,
            avoided_intra=0,
            avoided_inter=0,
            trimmed_intra=504,
            trimmed_inter=252,
        )

    def test_warm_plan_avoids_everything_still_reporting_slack(self):
        launch = self._dstencil_launcher(_cluster(2, 2), irredundant=True)
        launch()
        # Steady state: shared copies hold every previously shipped byte
        # (the cold transfers reappear tier-for-tier as avoided), while the
        # trimmed slack — never shipped, hence never shared — is re-planned
        # and re-trimmed each launch.
        assert launch() == dict(
            intra_bytes=0,
            inter_bytes=0,
            avoided_intra=512,
            avoided_inter=256,
            trimmed_intra=504,
            trimmed_inter=252,
        )

    def test_without_irredundant_nothing_is_trimmed(self):
        launch = self._dstencil_launcher(_cluster(2, 2), irredundant=False)
        cold = launch()
        warm = launch()
        for tiers in (cold, warm):
            assert tiers["trimmed_intra"] == 0 and tiers["trimmed_inter"] == 0
        # Untrimmed cold transfers carry the slack: double the irredundant
        # bytes per tier, minus the four seam bytes the linear distribution
        # already places correctly.
        assert (cold["intra_bytes"], cold["inter_bytes"]) == (1016, 508)
        assert (warm["avoided_intra"], warm["avoided_inter"]) == (1016, 508)
        assert warm["intra_bytes"] + warm["inter_bytes"] == 0
