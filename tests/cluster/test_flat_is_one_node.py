"""A flat node is the one-node cluster: the runtime's topology is never absent.

Every runtime splits and routes over a :class:`ClusterSpec`: a
``ClusterSimMachine``'s own, or else one node of ``config.n_gpus`` GPUs —
for a flat ``SimMachine`` and for a machine-less functional runtime alike.
Its two-level split is then the flat balanced split.

The fabric tier of each copy is decided when the residual is planned, so a
replayed launch whose plan was already issued asks the topology nothing.
"""

import pytest

from repro.cluster.engine import ClusterSimMachine
from repro.cluster.topology import ClusterSpec
from repro.compiler.pipeline import compile_app
from repro.cuda.dim3 import Dim3
from repro.harness.calibration import K80_NODE_SPEC, k80_cluster
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sched.graph import launch_partitions
from repro.sim.engine import SimMachine
from repro.workloads.common import functional_config
from repro.workloads.hotspot import HotspotWorkload

MACHINES = {
    "flat": lambda n: SimMachine(K80_NODE_SPEC.with_gpus(n)),
    "flat, more GPUs than used": lambda n: SimMachine(K80_NODE_SPEC),
    "machine-less": lambda n: None,
}


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("n_gpus", [1, 3, 4])
def test_flat_runtimes_are_one_node_clusters(machine, n_gpus):
    wl = HotspotWorkload(functional_config("hotspot"))
    app = compile_app(wl.build_kernels())
    api = MultiGpuApi(app, RuntimeConfig(n_gpus=n_gpus), machine=MACHINES[machine](n_gpus))
    assert (api.cluster.n_nodes, api.cluster.gpus_per_node) == (1, n_gpus)
    assert api.cluster.total_gpus == n_gpus
    ck = app.kernel(wl.kernel.name)
    # Fewer blocks than GPUs along the axis leaves trailing partitions empty.
    for grid in (Dim3(x=4, y=4), Dim3(x=2, y=2), Dim3(x=7, y=5)):
        assert launch_partitions(api, ck, grid) == ck.strategy.partitions(grid, n_gpus)


def test_a_cluster_machine_brings_its_own_spec():
    cluster = k80_cluster(2, 2)
    wl = HotspotWorkload(functional_config("hotspot"))
    api = MultiGpuApi(
        compile_app(wl.build_kernels()), RuntimeConfig(n_gpus=4),
        machine=ClusterSimMachine(cluster),
    )
    assert api.cluster is cluster


def test_issued_replays_never_ask_the_topology(monkeypatch):
    """On a 2x2 hotspot loop, once each buffer binding's replayed plan has
    been issued (lowered) once, a replayed launch makes no ``same_node`` or
    ``endpoint_node`` call, yet still counts its inter-node copies."""
    calls = []
    for name in ("same_node", "endpoint_node"):
        original = getattr(ClusterSpec, name)

        def counted(self, *args, _original=original, _name=name):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(ClusterSpec, name, counted)

    wl = HotspotWorkload(functional_config("hotspot", iterations=10))
    app = compile_app(wl.build_kernels())
    api = MultiGpuApi(app, RuntimeConfig(n_gpus=4), machine=ClusterSimMachine(k80_cluster(2, 2)))
    launches = []
    launch = api.launch

    def observed(*args):
        stats = api.stats
        before = (len(calls), stats.residual_cache_hits, stats.inter_node_transfers)
        launch(*args)
        launches.append(
            (
                len(calls) - before[0],
                stats.residual_cache_hits - before[1],
                stats.inter_node_transfers - before[2],
            )
        )

    api.launch = observed
    wl.run(api, wl.make_inputs())
    assert len(launches) == 10
    # Launch 0 plans its residual (a miss) and memoizes its plan under its
    # own binding; launch 1 replays the record for the other ping-pong
    # binding for the first time and lowers that binding's plan.
    steady = launches[2:]
    assert all(replay == 1 for _, replay, _ in steady)
    assert all(inter > 0 for _, _, inter in steady)
    assert [n for n, _, _ in steady] == [0] * len(steady)
