#!/usr/bin/env python3
"""Multi-node cluster simulation, demonstrated (see docs/cluster.md).

Runs the paper's Hotspot stencil on clusters with the *same total GPU
count* but different shapes — 1x8 (one fat node, no network) vs 2x4 and
4x2 (the grid split hierarchically: node intervals first, then per-GPU
ranges, halos at node seams crossing the NIC/fabric tier).

Three things to observe in the output:

1. the host-visible results are **bitwise identical** on every shape and
   under every schedule — clustering, like scheduling, only re-routes
   device work;
2. the 1x8 shape reports zero inter-node traffic, and the exposure
   accounting splits cleanly: intra + inter buckets always sum to the
   TRANSFERS busy time;
3. multi-node shapes pay for their halos at the network rate, but the
   ``overlap`` schedules hide most of that behind compute — the copies
   of one launch show how few of them actually cross the fabric.

Run:  python examples/cluster_demo.py
"""

import numpy as np

from repro.cluster import ClusterSimMachine
from repro.compiler import compile_app
from repro.harness.calibration import k80_cluster
from repro.runtime import MultiGpuApi, RuntimeConfig
from repro.sched import build_launch_plan
from repro.sim.trace import Category
from repro.workloads.common import ProblemConfig
from repro.workloads.hotspot import HotspotWorkload

N = 1024
ITERS = 10
SHAPES = ((1, 8), (2, 4), (4, 2))
SCHEDULE = "overlap"


def run(n_nodes: int, gpus_per_node: int, schedule: str = SCHEDULE):
    cfg = ProblemConfig("hotspot", "demo", N, ITERS)
    workload = HotspotWorkload(cfg)
    app = compile_app(workload.build_kernels())
    cluster = k80_cluster(n_nodes, gpus_per_node)
    machine = ClusterSimMachine(cluster)
    api = MultiGpuApi(
        app,
        RuntimeConfig(n_gpus=cluster.total_gpus, schedule=schedule),
        machine=machine,
    )
    result = workload.run(api, workload.make_inputs(seed=7))
    return result, api


def main():
    print(
        f"Hotspot {N}x{N}, {ITERS} iterations, equal-GPU cluster shapes, "
        f"{SCHEDULE!r} schedule\n"
    )

    results = {}
    print(
        f"{'shape':<6} {'time [s]':>9} {'transfers':>10} "
        f"{'intra exp':>10} {'inter exp':>10} {'inter copies':>13}"
    )
    for n_nodes, gpus_per_node in SHAPES:
        result, api = run(n_nodes, gpus_per_node)
        results[(n_nodes, gpus_per_node)] = result
        trace = api.machine.trace
        tiers = trace.transfer_exposure_by_tier()
        busy = trace.busy_time(Category.TRANSFERS)
        split = sum(b for tier in tiers.values() for b in tier.values())
        assert abs(split - busy) <= 1e-9 * max(1.0, busy)  # accounting identity
        print(
            f"{n_nodes}x{gpus_per_node:<4} {api.elapsed():>9.4f} {busy:>10.4f}"
            f" {tiers['intra']['exposed']:>10.5f} {tiers['inter']['exposed']:>10.5f}"
            f" {api.stats.inter_node_transfers:>13}"
        )

    ref = results[SHAPES[0]]
    for shape in SHAPES[1:]:
        for key in ref:
            assert np.array_equal(ref[key], results[shape][key]), shape
    print("\nall cluster shapes produced bitwise-identical results")

    # Peek at the copies of one launch on the 2x4 cluster: the ones whose
    # endpoints sit on different nodes cross the NIC/fabric tier.
    cluster = k80_cluster(2, 4)
    cfg = ProblemConfig("hotspot", "demo", N, ITERS)
    workload = HotspotWorkload(cfg)
    app = compile_app(workload.build_kernels())
    api = MultiGpuApi(
        app,
        RuntimeConfig(n_gpus=cluster.total_gpus),
        machine=ClusterSimMachine(cluster),
        functional=True,
    )
    import repro.cuda.api as cuda_api

    nbytes = N * N * 4
    a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
    api.cudaMemcpy(a, np.zeros((N, N), np.float32), nbytes, cuda_api.MemcpyKind.HostToDevice)
    api.cudaMemset(b, 0, nbytes)
    grid, block = workload.launch_config()
    plan = build_launch_plan(api, app.kernel("hotspot"), grid, block, [a, b])
    halos = [t for t in plan.transfers if not cluster.same_node(t.owner, t.gpu)]
    print(
        f"\ncopies of the first launch on a 2x4 cluster: {len(plan.transfers)}, "
        f"{len(halos)} of them cross-node:"
    )
    for t in halos:
        print(
            f"  gpu{t.owner} (node {cluster.endpoint_node(t.owner)}) -> "
            f"gpu{t.gpu} (node {cluster.node_of(t.gpu)}): bytes [{t.start}, {t.end})"
        )
    print(f"  total: {sum(t.nbytes for t in halos)} bytes over the fabric")

if __name__ == "__main__":
    main()
