#!/usr/bin/env python3
"""``pipeline_window`` on a cluster: plan-order against halo-first copies.

Every launch is issued when it is submitted, as the paper's host code
drains every launch (Figure 4), so the window buffers nothing. Its one
effect is the order in which a launch's copies go out on a cluster: at
``pipeline_window=1`` they issue in plan order, partition by partition;
at any value > 1 they issue halo-first — inter-node halo copies, then
intra-node seam feeders, then interior copies
(``repro.cluster.gang.halo_first_order``), whenever the halo is a
minority of the launch's copy bytes. See docs/scheduler.md.

Three things to observe in the output:

1. the host-visible results are **bitwise identical** under both orders
   (the order moves simulated issue only);
2. the first copies of one launch: plan order starts on the intra-node
   lanes, halo-first on the network (``net``);
3. time and exposed transfer time per order and schedule. Whether the
   halo-first order helps depends on the schedule and the problem size;
   ``repro bench pipeline`` and docs/scheduler.md record where it trims
   exposed time and where it adds to it.

Run:  python examples/pipeline_demo.py
"""

import numpy as np

from repro.cluster.engine import ClusterSimMachine
from repro.cluster.topology import ClusterSpec
from repro.compiler import compile_app
from repro.harness.calibration import K80_NODE_SPEC
from repro.runtime import MultiGpuApi, RuntimeConfig
from repro.sim.trace import Category
from repro.workloads.common import ProblemConfig
from repro.workloads.hotspot import HotspotWorkload

N = 512
ITERS = 8
NODES, GPUS_PER_NODE = 2, 4
#: pipeline_window per copy order.
ORDERS = {"plan order": 1, "halo-first": 2}
SHOWN_LAUNCH, SHOWN_COPIES = 3, 6


def run(schedule: str, window: int):
    workload = HotspotWorkload(ProblemConfig("hotspot", "demo", N, ITERS))
    cluster = ClusterSpec(n_nodes=NODES, node=K80_NODE_SPEC.with_gpus(GPUS_PER_NODE))
    api = MultiGpuApi(
        compile_app(workload.build_kernels()),
        RuntimeConfig(n_gpus=cluster.total_gpus, schedule=schedule, pipeline_window=window),
        machine=ClusterSimMachine(cluster),
    )
    return workload.run(api, workload.make_inputs(seed=11)), api


def first_copies(api) -> str:
    """The resources of the first copies one launch issued, in issue order."""
    copies = [
        iv.resource
        for iv in api.machine.trace.intervals
        if iv.category is Category.TRANSFERS and iv.launch == SHOWN_LAUNCH
    ]
    return " ".join(copies[:SHOWN_COPIES])


def main():
    print(f"Hotspot {N}x{N}, {ITERS} iterations, {NODES}x{GPUS_PER_NODE} simulated cluster\n")
    print(f"{'schedule':<12} {'order':<11} {'time [ms]':>10} {'exposed [ms]':>13} {'hidden':>7}")
    results = {}
    shown = {}
    for schedule in ("sequential", "overlap+p2p"):
        for order, window in ORDERS.items():
            results[schedule, order], api = run(schedule, window)
            exposure = api.machine.trace.transfer_exposure()
            total = exposure["hidden"] + exposure["exposed"]
            print(
                f"{schedule:<12} {order:<11} {api.elapsed() * 1e3:>10.3f} "
                f"{exposure['exposed'] * 1e3:>13.3f} {exposure['hidden'] / total:>7.1%}"
            )
            if schedule == "overlap+p2p":
                shown[order] = first_copies(api)

    print(f"\nfirst {SHOWN_COPIES} copies of launch {SHOWN_LAUNCH} (overlap+p2p):")
    for order, copies in shown.items():
        print(f"  {order:<11} {copies}")

    baseline = results["sequential", "plan order"]
    for key, result in results.items():
        for name in baseline:
            assert np.array_equal(baseline[name], result[name]), (key, name)
    print("\nboth orders under both schedules produced bitwise-identical results")


if __name__ == "__main__":
    main()
