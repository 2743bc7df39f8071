"""A 1-node cluster is indistinguishable from the single-node path.

The satellite acceptance property: a ``ClusterSimMachine`` over a 1xG
cluster must be **bitwise identical** to the flat ``SimMachine`` path —
host-visible buffers, final tracker state, and even the simulated clock —
under every schedule. Clustering, like scheduling, only re-routes device
work; with one node there is nothing to re-route.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.engine import ClusterSimMachine
from repro.cluster.topology import ClusterSpec
from repro.compiler.pipeline import compile_app
from repro.cuda.api import MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.harness.calibration import K80_NODE_SPEC, k80_cluster
from repro.harness.experiments import run_timed
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sched.policy import SCHEDULES
from repro.sim.engine import SimMachine
from repro.workloads.common import table1_configs

N = 32
BLOCK = Dim3(x=8, y=8)
GRID = Dim3(x=N // 8, y=N // 8)

ALL_SCHEDULES = tuple(SCHEDULES) + ("auto",)

taps_strategy = st.lists(
    st.tuples(
        st.integers(-2, 2),
        st.integers(-2, 2),
        st.sampled_from([0.25, 0.5, 1.0, -0.5]),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda t: (t[0], t[1]),
)


def _build_stencil(taps):
    radius = max(max(abs(dy), abs(dx)) for dy, dx, _ in taps)
    kb = KernelBuilder("randst")
    src = kb.array("src", f32, (N, N))
    dst = kb.array("dst", f32, (N, N))
    gy, gx = kb.global_id("y"), kb.global_id("x")
    with kb.if_((gy < N) & (gx < N)):
        with kb.if_(
            (gy >= radius) & (gy < N - radius) & (gx >= radius) & (gx < N - radius)
        ):
            dy0, dx0, c0 = taps[0]
            acc = src[gy + dy0, gx + dx0] * c0
            for dy, dx, c in taps[1:]:
                acc = acc + src[gy + dy, gx + dx] * c
            dst[gy, gx] = acc
        with kb.otherwise():
            dst[gy, gx] = src[gy, gx]
    return kb.finish()


def _run(app, kernel, schedule, machine, n_gpus, iterations, seed):
    api = MultiGpuApi(
        app, RuntimeConfig(n_gpus=n_gpus, schedule=schedule), machine=machine
    )
    nbytes = N * N * 4
    a = api.cudaMalloc(nbytes)
    b = api.cudaMalloc(nbytes)
    data = np.random.default_rng(seed).random((N, N)).astype(np.float32)
    api.cudaMemcpy(a, data, nbytes, MemcpyKind.HostToDevice)
    api.cudaMemset(b, 0, nbytes)
    src, dst = a, b
    for _ in range(iterations):
        api.launch(kernel, GRID, BLOCK, [src, dst])
        src, dst = dst, src
    out_a = np.zeros((N, N), dtype=np.float32)
    out_b = np.zeros((N, N), dtype=np.float32)
    api.cudaMemcpy(out_a, a, nbytes, MemcpyKind.DeviceToHost)
    api.cudaMemcpy(out_b, b, nbytes, MemcpyKind.DeviceToHost)
    trackers = [
        [(s.start, s.end, s.owner) for s in vb.tracker.query(0, vb.nbytes)]
        for vb in (a, b)
    ]
    return (out_a, out_b), trackers, api.elapsed()


@settings(max_examples=10, deadline=None)
@given(
    taps=taps_strategy,
    n_gpus=st.sampled_from([2, 4, 8]),
    iterations=st.integers(1, 3),
    seed=st.integers(0, 9),
)
def test_one_node_cluster_bitwise_identical(taps, n_gpus, iterations, seed):
    kernel = _build_stencil(taps)
    app = compile_app([kernel])
    spec = K80_NODE_SPEC.with_gpus(n_gpus)
    cluster = ClusterSpec(n_nodes=1, node=spec)
    for schedule in ALL_SCHEDULES:
        flat = _run(app, kernel, schedule, SimMachine(spec), n_gpus, iterations, seed)
        clus = _run(
            app, kernel, schedule, ClusterSimMachine(cluster), n_gpus, iterations, seed
        )
        (fa, fb), ft, f_elapsed = flat
        (ca, cb), ct, c_elapsed = clus
        assert np.array_equal(fa, ca), (schedule, taps)
        assert np.array_equal(fb, cb), (schedule, taps)
        assert ct == ft, (schedule, taps)
        # Identical resources -> identical simulated clock, to the bit.
        assert c_elapsed == f_elapsed, (schedule, taps)


@pytest.mark.parametrize("workload", ["hotspot", "matmul", "nbody"])
@pytest.mark.parametrize("schedule", ALL_SCHEDULES)
def test_acceptance_workloads_match_single_node(workload, schedule):
    cfg = next(c for c in table1_configs(workload) if c.size_label == "small")
    # The flat node carries no network tier; the calibrated cluster's
    # NIC and fabric must not matter on one node.
    flat = ClusterSpec(n_nodes=1, node=K80_NODE_SPEC.with_gpus(8))
    t_flat, flat_api = run_timed(cfg, RuntimeConfig(schedule=schedule), flat)
    t_clus, clus_api = run_timed(cfg, RuntimeConfig(schedule=schedule), k80_cluster(1, 8))
    assert t_clus == t_flat
    assert clus_api.stats.inter_node_transfers == 0
    assert clus_api.stats.inter_node_bytes == 0
    tiers = clus_api.machine.trace.transfer_exposure_by_tier()
    assert tiers["inter"] == {"hidden": 0.0, "exposed": 0.0}
