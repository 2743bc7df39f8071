"""Cross-launch pipelining: fused windows, edge precision, flush points.

Three layers of guarantees:

* :class:`~repro.sched.graph.PipelinedPlan` derives *interval-precise*
  cross-launch edges — on a 1-halo stencil, launch k+1 depends on another
  device's launch-k work only through the thin seam transfers, never
  kernel-to-kernel;
* ``pipeline_window=1`` reproduces, event for event, the per-launch
  Figure 4 traces recorded in ``golden/window_one_traces.json`` (flat node
  under each policy, plus a 2x2 cluster for the per-node gang barrier);
* every host-visible operation is a flush point, so buffered launches can
  never leak past an observation of the simulated clock or tracker state.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.engine import ClusterSimMachine
from repro.compiler.pipeline import compile_app
from repro.cuda.api import MemcpyKind
from repro.cuda.device import HOST
from repro.harness.calibration import K80_NODE_SPEC, k80_cluster
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sched.executor import apply_plan_functional
from repro.sched.graph import PipelinedPlan, build_launch_plan
from repro.sim.engine import SimMachine
from repro.workloads.hotspot import BLOCK, build_hotspot_kernel

N = 64
N_GPUS = 4
NBYTES = N * N * 4
ROW = N * 4  # bytes per stencil row


def _grid():
    from repro.cuda.dim3 import Dim3

    return Dim3(x=(N + BLOCK.x - 1) // BLOCK.x, y=(N + BLOCK.y - 1) // BLOCK.y)


def _prepared_api(machine=None, **cfg):
    kernel = build_hotspot_kernel(N)
    app = compile_app([kernel])
    api = MultiGpuApi(app, RuntimeConfig(n_gpus=N_GPUS, **cfg), machine=machine)
    a = api.cudaMalloc(NBYTES)
    b = api.cudaMalloc(NBYTES)
    data = np.random.default_rng(0).random((N, N)).astype(np.float32)
    api.cudaMemcpy(a, data, NBYTES, MemcpyKind.HostToDevice)
    api.cudaMemset(b, 0, NBYTES)
    return api, app.kernel(kernel.name), a, b


def _two_launch_window(api, ck, a, b):
    """Plans for two ping-pong launches, functional state applied between."""
    plan0 = build_launch_plan(api, ck, _grid(), BLOCK, [a, b])
    apply_plan_functional(api, plan0)
    plan1 = build_launch_plan(api, ck, _grid(), BLOCK, [b, a])
    apply_plan_functional(api, plan1)
    window = PipelinedPlan()
    window.append(plan0, 0)
    window.append(plan1, 1)
    return plan0, plan1, window


def test_cross_launch_edges_are_seam_thin():
    """1-halo stencil: cross-launch coupling is exactly the halo exchange.

    Launch 1's kernels may depend on launch 0 only on their *own* device
    (the partition they overwrite); every cross-*device* dependency runs
    through a transfer whose byte interval is a thin seam row, so interior
    bytes carry zero cross-launch edges to remote work.
    """
    api, ck, a, b = _prepared_api()
    plan0, plan1, window = _two_launch_window(api, ck, a, b)
    window.validate()
    edges = window.cross_launch_edges()
    assert edges, "ping-pong launches must be coupled"
    assert all(e.src_launch == 0 and e.dst_launch == 1 for e in edges)

    kernel_nodes0 = {k.node: k for k in plan0.kernels}
    kernel_nodes1 = {k.node: k for k in plan1.kernels}
    transfer_nodes1 = {t.node: t for t in plan1.transfers}
    assert transfer_nodes1, "expected halo transfers in the second launch"

    for e in edges:
        if e.dst_node in kernel_nodes1 and e.src_node in kernel_nodes0:
            # Kernel-to-kernel coupling never crosses devices: remote
            # launch-0 results reach a launch-1 kernel only via transfers.
            assert kernel_nodes0[e.src_node].gpu == kernel_nodes1[e.dst_node].gpu, e
        if e.dst_node in transfer_nodes1 and e.kind == "raw":
            t = transfer_nodes1[e.dst_node]
            # The producing write lives on the transfer's source instance.
            assert e.dev == t.owner, e
            # Interval precision: the dependency covers (part of) the
            # transferred seam bytes, nothing wider.
            assert t.start <= e.lo < e.hi <= t.end, e

    # Seam thinness: the entire cross-device coupling (the launch-1 halo
    # transfers) moves at most two rows per internal partition boundary.
    halo_bytes = sum(t.nbytes for t in plan1.transfers if t.owner != HOST)
    assert 0 < halo_bytes <= 2 * (N_GPUS - 1) * ROW


def test_pipelined_plan_append_rejects_reordered_launches():
    api, ck, a, b = _prepared_api()
    plan = build_launch_plan(api, ck, _grid(), BLOCK, [a, b])
    window = PipelinedPlan()
    window.append(plan, 5)
    with pytest.raises(AssertionError):
        window.append(plan, 5)
    with pytest.raises(AssertionError):
        window.append(plan, 3)
    window.clear()
    window.append(plan, 0)  # fresh after clear
    assert len(window) == 1


GOLDEN = Path(__file__).parent / "golden" / "window_one_traces.json"

def _flat_node():
    return SimMachine(K80_NODE_SPEC.with_gpus(N_GPUS))


def _cluster_2x2():
    return ClusterSimMachine(k80_cluster(2, 2))


#: Golden case -> (machine factory, RuntimeConfig overrides). The cluster
#: cases pin what the flat ones cannot reach: the per-node gang barrier, the
#: barrier-ordered kernel issue and the sharer charge behind each copy.
GOLDEN_CASES = {
    "flat-sequential": (_flat_node, dict(schedule="sequential")),
    "flat-overlap": (_flat_node, dict(schedule="overlap")),
    "flat-overlap+p2p": (_flat_node, dict(schedule="overlap+p2p")),
    "2x2-sequential-shared": (
        _cluster_2x2, dict(schedule="sequential", shared_copies=True)
    ),
    "2x2-overlap+p2p-shared": (
        _cluster_2x2, dict(schedule="overlap+p2p", shared_copies=True)
    ),
}


def _golden_record(case):
    """Three ping-pong hotspot launches at window 1, as the fixture stores them."""
    make_machine, cfg = GOLDEN_CASES[case]
    machine = make_machine()
    api, ck, src, dst = _prepared_api(machine, pipeline_window=1, **cfg)
    for _ in range(3):
        api.launch(ck.kernel, _grid(), BLOCK, [src, dst])
        src, dst = dst, src
    return {
        "intervals": [
            [iv.resource, iv.start, iv.end, iv.category.value, iv.label, iv.launch]
            for iv in machine.trace.intervals
        ],
        "elapsed": machine.elapsed(),
        "sync_bytes": api.stats.sync_bytes,
        "partition_launches": api.stats.partition_launches,
    }


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_window_one_matches_golden_trace(case):
    """The submit/flush executor reproduces the recorded Figure 4 schedule.

    Exact equality, floats included: JSON round-trips them and the timing
    path never sums floats in an order that could vary. The flat cases were
    recorded from the monolithic ``execute_plan`` this executor replaced (PR 11),
    the 2x2 cases from the live path at the same commit.
    When a change moves the simulated schedule *on purpose*, regenerate::

        PYTHONPATH=src python - <<'EOF'
        import json
        import tests.sched.test_pipeline as t
        body = ",\\n".join(
            json.dumps(case) + ": "
            + json.dumps(t._golden_record(case)).replace("], [", "],\\n[")
            for case in t.GOLDEN_CASES
        )
        t.GOLDEN.write_text("{\\n" + body + "\\n}\\n")
        EOF
    """
    assert _golden_record(case) == json.loads(GOLDEN.read_text())[case]


def test_host_visible_ops_flush_the_window():
    """Every observation point drains buffered launches first."""
    machine = SimMachine(K80_NODE_SPEC.with_gpus(N_GPUS))
    kernel = build_hotspot_kernel(N)
    app = compile_app([kernel])
    api = MultiGpuApi(
        app,
        RuntimeConfig(n_gpus=N_GPUS, schedule="overlap+p2p", pipeline_window=8),
        machine=machine,
    )
    a = api.cudaMalloc(NBYTES)
    b = api.cudaMalloc(NBYTES)
    data = np.random.default_rng(2).random((N, N)).astype(np.float32)
    api.cudaMemcpy(a, data, NBYTES, MemcpyKind.HostToDevice)
    api.cudaMemset(b, 0, NBYTES)

    api.launch(kernel, _grid(), BLOCK, [a, b])
    api.launch(kernel, _grid(), BLOCK, [b, a])
    assert api.pipeline.depth == 2, "window of 8 must buffer both launches"
    events_before = len(machine.trace)

    # A user tracker query is host-visible: it must drain the window.
    a.coherence_state()
    assert api.pipeline.depth == 0
    assert len(machine.trace) > events_before
    assert api.stats.pipeline_max_batch == 2

    # D2H memcpy flushes too (and the result reflects both launches).
    api.launch(kernel, _grid(), BLOCK, [a, b])
    assert api.pipeline.depth == 1
    out = np.zeros((N, N), dtype=np.float32)
    api.cudaMemcpy(out, b, NBYTES, MemcpyKind.DeviceToHost)
    assert api.pipeline.depth == 0

    # cudaDeviceSynchronize and elapsed() are drain points as well.
    api.launch(kernel, _grid(), BLOCK, [b, a])
    assert api.pipeline.depth == 1
    api.cudaDeviceSynchronize()
    assert api.pipeline.depth == 0
    api.launch(kernel, _grid(), BLOCK, [a, b])
    api.elapsed()
    assert api.pipeline.depth == 0

    # Flushing an empty pipeline is a no-op, not an error.
    before = len(machine.trace)
    api.pipeline.flush()
    assert len(machine.trace) == before


def test_window_flushes_when_full():
    machine = SimMachine(K80_NODE_SPEC.with_gpus(N_GPUS))
    kernel = build_hotspot_kernel(N)
    app = compile_app([kernel])
    api = MultiGpuApi(
        app,
        RuntimeConfig(n_gpus=N_GPUS, schedule="overlap", pipeline_window=2),
        machine=machine,
    )
    a = api.cudaMalloc(NBYTES)
    b = api.cudaMalloc(NBYTES)
    api.cudaMemset(a, 0, NBYTES)
    api.cudaMemset(b, 0, NBYTES)
    src, dst = a, b
    for i in range(4):
        api.launch(kernel, _grid(), BLOCK, [src, dst])
        src, dst = dst, src
        assert api.pipeline.depth == (i + 1) % 2
    assert api.stats.pipeline_flushes == 2
    assert api.stats.pipeline_max_batch == 2


def test_pipeline_window_validation():
    from repro.errors import RuntimeApiError

    with pytest.raises(RuntimeApiError):
        RuntimeConfig(n_gpus=2, pipeline_window=0)
    with pytest.raises(RuntimeApiError):
        RuntimeConfig(n_gpus=2, pipeline_window=-1)
    with pytest.raises(RuntimeApiError):
        RuntimeConfig(n_gpus=2, pipeline_window=2.5)
