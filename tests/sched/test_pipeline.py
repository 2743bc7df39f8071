"""``pipeline_window=1`` replays the recorded per-launch Figure 4 traces.

``golden/window_one_traces.json`` holds the traces of three ping-pong
hotspot launches on a flat node under each policy, plus a 2x2 cluster for
the per-node gang barrier; the run must reproduce them event for event.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.engine import ClusterSimMachine
from repro.compiler.pipeline import compile_app
from repro.cuda.api import MemcpyKind
from repro.harness.calibration import K80_NODE_SPEC, k80_cluster
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sim.engine import SimMachine
from repro.workloads.hotspot import BLOCK, build_hotspot_kernel

N = 64
N_GPUS = 4
NBYTES = N * N * 4


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
    """The executor reproduces the recorded Figure 4 schedule.

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


def test_pipeline_window_validation():
    from repro.errors import RuntimeApiError

    with pytest.raises(RuntimeApiError):
        RuntimeConfig(n_gpus=2, pipeline_window=0)
    with pytest.raises(RuntimeApiError):
        RuntimeConfig(n_gpus=2, pipeline_window=-1)
    with pytest.raises(RuntimeApiError):
        RuntimeConfig(n_gpus=2, pipeline_window=2.5)
