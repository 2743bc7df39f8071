"""Topological-order invariance (hypothesis): scheduling cannot change bits.

The central correctness property of the task-graph frontend, stated as a
property test: run the tiled-Cholesky graph in *any* valid topological
order — picked at random by Kahn's algorithm with hypothesis choosing
among the ready set — and the outputs *and* the final tracker/sharer
state must be bitwise-identical to barrier-serialized execution of the
same graph under the same runtime configuration.  Swept across scheduler
policies, shared-copy coherence, and pipeline windows, mirroring
tests/serve/test_interleaving.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.pipeline import compile_app
from repro.harness.identity import observe
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.workloads import functional_config
from repro.workloads.cholesky import CholeskyWorkload

N_GPUS = 4

WL = CholeskyWorkload(functional_config("cholesky", size=32))
INPUTS = WL.make_inputs(seed=11)
APP = compile_app(WL.build_kernels())

configs = st.sampled_from(
    [
        RuntimeConfig(n_gpus=N_GPUS, schedule="sequential"),
        RuntimeConfig(n_gpus=N_GPUS, schedule="overlap"),
        RuntimeConfig(n_gpus=N_GPUS, schedule="overlap", shared_copies=True),
        RuntimeConfig(n_gpus=N_GPUS, schedule="sequential", pipeline_window=4),
        RuntimeConfig(
            n_gpus=N_GPUS, schedule="overlap+p2p", shared_copies=True, pipeline_window=2
        ),
    ]
)

def _tracker_state(api):
    return observe(api, {}).tracker


# Serialized baselines, one per config (outputs + final tracker state).
_BASELINES = {}


def _baseline(config):
    if config not in _BASELINES:
        api = MultiGpuApi(APP, config)
        got = WL.run(api, INPUTS, mode="serialized")
        _BASELINES[config] = (got, _tracker_state(api))
    return _BASELINES[config]


def _random_topological_order(graph, data):
    indeg = {t.index: 0 for t in graph.tasks}
    succs = {t.index: [] for t in graph.tasks}
    for e in graph.edges:
        indeg[e.dst] += 1
        succs[e.src].append(e.dst)
    ready = sorted(i for i, d in indeg.items() if d == 0)
    order = []
    while ready:
        pick = data.draw(st.integers(0, len(ready) - 1), label="ready slot")
        i = ready.pop(pick)
        order.append(i)
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
                ready.sort()
    return order


@settings(max_examples=25, deadline=None)
@given(config=configs, data=st.data())
def test_any_topological_order_matches_serialized(config, data):
    # One throwaway graph-mode run materializes the graph to permute.
    api = MultiGpuApi(APP, config)
    WL.run(api, INPUTS, mode="graph")
    order = _random_topological_order(WL.last_graph, data)

    api = MultiGpuApi(APP, config)
    got = WL.run(api, INPUTS, mode="graph", order=order)
    ref, ref_state = _baseline(config)
    assert all(np.array_equal(ref[k], got[k]) for k in ref), (
        f"outputs diverge under order {order} "
        f"(schedule={config.schedule}, shared={config.shared_copies}, "
        f"window={config.pipeline_window})"
    )
    assert _tracker_state(api) == ref_state, (
        f"tracker state diverges under order {order} "
        f"(schedule={config.schedule}, shared={config.shared_copies}, "
        f"window={config.pipeline_window})"
    )
