"""The taskgraph bench's helpers and self-checks (fast paths only).

The full ``repro bench taskgraph`` study simulates a 16-GPU machine; CI's
``bench-registry`` job runs it end to end. Here we pin the cheap
invariants: workload registry, the adversarial order generator, the order
sweep on one small configuration set, and each claim of
:func:`taskgraph_failures` firing on a study doctored to violate it.
"""

import dataclasses

import numpy as np
import pytest

from repro.tasks.bench import (
    TASKGRAPH_WORKLOADS,
    TaskGraphPoint,
    TaskGraphStudy,
    _alternative_order,
    order_sweep,
    taskgraph_failures,
    taskgraph_study,
)
from repro.workloads import EXTRA_WORKLOADS, functional_config
from repro.workloads.cholesky import CholeskyWorkload


def test_workload_registry_is_consistent():
    assert set(TASKGRAPH_WORKLOADS) == {"cholesky", "imgpipe"}
    assert set(TASKGRAPH_WORKLOADS) <= set(EXTRA_WORKLOADS)


def test_unknown_workload_rejected():
    with pytest.raises(ValueError, match="unknown taskgraph workload"):
        taskgraph_study(workloads=["hotspot"])


def test_alternative_order_is_topological_and_adversarial():
    from repro.compiler.pipeline import compile_app
    from repro.runtime.api import MultiGpuApi
    from repro.runtime.config import RuntimeConfig

    wl = CholeskyWorkload(functional_config("cholesky", size=32))
    api = MultiGpuApi(compile_app(wl.build_kernels()), RuntimeConfig(n_gpus=2))
    wl.run(api, wl.make_inputs(seed=1))
    g = wl.last_graph
    order = _alternative_order(g)
    assert sorted(order) == list(range(len(g.tasks)))
    assert order != list(range(len(g.tasks)))  # actually adversarial
    position = {idx: pos for pos, idx in enumerate(order)}
    assert all(position[e.src] < position[e.dst] for e in g.edges)


def test_identity_sweep_smoke():
    assert order_sweep("cholesky", windows=(2,)) == []


def _good_study():
    point = dict(n_gpus=16, tasks=20, edges=45, hidden_transfer_time=1.0, exposed_transfer_time=0.5)
    study = TaskGraphStudy(workloads=["cholesky"], n_gpus=16)
    study.points = [
        TaskGraphPoint("cholesky", "serialized", time=2.0, transfer_busy_time=1.5, **point),
        TaskGraphPoint("cholesky", "graph", time=1.0, transfer_busy_time=1.5, **point),
    ]
    study.graph_stats["cholesky"] = {
        "nonaffine_tasks": 0,
        "whole_buffer_syncs": 0,
        "diagnostic_codes": [],
    }
    study.fallback_launches["cholesky"] = 0
    study.cholesky_max_err, study.cholesky_close = 1e-6, True
    return study


@pytest.fixture
def no_sweep(monkeypatch):
    import repro.tasks.bench as tb

    monkeypatch.setattr(tb, "order_sweep", lambda name: [])


def test_good_study_passes(no_sweep):
    assert taskgraph_failures(_good_study()) == []


def _replace_point(i, **changes):
    return lambda s: s.points.__setitem__(i, dataclasses.replace(s.points[i], **changes))


@pytest.mark.parametrize(
    "plant, prefix",
    [
        (_replace_point(1, time=1.8), "overlap:"),
        (_replace_point(1, transfer_busy_time=1.6, hidden_transfer_time=1.1), "conservation:"),
        (_replace_point(0, exposed_transfer_time=0.6), "accounting:"),
        (lambda s: setattr(s, "cholesky_close", False), "numerics:"),
        (lambda s: s.fallback_launches.__setitem__("cholesky", 2), "degrade:"),
    ],
)
def test_each_claim_fires(no_sweep, plant, prefix):
    study = _good_study()
    plant(study)
    failures = taskgraph_failures(study)
    assert len(failures) == 1 and failures[0].startswith(prefix), failures


def test_imgpipe_must_degrade(no_sweep):
    study = _good_study()
    study.workloads = ["imgpipe"]
    study.points = [dataclasses.replace(p, workload="imgpipe") for p in study.points]
    study.graph_stats["imgpipe"] = {
        "nonaffine_tasks": 1,
        "whole_buffer_syncs": 1,
        "diagnostic_codes": ["RP701", "RP702"],
    }
    study.fallback_launches["imgpipe"] = 1
    assert taskgraph_failures(study) == []
    study.graph_stats["imgpipe"]["diagnostic_codes"] = ["RP701"]
    study.fallback_launches["imgpipe"] = 0
    failures = taskgraph_failures(study)
    assert len(failures) == 2 and all(f.startswith("degrade: imgpipe") for f in failures)
