"""The timing studies' numbers, pinned against the drivers they replaced.

``golden/timed_studies.json`` holds every row of the Fig. 6, schedule,
cluster and ``pipeline_window`` studies on a small grid — hotspot and nbody
at size small; GPU counts 1 and 4; all three schedules; cluster shapes 1x4
and 2x2; pipeline windows 1 and 2 — as measured by the four per-study
drivers (``figure6``, ``schedule_comparison``, ``cluster_scaling``,
``pipeline_study``) of commit cda0020, the last one that had them. It was
recorded at that commit with::

    PYTHONPATH=src python - <<'EOF' > tests/harness/golden/timed_studies.json
    import json
    from repro.harness import experiments as ex

    W, S = ("hotspot", "nbody"), "small"
    rows = []
    def row(study, p, n_nodes, gpn, schedule, window, **fields):
        rows.append(dict(study=study, workload=p.workload, size=p.size_label,
                         n_nodes=n_nodes, gpus_per_node=gpn, schedule=schedule,
                         window=window, time=p.time, reference=p.reference, **fields))
    for p in ex.figure6(W, (S,), (1, 4)):
        row("figure6", p, 1, p.n_gpus, "sequential", 1)
    for p in ex.schedule_comparison(W, (1, 4), size=S):
        row("schedules", p, 1, p.n_gpus, p.schedule, 1,
            hidden_transfer_time=p.hidden_transfer_time,
            exposed_transfer_time=p.exposed_transfer_time)
    for p in ex.cluster_scaling(W, ((1, 4), (2, 2)), size=S):
        row("cluster", p, p.n_nodes, p.gpus_per_node, p.schedule, 1,
            **{k: getattr(p, k) for k in (
                "intra_hidden", "intra_exposed", "inter_hidden", "inter_exposed",
                "transfers_busy", "inter_node_transfers", "inter_node_bytes")})
    for p in ex.pipeline_study(W, (1, 2), 4, (2, 2), size=S):
        row("pipeline", p, p.n_nodes, p.gpus_per_node, p.schedule, p.pipeline_window,
            hidden_transfer_time=p.hidden_transfer_time,
            exposed_transfer_time=p.exposed_transfer_time)
    print("[\\n" + ",\\n".join(json.dumps(r) for r in rows) + "\\n]")
    EOF

:func:`~repro.harness.experiments.timed_sweep` must reproduce every value
exactly, floats included (JSON round-trips them).
"""

import json
from pathlib import Path

import pytest

from repro.harness.experiments import timed_sweep
from repro.sched.policy import SCHEDULES

GOLDEN = Path(__file__).parent / "golden" / "timed_studies.json"
_KEY = ("workload", "size", "n_nodes", "gpus_per_node", "schedule", "window")


@pytest.fixture(scope="module")
def points():
    runs = [(s, 1) for s in SCHEDULES] + [("overlap+p2p", 2)]
    sweep = timed_sweep(("hotspot", "nbody"), ("small",), ((1, 1), (1, 4), (2, 2)), runs)
    return {
        (p.workload, p.size_label, p.n_nodes, p.gpus_per_node, p.schedule, p.pipeline_window): p
        for p in sweep
    }


@pytest.mark.parametrize("study", ["figure6", "schedules", "cluster", "pipeline"])
def test_the_sweep_reproduces_the_recorded_rows(points, study):
    rows = [r for r in json.loads(GOLDEN.read_text()) if r.pop("study") == study]
    assert rows
    for row in rows:
        p = points[tuple(row.pop(k) for k in _KEY)]
        assert {name: getattr(p, name) for name in row} == row, p
