"""The 2x2 cluster schedules, plan order and halo-first, pinned to a golden file.

``golden/halo_first_traces.json`` holds every trace interval (resource,
start, end, category, label, launch, tenant) of dstencil and hotspot on a
2x2 cluster under ``sequential`` and ``overlap+p2p``, at windows 1 (copies
issue in plan order) and 4 (copies issue halo-first). Exact equality,
floats included: the simulated schedule of these runs may only move on
purpose.
"""

import json
from pathlib import Path

import pytest

from repro.cluster.engine import ClusterSimMachine
from repro.compiler.pipeline import compile_app
from repro.harness.calibration import k80_cluster
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS, functional_config

GOLDEN = Path(__file__).parent / "golden" / "halo_first_traces.json"

_APPS = {"hotspot": ALL_WORKLOADS["hotspot"], "dstencil": EXTRA_WORKLOADS["dstencil"]}
CASES = [
    f"{app}-{schedule}-w{window}"
    for app in sorted(_APPS)
    for schedule in ("sequential", "overlap+p2p")
    for window in (1, 4)
]


def _record(case):
    """One timing-only run on a fresh 2x2 cluster, as the fixture stores it."""
    app, schedule, window = case.rsplit("-", 2)
    wl = _APPS[app](functional_config(app, iterations=4))
    machine = ClusterSimMachine(k80_cluster(2, 2))
    api = MultiGpuApi(
        compile_app(wl.build_kernels()),
        RuntimeConfig(n_gpus=4, schedule=schedule, pipeline_window=int(window[1:])),
        machine=machine,
        functional=False,
    )
    wl.run(api, None)
    return {
        "intervals": [
            [iv.resource, iv.start, iv.end, iv.category.value, iv.label, iv.launch, iv.tenant]
            for iv in machine.trace.intervals
        ],
        "elapsed": api.elapsed(),
    }


@pytest.mark.parametrize("case", CASES)
def test_cluster_trace_matches_golden(case):
    """When a change moves these schedules on purpose, regenerate::

        PYTHONPATH=src python - <<'EOF'
        import json
        import tests.cluster.test_halo_first_golden as t
        body = ",\\n".join(
            json.dumps(case) + ": "
            + json.dumps(t._record(case)).replace("], [", "],\\n[")
            for case in t.CASES
        )
        t.GOLDEN.write_text("{\\n" + body + "\\n}\\n")
        EOF
    """
    assert _record(case) == json.loads(GOLDEN.read_text())[case]


def test_window_four_reorders_the_copies():
    """The golden pins both orders: window 4 is not window 1's schedule."""
    golden = json.loads(GOLDEN.read_text())
    for app in _APPS:
        for schedule in ("sequential", "overlap+p2p"):
            assert golden[f"{app}-{schedule}-w1"] != golden[f"{app}-{schedule}-w4"]
