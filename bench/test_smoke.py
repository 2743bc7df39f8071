"""Smoke test of the benchmark itself: ``python -m pytest bench/test_smoke.py``.

Two ``--quick`` runs (same schema and checks as the full run, a few seconds
per workload) and ``compare.py`` on them. Host timings of 3 s runs are noisy,
so a timing ``regression`` between the two is tolerated here; a wrong output
or a simulated number that differs between identical runs is not.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import trace as tracing  # noqa: E402  (bench/trace.py: BENCH_DIR is first on sys.path)


def bench(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600
    )


def test_manifest_names_the_metrics_the_code_reports():
    manifest = run.manifest()
    assert manifest["command"] == ["python3", "bench/run.py"]
    assert manifest["paths"] == ["bench"]
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]} == {
        name: (spec["unit"], spec["better"]) for name, spec in tracing.LAYER_METRICS.items()
    }


def test_one_workload_prints_the_driver_line():
    for trace, names in ((0, set(run.END_TO_END)), (1, set(tracing.LAYER_METRICS))):
        proc = bench("bench/run.py", "--workload", "steady_replay", "--seed", "3",
                     "--seconds", "2", "--trace", str(trace), "--quick")  # fmt: skip
        assert proc.returncode == 0
        line = json.loads(proc.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == names
        assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_two_quick_runs_agree(tmp_path):
    first, second = str(tmp_path / "a"), str(tmp_path / "b")
    assert bench("bench/run.py", "--quick", "--traced", "--out", first).returncode == 0
    assert bench("bench/run.py", "--quick", "--out", second).returncode == 0
    for name in run.WORKLOAD_NAMES:
        with open(os.path.join(first, f"{name}.json")) as fh:
            result = json.load(fh)
        assert result["correct"], result["failures"]
        assert result["end_to_end"]["failed_ops_frac"]["value"] == 0
        layers = result["per_layer"]
        assert all(m["value"] is not None for m in layers.values())
        assert layers["trace.coverage_frac"]["value"] >= 0.8
        assert os.path.exists(os.path.join(first, f"{name}.trace.json"))
    compared = bench("bench/compare.py", first, second)
    assert compared.returncode in (0, 1), compared.stdout
    rows = compared.stdout.splitlines()[1:]
    assert len(rows) == len(run.WORKLOAD_NAMES) * (len(run.END_TO_END) + len(run.ALSO_REPORTED))
    assert "MISMATCH" not in compared.stdout
