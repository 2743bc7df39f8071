"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.harness import experiments as ex


class TestAnalyze:
    def test_analyze_prints_model(self, capsys):
        assert main(["analyze", "hotspot"]) == 0
        out = capsys.readouterr().out
        assert "__global__ void hotspot" in out
        assert "partitionable:    True" in out
        assert "read  temp_in" in out and "write temp_out" in out

    def test_analyze_writes_model(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert main(["analyze", "matmul", "--model-out", str(path)]) == 0
        assert path.exists()
        from repro.compiler.model import AppModel

        assert AppModel.load(path).get("matmul").partitionable


class TestRun:
    @pytest.mark.parametrize("workload", ["hotspot", "nbody", "matmul"])
    def test_run_bitwise_ok(self, workload, capsys):
        assert main(["run", workload, "--gpus", "3"]) == 0
        out = capsys.readouterr().out
        assert "bitwise equal" in out

    def test_run_custom_size(self, capsys):
        assert main(["run", "matmul", "--gpus", "2", "--size", "32"]) == 0

    def test_run_json_surfaces_planner_counters(self, tmp_path, capsys):
        import json

        path = tmp_path / "run.json"
        assert main(["run", "hotspot", "--gpus", "4", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["bitwise_equal"] is True
        # The memo capacities are constants, not run configuration.
        assert not any("cache" in key for key in doc["config"])
        counters = doc["host_counters"]
        assert counters["plan_cache_misses"] >= 1
        assert counters["plan_cache_hits"] >= 1
        assert counters["residual_cache_misses"] >= 1
        assert counters["residual_cache_hits"] >= 1
        assert counters["plan_cache_evictions"] == counters["residual_cache_evictions"] == 0
        # A residual replay presupposes a skeleton hit on the same launch.
        assert counters["residual_cache_hits"] <= counters["plan_cache_hits"]

    def test_run_irredundant_reports_trimmed_bytes(self, capsys):
        argv = ["run", "dstencil", "--gpus", "4", "--shared-copies", "--irredundant-transfers"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "bitwise equal" in out and "slack bytes trimmed" in out


def _doctor(monkeypatch, module, name, edit):
    """Plant one violation: ``module.name`` returns ``edit(real result)``."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: edit(real(*a, **k)))


def _replace_where(points, match, **changes):
    import dataclasses

    return [dataclasses.replace(p, **changes) if match(p) else p for p in points]


class TestBench:
    def test_table1(self, capsys):
        assert main(["bench", "table1"]) == 0
        out = capsys.readouterr().out
        assert "36864" in out and "checks passed" in out

    def test_figure6_tiny(self, capsys):
        assert (
            main(["bench", "figure6", "--gpu-counts", "1", "2", "--sizes", "small"]) == 0
        )
        out = capsys.readouterr().out
        assert "Speedup" in out and "hotspot" in out and "checks passed" in out

    def test_overhead(self, monkeypatch, capsys):
        import functools

        import repro.harness.overhead as ov

        # The full sweep matrices run in CI's bench row; tests/harness/
        # test_overhead.py covers the sweeps themselves.
        small = dict(windows=(1,), schedules=("sequential",))
        monkeypatch.setattr(ov, "cache_sweep", functools.partial(ov.cache_sweep, **small))
        monkeypatch.setattr(
            ov, "mutation_sweep", functools.partial(ov.mutation_sweep, size=96, iterations=10)
        )
        assert main(["bench", "overhead", "--sizes", "small"]) == 0
        out = capsys.readouterr().out
        assert "Slowdown" in out and "checks passed" in out

    def test_entries_take_only_their_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "table1", "--tenants", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_json_payload_is_fields_plus_properties(self, tmp_path, capsys):
        import json

        path = tmp_path / "f6.json"
        argv = ["bench", "figure6", "--gpu-counts", "1", "--sizes", "small", "--json", str(path)]
        assert main(argv) == 0
        doc = json.loads(path.read_text())
        assert doc["bench"] == "figure6" and doc["failures"] == []
        assert doc["args"] == {"gpu_counts": [1], "sizes": ["small"], "schedule": None, "csv": None}
        point = doc["points"][0]
        assert point["speedup"] == point["reference"] / point["time"]


class TestBenchPlantedViolations:
    """Every self-checking entry exits 1 when one of its claims breaks."""

    @staticmethod
    def _fails(argv, capsys, needle):
        assert main(["bench", *argv]) == 1
        err = capsys.readouterr().err
        assert f"FAIL: {needle}" in err, err

    def test_table1(self, monkeypatch, capsys):
        _doctor(monkeypatch, ex, "table1_rows", lambda rows: rows[:2])
        self._fails(["table1"], capsys, "table1: no row ('matmul'")

    def test_figure6(self, monkeypatch, capsys):
        _doctor(monkeypatch, ex, "figure6", lambda pts: _replace_where(
            pts, lambda p: p.workload == "nbody", time=1e3
        ))
        self._fails(["figure6", "--gpu-counts", "1", "--sizes", "small"], capsys,
                    "baseline: nbody/small")

    def test_figure7(self, monkeypatch, capsys):
        _doctor(monkeypatch, ex, "figure7", lambda rows: _replace_where(
            rows, lambda r: r.workload == "matmul", gamma=0.0
        ))
        self._fails(["figure7", "--gpu-counts", "2"], capsys,
                    "shares: matmul at 2 GPUs spends no time")

    def test_figure8(self, monkeypatch, capsys):
        _doctor(monkeypatch, ex, "figure8", lambda stats: _replace_where(
            stats, lambda s: True, fractions=[0.5]
        ))
        self._fails(["figure8", "--gpu-counts", "2", "--sizes", "small"], capsys,
                    "bound: overall max")

    def test_schedules(self, monkeypatch, capsys):
        _doctor(monkeypatch, ex, "schedule_comparison", lambda pts: _replace_where(
            pts, lambda p: p.schedule == "overlap" and p.n_gpus == 4, time=1e3
        ))
        self._fails(["schedules", "--gpu-counts", "1", "4"], capsys, "regression: hotspot overlap")

    def test_cluster(self, monkeypatch, capsys):
        _doctor(monkeypatch, ex, "cluster_scaling", lambda pts: _replace_where(
            pts, lambda p: p.n_nodes == 1, inter_node_transfers=3
        ))
        argv = ["cluster", "--gpus-per-node", "2", "--schedule", "sequential"]
        self._fails(argv, capsys, "1-node run reports inter-node traffic")

    def test_pipeline(self, monkeypatch, capsys):
        _doctor(monkeypatch, ex, "pipeline_study", lambda pts: _replace_where(
            pts, lambda p: p.pipeline_window == 4, exposed_transfer_time=1.0
        ))
        argv = ["pipeline", "--workloads", "hotspot", "--gpu-counts", "4", "--nodes", "1"]
        self._fails(argv, capsys, "regression: hotspot flat overlap+p2p window=4")

    def test_redundancy(self, monkeypatch, capsys):
        import functools

        from repro.harness import benches

        monkeypatch.setattr(ex, "redundancy_study", functools.partial(ex.redundancy_study, n=256))
        # The linter cross-check has its own tests in tests/analysis/test_dataflow.py.
        monkeypatch.setattr(benches, "_stencil_linter_agreement", lambda *a: [])
        _doctor(monkeypatch, ex, "redundancy_study", lambda pts: _replace_where(
            pts, lambda p: p.kernel == "broadcast" and p.shared_copies, checksum="0"
        ))
        argv = ["redundancy", "--nodes", "1", "--gpus-per-node", "2", "--schedule", "sequential"]
        self._fails(argv, capsys, "bitwise: broadcast output differs")

    def test_serve(self, monkeypatch, capsys):
        import repro.serve.bench as sb

        _doctor(monkeypatch, sb, "saturation_study", lambda pts: _replace_where(
            pts, lambda p: p.load <= 0.5, shed=1
        ))
        argv = ["serve", "--tenants", "2", "--jobs", "12", "--load", "0.5", "3",
                "--nodes", "1", "--queue-capacity", "3"]
        self._fails(argv, capsys, "backpressure misfire")

    def test_taskgraph(self, monkeypatch, capsys):
        import repro.tasks.bench as tb

        def study(workloads, n_gpus):
            timing = dict(n_gpus=n_gpus, tasks=97, edges=920, transfer_busy_time=1.0,
                          hidden_transfer_time=0.5, exposed_transfer_time=0.5)
            s = tb.TaskGraphStudy(workloads=["imgpipe"], n_gpus=n_gpus)
            # The planted violation: graph mode no faster than serialized.
            s.points = [tb.TaskGraphPoint("imgpipe", mode, time=1.0, **timing)
                        for mode in ("serialized", "graph")]
            s.graph_stats["imgpipe"] = {"tasks": 49, "edges": 204, "waves": 7, "ready_peak": 8,
                                        "nonaffine_tasks": 1, "whole_buffer_syncs": 1,
                                        "diagnostic_codes": ["RP701", "RP702"]}
            s.fallback_launches["imgpipe"] = 1
            return s

        monkeypatch.setattr(tb, "taskgraph_study", study)
        monkeypatch.setattr(tb, "order_sweep", lambda name: [])
        self._fails(["taskgraph", "--workload", "imgpipe"], capsys, "overlap: imgpipe")

    def test_overhead(self, monkeypatch, capsys):
        import repro.harness.overhead as ov
        from repro.runtime.tracker import SegmentTracker

        monkeypatch.setattr(ov, "cache_sweep", lambda: [])
        monkeypatch.setattr(SegmentTracker, "footprint_digest", lambda self, *a, **k: 0)
        self._fails(["overhead", "--sizes", "small"], capsys, "audit: memo 'residual'")

    def test_overhead_corrupt_memo_entry(self, monkeypatch, capsys):
        import functools

        import repro.harness.overhead as ov
        from repro.memo import Memo

        put = Memo.put

        def corrupting(self, key, value):
            if self.name == "estimate":
                value = (value[0] + 1.0, value[1])
            return put(self, key, value)

        monkeypatch.setattr(Memo, "put", corrupting)
        small = dict(windows=(1,), schedules=("auto",), cluster_shape=None)
        monkeypatch.setattr(ov, "cache_sweep", functools.partial(ov.cache_sweep, **small))
        monkeypatch.setattr(ov, "mutation_sweep", lambda: [])
        self._fails(["overhead", "--sizes", "small"], capsys, "audit: memo 'estimate'")


class TestMachine:
    def test_machine_table(self, capsys):
        assert main(["machine"]) == 0
        out = capsys.readouterr().out
        assert "n_gpus" in out and "pcie_bw" in out


class TestLint:
    def test_lint_workload_clean(self, capsys):
        assert main(["lint", "matmul", "--no-replay"]) == 0
        out = capsys.readouterr().out
        assert "error(s)" in out and "0 error(s)" in out

    def test_lint_json_validates_against_schema(self, capsys):
        import json

        from repro.analysis import validate_report_json

        assert main(["lint", "matmul", "--no-replay", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_report_json(doc)
        assert doc["summary"]["errors"] == 0

    def test_lint_fail_on_advice(self, capsys):
        # The builtin workloads carry advisory findings (RP204/RP205/RP206),
        # so lowering the threshold to advice must fail the run ...
        assert main(["lint", "matmul", "--no-replay", "--fail-on", "advice"]) == 1
        capsys.readouterr()
        # ... while `--fail-on never` always exits 0.
        assert main(["lint", "matmul", "--no-replay", "--fail-on", "never"]) == 0

    def test_lint_unknown_workload(self, capsys):
        assert main(["lint", "nonsense"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestErrors:
    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "nonsense"])

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestExitCodes:
    """Every concrete error class maps to its own distinct CLI exit code."""

    @staticmethod
    def _error_classes():
        import repro.errors as er

        classes = []
        stack = [er.ReproError]
        while stack:
            cls = stack.pop()
            classes.append(cls)
            stack.extend(cls.__subclasses__())
        return classes

    def test_exit_codes_distinct_and_nonzero(self):
        classes = self._error_classes()
        codes = {cls: cls.exit_code for cls in classes}
        assert all(isinstance(c, int) and c > 1 for c in codes.values())
        assert len(set(codes.values())) == len(codes), codes

    def test_exit_code_for_maps_instances(self):
        from repro.errors import ReproError, exit_code_for

        for cls in self._error_classes():
            exc = cls("boom")
            assert exit_code_for(exc) == cls.exit_code
        assert exit_code_for(ValueError("x")) == 1
        assert issubclass(ReproError, Exception)

    @pytest.mark.parametrize(
        "error_name, expected",
        [
            ("ValidationError", 21),
            ("PartitioningError", 40),
            ("InjectivityError", 41),
            ("LintError", 31),
            ("TrackerError", 62),
            ("TaskGraphError", 82),
        ],
    )
    def test_main_maps_repro_errors(self, monkeypatch, capsys, error_name, expected):
        import repro.cli as cli
        import repro.errors as er

        exc_cls = getattr(er, error_name)

        def boom(args):
            raise exc_cls("synthetic failure")

        monkeypatch.setattr(cli, "_cmd_machine", boom)
        assert main(["machine"]) == expected
        assert "synthetic failure" in capsys.readouterr().err

    def test_injectivity_error_carries_diagnostic_code(self):
        from repro.errors import InjectivityError, format_with_code

        exc = InjectivityError("write map not injective")
        assert exc.diagnostic_code == "RP201"
        assert format_with_code(exc) == "RP201 write map not injective"
