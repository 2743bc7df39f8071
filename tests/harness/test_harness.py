"""Tests of the experiment harness (scaled-down timing runs)."""

import pytest

from repro.harness.experiments import (
    TimedPoint,
    compile_time_ratio,
    measure_breakdown,
    reference_time,
    run_timed,
    single_gpu_overhead,
    table1_rows,
    timed_sweep,
)
from repro.harness.report import format_table, to_csv
from repro.runtime.config import RuntimeConfig
from repro.workloads.common import TABLE1, ProblemConfig

# Scaled-down configs keep the timing tests fast; shapes still hold.
SMALL_HOTSPOT = ProblemConfig("hotspot", "functional", 2048, 40)
SMALL_NBODY = ProblemConfig("nbody", "functional", 32768, 6)
SMALL_MATMUL = ProblemConfig("matmul", "functional", 1024, 1)


class TestTimingRuns:
    def test_reference_time_positive_and_deterministic(self):
        a = reference_time(SMALL_HOTSPOT)
        b = reference_time(SMALL_HOTSPOT)
        assert a > 0 and a == b

    def test_speedup_multi_gpu(self):
        ref = reference_time(SMALL_NBODY)
        t4, api = run_timed(SMALL_NBODY, RuntimeConfig(n_gpus=4))
        assert api.stats.fallback_launches == 0
        assert ref / t4 > 2.0  # real scaling at 4 GPUs

    def test_speedup_monotone_small_counts(self):
        ref = reference_time(SMALL_NBODY)
        t1, _ = run_timed(SMALL_NBODY, RuntimeConfig(n_gpus=1))
        t2, _ = run_timed(SMALL_NBODY, RuntimeConfig(n_gpus=2))
        assert t1 > t2
        assert abs(t1 - ref) / ref < 0.2  # 1-GPU overhead is small

    def test_extrapolation_consistency(self):
        """Extrapolated long run == direct simulation of the same count."""
        from repro.harness import experiments as ex

        direct_cfg = ProblemConfig("hotspot", "functional", 1024, ex._EXTRAPOLATE_M1 + 9)
        four = RuntimeConfig(n_gpus=4)
        t_direct, _ = ex.run_timed(
            ProblemConfig("hotspot", "functional", 1024, ex._EXTRAPOLATE_M1), four
        )
        t_extra, _ = ex.run_timed(direct_cfg, four)
        # Manually simulate the direct count by monkeypatching the cap.
        saved = ex._EXTRAPOLATE_M1, ex._EXTRAPOLATE_M2
        try:
            ex._EXTRAPOLATE_M1 = direct_cfg.iterations + 1  # force direct run
            t_true, _ = ex.run_timed(direct_cfg, four)
        finally:
            ex._EXTRAPOLATE_M1, ex._EXTRAPOLATE_M2 = saved
        assert t_extra == pytest.approx(t_true, rel=1e-6)


class TestBreakdown:
    def test_alpha_beta_gamma_shares_sum_to_one(self):
        row = measure_breakdown(SMALL_HOTSPOT, 4)
        assert row.alpha >= row.beta >= row.gamma
        total = row.t_application + row.t_transfers + row.t_patterns
        assert total == pytest.approx(1.0)

    def test_transfer_share_grows_with_gpus(self):
        r2 = measure_breakdown(SMALL_MATMUL, 2)
        r8 = measure_breakdown(SMALL_MATMUL, 8)
        assert r8.t_transfers > r2.t_transfers

    def test_patterns_small(self):
        row = measure_breakdown(SMALL_NBODY, 8)
        assert row.t_patterns < 0.15


class TestHeadlineExperiments:
    def test_figure6_point_structure(self):
        pts = timed_sweep(["nbody"], ["small"], [(1, 1), (1, 2)], [("sequential", 1)])
        assert len(pts) == 2
        assert all(isinstance(p, TimedPoint) for p in pts)
        assert pts[0].n_gpus == 1 and pts[0].speedup == pytest.approx(1.0, rel=0.05)

    def test_single_gpu_overhead_small(self):
        rows = single_gpu_overhead(sizes=("small",))
        assert len(rows) == 3
        for cfg, frac in rows:
            assert -0.02 < frac < 0.10, (cfg, frac)

    def test_compile_time_ratio_in_band(self):
        ratios = compile_time_ratio(repeats=2)
        assert set(ratios) == {"hotspot", "nbody", "matmul"}
        for name, r in ratios.items():
            assert 1.05 < r < 3.0, (name, r)  # paper band: 1.9x - 2.2x (wall-clock; wide band for CI noise)

    def test_table1_rows(self):
        rows = table1_rows()
        assert ("hotspot", 8192, 16384, 36864, "1500") in rows
        assert ("matmul", 8192, 16384, 30656, "N/A") in rows


class TestReport:
    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        assert "T" in out and "bb" in out and "2.5" in out

    def test_to_csv(self):
        out = to_csv(["a", "b"], [[1, 2], [3, 4]])
        assert out.splitlines() == ["a,b", "1,2", "3,4"]
