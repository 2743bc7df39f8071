"""The adaptive ``schedule="auto"`` policy selection."""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_app
from repro.cuda.api import MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.errors import RuntimeApiError
from repro.harness.calibration import K80_NODE_SPEC
from repro.harness.experiments import run_timed
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sched.policy import (
    AUTO_P2P_MIN_RATIO,
    AUTO_SEQUENTIAL_MAX_RATIO,
    SCHEDULES,
    auto_schedule_name,
)
from repro.sim.engine import SimMachine
from repro.workloads.common import table1_configs

N = 32
BLOCK = Dim3(x=8, y=8)
GRID = Dim3(x=N // 8, y=N // 8)


class TestDecisionBoundary:
    """Pin the exact thresholds: this is the satellite's unit test."""

    def test_no_transfers_stays_sequential(self):
        assert auto_schedule_name(0.0, 1.0) == "sequential"
        assert auto_schedule_name(-1.0, 0.0) == "sequential"

    def test_no_compute_goes_p2p(self):
        assert auto_schedule_name(1e-9, 0.0) == "overlap+p2p"

    def test_sequential_boundary(self):
        c = 1.0
        assert auto_schedule_name(AUTO_SEQUENTIAL_MAX_RATIO * c, c) == "sequential"
        assert (
            auto_schedule_name(AUTO_SEQUENTIAL_MAX_RATIO * c * 1.0000001, c)
            == "overlap"
        )

    def test_p2p_boundary(self):
        c = 1.0
        assert auto_schedule_name(AUTO_P2P_MIN_RATIO * c, c) == "overlap+p2p"
        assert (
            auto_schedule_name(AUTO_P2P_MIN_RATIO * c * 0.9999999, c) == "overlap"
        )

    def test_midrange_overlaps(self):
        assert auto_schedule_name(0.1, 1.0) == "overlap"

    @pytest.mark.parametrize("ratio,expected", [
        (0.001, "sequential"),
        (0.02, "sequential"),
        (0.05, "overlap"),
        (0.49, "overlap"),
        (0.5, "overlap+p2p"),
        (10.0, "overlap+p2p"),
    ])
    def test_ratio_table(self, ratio, expected):
        assert auto_schedule_name(ratio, 1.0) == expected

    def test_every_outcome_is_a_registered_schedule(self):
        for ratio in (0.0, 0.01, 0.1, 1.0, 100.0):
            assert auto_schedule_name(ratio, 1.0) in SCHEDULES


class TestConfig:
    def test_auto_accepted(self):
        assert RuntimeConfig(n_gpus=2, schedule="auto").schedule == "auto"

    def test_unknown_schedule_lists_auto(self):
        with pytest.raises(RuntimeApiError) as exc:
            RuntimeConfig(n_gpus=2, schedule="speculative")
        assert "auto" in str(exc.value)


def _stencil():
    kb = KernelBuilder("st")
    src = kb.array("src", f32, (N, N))
    dst = kb.array("dst", f32, (N, N))
    gy, gx = kb.global_id("y"), kb.global_id("x")
    with kb.if_((gy >= 1) & (gy < N - 1) & (gx >= 1) & (gx < N - 1)):
        dst[gy, gx] = src[gy - 1, gx] + src[gy + 1, gx]
    return kb.finish()


def _run(schedule, n_gpus=4, iterations=3, seed=0):
    kernel = _stencil()
    app = compile_app([kernel])
    api = MultiGpuApi(
        app,
        RuntimeConfig(n_gpus=n_gpus, schedule=schedule),
        machine=SimMachine(K80_NODE_SPEC.with_gpus(n_gpus)),
    )
    nbytes = N * N * 4
    a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
    data = np.random.default_rng(seed).random((N, N)).astype(np.float32)
    api.cudaMemcpy(a, data, nbytes, MemcpyKind.HostToDevice)
    api.cudaMemset(b, 0, nbytes)
    src, dst = a, b
    for _ in range(iterations):
        api.launch(kernel, GRID, BLOCK, [src, dst])
        src, dst = dst, src
    out = np.zeros((N, N), dtype=np.float32)
    api.cudaMemcpy(out, b, nbytes, MemcpyKind.DeviceToHost)
    trackers = [
        [(s.start, s.end, s.owner) for s in vb.tracker.query(0, vb.nbytes)]
        for vb in (a, b)
    ]
    return out, trackers, api


class TestAutoRuns:
    def test_auto_bitwise_equals_concrete_schedules(self):
        ref_out, ref_trackers, _ = _run("sequential")
        out, trackers, _ = _run("auto")
        assert np.array_equal(ref_out, out)
        assert trackers == ref_trackers

    def test_auto_records_its_choices(self):
        _, _, api = _run("auto", iterations=3)
        choices = api.stats.auto_choices
        assert sum(choices.values()) == 3
        assert set(choices) <= set(SCHEDULES)

    def test_concrete_schedules_record_no_choices(self):
        for schedule in SCHEDULES:
            _, _, api = _run(schedule, iterations=2)
            assert api.stats.auto_choices == {}

    def test_auto_never_slower_than_sequential_on_workload(self):
        cfg = next(c for c in table1_configs("hotspot") if c.size_label == "small")
        t_seq, _ = run_timed(cfg, 4, schedule="sequential")
        t_auto, auto_api = run_timed(cfg, 4, schedule="auto")
        assert t_auto <= t_seq + 1e-9
        assert sum(auto_api.stats.auto_choices.values()) > 0


class TestEstimateCache:
    """Plan-time estimates are memoized per (kernel, grid, config) shape."""

    def test_pingpong_reestimates_nothing_after_warmup(self):
        # Ping-pong directions have mirrored transfer shapes; buffer
        # identity is deliberately excluded from the fingerprint, so the
        # whole loop converges to at most one slot per parity and every
        # launch after warm-up is a hit.
        _, _, api = _run("auto", iterations=5)
        assert 1 <= api.stats.estimate_cache_misses <= 2
        assert (
            api.stats.estimate_cache_hits
            == 5 - api.stats.estimate_cache_misses
        )
        assert sum(api.stats.auto_choices.values()) == 5

    def test_concrete_schedules_never_estimate(self):
        for schedule in SCHEDULES:
            _, _, api = _run(schedule, iterations=3)
            assert api.stats.estimate_cache_hits == 0
            assert api.stats.estimate_cache_misses == 0

    def test_cached_estimate_is_bit_identical(self):
        from repro.runtime.fingerprint import plan_estimate_key
        from repro.sched.graph import build_launch_plan
        from repro.sched.policy import estimate_plan_times

        kernel = _stencil()
        app = compile_app([kernel])
        api = MultiGpuApi(
            app,
            RuntimeConfig(n_gpus=4, schedule="auto"),
            machine=SimMachine(K80_NODE_SPEC.with_gpus(4)),
        )
        nbytes = N * N * 4
        a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
        api.cudaMemset(a, 0, nbytes)
        api.cudaMemset(b, 0, nbytes)
        ck = app.kernel(kernel.name)
        plan_ab = build_launch_plan(api, ck, GRID, BLOCK, [a, b])
        plan_ba = build_launch_plan(api, ck, GRID, BLOCK, [b, a])
        # Buffer identity does not enter the key: a symmetric stencil's two
        # ping-pong directions share one cache slot.
        assert plan_estimate_key(plan_ab) == plan_estimate_key(plan_ba)

        first = estimate_plan_times(api, plan_ab)
        assert api.stats.estimate_cache_misses == 1
        again = estimate_plan_times(api, plan_ab)
        assert api.stats.estimate_cache_hits == 1
        assert again == first  # bit-identical, not approximately equal
