"""Timing-accounting invariants of the scheduled simulation.

The paper's α/β/γ overhead methodology (§9.2) subtracts whole-run times, so
it only works if the scheduler preserves the accounting identities:

* α ≥ β ≥ γ (disabling work never makes the run slower),
* the derived Application/Transfers/Patterns fractions sum to one,
* β and γ runs record zero TRANSFERS busy time, and γ drops the
  enumerator/tracker PATTERNS work down to the bare partition setup,
* the overlap refinement ``hidden + exposed == busy_time(TRANSFERS)``.

Plus the scheduler's own ordering guarantee: overlap is never slower than
sequential, and overlap+p2p never slower than overlap.
"""

from dataclasses import replace

import pytest

from repro.compiler.costmodel import KernelCostModel
from repro.compiler.pipeline import compile_app
from repro.harness.calibration import K80_NODE_SPEC
from repro.harness.experiments import measure_breakdown, run_timed
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sched.policy import SCHEDULES
from repro.sim.engine import SimMachine
from repro.sim.trace import Category
from repro.workloads.common import table1_configs
from repro.workloads.hotspot import HotspotWorkload

CFG = next(c for c in table1_configs("hotspot") if c.size_label == "small")
N_GPUS = 4


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_alpha_beta_gamma_identities(schedule):
    row = measure_breakdown(CFG, N_GPUS, schedule=schedule)
    assert row.alpha >= row.beta >= row.gamma > 0
    assert row.t_application + row.t_transfers + row.t_patterns == pytest.approx(1.0)
    assert row.t_transfers >= 0 and row.t_patterns >= 0


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_disabled_categories_record_no_time(schedule):
    base = RuntimeConfig(n_gpus=N_GPUS, schedule=schedule)
    _, beta_api = run_timed(CFG, N_GPUS, config=base.beta())
    assert beta_api.machine.trace.busy_time(Category.TRANSFERS) == 0.0
    _, gamma_api = run_timed(CFG, N_GPUS, config=base.gamma())
    assert gamma_api.machine.trace.busy_time(Category.TRANSFERS) == 0.0
    # γ keeps only the per-partition setup charge (the launch replacement
    # itself); all enumerator/tracker-query work must be gone.
    beta_patterns = beta_api.machine.trace.busy_time(Category.PATTERNS)
    gamma_patterns = gamma_api.machine.trace.busy_time(Category.PATTERNS)
    assert 0.0 < gamma_patterns < beta_patterns
    # With the tracker off the D2H gather follows the static linear
    # distribution: one equal chunk from each device, in device order.
    d2h = [iv for iv in gamma_api.machine.trace.intervals if iv.label == "d2h"]
    assert [iv.resource for iv in d2h] == [f"lane{i}" for i in range(N_GPUS)]
    assert [iv.duration for iv in d2h] == pytest.approx([d2h[0].duration] * N_GPUS)
    assert gamma_api.stats.d2h_bytes == beta_api.stats.d2h_bytes


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_exposure_partitions_transfer_time(schedule):
    _, api = run_timed(CFG, N_GPUS, schedule=schedule)
    trace = api.machine.trace
    exposure = trace.transfer_exposure()
    assert exposure["hidden"] >= 0 and exposure["exposed"] >= 0
    assert exposure["hidden"] + exposure["exposed"] == pytest.approx(
        trace.busy_time(Category.TRANSFERS)
    )


def test_overlap_never_slower():
    times = {s: run_timed(CFG, N_GPUS, schedule=s)[0] for s in SCHEDULES}
    eps = 1e-9
    assert times["overlap"] <= times["sequential"] + eps
    assert times["overlap+p2p"] <= times["overlap"] + eps
    # With real coherence traffic the DAG schedule hides most of it.
    _, seq_api = run_timed(CFG, N_GPUS, schedule="sequential")
    _, ovl_api = run_timed(CFG, N_GPUS, schedule="overlap")
    seq_x = seq_api.machine.trace.transfer_exposure()
    ovl_x = ovl_api.machine.trace.transfer_exposure()
    assert seq_x["hidden"] + seq_x["exposed"] > 0
    seq_frac = seq_x["hidden"] / (seq_x["hidden"] + seq_x["exposed"])
    ovl_frac = ovl_x["hidden"] / (ovl_x["hidden"] + ovl_x["exposed"])
    assert ovl_frac > seq_frac


# -- the submit stage recomputes nothing launch-invariant: a count, not a clock ----


class _ForgetfulCostModel(KernelCostModel):
    """Walks the kernel IR on every call, as the model did before it memoized."""

    def thread_cost(self, kernel, scalars):
        self._memo.clear()
        return super().thread_cost(kernel, scalars)


def test_steady_loop_walks_the_kernel_ir_once(monkeypatch):
    """40 replayed hotspot launches on 16 GPUs cost the kernel once, not 640 times.

    The count is exact and machine-independent, unlike the microseconds it
    stands for; and the memoized run must be the forgetful run, float for
    float: counters, simulated clock and every trace interval.
    """
    launches, n_gpus = 40, 16
    workload = HotspotWorkload(replace(CFG, iterations=launches))
    spec = K80_NODE_SPEC.with_gpus(n_gpus)
    walks = []
    body_cost = KernelCostModel._body_cost

    def counting(self, body, scalars, elem_sizes):
        if body is workload.kernel.body:  # the root entry, not the recursion
            walks.append(type(self))
        return body_cost(self, body, scalars, elem_sizes)

    monkeypatch.setattr(KernelCostModel, "_body_cost", counting)

    def run(model_cls):
        api = MultiGpuApi(
            compile_app([workload.kernel]),
            RuntimeConfig(n_gpus=n_gpus, schedule="overlap+p2p", pipeline_window=1),
            machine=SimMachine(spec),
            kernel_cost=model_cls(spec),
            functional=False,
        )
        workload.run(api, None)
        assert api.stats.residual_cache_hits == launches - 1
        return api

    memoized, forgetful = run(KernelCostModel), run(_ForgetfulCostModel)
    assert walks.count(KernelCostModel) == 1  # one (kernel, loop-bound binding)
    assert walks.count(_ForgetfulCostModel) == n_gpus * launches
    assert memoized.stats == forgetful.stats
    assert memoized.elapsed() == forgetful.elapsed()
    assert memoized.machine.trace.intervals == forgetful.machine.trace.intervals
