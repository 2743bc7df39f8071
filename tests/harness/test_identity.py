"""``identity_sweep``: every facet reports exactly the cell and facet that differ.

A stub ``run_fn`` returns hand-built observations, so each test plants one
divergence on one facet of one cell and checks that exactly that is reported.
"""

import dataclasses

import numpy as np
import pytest

from repro.harness.identity import Observation, identity_sweep, observe
from repro.sim.trace import Category, Interval


def _observation():
    return Observation(
        outputs={"x": np.arange(8, dtype=np.uint8), "y": np.zeros(4, dtype=np.float32)},
        stats=({"sync_bytes": 64, "plan_cache_hits": 3},),
        trace=[
            Interval("gpu0", 0.0, 1.0, Category.APPLICATION, "k"),
            Interval("gpu1", 0.5, 2.0, Category.TRANSFERS, "c"),
        ],
        clock=2.0,
        tracker=((1, ((0, 32, 0, ()), (32, 64, 1, (0,)))), (2, ((0, 64, 0, ()),))),
    )


def _plant(facet):
    obs = _observation()
    if facet == "outputs":
        x = obs.outputs["x"].copy()
        x[5] ^= 1
        return dataclasses.replace(obs, outputs={**obs.outputs, "x": x})
    if facet == "trace":
        trace = list(obs.trace)
        trace[1] = dataclasses.replace(trace[1], end=2.5)
        return dataclasses.replace(obs, trace=trace)
    if facet == "tracker":
        return dataclasses.replace(
            obs, tracker=((1, ((0, 32, 0, ()), (32, 64, 2, (0,)))), obs.tracker[1])
        )
    if facet == "stats":
        return dataclasses.replace(obs, stats=({"sync_bytes": 65, "plan_cache_hits": 3},))
    if facet == "clock":
        return dataclasses.replace(obs, clock=np.nextafter(2.0, 3.0))
    raise AssertionError(facet)


CELLS = [dict(schedule="sequential", window=1), dict(schedule="overlap", window=4)]
FACETS = ("outputs", "trace", "tracker", "stats", "clock")


def _run_planting(facet, in_cell):
    def run_fn(schedule, window):
        ref = _observation()
        got = _plant(facet) if (schedule, window) == in_cell else _observation()
        return {"oracle": ref, "cached": got}

    return run_fn


@pytest.mark.parametrize("facet", FACETS)
def test_one_divergence_one_failure(facet):
    failures = identity_sweep(_run_planting(facet, ("overlap", 4)), CELLS, FACETS)
    assert len(failures) == 1, failures
    (failure,) = failures
    assert failure.startswith(f"{facet}: cached differs from oracle")
    assert failure.endswith("at schedule=overlap window=4")


def test_identical_runs_report_nothing():
    assert identity_sweep(_run_planting("outputs", None), CELLS, FACETS) == []


def test_unrequested_facets_are_not_compared():
    run_fn = _run_planting("clock", ("sequential", 1))
    assert identity_sweep(run_fn, CELLS, ("outputs", "trace", "tracker", "stats")) == []


def test_masked_planner_counter_is_not_reported():
    def run_fn(schedule, window):
        ref = _observation()
        got = dataclasses.replace(ref, stats=({"sync_bytes": 64, "plan_cache_hits": 9},))
        return {"oracle": ref, "cached": got}

    assert identity_sweep(run_fn, CELLS, ("stats",), masked=True) == []
    unmasked = identity_sweep(run_fn, CELLS, ("stats",))
    assert len(unmasked) == 2 and all("plan_cache_hits" in f for f in unmasked)


def test_untenanted_trace_ignores_only_the_tag():
    def run_fn(tenant_tag):
        ref = _observation()
        tagged = [dataclasses.replace(iv, tenant=tenant_tag) for iv in ref.trace]
        return {"direct": ref, "serve": dataclasses.replace(ref, trace=tagged)}

    cells = [dict(tenant_tag=0)]
    assert identity_sweep(run_fn, cells, ("trace",), untenanted=True) == []
    assert len(identity_sweep(run_fn, cells, ("trace",))) == 1


def test_check_sees_every_cell_and_its_runs():
    seen = []

    def check(cell, runs):
        seen.append((cell["schedule"], sorted(runs)))
        return [f"custom at {cell['schedule']}"]

    failures = identity_sweep(_run_planting("outputs", None), CELLS, FACETS, check=check)
    assert failures == ["custom at sequential", "custom at overlap"]
    assert seen == [("sequential", ["cached", "oracle"]), ("overlap", ["cached", "oracle"])]


def test_unknown_facet_rejected():
    with pytest.raises(ValueError, match="unknown facet"):
        identity_sweep(_run_planting("outputs", None), CELLS, ("bytes",))


def test_observe_records_a_real_run():
    from repro.compiler.pipeline import compile_app
    from repro.harness.calibration import K80_NODE_SPEC
    from repro.runtime.api import MultiGpuApi
    from repro.runtime.config import RuntimeConfig
    from repro.sim.engine import SimMachine
    from repro.workloads import functional_config
    from repro.workloads.hotspot import HotspotWorkload

    wl = HotspotWorkload(functional_config("hotspot"))
    api = MultiGpuApi(
        compile_app(wl.build_kernels()),
        RuntimeConfig(n_gpus=2, pipeline_window=4),
        machine=SimMachine(K80_NODE_SPEC.with_gpus(2)),
    )
    out = wl.run(api, wl.make_inputs(seed=0))
    obs = observe(api, out)
    assert obs.outputs.keys() == out.keys()
    assert obs.stats[0]["sync_bytes"] == api.stats.sync_bytes
    assert obs.trace == api.machine.trace.intervals and obs.clock == api.machine.elapsed()
    assert [vb for vb, _ in obs.tracker] == sorted(api._live_buffers)
    # Reading the trackers moves nothing: observing again records the
    # same stats, trace and clock.
    again = observe(api, out)
    assert (again.stats, again.trace, again.clock) == (obs.stats, obs.trace, obs.clock)
