"""The planner caches' invisibility sweeps behind ``repro bench overhead``.

:func:`repro.harness.overhead.cache_sweep` compares cached runs against the
all-caches-off oracle; :func:`repro.harness.overhead.mutation_sweep` replays
adversarial interleavings. The launch profiler they no longer drive is
pinned here on a machine-attached loop, the way the ledger's traced run
uses it.
"""

import pytest

from repro.harness.overhead import cache_sweep, mutation_sweep


def _profiled_hotspot(residual_cache=True):
    """A machine-attached hotspot loop with a launch profiler, as the
    ledger's traced run drives it: (profiler, host planner counters)."""
    from repro.compiler.pipeline import compile_app
    from repro.harness.calibration import K80_NODE_SPEC
    from repro.runtime.api import MultiGpuApi, host_planner_counters
    from repro.runtime.config import RuntimeConfig
    from repro.runtime.profiler import LaunchProfiler
    from repro.sim.engine import SimMachine
    from repro.workloads.common import ProblemConfig
    from repro.workloads.hotspot import HotspotWorkload

    wl = HotspotWorkload(ProblemConfig("hotspot", "overhead", 256, 8))
    api = MultiGpuApi(
        compile_app(wl.build_kernels()),
        RuntimeConfig(n_gpus=4, residual_cache=residual_cache),
        machine=SimMachine(K80_NODE_SPEC.with_gpus(4)),
        functional=False,
    )
    api.profiler = prof = LaunchProfiler()
    wl.run(api, None)
    return prof, host_planner_counters(api.stats)


@pytest.fixture(scope="module")
def replayed():
    return _profiled_hotspot()


@pytest.fixture(scope="module")
def warm():
    """Residual cache off: every plan-cache hit is a warm launch."""
    return _profiled_hotspot(residual_cache=False)


class TestStudy:
    def test_profiler_accounting(self, replayed):
        prof, _ = replayed
        # One fingerprint for the whole ping-pong loop: the first launch
        # misses (cold), and the converged coherence state makes the
        # remaining seven replay the memoized residual.
        assert prof.launches == {"cold": 1, "replay": 7}
        assert prof.per_launch_us("warm") == {}


class TestSelfChecks:
    """The launch-path properties, checked on profiled machine-attached runs."""

    def test_missing_path_coverage(self, replayed, warm):
        runs = ((replayed[0], "cold"), (replayed[0], "replay"), (warm[0], "warm"))
        for prof, temperature in runs:
            stages = prof.per_launch_us(temperature)
            for stage in ("fingerprint", "skeleton", "residual", "submit", "total"):
                assert stage in stages, (temperature, stage)

    def test_replay_must_engage_on_hotspot(self, replayed):
        prof, counters = replayed
        assert prof.launches["replay"] > 0
        assert counters["residual_cache_hits"] > 0

    def test_plan_cache_arithmetic(self, replayed, warm):
        for prof, counters in (replayed, warm):
            launches = prof.launches
            assert counters["plan_cache_misses"] == launches.get("cold", 0)
            assert counters["plan_cache_hits"] == launches.get("warm", 0) + launches.get(
                "replay", 0
            )

    def test_residual_cache_arithmetic(self, replayed):
        prof, counters = replayed
        launches = prof.launches
        assert counters["residual_cache_hits"] == launches.get("replay", 0) == 7
        assert counters["residual_cache_misses"] == launches.get("cold", 0) + launches.get(
            "warm", 0
        )

    def test_evictions(self, replayed, warm):
        for _, counters in (replayed, warm):
            assert counters["plan_cache_evictions"] == 0
            assert counters["residual_cache_evictions"] == 0

    def test_vectorized_backend_engaged(self, replayed):
        _, counters = replayed
        assert counters["enumerator_specialized"] > 0
        assert counters["enumerator_fallback"] == 0

    def test_warm_skeleton_stage_zero(self, replayed, warm):
        """A cache hit never rebuilds the skeleton, on either hit path."""
        assert warm[0].launches == {"cold": 1, "warm": 7}
        assert warm[0].per_launch_us("warm")["skeleton"] == 0.0
        assert replayed[0].per_launch_us("replay")["skeleton"] == 0.0


class TestIdentitySweep:
    def test_flat_subset_is_clean(self):
        assert (
            cache_sweep(
                windows=(1,),
                schedules=("sequential",),
                cluster_shape=None,
            )
            == []
        )

    def test_rejects_mismatched_cluster_shape(self):
        with pytest.raises(ValueError, match="must total n_gpus"):
            cache_sweep(n_gpus=4, cluster_shape=(3, 2))


class TestMutationSweep:
    def test_adversarial_interleavings_are_clean(self):
        assert mutation_sweep(size=96, iterations=10) == []

    def test_a_digest_blind_to_mutations_is_caught(self, monkeypatch):
        """Plant the bug the sweep exists for: a footprint digest that
        ignores tracker state serves stale residuals across mutations."""
        from repro.runtime.tracker import SegmentTracker

        monkeypatch.setattr(SegmentTracker, "footprint_digest", lambda self, *a, **k: 0)
        failures = mutation_sweep(size=96, iterations=10, schedules=("sequential",))
        assert any(f.startswith("digest:") for f in failures), failures
