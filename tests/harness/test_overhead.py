"""The launch-overhead study: profiler coverage, self-checks, invisibility.

``repro bench overhead`` ships with exit-1 self-checks
(:func:`repro.harness.overhead.overhead_failures`), an identity sweep
(:func:`repro.harness.overhead.identity_sweep`) and an adversarial mutation
sweep (:func:`repro.harness.overhead.mutation_identity_failures`). These
tests run a reduced study for real — asserting the profiler's launch
accounting and both caches' arithmetic line up — and then doctor one field
at a time to prove every self-check branch actually fires.
"""

import dataclasses

from repro.harness.overhead import (
    MIN_NOCACHE_REDUCTION,
    MIN_REPLAY_REDUCTION,
    MIN_WARM_REDUCTION,
    OverheadPoint,
    identity_sweep,
    launch_overhead_study,
    mutation_identity_failures,
    overhead_failures,
)


def _small_study(iterations=8):
    return launch_overhead_study(
        workloads=["hotspot"], n_gpus=4, sizes={"hotspot": (256, iterations)}
    )


class TestStudy:
    def test_profiler_accounting(self):
        (point,) = _small_study()
        assert point.workload == "hotspot"
        # One fingerprint for the whole ping-pong loop: the first launch
        # misses (cold), and the converged coherence state makes the
        # remaining seven replay the memoized residual.
        assert point.cold_launches == 1
        assert point.warm_launches == 0
        assert point.replay_launches == 7
        assert point.counters["plan_cache_misses"] == point.cold_launches
        assert point.counters["plan_cache_hits"] == 7
        assert point.counters["plan_cache_evictions"] == 0
        assert point.counters["residual_cache_misses"] == 1
        assert point.counters["residual_cache_hits"] == 7
        assert point.counters["residual_cache_evictions"] == 0
        assert point.counters["enumerator_specialized"] > 0
        assert point.counters["enumerator_fallback"] == 0
        # A cache hit never rebuilds the skeleton, on either hit path.
        assert point.warm_us["skeleton"] == 0.0
        assert point.replay_us["skeleton"] == 0.0
        for stage in ("fingerprint", "skeleton", "residual", "submit", "total"):
            assert stage in point.cold_us and stage in point.warm_us
            assert stage in point.replay_us and stage in point.nocache_us

    def test_real_study_passes_own_checks(self):
        # 24 iterations: a replay's first sight of each ping-pong binding
        # materialises a plan, and averaged over only seven replays those
        # two leave the residual stage ~3x below warm — the
        # MIN_REPLAY_REDUCTION bar itself, so host noise flipped the check
        # (it failed inside full tier-1 runs before and after PR 19).
        points = _small_study(iterations=24)
        assert overhead_failures(points) == []

    def test_as_dict_round_trip(self):
        (point,) = _small_study()
        row = point.as_dict()
        assert row["warm_reduction"] == point.warm_reduction
        assert row["nocache_reduction"] == point.nocache_reduction
        assert row["replay_residual_reduction"] == point.replay_residual_reduction
        assert row["counters"] == point.counters


class TestSelfChecks:
    """Each failure branch must fire on a point doctored to violate it."""

    def _good_point(self):
        stages = {"fingerprint": 1.0, "skeleton": 0.0, "residual": 2.0, "submit": 3.0}
        return OverheadPoint(
            workload="hotspot",
            size=256,
            iterations=8,
            cold_launches=1,
            warm_launches=2,
            replay_launches=5,
            cold_us={**stages, "skeleton": 90.0, "total": 100.0},
            warm_us={**stages, "total": 6.0},
            replay_us={**stages, "residual": 0.5, "total": 4.5},
            nocache_us={**stages, "skeleton": 20.0, "total": 26.0},
            counters={
                "plan_cache_hits": 7,
                "plan_cache_misses": 1,
                "plan_cache_evictions": 0,
                "residual_cache_hits": 5,
                "residual_cache_misses": 3,
                "residual_cache_evictions": 0,
                "enumerator_specialized": 8,
                "enumerator_fallback": 0,
            },
        )

    def test_good_point_passes(self):
        assert overhead_failures([self._good_point()]) == []

    def test_empty_study_fails(self):
        assert overhead_failures([]) == ["overhead study produced no points"]

    def test_missing_path_coverage(self):
        p = dataclasses.replace(
            self._good_point(), warm_launches=0, replay_launches=0
        )
        (failure,) = overhead_failures([p])
        assert failure.startswith("coverage:")

    def test_headline_reduction(self):
        p = self._good_point()
        slow = dict(p.warm_us)
        slow["total"] = p.cold_us["total"] / (MIN_WARM_REDUCTION - 1.0)
        (failure, *rest) = overhead_failures([dataclasses.replace(p, warm_us=slow)])
        assert failure.startswith("headline:")

    def test_nocache_baseline_reduction(self):
        p = self._good_point()
        fast = dict(p.nocache_us)
        fast["total"] = p.warm_us["total"] * (MIN_NOCACHE_REDUCTION - 0.1)
        (failure,) = overhead_failures([dataclasses.replace(p, nocache_us=fast)])
        assert failure.startswith("baseline:")

    def test_replay_must_engage_on_hotspot(self):
        p = self._good_point()
        bad_counters = {
            **p.counters, "residual_cache_hits": 0, "residual_cache_misses": 8
        }
        p = dataclasses.replace(
            p, replay_launches=0, replay_us={}, warm_launches=7,
            counters=bad_counters,
        )
        (failure,) = overhead_failures([p])
        assert failure.startswith("replay:")
        assert "never hit" in failure

    def test_replay_residual_reduction(self):
        p = self._good_point()
        slow = dict(p.replay_us)
        slow["residual"] = p.warm_us["residual"] / (MIN_REPLAY_REDUCTION - 1.0)
        (failure,) = overhead_failures([dataclasses.replace(p, replay_us=slow)])
        assert failure.startswith("replay:")
        assert "residual stage" in failure

    def test_plan_cache_arithmetic(self):
        p = self._good_point()
        bad = {**p.counters, "plan_cache_hits": 6}
        (failure,) = overhead_failures([dataclasses.replace(p, counters=bad)])
        assert failure.startswith("arithmetic:")
        assert "plan cache" in failure

    def test_residual_cache_arithmetic(self):
        p = self._good_point()
        bad = {**p.counters, "residual_cache_hits": 4}
        (failure,) = overhead_failures([dataclasses.replace(p, counters=bad)])
        assert failure.startswith("arithmetic:")
        assert "residual cache" in failure

    def test_evictions(self):
        p = self._good_point()
        for counter in ("plan_cache_evictions", "residual_cache_evictions"):
            bad = {**p.counters, counter: 2}
            (failure,) = overhead_failures([dataclasses.replace(p, counters=bad)])
            assert failure.startswith("capacity:")

    def test_vectorized_backend_engaged(self):
        p = self._good_point()
        bad = {**p.counters, "enumerator_specialized": 0}
        (failure,) = overhead_failures([dataclasses.replace(p, counters=bad)])
        assert failure.startswith("backend:")

    def test_warm_skeleton_stage_zero(self):
        p = self._good_point()
        for column in ("warm_us", "replay_us"):
            slow = {**getattr(p, column), "skeleton": 0.5}
            (failure,) = overhead_failures([dataclasses.replace(p, **{column: slow})])
            assert failure.startswith("staging:")


class TestIdentitySweep:
    def test_flat_subset_is_clean(self):
        assert (
            identity_sweep(
                workload="hotspot",
                windows=(1,),
                schedules=("sequential",),
                cluster_shape=None,
            )
            == []
        )

    def test_rejects_mismatched_cluster_shape(self):
        import pytest

        with pytest.raises(ValueError, match="must total n_gpus"):
            identity_sweep(n_gpus=4, cluster_shape=(3, 2))


class TestMutationSweep:
    def test_adversarial_interleavings_are_clean(self):
        assert mutation_identity_failures(size=96, iterations=10) == []
