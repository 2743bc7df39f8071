"""Plan-skeleton cache: LRU mechanics, staleness keys, warm==cold property.

The staged launch planner caches tracker-independent plan skeletons per
launch fingerprint (docs/performance.md). These tests pin:

* the :class:`~repro.runtime.plancache.PlanCache` LRU contract;
* that every planning-relevant ``RuntimeConfig`` field participates in the
  fingerprint, so a knob flip can never serve a stale skeleton;
* the invisibility property — a run with the cache enabled is bitwise
  identical (outputs, trace, tracker state, stats outside the planner
  counters) to the same run with the cache disabled, across the
  ``schedule x shared_copies x pipeline_window`` matrix, on a flat node
  and on a 2x2 cluster.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.pipeline import compile_app
from repro.cuda.api import MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.harness.calibration import K80_NODE_SPEC, k80_cluster
from repro.runtime.api import HOST_PLANNER_COUNTERS, MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.runtime.fingerprint import PLANNING_CONFIG_FIELDS, launch_fingerprint
from repro.runtime.plancache import PlanCache
from repro.sched.policy import SCHEDULES
from repro.sim.engine import SimMachine

N = 32
BLOCK = Dim3(x=8, y=8)
GRID = Dim3(x=N // 8, y=N // 8)


def _build_stencil(radius=1):
    """A ping-pong 2-D stencil whose halos cross partition boundaries."""
    kb = KernelBuilder("pcstencil")
    src = kb.array("src", f32, (N, N))
    dst = kb.array("dst", f32, (N, N))
    gy, gx = kb.global_id("y"), kb.global_id("x")
    with kb.if_((gy < N) & (gx < N)):
        with kb.if_(
            (gy >= radius) & (gy < N - radius) & (gx >= radius) & (gx < N - radius)
        ):
            acc = src[gy - radius, gx] + src[gy + radius, gx]
            acc = acc + src[gy, gx - radius] + src[gy, gx + radius]
            dst[gy, gx] = acc * 0.25
        with kb.otherwise():
            dst[gy, gx] = src[gy, gx]
    return kb.finish()


class TestPlanCacheLru:
    def test_get_put_and_contains(self):
        cache = PlanCache(capacity=2)
        assert cache.get("a") is None
        assert not cache.put("a", 1)
        assert "a" in cache and cache.get("a") == 1
        assert len(cache) == 1
        cache.clear()
        assert "a" not in cache and len(cache) == 0

    def test_eviction_is_least_recently_used(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": now "b" is LRU
        assert cache.put("c", 3)  # evicts "b"
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_put_reports_eviction_only_when_overflowing(self):
        cache = PlanCache(capacity=1)
        assert not cache.put("a", 1)
        assert cache.put("b", 2)
        assert not cache.put("b", 3)  # overwrite, no eviction


def _fingerprint_for(app, kernel, config):
    api = MultiGpuApi(app, config, machine=None, functional=False)
    ck = app.kernel(kernel.name)
    return launch_fingerprint(api, ck, GRID, BLOCK, {}, {"src": (N, N), "dst": (N, N)})


class TestFingerprintStaleness:
    #: One representative flip per planning-relevant config field: each
    #: must change the launch fingerprint, or a knob flip could serve a
    #: skeleton planned under the old setting.
    FLIPS = {
        "n_gpus": 2,
        "transfers_enabled": False,
        "tracking_enabled": False,
        "validate_unit_axes": False,
        "shared_copies": True,
        "schedule": "overlap",
        "pipeline_window": 4,
        "irredundant_transfers": True,
    }

    def test_every_planning_field_has_a_flip(self):
        assert set(self.FLIPS) == set(PLANNING_CONFIG_FIELDS)

    def test_each_planning_field_changes_the_fingerprint(self):
        kernel = _build_stencil()
        app = compile_app([kernel])
        base_cfg = RuntimeConfig(n_gpus=4)
        base = _fingerprint_for(app, kernel, base_cfg)
        for name, value in self.FLIPS.items():
            assert getattr(base_cfg, name) != value, name
            flipped = _fingerprint_for(
                app, kernel, dataclasses.replace(base_cfg, **{name: value})
            )
            assert flipped != base, f"flipping {name} left the fingerprint unchanged"

    def test_knob_flip_forces_a_rebuild(self):
        """Flipping a planning knob mid-run must miss, not reuse stale plans.

        The flipped run must also behave exactly like an uncached run
        driven through the same flip — outputs and tracker state bitwise.
        """
        kernel = _build_stencil()
        app = compile_app([kernel])

        def drive(plan_cache):
            api = MultiGpuApi(
                app, RuntimeConfig(n_gpus=4, plan_cache=plan_cache)
            )
            nbytes = N * N * 4
            a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
            data = np.random.default_rng(3).random((N, N)).astype(np.float32)
            api.cudaMemcpy(a, data, nbytes, MemcpyKind.HostToDevice)
            api.cudaMemset(b, 0, nbytes)
            api.launch(kernel, GRID, BLOCK, [a, b])
            api.launch(kernel, GRID, BLOCK, [b, a])
            # Live reconfiguration: from here on, copies are trimmed to
            # exact read sets — cached skeletons keyed under the old
            # config must not be reused.
            api.config = dataclasses.replace(api.config, irredundant_transfers=True)
            api.launch(kernel, GRID, BLOCK, [a, b])
            api.launch(kernel, GRID, BLOCK, [b, a])
            out = np.zeros((N, N), dtype=np.float32)
            api.cudaMemcpy(out, a, nbytes, MemcpyKind.DeviceToHost)
            return api, out, [vb.coherence_state() for vb in (a, b)]

        api, out, trackers = drive(plan_cache=True)
        # Buffer identities are not part of the fingerprint, so all four
        # launches share one shape signature — but the flip starts a new
        # config epoch, forcing exactly one fresh miss.
        assert api.stats.plan_cache_misses == 2
        assert api.stats.plan_cache_hits == 2

        _, ref_out, ref_trackers = drive(plan_cache=False)
        assert np.array_equal(out, ref_out)
        assert trackers == ref_trackers

    @pytest.mark.parametrize(
        "name, value", [("h2d_distribution", "first_touch"), ("debug_validate_writes", True)]
    )
    def test_non_planning_flip_hits(self, name, value):
        """Fields no plan builder reads stay out of the key: a flip hits.

        ``h2d_distribution`` steers host-to-device copies and
        ``debug_validate_writes`` audits a finished partition; neither
        changes a skeleton, so the flipped run must keep hitting and stay
        bitwise equal to an uncached run driven through the same flip.
        """
        assert name not in PLANNING_CONFIG_FIELDS
        kernel = _build_stencil()
        app = compile_app([kernel])

        def drive(plan_cache):
            api = MultiGpuApi(app, RuntimeConfig(n_gpus=4, plan_cache=plan_cache))
            nbytes = N * N * 4
            data = np.random.default_rng(5).random((N, N)).astype(np.float32)
            a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
            api.cudaMemcpy(a, data, nbytes, MemcpyKind.HostToDevice)
            api.cudaMemset(b, 0, nbytes)
            api.launch(kernel, GRID, BLOCK, [a, b])
            api.config = dataclasses.replace(api.config, **{name: value})
            api.cudaMemcpy(b, data[::-1].copy(), nbytes, MemcpyKind.HostToDevice)
            api.launch(kernel, GRID, BLOCK, [b, a])
            api.launch(kernel, GRID, BLOCK, [a, b])
            out = np.zeros((N, N), dtype=np.float32)
            api.cudaMemcpy(out, b, nbytes, MemcpyKind.DeviceToHost)
            return api, out, [vb.coherence_state() for vb in (a, b)]

        api, out, trackers = drive(plan_cache=True)
        assert api.stats.plan_cache_misses == 1
        assert api.stats.plan_cache_hits == 2
        _, ref_out, ref_trackers = drive(plan_cache=False)
        assert np.array_equal(out, ref_out)
        assert trackers == ref_trackers

    def test_repeat_launches_hit(self):
        kernel = _build_stencil()
        app = compile_app([kernel])
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=4))
        nbytes = N * N * 4
        a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
        api.cudaMemset(a, 0, nbytes)
        api.cudaMemset(b, 0, nbytes)
        for _ in range(3):
            api.launch(kernel, GRID, BLOCK, [a, b])
            api.launch(kernel, GRID, BLOCK, [b, a])
        # Buffer identities are deliberately not part of the key, so the
        # whole ping-pong collapses onto a single fingerprint: one miss,
        # then hits forever.
        assert api.stats.plan_cache_misses == 1
        assert api.stats.plan_cache_hits == 5
        assert api.stats.plan_cache_evictions == 0


def _observe(app, kernel, config, machine, seed):
    """One functional run; everything a warm==cold comparison looks at."""
    api = MultiGpuApi(app, config, machine=machine)
    nbytes = N * N * 4
    a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
    data = np.random.default_rng(seed).random((N, N)).astype(np.float32)
    api.cudaMemcpy(a, data, nbytes, MemcpyKind.HostToDevice)
    api.cudaMemset(b, 0, nbytes)
    src, dst = a, b
    for _ in range(3):
        api.launch(kernel, GRID, BLOCK, [src, dst])
        src, dst = dst, src
    out_a = np.zeros((N, N), dtype=np.float32)
    out_b = np.zeros((N, N), dtype=np.float32)
    api.cudaMemcpy(out_a, a, nbytes, MemcpyKind.DeviceToHost)
    api.cudaMemcpy(out_b, b, nbytes, MemcpyKind.DeviceToHost)
    stats = dataclasses.asdict(api.stats)
    planner = {name: stats.pop(name) for name in HOST_PLANNER_COUNTERS}
    return (
        (out_a, out_b),
        [vb.coherence_state() for vb in (a, b)],
        list(machine.trace.intervals),
        stats,
        planner,
    )


def _assert_warm_equals_cold(kernel, app, config_kwargs, make_machine, seed):
    runs = {}
    for cached in (True, False):
        cfg = RuntimeConfig(n_gpus=4, plan_cache=cached, **config_kwargs)
        runs[cached] = _observe(app, kernel, cfg, make_machine(), seed)
    on, off = runs[True], runs[False]
    assert np.array_equal(on[0][0], off[0][0]), config_kwargs
    assert np.array_equal(on[0][1], off[0][1]), config_kwargs
    assert on[1] == off[1], ("tracker state", config_kwargs)
    assert on[2] == off[2], ("trace", config_kwargs)
    assert on[3] == off[3], ("stats", config_kwargs)
    # The cached run really exercised the cache; the uncached run didn't.
    assert on[4]["plan_cache_hits"] > 0 and on[4]["plan_cache_misses"] > 0
    assert off[4]["plan_cache_hits"] == 0 and off[4]["plan_cache_misses"] == 0


@settings(max_examples=10, deadline=None)
@given(
    schedule=st.sampled_from(tuple(SCHEDULES) + ("auto",)),
    shared=st.booleans(),
    window=st.sampled_from([1, 4]),
    radius=st.integers(1, 2),
    seed=st.integers(0, 5),
)
def test_plan_cache_is_invisible(schedule, shared, window, radius, seed):
    """Warm==cold on a flat node over the full configuration matrix."""
    kernel = _build_stencil(radius)
    app = compile_app([kernel])
    _assert_warm_equals_cold(
        kernel,
        app,
        {"schedule": schedule, "shared_copies": shared, "pipeline_window": window},
        lambda: SimMachine(K80_NODE_SPEC.with_gpus(4)),
        seed,
    )


def test_plan_cache_is_invisible_on_a_cluster():
    """Warm==cold with cross-node halos (2x2 cluster, overlap+p2p, fused)."""
    from repro.cluster.engine import ClusterSimMachine

    kernel = _build_stencil()
    app = compile_app([kernel])
    _assert_warm_equals_cold(
        kernel,
        app,
        {"schedule": "overlap+p2p", "shared_copies": True, "pipeline_window": 4},
        lambda: ClusterSimMachine(k80_cluster(2, 2)),
        seed=1,
    )
