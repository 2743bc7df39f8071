"""Cross-tenant skeleton sharing: invisible bitwise, visible in counters.

``ServeRuntime(shared_plan_cache=True)`` hands every tenant one shared
skeleton :class:`~repro.memo.Memo`. Skeletons are
fingerprint-determined and buffer-free, so the only observable difference
vs per-tenant caches must be the planner counters — outputs, traces,
clocks and every other stat stay bitwise identical, which
:func:`~repro.serve.bench.shared_skeleton_sweep` pins.
"""

import numpy as np

from repro.cuda.api import MemcpyKind
from repro.compiler.pipeline import compile_app
from repro.harness.calibration import K80_NODE_SPEC
from repro.runtime.config import RuntimeConfig
from repro.serve.bench import (
    JOB_ELEMS,
    _BLOCK,
    _GRID,
    build_serve_kernel,
    shared_skeleton_sweep,
)
from repro.serve.runtime import ServeRuntime
from repro.sim.engine import SimMachine


def _serve_fixture(shared, tenants=2):
    cfg = RuntimeConfig(n_gpus=2)
    app = compile_app([build_serve_kernel()])
    machine = SimMachine(K80_NODE_SPEC.with_gpus(cfg.n_gpus))
    runtime = ServeRuntime(app, cfg, tenants, machine=machine, shared_plan_cache=shared)
    return app, runtime


def _run_jobs(runtime, iterations=4):
    kernel = build_serve_kernel()
    host_x = np.linspace(0.0, 1.0, JOB_ELEMS, dtype=np.float32)
    host_y = np.zeros(JOB_ELEMS, dtype=np.float32)

    def job(api):
        dx = api.cudaMalloc(host_x.nbytes)
        api.cudaMemcpy(dx, host_x, host_x.nbytes, MemcpyKind.HostToDevice)
        dy = api.cudaMalloc(host_y.nbytes)
        api.cudaMemcpy(dy, host_y, host_y.nbytes, MemcpyKind.HostToDevice)
        for _ in range(iterations):
            api.launch(kernel, _GRID, _BLOCK, [JOB_ELEMS, dx, dy])

    for t in sorted(runtime.runtimes):
        runtime.submit(t, job)
    runtime.drain()


class TestWiring:
    def test_default_is_per_tenant(self):
        _, runtime = _serve_fixture(shared=False)
        assert runtime.plan_cache is None
        caches = {id(runtime.api(t).plan_cache) for t in runtime.runtimes}
        assert len(caches) == 2

    def test_shared_cache_is_one_instance(self):
        _, runtime = _serve_fixture(shared=True)
        assert runtime.plan_cache is not None
        for t in runtime.runtimes:
            assert runtime.api(t).plan_cache is runtime.plan_cache

    def test_shared_cache_honors_capacity(self, monkeypatch):
        import repro.serve.runtime as serve_runtime

        monkeypatch.setattr(serve_runtime, "SKELETON_CAPACITY", 3)
        _, runtime = _serve_fixture(shared=True)
        assert runtime.plan_cache.capacity == 3

    def test_residual_caches_stay_per_tenant(self):
        _, runtime = _serve_fixture(shared=True)
        caches = {id(runtime.api(t).residual_cache) for t in runtime.runtimes}
        assert len(caches) == 2


class TestCounters:
    def test_follower_tenants_never_rebuild(self):
        _, runtime = _serve_fixture(shared=True, tenants=3)
        _run_jobs(runtime)
        misses = {
            t: runtime.api(t).stats.plan_cache_misses
            for t in sorted(runtime.runtimes)
        }
        assert misses[0] == 1
        assert misses[1] == 0 and misses[2] == 0

    def test_per_tenant_hits_keep_attribution(self):
        _, runtime = _serve_fixture(shared=True, tenants=2)
        _run_jobs(runtime, iterations=5)
        # Hits are charged to the launching tenant's own stats record,
        # shared cache or not.
        assert runtime.api(0).stats.plan_cache_hits == 4
        assert runtime.api(1).stats.plan_cache_hits == 5


class TestIdentity:
    def test_shared_cache_is_bitwise_invisible(self):
        assert shared_skeleton_sweep(n_gpus=2, iterations=4) == []

    def test_overlap_schedule_too(self):
        assert (
            shared_skeleton_sweep(n_gpus=2, schedules=("overlap",), iterations=4)
            == []
        )
