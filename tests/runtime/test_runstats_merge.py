"""``RunStats.merge``: merged per-tenant counters equal whole-run counters."""

from dataclasses import fields

import numpy as np
import pytest

from repro.compiler.pipeline import compile_app
from repro.cuda.api import MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.runtime.api import MultiGpuApi, RunStats
from repro.runtime.config import RuntimeConfig
from repro.serve.bench import JOB_ELEMS, build_serve_kernel
from repro.serve.runtime import ServeRuntime


def _synthetic(offset):
    """A RunStats with a distinct value in every field (none forgotten)."""
    stats = RunStats()
    for i, f in enumerate(fields(RunStats)):
        if f.name == "auto_choices":
            setattr(stats, f.name, {"sequential": offset + i, "overlap": 1})
        else:
            setattr(stats, f.name, offset + i)
    return stats


def test_merge_covers_every_field():
    a, b = _synthetic(10), _synthetic(500)
    merged = a.merge(b)
    for i, f in enumerate(fields(RunStats)):
        got = getattr(merged, f.name)
        if f.name == "auto_choices":
            assert got == {"sequential": 510 + 2 * i, "overlap": 2}
        else:
            assert got == 510 + 2 * i, f.name


def test_merge_identity_and_originals_untouched():
    empty = RunStats()
    a = _synthetic(3)
    assert a.merge(RunStats()) == a
    assert RunStats().merge(a) == a
    a.merge(a)
    assert a == _synthetic(3)  # merge never mutates its operands
    assert RunStats.merged([]) == empty


def test_merged_folds_a_sequence():
    parts = [_synthetic(k) for k in (0, 100, 1000)]
    folded = RunStats.merged(parts)
    pairwise = parts[0].merge(parts[1]).merge(parts[2])
    assert folded == pairwise


def test_per_tenant_stats_merge_to_whole_run():
    """Serve-path acceptance: tenant stats are isolated and additive.

    Each tenant's counters must equal the counters of the same stream run
    alone, and the aggregate must be their exact fold.
    """
    kernel = build_serve_kernel()
    app = compile_app([kernel])
    config = RuntimeConfig(n_gpus=4)
    grid, block = Dim3(JOB_ELEMS // 128), Dim3(128)
    x = np.linspace(0.0, 1.0, JOB_ELEMS, dtype=np.float32)

    def stream(api, n_jobs):
        dx = api.cudaMalloc(x.nbytes)
        api.cudaMemcpy(dx, x, x.nbytes, MemcpyKind.HostToDevice)
        dy = api.cudaMalloc(x.nbytes)
        api.cudaMemcpy(dy, x, x.nbytes, MemcpyKind.HostToDevice)
        for _ in range(n_jobs):
            api.launch(kernel, grid, block, [JOB_ELEMS, dx, dy])
        api.cudaDeviceSynchronize()

    n_jobs = {0: 2, 1: 3}
    runtime = ServeRuntime(app, config, 2)
    for tenant, count in n_jobs.items():
        runtime.submit(tenant, lambda api, c=count: stream(api, c))
    runtime.drain()

    solo = {}
    for tenant, count in n_jobs.items():
        api = MultiGpuApi(app, config)
        stream(api, count)
        solo[tenant] = api.stats

    for tenant in n_jobs:
        assert runtime.api(tenant).stats == solo[tenant]
    assert runtime.aggregate_stats() == solo[0].merge(solo[1])


def test_aggregate_is_dataclass_equal_not_identity():
    merged = RunStats().merge(RunStats())
    assert merged == RunStats()
    assert merged is not RunStats()
