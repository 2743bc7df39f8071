"""Vectorized enumerators are a pure speedup, never a semantic change.

Each enumerator can satisfy a scan request two ways: the vectorized numpy
program (``specialize=True``, the default) or the scalar tree-walking
scanner (``use_codegen=False``, the ablation path). These tests compile
every workload twice — once per backend — run identical functional inputs
through both, and require

* bitwise-identical workload outputs,
* identical per-enumerator scan results — same cache keys, same merged
  ranges, same emitted-range counts — element for element, and
* that the backends really were what they claim: the vectorized app's
  scans resolve through the numpy program, the interpreted app's never do.
"""

import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compiler.enumerators import Enumerator
from repro.compiler.pipeline import compile_app
from repro.compiler.strategy import Partition
from repro.runtime.api import MultiGpuApi, RunStats
from repro.runtime.config import RuntimeConfig
from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS, functional_config

REGISTRY = {**ALL_WORKLOADS, **EXTRA_WORKLOADS}


def _run_both(name, n_gpus=3, seed=11):
    """One functional run per backend; returns (outputs, app) for each."""
    results = {}
    for use_codegen in (True, False):
        wl = REGISTRY[name](functional_config(name))
        app = compile_app(wl.build_kernels(), use_codegen=use_codegen)
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=n_gpus))
        outputs = wl.run(api, wl.make_inputs(seed=seed))
        results[use_codegen] = (outputs, app, api.stats)
    return results


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_backends_bitwise_equal_and_scan_identical(name):
    results = _run_both(name)
    (vec_out, vec_app, vec_stats) = results[True]
    (int_out, int_app, int_stats) = results[False]

    # Workload outputs are bitwise identical across backends.
    assert set(vec_out) == set(int_out)
    for key in sorted(vec_out):
        assert np.array_equal(vec_out[key], int_out[key]), (name, key)

    # Both compiles produced the same enumerator population ...
    vec_table = vec_app.enumerators._table
    int_table = int_app.enumerators._table
    assert set(vec_table) == set(int_table), name

    # ... and, having served the same launch stream, the same scans:
    # element-identical merged ranges and emitted counts per request.
    for key in sorted(vec_table):
        vec_cache = vec_table[key]._cache
        int_cache = int_table[key]._cache
        assert set(vec_cache) == set(int_cache), (name, key)
        for req, (v_ranges, v_count, v_vectorized) in vec_cache.items():
            i_ranges, i_count, i_vectorized = int_cache[req]
            assert v_ranges == i_ranges, (name, key)
            assert v_count == i_count, (name, key)
            assert not i_vectorized, (name, key)

    # The interpreted table pins the scalar scanner outright.
    assert all(not e.specialize for e in int_table.values()), name
    assert int_stats.enumerator_specialized == 0
    if int_table:
        assert int_stats.enumerator_fallback > 0

    # The vectorized app's partitionable kernels actually engaged the
    # numpy backend (no silent fallback on the benchmark kernels).
    if vec_table:
        assert vec_stats.enumerator_specialized > 0, name
        assert vec_stats.enumerator_fallback == 0, name
        assert any(
            vectorized
            for e in vec_table.values()
            for (_, _, vectorized) in e._cache.values()
        ), name


@functools.lru_cache(maxsize=None)
def _requests(name):
    """One (enumerator, block, grid, scalars, shape) per distinct launch a
    functional two-GPU run of ``name`` scanned."""
    wl = REGISTRY[name](functional_config(name))
    app = compile_app(wl.build_kernels())
    seen = {}
    scan = Enumerator.element_ranges

    def record(self, partition, block, grid, scalars, shape, stats=None):
        key = (self.name, block, grid, tuple(sorted(scalars.items())), tuple(shape))
        seen.setdefault(key, (self, block, grid, dict(scalars), tuple(shape)))
        return scan(self, partition, block, grid, scalars, shape, stats)

    with mock.patch.object(Enumerator, "element_ranges", record):
        wl.run(MultiGpuApi(app, RuntimeConfig(n_gpus=2)), wl.make_inputs(seed=3))
    return [seen[k] for k in sorted(seen, key=repr)]


@st.composite
def _box(draw, grid):
    """A random non-empty block box inside ``grid``."""
    axes = {}
    for axis in ("z", "y", "x"):
        lo = draw(st.integers(0, grid.axis(axis) - 1))
        axes[axis] = (lo, draw(st.integers(lo + 1, grid.axis(axis))))
    return Partition(**axes)


@pytest.mark.parametrize("name", sorted(REGISTRY))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_partitions_scan_identically(name, data):
    """Random partitions of every app's launches, some on a reshaped array
    (whose rows may then be narrower than the image's columns): the compiled
    program and the scalar scanner return the same ranges and counts."""
    requests = _requests(name)
    if not requests:
        return
    enum, block, grid, scalars, shape = data.draw(st.sampled_from(requests))
    partition = data.draw(_box(grid))
    if len(shape) > 1 and data.draw(st.booleans()):
        shape = shape[:-1] + (max(1, shape[-1] + data.draw(st.integers(-3, 3))),)
    # A fresh scan memo each, so both backends really scan.
    vec = dataclasses.replace(enum, _cache={}, specialize=True)
    scalar = dataclasses.replace(enum, _cache={}, specialize=False)
    stats = RunStats()
    got = vec.element_ranges(partition, block, grid, scalars, shape, stats)
    assert got == scalar.element_ranges(partition, block, grid, scalars, shape)
    assert (stats.enumerator_specialized, stats.enumerator_fallback) == (1, 0)


def test_imgpipe_nonaffine_kernel_has_no_enumerators():
    """imgpipe's histogram-style kernel is rejected by the partitioner, so
    it contributes no enumerators — the fallback path, not the scalar
    scanner, handles it."""
    wl = REGISTRY["imgpipe"](functional_config("imgpipe"))
    app = compile_app(wl.build_kernels())
    rejected = [name for name, ck in app.kernels.items() if ck.partitioned is None]
    assert rejected, "expected at least one non-partitionable imgpipe kernel"
    for name in rejected:
        assert not app.enumerators.for_kernel(name, "read")
        assert not app.enumerators.for_kernel(name, "write")
