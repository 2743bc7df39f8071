"""Every enumerator is its compiled box program, built once, and exact.

An enumerator answers each scan request with one program
(:mod:`repro.poly.vectorize`), built from one scan AST when the enumerator
is. These tests hold every program of every workload to two row-by-row
oracles over the same image — the compiled scalar scanner
(:func:`repro.poly.codegen.compile_scanner`) and the tree-walking
interpreter of :mod:`tests.poly.scan_oracle` — and require

* bitwise-identical workload outputs when the interpreter serves every
  scan instead of the program,
* identical per-request scan results — same cache keys, same merged
  ranges, same emitted-range counts — element for element, also at random
  partitions and on reshaped arrays, and
* exactly one scan AST per enumerator across compile and a functional run.
"""

import contextlib
import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compiler.enumerators import Enumerator
from repro.compiler.pipeline import compile_app
from repro.compiler.strategy import Partition
from repro.poly import codegen
from repro.poly.codegen import compile_scanner
from repro.runtime.api import MultiGpuApi, RunStats
from repro.runtime.config import RuntimeConfig
from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS, functional_config
from tests.poly.scan_oracle import interpreted_scanner, row_scan, strides_of

REGISTRY = {**ALL_WORKLOADS, **EXTRA_WORKLOADS}


def _run_both(name, n_gpus=3, seed=11):
    """One functional run as shipped and one with every enumerator scan
    interpreted; ``{interpreted: (outputs, app, stats)}``."""
    results = {}
    for interpreted in (False, True):
        wl = REGISTRY[name](functional_config(name))
        app = compile_app(wl.build_kernels())
        scanners = {}

        def interpreted_scan(self, params, shape):
            if self.name not in scanners:
                scanners[self.name] = interpreted_scanner(self.image, self.param_order)
            return row_scan(scanners[self.name], params, strides_of(shape))

        with (
            mock.patch.object(Enumerator, "_scan", interpreted_scan)
            if interpreted
            else contextlib.nullcontext()
        ):
            api = MultiGpuApi(app, RuntimeConfig(n_gpus=n_gpus))
            outputs = wl.run(api, wl.make_inputs(seed=seed))
        results[interpreted] = (outputs, app, api.stats)
    return results


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_backends_bitwise_equal_and_scan_identical(name):
    results = _run_both(name)
    (vec_out, vec_app, vec_stats) = results[False]
    (int_out, int_app, _) = results[True]

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
        vec_cache = vec_table[key]._scans._entries
        int_cache = int_table[key]._scans._entries
        assert set(vec_cache) == set(int_cache), (name, key)
        for req, (v_ranges, v_count) in vec_cache.items():
            assert (v_ranges, v_count) == int_cache[req], (name, key)

    # The partitionable kernels really scanned.
    if vec_table:
        assert vec_stats.enumerator_specialized > 0, name
        assert any(e._scans._entries for e in vec_table.values()), name


@functools.lru_cache(maxsize=None)
def _requests(name):
    """One (enumerator, block, grid, scalars, shape) per distinct launch a
    functional two-GPU run of ``name`` scanned."""
    wl = REGISTRY[name](functional_config(name))
    app = compile_app(wl.build_kernels())
    seen = {}
    scan = Enumerator.element_ranges

    def record(self, partition, block, grid, scalars, shape, stats=None, audit=False):
        key = (self.name, block, grid, tuple(sorted(scalars.items())), tuple(shape))
        seen.setdefault(key, (self, block, grid, dict(scalars), tuple(shape)))
        return scan(self, partition, block, grid, scalars, shape, stats, audit)

    with mock.patch.object(Enumerator, "element_ranges", record):
        wl.run(MultiGpuApi(app, RuntimeConfig(n_gpus=2)), wl.make_inputs(seed=3))
    return [seen[k] for k in sorted(seen, key=repr)]


@functools.lru_cache(maxsize=None)
def _oracles(name, enum_name):
    """The compiled scalar scanner and the interpreter of one enumerator's image."""
    enum = next(e for e, *_ in _requests(name) if e.name == enum_name)
    return (
        compile_scanner(enum.image, enum.param_order),
        interpreted_scanner(enum.image, enum.param_order),
    )


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
    program, the scalar scanner and the interpreter return the same ranges
    and counts."""
    requests = _requests(name)
    if not requests:
        return
    enum, block, grid, scalars, shape = data.draw(st.sampled_from(requests))
    partition = data.draw(_box(grid))
    if len(shape) > 1 and data.draw(st.booleans()):
        shape = shape[:-1] + (max(1, shape[-1] + data.draw(st.integers(-3, 3))),)
    # A fresh scan memo, so the program really scans.
    fresh = dataclasses.replace(enum)
    stats = RunStats()
    got = fresh.element_ranges(partition, block, grid, scalars, shape, stats)
    params = enum.pack_params(partition, block, grid, scalars)
    for scanner in _oracles(name, enum.name):
        assert got == row_scan(scanner, params, strides_of(shape))
    assert stats.enumerator_specialized == 1


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_each_enumerator_builds_one_scan_ast(name):
    """Compile plus one functional run build exactly one scan AST per
    enumerator: the program is built with the enumerator and every scan
    reuses it."""
    built = []

    def counting(build):
        def wrapper(s):
            built.append(s)
            return build(s)

        return wrapper

    wl = REGISTRY[name](functional_config(name))
    with mock.patch.object(
        codegen, "build_scan_ast", counting(codegen.build_scan_ast)
    ), mock.patch.object(
        codegen, "build_scan_ast_union", counting(codegen.build_scan_ast_union)
    ):
        app = compile_app(wl.build_kernels())
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=2))
        wl.run(api, wl.make_inputs(seed=3))
    enums = app.enumerators.all()
    assert len(built) == len(enums), name
    for enum in enums:
        assert sum(s is enum.image for s in built) == 1, (name, enum.name)
    if enums:
        assert api.stats.enumerator_specialized > 0, name


def test_imgpipe_nonaffine_kernel_has_no_enumerators():
    """imgpipe's histogram-style kernel is rejected by the partitioner, so
    it contributes no enumerators — the whole-buffer fallback launch
    handles it."""
    wl = REGISTRY["imgpipe"](functional_config("imgpipe"))
    app = compile_app(wl.build_kernels())
    rejected = [name for name, ck in app.kernels.items() if ck.partitioned is None]
    assert rejected, "expected at least one non-partitionable imgpipe kernel"
    for name in rejected:
        assert not app.enumerators.for_kernel(name, "read")
        assert not app.enumerators.for_kernel(name, "write")
