"""Single-tenant serve identity and per-tenant trace attribution.

The acceptance bar of the serving runtime: one tenant submitted through
``ServeRuntime`` must be indistinguishable — output bytes, trace, simulated
clock, stats — from the same call sequence against a bare ``MultiGpuApi``.
"""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_app
from repro.cuda.api import MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.runtime.config import RuntimeConfig
from repro.serve.bench import JOB_ELEMS, build_serve_kernel, single_tenant_sweep
from repro.serve.runtime import ServeRuntime, untenanted
from repro.sim.engine import SimMachine
from repro.sim.trace import Category
from repro.harness.calibration import K80_NODE_SPEC


@pytest.mark.parametrize(
    "schedule,window,shared",
    [
        ("sequential", 1, False),
        ("sequential", 4, False),
        ("overlap", 1, False),
        ("overlap", 4, True),
        ("overlap+p2p", 2, True),
    ],
)
def test_single_tenant_identity_cluster(schedule, window, shared):
    cell = dict(schedule=schedule, pipeline_window=window, shared_copies=shared)
    assert single_tenant_sweep([cell], n_nodes=2, gpus_per_node=2) == []


def test_single_tenant_identity_flat_machine():
    assert single_tenant_sweep(n_nodes=1, gpus_per_node=4) == []


def test_untenanted_round_trip():
    kernel = build_serve_kernel()
    app = compile_app([kernel])
    machine = SimMachine(K80_NODE_SPEC.with_gpus(2))
    runtime = ServeRuntime(app, RuntimeConfig(n_gpus=2), 2, machine=machine)
    x = np.linspace(0.0, 1.0, JOB_ELEMS, dtype=np.float32)

    def work(api):
        dx = api.cudaMalloc(x.nbytes)
        api.cudaMemcpy(dx, x, x.nbytes, MemcpyKind.HostToDevice)
        dy = api.cudaMalloc(x.nbytes)
        api.cudaMemcpy(dy, x, x.nbytes, MemcpyKind.HostToDevice)
        api.launch(kernel, Dim3(JOB_ELEMS // 128), Dim3(128), [JOB_ELEMS, dx, dy])
        api.cudaDeviceSynchronize()

    runtime.submit(0, work)
    runtime.submit(1, work)
    runtime.drain()

    intervals = machine.trace.intervals
    assert intervals, "expected simulated work"
    # Every interval is attributed to the serving tenant...
    assert {iv.tenant for iv in intervals} == {0, 1}
    # ...and clearing the tag is the only difference untenanted() makes.
    cleared = untenanted(intervals)
    assert all(iv.tenant is None for iv in cleared)
    assert [
        (iv.resource, iv.start, iv.end, iv.category, iv.label, iv.launch)
        for iv in cleared
    ] == [
        (iv.resource, iv.start, iv.end, iv.category, iv.label, iv.launch)
        for iv in intervals
    ]


def test_busy_time_by_tenant_accounts_everything():
    kernel = build_serve_kernel()
    app = compile_app([kernel])
    machine = SimMachine(K80_NODE_SPEC.with_gpus(2))
    runtime = ServeRuntime(app, RuntimeConfig(n_gpus=2), 2, machine=machine)
    x = np.linspace(0.0, 1.0, JOB_ELEMS, dtype=np.float32)

    def work(api):
        dx = api.cudaMalloc(x.nbytes)
        api.cudaMemcpy(dx, x, x.nbytes, MemcpyKind.HostToDevice)
        dy = api.cudaMalloc(x.nbytes)
        api.cudaMemcpy(dy, x, x.nbytes, MemcpyKind.HostToDevice)
        api.launch(kernel, Dim3(JOB_ELEMS // 128), Dim3(128), [JOB_ELEMS, dx, dy])
        api.cudaDeviceSynchronize()

    runtime.submit(0, work)
    runtime.submit(1, work)
    runtime.drain()

    by_tenant = machine.trace.busy_time_by_tenant()
    assert set(by_tenant) == {0, 1}
    assert all(v > 0 for v in by_tenant.values())
    total = sum(iv.duration for iv in machine.trace.intervals)
    assert sum(by_tenant.values()) == pytest.approx(total)
    # Category filter splits the same way.
    app_time = machine.trace.busy_time_by_tenant(Category.APPLICATION)
    assert set(app_time) == {0, 1}
    assert sum(app_time.values()) == pytest.approx(
        sum(
            iv.duration
            for iv in machine.trace.intervals
            if iv.category is Category.APPLICATION
        )
    )
