"""Interleaving invariance (hypothesis): tenants cannot observe each other.

The isolation property of the serving runtime, stated as a property test:
take two tenants, each with its own stream of launches over its own
buffers, and service the two streams in *any* interleaved order on one
shared runtime — every tenant's final D2H bytes must equal the bytes it
gets running alone on a private runtime. Swept across the scheduler
policies, shared-copy coherence, and pipeline windows, with the job
streams themselves randomized (per-tenant tap offsets and iteration
counts).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.pipeline import compile_app
from repro.cuda.api import MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.serve.runtime import ServeRuntime

N = 1 << 12
BLOCK = 128
GRID = Dim3(N // BLOCK)
N_GPUS = 4


def _shift_kernel():
    """y[i] += x[(i + shift) mod N] — a cross-partition read per job."""
    kb = KernelBuilder("shift_add")
    n = kb.scalar("n")
    shift = kb.scalar("shift")
    x = kb.array("x", f32, (n,))
    y = kb.array("y", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        y[gi,] = y[gi,] + x[(gi + shift) % n,]
    return kb.finish()


KERNEL = _shift_kernel()
APP = compile_app([KERNEL])


def _setup(api, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(N).astype(np.float32)
    y = np.zeros(N, dtype=np.float32)
    dx = api.cudaMalloc(x.nbytes)
    api.cudaMemcpy(dx, x, x.nbytes, MemcpyKind.HostToDevice)
    dy = api.cudaMalloc(y.nbytes)
    api.cudaMemcpy(dy, y, y.nbytes, MemcpyKind.HostToDevice)
    return dx, dy


def _job(shift, dx, dy):
    def work(api):
        api.launch(KERNEL, GRID, BLOCK_DIM, [N, shift, dx, dy])
        api.cudaDeviceSynchronize()

    return work


BLOCK_DIM = Dim3(BLOCK)


def _fetch(api, dy):
    out = np.zeros(N, dtype=np.float32)
    api.cudaMemcpy(out, dy, out.nbytes, MemcpyKind.DeviceToHost)
    return out


def _solo(config, shifts, seed):
    api = MultiGpuApi(APP, config)
    dx, dy = _setup(api, seed)
    for shift in shifts:
        api.launch(KERNEL, GRID, BLOCK_DIM, [N, shift, dx, dy])
        api.cudaDeviceSynchronize()
    return _fetch(api, dy)


configs = st.sampled_from(
    [
        RuntimeConfig(n_gpus=N_GPUS, schedule="sequential"),
        RuntimeConfig(n_gpus=N_GPUS, schedule="overlap"),
        RuntimeConfig(n_gpus=N_GPUS, schedule="overlap", shared_copies=True),
        RuntimeConfig(n_gpus=N_GPUS, schedule="sequential", pipeline_window=4),
        RuntimeConfig(
            n_gpus=N_GPUS, schedule="overlap+p2p", shared_copies=True, pipeline_window=2
        ),
    ]
)

streams = st.lists(st.integers(0, N - 1), min_size=1, max_size=5)


@settings(max_examples=25, deadline=None)
@given(
    config=configs,
    shifts_a=streams,
    shifts_b=streams,
    interleave=st.lists(st.booleans(), min_size=0, max_size=10),
)
def test_any_interleaving_matches_solo_runs(config, shifts_a, shifts_b, interleave):
    runtime = ServeRuntime(APP, config, 2)
    handles = {t: _setup(runtime.api(t), seed=100 + t) for t in (0, 1)}
    jobs = {0: list(shifts_a), 1: list(shifts_b)}

    # Build one interleaved submission order covering both streams: the
    # boolean stream picks which tenant goes next; leftovers append in
    # tenant order.
    order = []
    cursors = {0: 0, 1: 0}
    for pick_b in interleave:
        tenant = 1 if pick_b else 0
        if cursors[tenant] < len(jobs[tenant]):
            order.append(tenant)
            cursors[tenant] += 1
    for tenant in (0, 1):
        order.extend([tenant] * (len(jobs[tenant]) - cursors[tenant]))

    emitted = {0: 0, 1: 0}
    for tenant in order:
        shift = jobs[tenant][emitted[tenant]]
        emitted[tenant] += 1
        dx, dy = handles[tenant]
        runtime.submit(tenant, _job(shift, dx, dy))
        # Service eagerly half the time (submission order == service order
        # either way; this varies when each tenant's launches issue).
        if (emitted[0] + emitted[1]) % 2 == 0:
            runtime.step()
    runtime.drain()

    for tenant in (0, 1):
        served = _fetch(runtime.api(tenant), handles[tenant][1])
        alone = _solo(config, jobs[tenant], seed=100 + tenant)
        assert np.array_equal(served, alone), (
            f"tenant {tenant} observed its neighbour "
            f"(config={config.schedule}, window={config.pipeline_window})"
        )
