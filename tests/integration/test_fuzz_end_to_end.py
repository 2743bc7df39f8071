"""End-to-end coherence fuzzing.

Hypothesis drives random *programs* — interleaved launches of several
kernels (including a non-partitionable one that exercises the fallback
path) and host<->device memcopies over shared buffers — and checks that the
multi-GPU runtime stays bitwise identical to the single-GPU reference at
every observation point. This is the broadest invariant the system has:
whatever the interleaving, the virtual-buffer coherence protocol must be
invisible.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.engine import ClusterSimMachine
from repro.compiler.pipeline import compile_app
from repro.cuda.api import CudaApi, MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.harness.calibration import K80_NODE_SPEC, k80_cluster
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sim.engine import SimMachine

N = 64
GRID, BLOCK = Dim3(8), Dim3(8)


def _shift(name, offset):
    kb = KernelBuilder(name)
    n = kb.scalar("n")
    src = kb.array("src", f32, (n,))
    dst = kb.array("dst", f32, (n,))
    gi = kb.global_id("x")
    lo = max(0, -offset)
    hi = min(N, N - offset)
    with kb.if_((gi >= lo) & (gi < hi) & (gi < n)):
        dst[gi + offset,] = src[gi,] + 1.0
    return kb.finish()


def _stencil1d():
    kb = KernelBuilder("st1d")
    n = kb.scalar("n")
    src = kb.array("src", f32, (n,))
    dst = kb.array("dst", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_((gi > 0) & (gi < n - 1)):
        dst[gi,] = (src[gi - 1,] + src[gi,] + src[gi + 1,]) * 0.25
    return kb.finish()


def _scatter_fallback():
    kb = KernelBuilder("scat")
    n = kb.scalar("n")
    src = kb.array("src", f32, (n,))
    dst = kb.array("dst", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        dst[(gi * 3) // 3,] = src[gi,] * 0.5  # non-affine: single-GPU fallback
    return kb.finish()


KERNELS = [_shift("shl", -1), _shift("shr", 2), _stencil1d(), _scatter_fallback()]
APP = compile_app(KERNELS)

#: One program step: ("launch", kernel_idx, src_buf, dst_buf) or
#: ("h2d", buf, seed) or ("d2h", buf) — buffers are indices into a pool of 3.
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("launch"), st.integers(0, len(KERNELS) - 1),
            st.integers(0, 2), st.integers(0, 2),
        ),
        st.tuples(st.just("h2d"), st.integers(0, 2), st.integers(0, 99)),
        st.tuples(st.just("d2h"), st.integers(0, 2), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


def _execute(api, program):
    nbytes = N * 4
    bufs = [api.cudaMalloc(nbytes) for _ in range(3)]
    rng_cache = {}
    # Deterministic initial contents everywhere.
    for i, b in enumerate(bufs):
        api.cudaMemcpy(b, np.full(N, float(i), dtype=np.float32), nbytes, MemcpyKind.HostToDevice)
    observations = []
    for step in program:
        if step[0] == "launch":
            _, ki, si, di = step
            if si == di:
                continue  # aliasing src/dst is undefined even on one GPU
            kernel = KERNELS[ki]
            api.launch(kernel, GRID, BLOCK, [N, bufs[si], bufs[di]])
        elif step[0] == "h2d":
            _, bi, seed = step
            data = rng_cache.setdefault(
                seed, np.random.default_rng(seed).random(N).astype(np.float32)
            )
            api.cudaMemcpy(bufs[bi], data, nbytes, MemcpyKind.HostToDevice)
        else:
            _, bi, _ = step
            out = np.zeros(N, dtype=np.float32)
            api.cudaMemcpy(out, bufs[bi], nbytes, MemcpyKind.DeviceToHost)
            observations.append(out)
    # Final observation of every buffer.
    for b in bufs:
        out = np.zeros(N, dtype=np.float32)
        api.cudaMemcpy(out, b, nbytes, MemcpyKind.DeviceToHost)
        observations.append(out)
    return observations


@settings(max_examples=40, deadline=None)
@given(program=steps, n_gpus=st.sampled_from([2, 3, 4, 8]))
def test_random_programs_bitwise_equal(program, n_gpus):
    ref = _execute(CudaApi(), program)
    api = MultiGpuApi(APP, RuntimeConfig(n_gpus=n_gpus))
    got = _execute(api, program)
    assert len(ref) == len(got)
    for i, (a, b) in enumerate(zip(ref, got)):
        assert np.array_equal(a, b), (i, program, n_gpus)


@settings(max_examples=10, deadline=None)
@given(program=steps)
def test_random_programs_survive_write_audit(program):
    api = MultiGpuApi(APP, RuntimeConfig(n_gpus=3, debug_audit=True))
    _execute(api, program)  # audit raises on any scan/execution divergence


@settings(max_examples=50, deadline=None)
@given(
    program=steps,
    at=st.integers(0, 12),
    schedule=st.sampled_from(["sequential", "overlap+p2p", "auto"]),
    shared_copies=st.booleans(),
    pipeline_window=st.sampled_from([1, 4]),
    irredundant=st.booleans(),
    cluster=st.booleans(),
)
def test_fallback_bitwise_equal_across_configs(
    program, at, schedule, shared_copies, pipeline_window, irredundant, cluster
):
    """Whole-buffer launches stay invisible under every schedule and topology.

    Each program gets at least one launch of the non-partitionable kernel,
    and the runtime drives a simulated machine: a flat 4-GPU node or a 2x2
    cluster.
    """
    program = list(program)
    program.insert(min(at, len(program)), ("launch", len(KERNELS) - 1, 0, 1))
    machine = (
        ClusterSimMachine(k80_cluster(2, 2)) if cluster
        else SimMachine(K80_NODE_SPEC.with_gpus(4))
    )
    config = RuntimeConfig(
        n_gpus=4, schedule=schedule, shared_copies=shared_copies,
        pipeline_window=pipeline_window, irredundant_transfers=irredundant,
    )
    ref = _execute(CudaApi(), program)
    api = MultiGpuApi(APP, config, machine=machine)
    got = _execute(api, program)
    assert api.stats.fallback_launches >= 1
    assert len(ref) == len(got)
    for i, (a, b) in enumerate(zip(ref, got)):
        assert np.array_equal(a, b), (i, program, config)
