"""Launch-time coverage validation: the sound fallback path.

Flat-indexed kernels defer write-scan exactness to launch time. When the
launch configuration breaks the proof (e.g. a guard genuinely cuts inside
rows because the problem size is not block-aligned), the runtime must fall
back to single-GPU execution — and stay correct — rather than partition
unsoundly.
"""

import numpy as np
import pytest

from repro.cluster.engine import ClusterSimMachine
from repro.compiler.pipeline import compile_app
from repro.cuda.api import CudaApi, MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.harness.calibration import k80_cluster
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig


def _flat_rowcol_kernel(n_rows, n_cols, row_stride):
    """out[row*row_stride + col] with guards row < n_rows, col < n_cols."""
    kb = KernelBuilder("flat2d")
    out = kb.array("out", f32, (n_rows * row_stride,))
    row, col = kb.global_id("y"), kb.global_id("x")
    with kb.if_((row < n_rows) & (col < n_cols)):
        out[row * row_stride + col,] = row * 1000.0 + col
    return kb.finish()


def _host(api, kernel, total, grid, block):
    nbytes = total * 4
    d = api.cudaMalloc(nbytes)
    api.cudaMemcpy(d, np.zeros(total, dtype=np.float32), nbytes, MemcpyKind.HostToDevice)
    api.launch(kernel, grid, block, [d])
    out = np.zeros(total, dtype=np.float32)
    api.cudaMemcpy(out, d, nbytes, MemcpyKind.DeviceToHost)
    return out


class TestAlignedLaunchPartitions:
    def test_full_rows_partition_normally(self):
        # cols == stride == block-aligned: coverage proof succeeds.
        k = _flat_rowcol_kernel(64, 64, 64)
        app = compile_app([k])
        assert app.kernel("flat2d").model.runtime_coverage
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=4))
        ref = _host(CudaApi(), k, 64 * 64, Dim3(4, 4), Dim3(16, 16))
        got = _host(api, k, 64 * 64, Dim3(4, 4), Dim3(16, 16))
        assert np.array_equal(ref, got)
        assert api.stats.fallback_launches == 0
        assert api.stats.partition_launches == 4


class TestBitingGuardFallsBack:
    def test_partial_rows_fall_back_soundly(self):
        # cols (40) < stride (64): rows have written prefixes and unwritten
        # tails -> the flat write set has gaps no interval scan can express;
        # the coverage check must reject and the launch must fall back.
        k = _flat_rowcol_kernel(64, 40, 64)
        app = compile_app([k])
        ck = app.kernel("flat2d")
        assert ck.partitionable  # statically plausible...
        assert ck.model.runtime_coverage  # ...pending launch-time proof
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=4))
        ref = _host(CudaApi(), k, 64 * 64, Dim3(4, 4), Dim3(16, 16))
        got = _host(api, k, 64 * 64, Dim3(4, 4), Dim3(16, 16))
        assert np.array_equal(ref, got)  # correct EITHER way
        assert api.stats.fallback_launches == 1  # ...but via the fallback
        assert api.stats.partition_launches == 0

    def test_unaligned_problem_size_falls_back(self):
        # 60 is not a multiple of the 16-wide blocks: the col guard bites
        # into the last block's rows -> reject at launch, fall back.
        k = _flat_rowcol_kernel(60, 60, 60)
        app = compile_app([k])
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=4))
        grid = Dim3(4, 4)  # 64x64 threads for a 60x60 problem
        ref = _host(CudaApi(), k, 60 * 60, grid, Dim3(16, 16))
        got = _host(api, k, 60 * 60, grid, Dim3(16, 16))
        assert np.array_equal(ref, got)
        assert api.stats.fallback_launches == 1


class TestNbodyStyleUnionValidates:
    def test_strided_field_union_partitions(self):
        # Four interleaved field writes (float4 layout): residues complete,
        # coverage validates, the kernel partitions.
        kb = KernelBuilder("fields")
        n = 256
        out = kb.array("out", f32, (n * 4,))
        gi = kb.global_id("x")
        with kb.if_(gi < n):
            for c in range(4):
                out[gi * 4 + c,] = float(c)
        k = kb.finish()
        app = compile_app([k])
        assert app.kernel("fields").model.runtime_coverage
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=4))
        ref = _host(CudaApi(), k, n * 4, Dim3(2), Dim3(128), )
        got = _host(api, k, n * 4, Dim3(2), Dim3(128))
        assert np.array_equal(ref, got)
        assert api.stats.fallback_launches == 0


def _modulo_scatter_kernel():
    """dst[gi % 4] = src[gi]: a non-affine write the compiler rejects."""
    kb = KernelBuilder("modscat")
    n = kb.scalar("n")
    src = kb.array("src", f32, (n,))
    dst = kb.array("dst", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        dst[gi % 4,] = src[gi,]
    return kb.finish()


def _loop(api, kernel, arrays, scalars, grid, block, times=3):
    """H2D every array, launch ``times`` times, D2H every array."""
    bufs = []
    for i, total in enumerate(arrays):
        d = api.cudaMalloc(total * 4)
        data = np.arange(total, dtype=np.float32) + 100.0 * i
        api.cudaMemcpy(d, data, total * 4, MemcpyKind.HostToDevice)
        bufs.append(d)
    for _ in range(times):
        api.launch(kernel, grid, block, scalars + bufs)
    outs = []
    for d, total in zip(bufs, arrays):
        out = np.zeros(total, dtype=np.float32)
        api.cudaMemcpy(out, d, total * 4, MemcpyKind.DeviceToHost)
        outs.append(out)
    return outs


class TestWholeBufferLaunchesArePlans:
    """Fallback launches take the staged path: memos, replay and the audit."""

    CASES = {
        "rejected": (_modulo_scatter_kernel, [64, 64], [64], Dim3(8), Dim3(8)),
        "coverage": (
            lambda: _flat_rowcol_kernel(64, 40, 64), [64 * 64], [],
            Dim3(4, 4), Dim3(16, 16),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_loop_rides_the_memos_and_passes_the_audit(self, case):
        build, arrays, scalars, grid, block = self.CASES[case]
        k = build()
        app = compile_app([k])
        ref = _loop(CudaApi(), k, arrays, scalars, grid, block)
        runs = {}
        for audit in (False, True):
            api = MultiGpuApi(app, RuntimeConfig(n_gpus=4, debug_audit=audit))
            runs[audit] = (_loop(api, k, arrays, scalars, grid, block), api.stats)
        outs, stats = runs[False]
        for a, b in zip(ref, outs):
            assert np.array_equal(a, b)
        assert stats.fallback_launches == 3
        assert stats.partition_launches == 0
        assert stats.plan_cache_hits == 2
        assert stats.residual_cache_hits >= 1
        audited_outs, audited_stats = runs[True]
        for a, b in zip(outs, audited_outs):
            assert np.array_equal(a, b)
        assert audited_stats == stats


class TestCrossNodeFallbackCopies:
    def test_inter_node_bytes_count_the_copies_from_node_one(self):
        k = _modulo_scatter_kernel()
        app = compile_app([k])
        machine = ClusterSimMachine(k80_cluster(2, 2))
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=4), machine=machine)
        n = 64
        bufs = [api.cudaMalloc(n * 4) for _ in range(2)]
        for d in bufs:  # linear scatter: 64 B on each of the four GPUs
            api.cudaMemcpy(d, np.ones(n, dtype=np.float32), n * 4, MemcpyKind.HostToDevice)
        # Device 0 fetches every byte it lacks from that byte's sole owner.
        from_node_one = sum(
            end - start
            for d in bufs
            for start, end, owner, _ in d.coherence_state()
            if machine.cluster.node_of(owner) == 1
        )
        before = (api.stats.inter_node_transfers, api.stats.inter_node_bytes)
        api.launch(k, Dim3(8), Dim3(8), [n] + bufs)
        assert api.stats.fallback_launches == 1
        assert api.stats.inter_node_bytes - before[1] == from_node_one == 256
        assert api.stats.inter_node_transfers - before[0] == 4
        assert api.stats.sync_bytes == 384
