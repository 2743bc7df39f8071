"""Unit tests for the Figure 4 launch orchestration and buffer sync (§8.3)."""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_app
from repro.cuda.api import CudaApi, MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.errors import PartitioningError
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig


def _shift_kernel():
    """dst[i] = src[i-1]: every partition needs one stale element."""
    kb = KernelBuilder("shift")
    n = kb.scalar("n")
    src = kb.array("src", f32, (n,))
    dst = kb.array("dst", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_((gi > 0) & (gi < n)):
        dst[gi,] = src[gi - 1,]
    return kb.finish()


class TestFigure4Flow:
    def test_sync_copies_only_stale_segments(self, rng):
        k = _shift_kernel()
        app = compile_app([k])
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=4))
        n = 64
        data = rng.random(n, dtype=np.float32)
        d_src = api.cudaMalloc(n * 4)
        d_dst = api.cudaMalloc(n * 4)
        api.cudaMemcpy(d_src, data, n * 4, MemcpyKind.HostToDevice)
        api.launch(k, Dim3(8), Dim3(8), [n, d_src, d_dst])
        # Each of partitions 1..3 fetches exactly one stale f32 (its left
        # halo); partition 0 reads only its own chunk.
        assert api.stats.sync_transfers == 3
        assert api.stats.sync_bytes == 3 * 4

    def test_tracker_updated_per_partition(self, rng):
        k = _shift_kernel()
        app = compile_app([k])
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=4))
        n = 64
        d_src = api.cudaMalloc(n * 4)
        d_dst = api.cudaMalloc(n * 4)
        api.cudaMemcpy(d_src, rng.random(n, dtype=np.float32), n * 4, MemcpyKind.HostToDevice)
        api.launch(k, Dim3(8), Dim3(8), [n, d_src, d_dst])
        owners = [s.owner for s in d_dst.tracker.segments()]
        assert owners[:1] == [0]  # byte 0..4 never written: initial owner
        assert set(owners) <= {0, 1, 2, 3}
        assert d_dst.tracker.owner_at(40 * 4) == 2  # element 40 in band 2

    def test_result_matches_reference(self, rng):
        k = _shift_kernel()
        app = compile_app([k])
        n = 64
        data = rng.random(n, dtype=np.float32)

        def host(api):
            d_src = api.cudaMalloc(n * 4)
            d_dst = api.cudaMalloc(n * 4)
            api.cudaMemcpy(d_src, data, n * 4, MemcpyKind.HostToDevice)
            api.cudaMemcpy(d_dst, np.zeros(n, dtype=np.float32), n * 4, MemcpyKind.HostToDevice)
            api.launch(k, Dim3(8), Dim3(8), [n, d_src, d_dst])
            out = np.zeros(n, dtype=np.float32)
            api.cudaMemcpy(out, d_dst, n * 4, MemcpyKind.DeviceToHost)
            return out

        ref = host(CudaApi())
        for g in (2, 3, 8):
            got = host(MultiGpuApi(app, RuntimeConfig(n_gpus=g)))
            assert np.array_equal(ref, got), g

    def test_empty_partitions_skipped(self, rng):
        k = _shift_kernel()
        app = compile_app([k])
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=8))
        n = 16  # only 2 blocks for 8 GPUs
        d_src = api.cudaMalloc(n * 4)
        d_dst = api.cudaMalloc(n * 4)
        api.cudaMemcpy(d_src, rng.random(n, dtype=np.float32), n * 4, MemcpyKind.HostToDevice)
        api.launch(k, Dim3(2), Dim3(8), [n, d_src, d_dst])
        assert api.stats.partition_launches == 2

    def test_unit_axis_violation_rejected(self, stencil_kernel):
        app = compile_app([stencil_kernel])
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=2))
        d1 = api.cudaMalloc(64 * 64 * 4)
        d2 = api.cudaMalloc(64 * 64 * 4)
        with pytest.raises(PartitioningError, match="unit extent"):
            api.launch(stencil_kernel, Dim3(4, 4, 2), Dim3(16, 16), [64, d1, d2])


class TestFallback:
    def _bad_kernel(self):
        kb = KernelBuilder("bad")
        n = kb.scalar("n")
        src = kb.array("src", f32, (n,))
        dst = kb.array("dst", f32, (n,))
        gi = kb.global_id("x")
        with kb.if_(gi < n):
            dst[gi % 4,] = src[gi,]  # non-affine write
        return kb.finish()

    def test_fallback_executes_correctly(self, rng):
        k = self._bad_kernel()
        app = compile_app([k])
        assert not app.kernel("bad").partitionable
        n = 32
        data = rng.random(n, dtype=np.float32)

        def host(api):
            d_src = api.cudaMalloc(n * 4)
            d_dst = api.cudaMalloc(n * 4)
            api.cudaMemcpy(d_src, data, n * 4, MemcpyKind.HostToDevice)
            api.launch(k, Dim3(4), Dim3(8), [n, d_src, d_dst])
            out = np.zeros(n, dtype=np.float32)
            api.cudaMemcpy(out, d_dst, n * 4, MemcpyKind.DeviceToHost)
            return out

        ref = host(CudaApi())
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=4))
        got = host(api)
        assert api.stats.fallback_launches == 1
        assert api.stats.partition_launches == 0
        assert np.array_equal(ref, got)

    def test_mixed_app_partitioned_and_fallback(self, rng):
        good = _shift_kernel()
        bad = self._bad_kernel()
        app = compile_app([good, bad])
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=4))
        n = 32
        data = rng.random(n, dtype=np.float32)
        d_a = api.cudaMalloc(n * 4)
        d_b = api.cudaMalloc(n * 4)
        api.cudaMemcpy(d_a, data, n * 4, MemcpyKind.HostToDevice)
        api.launch(good, Dim3(4), Dim3(8), [n, d_a, d_b])  # partitioned
        api.launch(bad, Dim3(4), Dim3(8), [n, d_b, d_a])  # fallback on gpu0
        out = np.zeros(n, dtype=np.float32)
        api.cudaMemcpy(out, d_a, n * 4, MemcpyKind.DeviceToHost)

        ref_api = CudaApi()
        r_a = ref_api.cudaMalloc(n * 4)
        r_b = ref_api.cudaMalloc(n * 4)
        ref_api.cudaMemcpy(r_a, data, n * 4, MemcpyKind.HostToDevice)
        ref_api.launch(good, Dim3(4), Dim3(8), [n, r_a, r_b])
        ref_api.launch(bad, Dim3(4), Dim3(8), [n, r_b, r_a])
        ref = np.zeros(n, dtype=np.float32)
        ref_api.cudaMemcpy(ref, r_a, n * 4, MemcpyKind.DeviceToHost)
        assert np.array_equal(ref, out)
        assert api.stats.fallback_launches == 1 and api.stats.partition_launches == 4


class TestAlphaBetaGammaFlags:
    def test_beta_keeps_patterns_skips_copies(self, rng):
        k = _shift_kernel()
        app = compile_app([k])
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=4).beta())
        n = 64
        d_src = api.cudaMalloc(n * 4)
        d_dst = api.cudaMalloc(n * 4)
        api.cudaMemcpy(d_src, rng.random(n, dtype=np.float32), n * 4, MemcpyKind.HostToDevice)
        api.launch(k, Dim3(8), Dim3(8), [n, d_src, d_dst])
        assert api.stats.enumerator_calls > 0  # dependency resolution ran
        assert api.stats.tracker_ops > 0

    def test_gamma_skips_everything(self, rng):
        k = _shift_kernel()
        app = compile_app([k])
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=4).gamma())
        n = 64
        d_src = api.cudaMalloc(n * 4)
        d_dst = api.cudaMalloc(n * 4)
        api.cudaMemcpy(d_src, rng.random(n, dtype=np.float32), n * 4, MemcpyKind.HostToDevice)
        before = api.stats.enumerator_calls
        api.launch(k, Dim3(8), Dim3(8), [n, d_src, d_dst])
        assert api.stats.enumerator_calls == before
        assert api.stats.sync_transfers == 0
