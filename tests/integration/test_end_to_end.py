"""Cross-module integration tests: the full compile-and-run story."""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_app
from repro.cuda.api import CudaApi, MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig


def _pipeline_app():
    """A 3-kernel image pipeline: blur -> scale -> threshold count prep."""
    n_sym = None

    def blur():
        kb = KernelBuilder("blur")
        n = kb.scalar("n")
        src = kb.array("src", f32, (n, n))
        dst = kb.array("dst", f32, (n, n))
        gy, gx = kb.global_id("y"), kb.global_id("x")
        with kb.if_((gy < n) & (gx < n)):
            with kb.if_((gy > 0) & (gy < n - 1)):
                dst[gy, gx] = (src[gy - 1, gx] + src[gy, gx] + src[gy + 1, gx]) / 3.0
            with kb.otherwise():
                dst[gy, gx] = src[gy, gx]
        return kb.finish()

    def scale():
        kb = KernelBuilder("scale")
        n = kb.scalar("n")
        factor = kb.scalar("factor", f32)
        buf = kb.array("buf", f32, (n, n))
        out = kb.array("out", f32, (n, n))
        gy, gx = kb.global_id("y"), kb.global_id("x")
        with kb.if_((gy < n) & (gx < n)):
            out[gy, gx] = buf[gy, gx] * factor
        return kb.finish()

    return blur(), scale()


class TestMultiKernelPipeline:
    def test_chained_kernels_across_gpu_counts(self, rng):
        blur, scale = _pipeline_app()
        app = compile_app([blur, scale])
        n = 64
        img = rng.random((n, n), dtype=np.float32)

        def host(api):
            nbytes = n * n * 4
            d_a = api.cudaMalloc(nbytes)
            d_b = api.cudaMalloc(nbytes)
            d_c = api.cudaMalloc(nbytes)
            api.cudaMemcpy(d_a, img, nbytes, MemcpyKind.HostToDevice)
            grid, block = Dim3(4, 4), Dim3(16, 16)
            api.launch(blur, grid, block, [n, d_a, d_b])
            api.launch(scale, grid, block, [n, np.float32(2.0), d_b, d_c])
            api.launch(blur, grid, block, [n, d_c, d_a])
            out = np.zeros((n, n), dtype=np.float32)
            api.cudaMemcpy(out, d_a, nbytes, MemcpyKind.DeviceToHost)
            return out

        ref = host(CudaApi())
        for g in (2, 4, 7):
            got = host(MultiGpuApi(app, RuntimeConfig(n_gpus=g)))
            assert np.array_equal(ref, got), g

    def test_interleaved_memcpys_and_launches(self, rng):
        blur, scale = _pipeline_app()
        app = compile_app([blur, scale])
        n = 32
        nbytes = n * n * 4
        a0 = rng.random((n, n), dtype=np.float32)
        a1 = rng.random((n, n), dtype=np.float32)

        def host(api):
            d_a = api.cudaMalloc(nbytes)
            d_b = api.cudaMalloc(nbytes)
            api.cudaMemcpy(d_a, a0, nbytes, MemcpyKind.HostToDevice)
            api.launch(blur, Dim3(2, 2), Dim3(16, 16), [n, d_a, d_b])
            # Overwrite the input mid-stream and blur again.
            api.cudaMemcpy(d_a, a1, nbytes, MemcpyKind.HostToDevice)
            mid = np.zeros((n, n), dtype=np.float32)
            api.cudaMemcpy(mid, d_b, nbytes, MemcpyKind.DeviceToHost)
            api.launch(blur, Dim3(2, 2), Dim3(16, 16), [n, d_a, d_b])
            out = np.zeros((n, n), dtype=np.float32)
            api.cudaMemcpy(out, d_b, nbytes, MemcpyKind.DeviceToHost)
            return mid, out

        ref_mid, ref_out = host(CudaApi())
        got_mid, got_out = host(MultiGpuApi(app, RuntimeConfig(n_gpus=3)))
        assert np.array_equal(ref_mid, got_mid)
        assert np.array_equal(ref_out, got_out)


class TestTimingIntegration:
    def test_functional_and_timing_together(self, rng):
        """One run can execute functionally AND produce simulated timing."""
        from repro.compiler.costmodel import KernelCostModel
        from repro.sim.engine import SimMachine
        from repro.sim.topology import MachineSpec

        blur, _ = _pipeline_app()
        app = compile_app([blur])
        spec = MachineSpec(n_gpus=4)
        machine = SimMachine(spec)
        api = MultiGpuApi(
            app,
            RuntimeConfig(n_gpus=4),
            machine=machine,
            functional=True,
            kernel_cost=KernelCostModel(spec),
        )
        n = 64
        nbytes = n * n * 4
        img = rng.random((n, n), dtype=np.float32)
        d_a = api.cudaMalloc(nbytes)
        d_b = api.cudaMalloc(nbytes)
        api.cudaMemcpy(d_a, img, nbytes, MemcpyKind.HostToDevice)
        api.launch(blur, Dim3(4, 4), Dim3(16, 16), [n, d_a, d_b])
        out = np.zeros((n, n), dtype=np.float32)
        api.cudaMemcpy(out, d_b, nbytes, MemcpyKind.DeviceToHost)
        api.cudaDeviceSynchronize()

        ref = CudaApi()
        r_a = ref.cudaMalloc(nbytes)
        r_b = ref.cudaMalloc(nbytes)
        ref.cudaMemcpy(r_a, img, nbytes, MemcpyKind.HostToDevice)
        ref.launch(blur, Dim3(4, 4), Dim3(16, 16), [n, r_a, r_b])
        expect = np.zeros((n, n), dtype=np.float32)
        ref.cudaMemcpy(expect, r_b, nbytes, MemcpyKind.DeviceToHost)

        assert np.array_equal(out, expect)
        assert machine.elapsed() > 0
        assert machine.trace.busy_time() > 0

    def test_alpha_beta_gamma_ordering(self):
        """α >= β >= γ by construction (each disables strictly more work)."""
        from repro.harness.experiments import measure_breakdown
        from repro.workloads.common import ProblemConfig

        cfg = ProblemConfig("hotspot", "functional", 512, 12)
        row = measure_breakdown(cfg, 8)
        assert row.alpha >= row.beta >= row.gamma > 0
        assert 0 <= row.t_patterns <= 1
        assert abs(row.t_application + row.t_transfers + row.t_patterns - 1.0) < 1e-9


class TestModelDrivenRecompile:
    def test_model_saved_and_reloaded_pipeline(self, tmp_path, stencil_kernel):
        from repro.compiler.model import AppModel

        app = compile_app([stencil_kernel], model_path=tmp_path / "model.json")
        reloaded = AppModel.load(tmp_path / "model.json")
        km = reloaded.get("stencil")
        assert km.strategy().axis == app.kernel("stencil").strategy.axis
        assert km.partitionable
