"""Tests for the cudaMemset replacement (§8.4's 'as required' API growth)."""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_app
from repro.cuda.api import CudaApi, MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.errors import RuntimeApiError
from repro.harness.calibration import K80_NODE_SPEC
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sim.engine import SimMachine
from repro.sim.trace import Category


def test_single_device_memset():
    api = CudaApi()
    p = api.cudaMalloc(64)
    api.cudaMemset(p, 0xAB, 64)
    assert np.all(api.device.bytes_view(p) == 0xAB)


def test_multi_gpu_memset_roundtrip():
    app = compile_app([])
    api = MultiGpuApi(app, RuntimeConfig(n_gpus=3))
    vb = api.cudaMalloc(48)
    api.cudaMemset(vb, 0, 48)
    api.cudaMemset(vb, 0x7F, 30)
    out = np.zeros(48, dtype=np.uint8)
    api.cudaMemcpy(out, vb, 48, MemcpyKind.DeviceToHost)
    assert np.all(out[:30] == 0x7F) and np.all(out[30:] == 0)


def test_memset_updates_trackers():
    app = compile_app([])
    api = MultiGpuApi(app, RuntimeConfig(n_gpus=4))
    vb = api.cudaMalloc(100)
    api.cudaMemset(vb, 1, 100)
    owners = {s.owner for s in vb.tracker.segments()}
    assert owners == {0, 1, 2, 3}


def test_memset_then_kernel_reads_correctly(rng):
    """A kernel launched after memset must see the set values everywhere."""
    kb = KernelBuilder("inc")
    n = kb.scalar("n")
    buf = kb.array("buf", f32, (n,))
    out = kb.array("out", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        out[gi,] = buf[gi,] + 1.0
    k = kb.finish()
    app = compile_app([k])

    def host(api):
        nvals = 32
        d_buf = api.cudaMalloc(nvals * 4)
        d_out = api.cudaMalloc(nvals * 4)
        api.cudaMemset(d_buf, 0, nvals * 4)  # all-zero floats
        api.launch(k, Dim3(4), Dim3(8), [nvals, d_buf, d_out])
        res = np.zeros(nvals, dtype=np.float32)
        api.cudaMemcpy(res, d_out, nvals * 4, MemcpyKind.DeviceToHost)
        return res

    ref = host(CudaApi())
    got = host(MultiGpuApi(app, RuntimeConfig(n_gpus=4)))
    assert np.array_equal(ref, got)
    assert np.all(got == 1.0)


def test_memset_oversize_rejected():
    app = compile_app([])
    api = MultiGpuApi(app, RuntimeConfig(n_gpus=2))
    vb = api.cudaMalloc(16)
    with pytest.raises(RuntimeApiError):
        api.cudaMemset(vb, 0, 32)


def test_overlap_memset_waits_for_copies_of_its_range():
    """WAR under ``overlap``: device 1's partition reads device 0's linear
    share through a copy engine, so device 0's memset of that share may
    not start until the copy has read it, though device 0's own compute
    queue drains long before."""
    n = 1 << 14
    kb = KernelBuilder("upper_from_lower")
    src = kb.array("src", f32, (n,))
    dst = kb.array("dst", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_((gi >= n // 2) & (gi < n)):
        dst[gi,] = src[gi - n // 2,]
    k = kb.finish()
    api = MultiGpuApi(
        compile_app([k]),
        RuntimeConfig(n_gpus=2, schedule="overlap"),
        machine=SimMachine(K80_NODE_SPEC.with_gpus(2)),
    )
    a, b = api.cudaMalloc(n * 4), api.cudaMalloc(n * 4)
    api.cudaMemcpy(a, np.arange(n, dtype=np.float32), n * 4, MemcpyKind.HostToDevice)
    api.launch(k, Dim3(n // 128), Dim3(128), [a, b])
    api.cudaMemset(a, 0, n * 4)
    intervals = api.machine.trace.intervals
    (copy,) = [iv for iv in intervals if iv.category is Category.TRANSFERS]
    (kernel,) = [iv for iv in intervals if iv.resource == "gpu0" and iv.label != "memset"]
    (memset,) = [iv for iv in intervals if iv.resource == "gpu0" and iv.label == "memset"]
    assert kernel.end < copy.end, "device 0's queue must drain before the copy ends"
    assert memset.start >= copy.end
