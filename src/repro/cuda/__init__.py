"""``repro.cuda`` — a miniature CUDA substrate.

The paper's toolchain operates on real CUDA via LLVM; this package provides
the equivalent surface for the reproduction:

* :mod:`~repro.cuda.ir` — a typed kernel IR with CUDA's grid intrinsics
  (``threadIdx``/``blockIdx``/``blockDim``/``gridDim``), a builder DSL, a
  validator and a CUDA-C-like printer;
* :mod:`~repro.cuda.exec` — rendered kernel programs: each kernel compiled
  once into a lane-vectorized numpy function that executes it over (a
  partition of) its launch grid with CUDA semantics: independent thread
  blocks, row-major arrays, last-write-wins stores;
* :mod:`~repro.cuda.device` / :mod:`~repro.cuda.api` — simulated devices and
  a single-device CUDA Runtime style API (the baseline an "nvcc binary"
  would target).
"""

from repro.cuda.dtypes import DType, f32, f64, i32, i64, boolean
from repro.cuda.dim3 import Dim3
from repro.cuda.device import Device, DevPtr
from repro.cuda.api import CudaApi, MemcpyKind

__all__ = [
    "DType",
    "f32",
    "f64",
    "i32",
    "i64",
    "boolean",
    "Dim3",
    "Device",
    "DevPtr",
    "CudaApi",
    "MemcpyKind",
]
