"""The single-device CUDA Runtime style API (the paper's baseline).

Host programs in this reproduction are Python callables written against
this interface. The multi-GPU runtime library
(:mod:`repro.runtime.api`) provides the *same prototypes* — the paper's
Section 8.4 design ("identical prototypes to ease code transformation") —
so one host program runs unmodified against either implementation.

An api object can run *functionally* (kernels really execute on simulated
device memory; used for correctness validation) and/or *timed* (operations
are costed on a :class:`repro.sim.SimMachine`; used for the paper-scale
performance experiments). Both can be active at once.
"""

from __future__ import annotations

import enum
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.cuda.device import HOST, DevPtr, Device
from repro.cuda.dim3 import Dim3
from repro.cuda.exec.interpreter import eval_scalar_expr, run_kernel
from repro.cuda.ir.kernel import ArrayParam, Kernel, PartitionParam, ScalarParam
from repro.errors import RuntimeApiError, UnsupportedMemcpyError
from repro.sim.engine import SimMachine

__all__ = ["MemcpyKind", "CudaApi", "KernelCostFn", "host_bytes"]


class MemcpyKind(enum.Enum):
    """Direction argument of ``cudaMemcpy`` (mirrors ``cudaMemcpyKind``)."""

    HostToDevice = "H2D"
    DeviceToHost = "D2H"
    DeviceToDevice = "D2D"
    HostToHost = "H2H"


#: Models the on-device execution time of one kernel launch:
#: ``fn(kernel, n_blocks, block, scalars) -> seconds``.
KernelCostFn = Callable[[Kernel, int, Dim3, Mapping[str, object]], float]


def host_bytes(array: np.ndarray) -> np.ndarray:
    """A flat uint8 view of a host array (must be C-contiguous)."""
    if not isinstance(array, np.ndarray):
        raise RuntimeApiError(f"host buffer must be an ndarray, got {type(array).__name__}")
    if not array.flags.c_contiguous:
        raise RuntimeApiError("host buffers must be C-contiguous")
    return array.reshape(-1).view(np.uint8)


def resolve_array_shapes(
    kernel: Kernel, scalars: Mapping[str, object]
) -> Mapping[str, tuple]:
    """Concrete shapes of all array params given the scalar arguments."""
    shapes = {}
    for p in kernel.array_params:
        shape = tuple(int(eval_scalar_expr(e, scalars)) for e in p.shape)
        if any(s <= 0 for s in shape):
            raise RuntimeApiError(f"array {p.name!r} has non-positive extent {shape}")
        shapes[p.name] = shape
    return shapes


def split_launch_args(kernel: Kernel, args: Sequence[object]):
    """Split positional launch arguments into (name->value, scalar map)."""
    params = [p for p in kernel.params if not isinstance(p, PartitionParam)]
    if len(args) != len(params):
        raise RuntimeApiError(
            f"kernel {kernel.name!r} takes {len(params)} arguments, got {len(args)}"
        )
    by_name = {}
    scalars = {}
    for p, a in zip(params, args):
        by_name[p.name] = a
        if isinstance(p, ScalarParam):
            scalars[p.name] = a
    return by_name, scalars


class CudaApi:
    """Single-device reference implementation (what an nvcc binary does)."""

    def __init__(
        self,
        device: Optional[Device] = None,
        *,
        machine: Optional[SimMachine] = None,
        kernel_cost: Optional[KernelCostFn] = None,
        functional: bool = True,
    ) -> None:
        self.device = device if device is not None else Device(0, functional=functional)
        self.machine = machine
        self.kernel_cost = kernel_cost
        self.functional = functional and self.device.functional

    # -- memory management ------------------------------------------------------

    def cudaMalloc(self, nbytes: int) -> DevPtr:
        return self.device.alloc(nbytes)

    def cudaFree(self, ptr: DevPtr) -> None:
        self.device.free(ptr)

    def cudaMemset(self, ptr: DevPtr, value: int, nbytes: int) -> None:
        """Fill the first ``nbytes`` of a device allocation with a byte value."""
        if self.functional:
            self.device.bytes_view(ptr)[:nbytes] = value & 0xFF
        if self.machine:
            duration = nbytes / self.machine.spec.mem_bw_per_gpu
            self.machine.launch_kernel(self.device.device_id, duration, label="memset")

    # -- memcpy -------------------------------------------------------------------

    def cudaMemcpy(self, dst, src, nbytes: int, kind: MemcpyKind) -> None:
        self._memcpy(dst, src, nbytes, kind, synchronous=True)

    def cudaMemcpyAsync(self, dst, src, nbytes: int, kind: MemcpyKind) -> None:
        self._memcpy(dst, src, nbytes, kind, synchronous=False)

    def _memcpy(self, dst, src, nbytes, kind, *, synchronous):
        if kind is MemcpyKind.HostToDevice:
            if self.functional:
                self.device.bytes_view(dst)[:nbytes] = host_bytes(src)[:nbytes]
            if self.machine:
                self.machine.transfer(
                    HOST, self.device.device_id, nbytes, label="h2d", synchronous=synchronous
                )
        elif kind is MemcpyKind.DeviceToHost:
            if self.functional:
                host_bytes(dst)[:nbytes] = self.device.bytes_view(src)[:nbytes]
            if self.machine:
                self.machine.transfer(
                    self.device.device_id, HOST, nbytes, label="d2h", synchronous=synchronous
                )
        elif kind is MemcpyKind.DeviceToDevice:
            if self.functional:
                self.device.bytes_view(dst)[:nbytes] = self.device.bytes_view(src)[:nbytes]
            if self.machine:
                self.machine.transfer(
                    self.device.device_id,
                    self.device.device_id,
                    nbytes,
                    label="d2d",
                    synchronous=synchronous,
                )
        elif kind is MemcpyKind.HostToHost:
            host_bytes(dst)[:nbytes] = host_bytes(src)[:nbytes]
        else:
            raise UnsupportedMemcpyError(f"unknown memcpy kind {kind!r}")

    # -- kernel launch -----------------------------------------------------------------

    def launch(self, kernel: Kernel, grid, block, args: Sequence[object]) -> None:
        """``kernel<<<grid, block>>>(args...)``."""
        grid = Dim3.of(grid)
        block = Dim3.of(block)
        by_name, scalars = split_launch_args(kernel, args)
        if self.functional:
            shapes = resolve_array_shapes(kernel, scalars)
            bound = {}
            for p in kernel.params:
                if isinstance(p, ArrayParam):
                    ptr = by_name[p.name]
                    if not isinstance(ptr, DevPtr):
                        raise RuntimeApiError(
                            f"array argument {p.name!r} must be a DevPtr, got {type(ptr)}"
                        )
                    bound[p.name] = self.device.typed_view(
                        ptr, p.dtype.to_numpy(), shapes[p.name]
                    )
                elif isinstance(p, ScalarParam):
                    bound[p.name] = by_name[p.name]
            run_kernel(kernel, grid, block, bound)
        if self.machine:
            duration = 0.0
            if self.kernel_cost is not None:
                duration = self.kernel_cost(kernel, grid.volume, block, scalars)
            self.machine.launch_kernel(self.device.device_id, duration, label=kernel.name)

    # -- misc ---------------------------------------------------------------------------

    def cudaGetDeviceCount(self) -> int:
        return 1

    def cudaDeviceSynchronize(self) -> None:
        if self.machine:
            self.machine.synchronize([self.device.device_id])

    def elapsed(self) -> float:
        """Simulated wall-clock consumed so far (0.0 without a machine)."""
        return self.machine.elapsed() if self.machine else 0.0
