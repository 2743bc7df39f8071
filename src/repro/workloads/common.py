"""Benchmark configurations (paper Table 1) and the workload interface."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cuda.dim3 import Dim3
from repro.cuda.ir.kernel import Kernel

__all__ = ["ProblemConfig", "TABLE1", "table1_configs", "functional_config", "Workload"]


@dataclass(frozen=True)
class ProblemConfig:
    """One benchmark configuration (a cell of Table 1)."""

    workload: str
    size_label: str  # "small" | "medium" | "large" | "functional"
    size: int  # side length (hotspot, matmul) or body count (nbody)
    iterations: int  # 1 for matmul ("N/A" in Table 1)

    def __str__(self) -> str:
        return f"{self.workload}/{self.size_label}({self.size})"


#: Table 1 of the paper: problem sizes and iteration counts.
TABLE1: Dict[str, Dict[str, ProblemConfig]] = {
    "hotspot": {
        "small": ProblemConfig("hotspot", "small", 8_192, 1_500),
        "medium": ProblemConfig("hotspot", "medium", 16_384, 1_500),
        "large": ProblemConfig("hotspot", "large", 36_864, 1_500),
    },
    "nbody": {
        "small": ProblemConfig("nbody", "small", 65_536, 96),
        "medium": ProblemConfig("nbody", "medium", 131_072, 96),
        "large": ProblemConfig("nbody", "large", 327_680, 96),
    },
    "matmul": {
        "small": ProblemConfig("matmul", "small", 8_192, 1),
        "medium": ProblemConfig("matmul", "medium", 16_384, 1),
        "large": ProblemConfig("matmul", "large", 30_656, 1),
    },
}

#: Reduced sizes used by the functional-correctness test suite (kernels
#: really execute; bitwise comparison against the single-device reference).
_FUNCTIONAL_SIZES = {
    "hotspot": (64, 6),
    "nbody": (192, 4),
    "matmul": (48, 1),
    # Extra (non-Table-1) workloads.
    "dstencil": (64, 4),
    "cholesky": (64, 1),
    "imgpipe": (64, 2),
}


def table1_configs(workload: Optional[str] = None) -> List[ProblemConfig]:
    """All Table 1 configurations, optionally for one workload."""
    names = [workload] if workload else list(TABLE1)
    return [cfg for name in names for cfg in TABLE1[name].values()]


def functional_config(workload: str, *, size: Optional[int] = None, iterations: Optional[int] = None) -> ProblemConfig:
    """A small configuration suitable for real (numpy) execution."""
    base_size, base_iters = _FUNCTIONAL_SIZES[workload]
    return ProblemConfig(
        workload, "functional", size or base_size, iterations or base_iters
    )


class Workload(abc.ABC):
    """Common interface of the three proxy applications."""

    name: str = ""

    def __init__(self, cfg: ProblemConfig) -> None:
        if cfg.workload != self.name:
            raise ValueError(f"config {cfg} is not for workload {self.name!r}")
        self.cfg = cfg

    @abc.abstractmethod
    def build_kernels(self) -> List[Kernel]:
        """The application's kernels (pre-partitioning)."""

    @abc.abstractmethod
    def launch_config(self) -> Tuple[Dim3, Dim3]:
        """(grid, block) of the kernel launches."""

    @abc.abstractmethod
    def make_inputs(self, seed: int = 0) -> Dict[str, np.ndarray]:
        """Host input buffers (functional mode only)."""

    @abc.abstractmethod
    def run(self, api, inputs: Optional[Dict[str, np.ndarray]]) -> Optional[Dict[str, np.ndarray]]:
        """The host program; ``inputs`` is None in timing-only mode."""

    @abc.abstractmethod
    def reference(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Pure-numpy reference results for validation."""
