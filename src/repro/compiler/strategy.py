"""Partitioning strategy selection and grid partitions.

The analysis stores a "suggested partitioning strategy" with each kernel
model (paper §4). The strategy implemented — and the only one the paper's
prototype uses — splits the thread grid into contiguous block ranges along
one axis. The axis is chosen so that grid locality translates into memory
locality: prefer the axis that drives the *slowest-varying* (row) dimension
of the written arrays, since then each partition writes a contiguous
row-major region and the buffer trackers stay at one segment per device
(paper §8.1 discusses exactly this effect).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.compiler.access_analysis import KernelAccessInfo
from repro.cuda.dim3 import Dim3
from repro.errors import PartitioningError

__all__ = ["Partition", "PartitionStrategy", "balanced_intervals", "choose_strategy"]

_AXIS_OF_DIM = {"bo_z": "z", "bi_z": "z", "bo_y": "y", "bi_y": "y", "bo_x": "x", "bi_x": "x"}
_GID_AXIS = {"g_z": "z", "g_y": "y", "g_x": "x"}


@dataclass(frozen=True)
class Partition:
    """A box of thread blocks: half-open index ranges per grid axis."""

    z: Tuple[int, int]
    y: Tuple[int, int]
    x: Tuple[int, int]

    def range_of(self, axis: str) -> Tuple[int, int]:
        return getattr(self, axis)

    @property
    def n_blocks(self) -> int:
        return (
            (self.z[1] - self.z[0]) * (self.y[1] - self.y[0]) * (self.x[1] - self.x[0])
        )

    @property
    def is_empty(self) -> bool:
        return self.n_blocks <= 0

    def grid(self) -> Dim3:
        """The partition-local launch grid (Equation 10 of the paper)."""
        return Dim3(
            x=max(1, self.x[1] - self.x[0]),
            y=max(1, self.y[1] - self.y[0]),
            z=max(1, self.z[1] - self.z[0]),
        )

    @staticmethod
    def whole(grid: Dim3) -> "Partition":
        return Partition(z=(0, grid.z), y=(0, grid.y), x=(0, grid.x))

    def as_tuple(self) -> Tuple[int, int, int, int, int, int]:
        """(min_z, max_z, min_y, max_y, min_x, max_x)."""
        return (self.z[0], self.z[1], self.y[0], self.y[1], self.x[0], self.x[1])


def balanced_intervals(start: int, stop: int, k: int) -> List[Tuple[int, int]]:
    """Split ``[start, stop)`` into ``k`` balanced contiguous intervals.

    The first ``(stop - start) % k`` intervals get one extra element;
    trailing intervals are empty when the range is shorter than ``k``.
    Every blocked split of the system is this one: grid partitions (per
    node, then per GPU) and the linear memcpy distribution.
    """
    base, extra = divmod(stop - start, k)
    out: List[Tuple[int, int]] = []
    lo = start
    for i in range(k):
        hi = lo + base + (1 if i < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


@dataclass(frozen=True)
class PartitionStrategy:
    """Contiguous block split along one grid axis."""

    axis: str  # 'z' | 'y' | 'x'
    kind: str = "block_linear"

    def along(self, grid: Dim3, blocks: Tuple[int, int]) -> Partition:
        """The partition of ``grid`` covering ``blocks`` along the split axis."""
        return replace(Partition.whole(grid), **{self.axis: blocks})

    def partitions(self, grid: Dim3, n_parts: int) -> List[Partition]:
        """Split ``grid`` into ``n_parts`` balanced contiguous partitions.

        When there are fewer blocks than parts along the split axis, the
        trailing partitions are empty (callers skip them).
        """
        if n_parts < 1:
            raise PartitioningError(f"cannot split a grid into {n_parts} partitions")
        return [
            self.along(grid, r) for r in balanced_intervals(0, grid.axis(self.axis), n_parts)
        ]


def _coupled_axes(info: KernelAccessInfo) -> Dict[str, int]:
    """For each grid axis, the smallest written-array dim it addresses."""
    coupling: Dict[str, int] = {}
    for access in info.writes.values():
        for disjunct in access.access_map.disjuncts:
            space = disjunct.space
            for c in disjunct.constraints:
                # A constraint ties axis w to out dim j when both appear.
                axes = set()
                dims = set()
                for i, name in enumerate(space.all_names):
                    if c.vec[i + 1] == 0:
                        continue
                    if name in _AXIS_OF_DIM:
                        axes.add(_AXIS_OF_DIM[name])
                    elif name.startswith("a") and name[1:].isdigit():
                        dims.add(int(name[1:]))
                for axis in axes:
                    for j in dims:
                        coupling[axis] = min(coupling.get(axis, j), j)
    return coupling


def choose_strategy(info: KernelAccessInfo) -> PartitionStrategy:
    """Pick the split axis from the kernel's write maps.

    Prefers the axis coupled to the slowest-varying written dimension; ties
    are broken toward ``y`` then ``x`` then ``z`` (matching the 2-D row-split
    the paper's workloads use). Kernels that write nothing partition along
    ``x``.
    """
    coupling = _coupled_axes(info)
    if not coupling:
        return PartitionStrategy(axis="x")
    best_dim = min(coupling.values())
    candidates = [a for a, j in coupling.items() if j == best_dim]
    for preferred in ("y", "x", "z"):
        if preferred in candidates:
            return PartitionStrategy(axis=preferred)
    return PartitionStrategy(axis=candidates[0])
