"""Dynamic confirmation of static findings by running the kernel.

The race detector's witnesses are *static* claims ("these two threads write
the same cell"). This module replays the kernel's rendered numpy program
(its traced variant) with per-lane access tracing and checks that the
claimed lanes really touch the claimed cell — and, when the witness spans two different
thread blocks, replays the kernel a second time split into two partitions
(via the §7 partitioning transform) and checks that the cell is written by
both partition launches. Static finding, dynamic confirmation.

The module also hosts :func:`run_whole_vs_split`, the whole-grid versus
two-partition equivalence oracle the property-based tests use: for a kernel
the race detector certifies race-free, both executions must produce
bitwise-identical arrays.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.compiler.kernel_partition import partition_kernel
from repro.compiler.strategy import Partition, PartitionStrategy
from repro.cuda.dim3 import Dim3
from repro.cuda.exec.interpreter import AccessTrace, eval_scalar_expr, run_kernel
from repro.cuda.ir.kernel import (
    ArrayParam,
    Kernel,
    PARTITION_FIELDS,
    ScalarParam,
    partition_field_name,
)
from repro.errors import ExecutionError

__all__ = [
    "lane_id",
    "make_replay_args",
    "confirm_witness",
    "run_whole_vs_split",
]


def lane_id(block_zyx, thread_zyx, grid: Dim3, block: Dim3) -> int:
    """The flat lane index of one thread in a kernel run.

    Lane order matches :func:`repro.cuda.exec.interpreter.lane_coordinate`:
    blocks in z,y,x-major order, then threads within the block in z,y,x-major
    order.
    """
    gz, gy, gx = grid.zyx()
    bz, by, bx = block.zyx()
    biz, biy, bix = (int(v) for v in block_zyx)
    tiz, tiy, tix = (int(v) for v in thread_zyx)
    block_lane = (biz * gy + biy) * gx + bix
    thread_lane = (tiz * by + tiy) * bx + tix
    return block_lane * (bz * by * bx) + thread_lane


def make_replay_args(kernel: Kernel, scalars: Mapping[str, int]) -> Dict[str, object]:
    """Launch arguments for a replay run: ones-filled arrays, given scalars.

    Array extents are evaluated from the declared shape expressions with the
    concrete scalar values; contents are all-ones (safe for the IR's math
    functions and value-independent for access tracing).
    """
    args: Dict[str, object] = {}
    for p in kernel.params:
        if isinstance(p, ArrayParam):
            shape = tuple(int(eval_scalar_expr(e, dict(scalars))) for e in p.shape)
            args[p.name] = np.ones(shape, dtype=p.dtype.to_numpy())
        elif isinstance(p, ScalarParam):
            if p.name in scalars:
                args[p.name] = scalars[p.name]
            elif p.dtype.is_float:
                args[p.name] = 1.0
            else:
                raise ExecutionError(
                    f"replay needs a concrete value for scalar {p.name!r}"
                )
    return args


def _partition_args(part: Partition) -> Dict[str, int]:
    return {
        partition_field_name("partition", f): v
        for f, v in zip(PARTITION_FIELDS, part.as_tuple())
    }


def confirm_witness(
    kernel: Kernel,
    grid: Dim3,
    block: Dim3,
    scalars: Mapping[str, int],
    witness: Dict[str, object],
    *,
    kind: str = "ww",
) -> Optional[bool]:
    """Replay a race witness; True/False on a verdict, None when undecidable.

    ``kind`` is ``"ww"`` (both threads write) or ``"rw"`` (thread A writes,
    thread B reads). The whole-grid replay checks lane-level evidence; for a
    confirmed write–write witness spanning two blocks, the kernel is
    additionally split into two partitions at the witness boundary and the
    cell must be written by both partition launches (recorded in the witness
    as ``"partition_replay"``).
    """
    array = str(witness["array"])
    cell = tuple(int(c) for c in witness["cell"])  # type: ignore[union-attr]
    try:
        args = make_replay_args(kernel, scalars)
        shape = args[array].shape  # type: ignore[union-attr]
        flat = int(np.ravel_multi_index(cell, shape))
        trace = AccessTrace(record_lanes=True)
        run_kernel(kernel, grid, block, args, trace=trace)
    except (ExecutionError, ValueError):
        return None
    thread_a = witness["thread_a"]
    thread_b = witness["thread_b"]
    lane_a = lane_id(thread_a["block"], thread_a["thread"], grid, block)  # type: ignore[index]
    lane_b = lane_id(thread_b["block"], thread_b["thread"], grid, block)  # type: ignore[index]
    writers = trace.writers.get(array, {}).get(flat, set())
    if kind == "rw":
        readers = trace.readers.get(array, {}).get(flat, set())
        return lane_a in writers and lane_b in readers
    confirmed = lane_a in writers and lane_b in writers
    if confirmed:
        witness["partition_replay"] = _confirm_with_partitions(
            kernel, grid, block, scalars, array, flat, thread_a, thread_b
        )
    return confirmed


def _confirm_with_partitions(
    kernel: Kernel,
    grid: Dim3,
    block: Dim3,
    scalars: Mapping[str, int],
    array: str,
    flat: int,
    thread_a,
    thread_b,
) -> Optional[bool]:
    """Split the grid between the witness blocks; both halves must hit the cell."""
    block_a = [int(v) for v in thread_a["block"]]
    block_b = [int(v) for v in thread_b["block"]]
    axis = None
    for i, name in enumerate(("z", "y", "x")):
        if block_a[i] != block_b[i]:
            axis, lo, hi = name, min(block_a[i], block_b[i]), max(block_a[i], block_b[i])
            break
    if axis is None:
        return None  # same block: a partition split cannot separate the threads
    whole = Partition.whole(grid)
    first = Partition(
        z=(0, hi) if axis == "z" else whole.z,
        y=(0, hi) if axis == "y" else whole.y,
        x=(0, hi) if axis == "x" else whole.x,
    )
    second = Partition(
        z=(hi, grid.z) if axis == "z" else whole.z,
        y=(hi, grid.y) if axis == "y" else whole.y,
        x=(hi, grid.x) if axis == "x" else whole.x,
    )
    try:
        pk = partition_kernel(kernel)
        hits = []
        for part in (first, second):
            args = make_replay_args(kernel, scalars)
            args.update(_partition_args(part))
            trace = AccessTrace()
            run_kernel(pk, part.grid(), block, args, trace=trace)
            hits.append(flat in trace.writes.get(array, set()))
        return hits[0] and hits[1]
    except (ExecutionError, ValueError):
        return None


def run_whole_vs_split(
    kernel: Kernel,
    grid: Dim3,
    block: Dim3,
    args: Mapping[str, object],
    *,
    axis: str = "x",
    n_parts: int = 2,
) -> bool:
    """Whole-grid vs. n-partition execution; True iff all arrays match bitwise.

    ``args`` is a template: arrays are copied before each execution so the
    caller's buffers are untouched. Race-free kernels must return True for
    every axis/partition count (the property-based tests rely on this).
    """

    def fresh() -> Dict[str, object]:
        return {
            k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in args.items()
        }

    whole = fresh()
    run_kernel(kernel, grid, block, whole, trace=None)

    split = fresh()
    pk = partition_kernel(kernel)
    for part in PartitionStrategy(axis=axis).partitions(grid, n_parts):
        if part.is_empty:
            continue
        launch_args = dict(split)
        launch_args.update(_partition_args(part))
        run_kernel(pk, part.grid(), block, launch_args, trace=None)

    for name, value in args.items():
        if isinstance(value, np.ndarray):
            if not np.array_equal(np.asarray(whole[name]), np.asarray(split[name])):
                return False
    return True
