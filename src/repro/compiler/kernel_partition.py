"""The kernel partitioning transform (paper §7).

Clones a kernel, appends the partition argument, and applies the two
substitution rules:

* Equation (8): ``blockIdx.w  ->  partition.min_w + blockIdx.w``
* Equation (9): ``gridDim.w   ->  partition.max_w``

With the launch grid updated to ``partition.max_w - partition.min_w``
(Equation 10, :meth:`repro.compiler.strategy.Partition.grid`), the clone
behaves exactly as if it executed only the thread blocks inside
``[min_w, max_w)`` of the original grid.

``blockOff.w`` references (present if a kernel was partitioned *after* the
§4.1 rewrite) expand back to ``(partition.min_w + blockIdx.w) * blockDim.w``.
"""

from __future__ import annotations

from repro.cuda.dtypes import i64
from repro.cuda.ir.exprs import BinOp, Expr, GridIdx, Param
from repro.cuda.ir.kernel import Kernel, PartitionParam, partition_field_name
from repro.cuda.ir.visitors import transform_kernel
from repro.errors import PartitioningError

__all__ = ["partition_kernel", "PARTITION_SUFFIX"]

PARTITION_SUFFIX = "__partitioned"


def partition_kernel(kernel: Kernel) -> Kernel:
    """Clone ``kernel`` into its partitioned form (Section 7)."""
    if kernel.is_partitioned:
        raise PartitioningError(f"kernel {kernel.name!r} is already partitioned")
    part = PartitionParam("partition")

    def pmin(axis: str) -> Param:
        return Param(partition_field_name(part.name, f"min_{axis}"), i64)

    def pmax(axis: str) -> Param:
        return Param(partition_field_name(part.name, f"max_{axis}"), i64)

    def rewrite(expr: Expr) -> Expr:
        if isinstance(expr, GridIdx):
            if expr.register == "blockIdx":
                return BinOp("add", pmin(expr.axis), GridIdx("blockIdx", expr.axis))
            if expr.register == "gridDim":
                return pmax(expr.axis)
            if expr.register == "blockOff":
                shifted = BinOp("add", pmin(expr.axis), GridIdx("blockIdx", expr.axis))
                return BinOp("mul", shifted, GridIdx("blockDim", expr.axis))
        return expr

    return transform_kernel(
        kernel, rewrite, name=kernel.name + PARTITION_SUFFIX, extra_params=(part,)
    )
