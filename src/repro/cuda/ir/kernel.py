"""Kernel objects: parameters plus a per-thread body.

Array parameters are *shaped*: their extent along each dimension is an
affine expression over the scalar parameters (e.g. ``(n, n)`` for a square
matrix). The paper's code generator extracts exactly this information —
"the dimension sizes of all arrays in global memory" (Section 6) — to turn
multi-dimensional element coordinates into row-major byte ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from repro.cuda.dtypes import DType, i64
from repro.cuda.ir.exprs import Expr
from repro.cuda.ir.stmts import Body
from repro.errors import ValidationError

__all__ = [
    "ScalarParam",
    "ArrayParam",
    "PartitionParam",
    "KernelParam",
    "Kernel",
    "PARTITION_FIELDS",
    "partition_field_name",
]

#: The six fields of the partition argument appended by the kernel
#: partitioning transform (Section 7): half-open block-index intervals for
#: each grid axis.
PARTITION_FIELDS = ("min_z", "max_z", "min_y", "max_y", "min_x", "max_x")


def partition_field_name(param_name: str, f: str) -> str:
    """Reserved scalar name carrying one partition field at execution time."""
    return f"__{param_name}_{f}"


@dataclass(frozen=True)
class ScalarParam:
    """A by-value scalar kernel argument."""

    name: str
    dtype: DType = i64

    @property
    def is_array(self) -> bool:
        return False


@dataclass(frozen=True)
class ArrayParam:
    """A global-memory array argument (row-major).

    Attributes:
        name: parameter name.
        dtype: element type.
        shape: per-dimension extents as IR expressions over scalar params.
    """

    name: str
    dtype: DType
    shape: Tuple[Expr, ...]

    @property
    def is_array(self) -> bool:
        return True

    @property
    def ndim(self) -> int:
        return len(self.shape)


@dataclass(frozen=True)
class PartitionParam:
    """The partition argument appended to partitioned kernels (Section 7).

    At execution time it binds the six reserved scalars
    ``__<name>_min_z .. __<name>_max_x``.
    """

    name: str = "partition"

    @property
    def is_array(self) -> bool:
        return False

    def field_names(self) -> Tuple[str, ...]:
        return tuple(partition_field_name(self.name, f) for f in PARTITION_FIELDS)


KernelParam = Union[ScalarParam, ArrayParam, PartitionParam]


@dataclass(frozen=True)
class Kernel:
    """An immutable GPU kernel: name, parameters, per-thread body."""

    name: str
    params: Tuple[KernelParam, ...]
    body: Body
    #: Rendered numpy programs by variant (traced or not), filled on the
    #: kernel's first run (:func:`repro.cuda.exec.interpreter.run_kernel`).
    #: Derived from the fields above, so it takes no part in kernel
    #: equality, and a ``dataclasses.replace`` copy starts empty.
    programs: Dict[bool, Callable] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate parameter names in kernel {self.name!r}")

    @property
    def array_params(self) -> Tuple[ArrayParam, ...]:
        return tuple(p for p in self.params if isinstance(p, ArrayParam))

    @property
    def scalar_params(self) -> Tuple[ScalarParam, ...]:
        return tuple(p for p in self.params if isinstance(p, ScalarParam))

    @property
    def partition_param(self) -> Optional[PartitionParam]:
        for p in self.params:
            if isinstance(p, PartitionParam):
                return p
        return None

    @property
    def is_partitioned(self) -> bool:
        return self.partition_param is not None

    def param(self, name: str) -> KernelParam:
        for p in self.params:
            if p.name == name:
                return p
        raise ValidationError(f"kernel {self.name!r} has no parameter {name!r}")

    def param_index(self, name: str) -> int:
        for i, p in enumerate(self.params):
            if p.name == name:
                return i
        raise ValidationError(f"kernel {self.name!r} has no parameter {name!r}")

    def __str__(self) -> str:
        from repro.cuda.ir.printer import kernel_to_cuda

        return kernel_to_cuda(self)
