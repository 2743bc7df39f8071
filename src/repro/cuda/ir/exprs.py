"""Expression nodes of the kernel IR.

Expressions are immutable trees. Every node carries its scalar
:class:`~repro.cuda.dtypes.DType`. Integer index arithmetic uses ``i64``
throughout (CUDA's 32-bit indices are an optimization this reproduction does
not model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from repro.cuda.dtypes import DType, boolean, f64, i64, promote
from repro.errors import ValidationError

__all__ = [
    "Expr",
    "Const",
    "GridIdx",
    "Param",
    "LocalRef",
    "BinOp",
    "UnOp",
    "Call",
    "Select",
    "Load",
    "ARITH_OPS",
    "CMP_OPS",
    "BOOL_OPS",
    "GRID_REGISTERS",
    "MATH_FUNCTIONS",
]

#: CUDA special registers the IR can reference.
GRID_REGISTERS = ("threadIdx", "blockIdx", "blockDim", "gridDim", "blockOff")

ARITH_OPS = ("add", "sub", "mul", "div", "fdiv", "mod", "min", "max")
CMP_OPS = ("lt", "le", "gt", "ge", "eq", "ne")
BOOL_OPS = ("and", "or")
MATH_FUNCTIONS = ("sqrt", "rsqrt", "abs", "exp", "log", "pow", "floor")


class Expr:
    """Base class of IR expressions."""

    __slots__ = ()

    @property
    def dtype(self) -> DType:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    """A literal scalar."""

    value: Union[int, float, bool]
    _dtype: DType

    @property
    def dtype(self) -> DType:
        return self._dtype

    @staticmethod
    def of(value: Union[int, float, bool], dtype: DType = None) -> "Const":
        if dtype is None:
            if isinstance(value, bool):
                dtype = boolean
            elif isinstance(value, int):
                dtype = i64
            else:
                dtype = f64
        return Const(value, dtype)


@dataclass(frozen=True)
class GridIdx(Expr):
    """A CUDA special register component, e.g. ``blockIdx.x``.

    ``blockOff`` is not a real CUDA register: it is the synthetic dimension
    the analysis introduces for ``blockIdx.w * blockDim.w`` (Section 4.1) and
    the partitioning transform materializes.
    """

    register: str
    axis: str

    def __post_init__(self) -> None:
        if self.register not in GRID_REGISTERS:
            raise ValidationError(f"unknown grid register {self.register!r}")
        if self.axis not in ("x", "y", "z"):
            raise ValidationError(f"unknown grid axis {self.axis!r}")

    @property
    def dtype(self) -> DType:
        return i64

    def __str__(self) -> str:
        return f"{self.register}.{self.axis}"


@dataclass(frozen=True)
class Param(Expr):
    """Reference to a scalar kernel parameter."""

    name: str
    _dtype: DType

    @property
    def dtype(self) -> DType:
        return self._dtype


@dataclass(frozen=True)
class LocalRef(Expr):
    """Reference to a ``Let``/``For``-bound local variable."""

    name: str
    _dtype: DType

    @property
    def dtype(self) -> DType:
        return self._dtype


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operation; comparison and boolean ops yield ``bool``."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS + CMP_OPS + BOOL_OPS:
            raise ValidationError(f"unknown binary op {self.op!r}")

    @property
    def dtype(self) -> DType:
        if self.op in CMP_OPS or self.op in BOOL_OPS:
            return boolean
        return promote(self.lhs.dtype, self.rhs.dtype)


@dataclass(frozen=True)
class UnOp(Expr):
    """Unary operation: ``neg`` or ``not``."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in ("neg", "not"):
            raise ValidationError(f"unknown unary op {self.op!r}")

    @property
    def dtype(self) -> DType:
        return boolean if self.op == "not" else self.operand.dtype


@dataclass(frozen=True)
class Call(Expr):
    """Math intrinsic call (``sqrt``, ``rsqrt``, ``abs``, ...)."""

    fn: str
    args: Tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.fn not in MATH_FUNCTIONS:
            raise ValidationError(f"unknown math function {self.fn!r}")

    @property
    def dtype(self) -> DType:
        dt = self.args[0].dtype
        return dt if dt.is_float else f64


@dataclass(frozen=True)
class Select(Expr):
    """Ternary select ``cond ? a : b``."""

    cond: Expr
    on_true: Expr
    on_false: Expr

    @property
    def dtype(self) -> DType:
        return promote(self.on_true.dtype, self.on_false.dtype)


@dataclass(frozen=True)
class Load(Expr):
    """Element load from a (multi-dimensional, row-major) array parameter."""

    array: str
    indices: Tuple[Expr, ...]
    _dtype: DType

    @property
    def dtype(self) -> DType:
        return self._dtype
