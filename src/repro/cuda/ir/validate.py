"""Structural and type validation of kernel IR.

Checks, among others, that every referenced local is bound before use, that
array loads/stores match the parameter's rank and element type, that
condition expressions are boolean, and that array shape expressions only
reference scalar parameters.
"""

from __future__ import annotations

from typing import Set

from repro.cuda.dtypes import boolean
from repro.cuda.ir.exprs import (
    BinOp,
    Expr,
    GridIdx,
    Load,
    LocalRef,
    Param,
    Select,
)
from repro.cuda.ir.kernel import Kernel
from repro.cuda.ir.stmts import Assign, Body, For, If, Let, Store
from repro.cuda.ir.visitors import walk_expr
from repro.errors import ValidationError

__all__ = ["validate_kernel"]


def validate_kernel(kernel: Kernel) -> None:
    """Raise :class:`ValidationError` if the kernel IR is malformed."""
    seen: Set[str] = set()
    for p in kernel.params:
        if p.name in seen:
            raise ValidationError(
                f"kernel {kernel.name!r}: duplicate parameter name {p.name!r}"
            )
        seen.add(p.name)
    arrays = {p.name: p for p in kernel.array_params}
    scalars: Set[str] = {p.name for p in kernel.scalar_params}
    part = kernel.partition_param
    if part is not None:
        scalars.update(part.field_names())

    for p in kernel.array_params:
        for extent in p.shape:
            for node in walk_expr(extent):
                if isinstance(node, (Load, GridIdx, LocalRef)):
                    raise ValidationError(
                        f"array {p.name!r} extent may only use scalar parameters, found {node!r}"
                    )
                if isinstance(node, Param) and node.name not in scalars:
                    raise ValidationError(
                        f"array {p.name!r} extent references unknown scalar {node.name!r}"
                    )

    _check_body(kernel, kernel.body, set(), arrays, scalars)


def _check_expr(kernel: Kernel, expr: Expr, locals_: Set[str], arrays, scalars) -> None:
    for node in walk_expr(expr):
        if isinstance(node, LocalRef):
            if node.name not in locals_:
                raise ValidationError(
                    f"kernel {kernel.name!r}: local {node.name!r} used before definition"
                )
        elif isinstance(node, Param):
            if node.name not in scalars:
                raise ValidationError(
                    f"kernel {kernel.name!r}: unknown scalar parameter {node.name!r}"
                )
        elif isinstance(node, Load):
            if node.array not in arrays:
                if node.array in scalars:
                    raise ValidationError(
                        f"kernel {kernel.name!r}: load from scalar parameter "
                        f"{node.array!r} (not an array; reference it directly)"
                    )
                raise ValidationError(
                    f"kernel {kernel.name!r}: load from unknown array {node.array!r}"
                )
            ap = arrays[node.array]
            if len(node.indices) != ap.ndim:
                raise ValidationError(
                    f"kernel {kernel.name!r}: array {node.array!r} has {ap.ndim} dims, "
                    f"load uses {len(node.indices)} indices"
                )
            if node._dtype != ap.dtype:
                raise ValidationError(
                    f"kernel {kernel.name!r}: load dtype {node._dtype} != array {ap.dtype}"
                )
            for idx in node.indices:
                if idx.dtype.is_float:
                    raise ValidationError(
                        f"kernel {kernel.name!r}: float-typed index into {node.array!r}"
                    )
        elif isinstance(node, BinOp):
            if node.op in ("and", "or"):
                if node.lhs.dtype != boolean or node.rhs.dtype != boolean:
                    raise ValidationError(
                        f"kernel {kernel.name!r}: boolean op on non-boolean operands"
                    )
        elif isinstance(node, Select):
            if node.cond.dtype != boolean:
                raise ValidationError(f"kernel {kernel.name!r}: select condition is not boolean")


def _check_body(kernel: Kernel, body: Body, locals_: Set[str], arrays, scalars) -> None:
    for stmt in body:
        if isinstance(stmt, Let):
            _check_expr(kernel, stmt.value, locals_, arrays, scalars)
            if stmt.name in locals_:
                raise ValidationError(
                    f"kernel {kernel.name!r}: local {stmt.name!r} redefined (use Assign)"
                )
            if stmt.name in scalars or stmt.name in arrays:
                raise ValidationError(
                    f"kernel {kernel.name!r}: local {stmt.name!r} shadows a parameter"
                )
            locals_.add(stmt.name)
        elif isinstance(stmt, Assign):
            if stmt.name not in locals_:
                raise ValidationError(
                    f"kernel {kernel.name!r}: assignment to undefined local {stmt.name!r}"
                )
            _check_expr(kernel, stmt.value, locals_, arrays, scalars)
        elif isinstance(stmt, Store):
            if stmt.array not in arrays:
                if stmt.array in scalars:
                    raise ValidationError(
                        f"kernel {kernel.name!r}: store to scalar parameter "
                        f"{stmt.array!r} (not an array)"
                    )
                raise ValidationError(
                    f"kernel {kernel.name!r}: store to unknown array {stmt.array!r}"
                )
            ap = arrays[stmt.array]
            if len(stmt.indices) != ap.ndim:
                raise ValidationError(
                    f"kernel {kernel.name!r}: array {stmt.array!r} has {ap.ndim} dims, "
                    f"store uses {len(stmt.indices)} indices"
                )
            for idx in stmt.indices:
                _check_expr(kernel, idx, locals_, arrays, scalars)
                if idx.dtype.is_float:
                    raise ValidationError(
                        f"kernel {kernel.name!r}: float-typed index into {stmt.array!r}"
                    )
            _check_expr(kernel, stmt.value, locals_, arrays, scalars)
        elif isinstance(stmt, If):
            _check_expr(kernel, stmt.cond, locals_, arrays, scalars)
            if stmt.cond.dtype != boolean:
                raise ValidationError(f"kernel {kernel.name!r}: if-condition is not boolean")
            _check_body(kernel, stmt.then, set(locals_), arrays, scalars)
            _check_body(kernel, stmt.orelse, set(locals_), arrays, scalars)
        elif isinstance(stmt, For):
            _check_expr(kernel, stmt.lo, locals_, arrays, scalars)
            _check_expr(kernel, stmt.hi, locals_, arrays, scalars)
            if stmt.var in locals_ or stmt.var in scalars or stmt.var in arrays:
                raise ValidationError(
                    f"kernel {kernel.name!r}: loop variable {stmt.var!r} shadows another name"
                )
            inner = set(locals_)
            inner.add(stmt.var)
            _check_body(kernel, stmt.body, inner, arrays, scalars)
        else:
            raise ValidationError(f"kernel {kernel.name!r}: unknown statement {stmt!r}")
