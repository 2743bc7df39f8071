"""Rendering kernel IR as CUDA-C-like source.

Used for documentation, debugging, and as the device-side text the
source-to-source rewriter demo operates alongside. Multi-dimensional arrays
are printed with explicit row-major flattening, the way real CUDA kernels
subscript flat pointers.
"""

from __future__ import annotations

from typing import List

from repro.cuda.dtypes import boolean, f32, f64, i32, i64
from repro.cuda.ir.exprs import (
    BinOp,
    Call,
    Const,
    Expr,
    GridIdx,
    Load,
    LocalRef,
    Param,
    Select,
    UnOp,
)
from repro.cuda.ir.kernel import ArrayParam, Kernel, PartitionParam, ScalarParam
from repro.cuda.ir.stmts import Assign, For, If, Let, Store

__all__ = ["kernel_to_cuda", "expr_to_cuda"]

_CTYPES = {f32: "float", f64: "double", i32: "int", i64: "long long", boolean: "bool"}

_BINOP_SYMBOLS = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "div": "/",
    "fdiv": "/",
    "mod": "%",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
    "eq": "==",
    "ne": "!=",
    "and": "&&",
    "or": "||",
}


def expr_to_cuda(expr: Expr) -> str:
    """Render one IR expression as CUDA-C-like source."""
    if isinstance(expr, Const):
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        if expr._dtype is f32:
            return f"{expr.value}f"
        return str(expr.value)
    if isinstance(expr, GridIdx):
        return f"{expr.register}.{expr.axis}"
    if isinstance(expr, (Param, LocalRef)):
        return expr.name
    if isinstance(expr, BinOp):
        if expr.op in ("min", "max"):
            return f"{expr.op}({expr_to_cuda(expr.lhs)}, {expr_to_cuda(expr.rhs)})"
        return f"({expr_to_cuda(expr.lhs)} {_BINOP_SYMBOLS[expr.op]} {expr_to_cuda(expr.rhs)})"
    if isinstance(expr, UnOp):
        return f"(-{expr_to_cuda(expr.operand)})" if expr.op == "neg" else f"(!{expr_to_cuda(expr.operand)})"
    if isinstance(expr, Call):
        args = ", ".join(expr_to_cuda(a) for a in expr.args)
        return f"{expr.fn}({args})"
    if isinstance(expr, Select):
        return (
            f"({expr_to_cuda(expr.cond)} ? {expr_to_cuda(expr.on_true)}"
            f" : {expr_to_cuda(expr.on_false)})"
        )
    if isinstance(expr, Load):
        return f"{expr.array}[{_flat_index(expr.array, expr.indices)}]"
    raise TypeError(f"unknown expression {expr!r}")


def _flat_index(array: str, indices) -> str:
    """Row-major flattened index expression ``((i0*d1 + i1)*d2 + i2)...``."""
    parts = [expr_to_cuda(i) for i in indices]
    if len(parts) == 1:
        return parts[0]
    out = parts[0]
    for k, p in enumerate(parts[1:], start=1):
        out = f"({out}) * {array}_dim{k} + {p}"
    return out


def _stmt_lines(stmt, lines: List[str], indent: int) -> None:
    pad = "    " * indent
    if isinstance(stmt, Let):
        ctype = _CTYPES[stmt.value.dtype]
        lines.append(f"{pad}{ctype} {stmt.name} = {expr_to_cuda(stmt.value)};")
    elif isinstance(stmt, Assign):
        lines.append(f"{pad}{stmt.name} = {expr_to_cuda(stmt.value)};")
    elif isinstance(stmt, Store):
        lines.append(
            f"{pad}{stmt.array}[{_flat_index(stmt.array, stmt.indices)}] = "
            f"{expr_to_cuda(stmt.value)};"
        )
    elif isinstance(stmt, If):
        lines.append(f"{pad}if ({expr_to_cuda(stmt.cond)}) {{")
        for s in stmt.then:
            _stmt_lines(s, lines, indent + 1)
        if stmt.orelse:
            lines.append(f"{pad}}} else {{")
            for s in stmt.orelse:
                _stmt_lines(s, lines, indent + 1)
        lines.append(f"{pad}}}")
    elif isinstance(stmt, For):
        v = stmt.var
        lines.append(
            f"{pad}for (long long {v} = {expr_to_cuda(stmt.lo)}; "
            f"{v} < {expr_to_cuda(stmt.hi)}; ++{v}) {{"
        )
        for s in stmt.body:
            _stmt_lines(s, lines, indent + 1)
        lines.append(f"{pad}}}")
    else:
        raise TypeError(f"unknown statement {stmt!r}")


def kernel_to_cuda(kernel: Kernel) -> str:
    """Render a kernel as CUDA-C-like source text."""
    params: List[str] = []
    for p in kernel.params:
        if isinstance(p, ArrayParam):
            params.append(f"{_CTYPES[p.dtype]}* {p.name}")
        elif isinstance(p, ScalarParam):
            params.append(f"{_CTYPES[p.dtype]} {p.name}")
        elif isinstance(p, PartitionParam):
            params.append(f"partition_t {p.name}")
    lines = [f"__global__ void {kernel.name}({', '.join(params)}) {{"]
    for stmt in kernel.body:
        _stmt_lines(stmt, lines, 1)
    lines.append("}")
    return "\n".join(lines) + "\n"
