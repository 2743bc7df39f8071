"""Generic traversal and rewriting of kernel IR.

``walk_expr``/``walk_body`` yield every node; ``ExprTransformer`` rebuilds
expression trees bottom-up through a user hook, and :func:`transform_kernel`
applies one to every expression in a kernel body. The blockOff recognizer
(Section 4.1) and the kernel partitioner (Section 7) are both built on these.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.cuda.ir.exprs import (
    BinOp,
    Call,
    Expr,
    Load,
    Select,
    UnOp,
)
from repro.cuda.ir.kernel import Kernel
from repro.cuda.ir.stmts import Assign, Body, For, If, Let, Stmt, Store

__all__ = ["walk_expr", "walk_body", "map_exprs_in_body", "transform_kernel"]


def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression (pre-order)."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_expr(expr.lhs)
        yield from walk_expr(expr.rhs)
    elif isinstance(expr, UnOp):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, Call):
        for a in expr.args:
            yield from walk_expr(a)
    elif isinstance(expr, Select):
        yield from walk_expr(expr.cond)
        yield from walk_expr(expr.on_true)
        yield from walk_expr(expr.on_false)
    elif isinstance(expr, Load):
        for i in expr.indices:
            yield from walk_expr(i)


def walk_body(body: Body) -> Iterator[Stmt]:
    """Yield every statement in a body, recursively (pre-order)."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_body(stmt.then)
            yield from walk_body(stmt.orelse)
        elif isinstance(stmt, For):
            yield from walk_body(stmt.body)


ExprFn = Callable[[Expr], Expr]


def map_expr(expr: Expr, fn: ExprFn) -> Expr:
    """Rebuild an expression bottom-up, applying ``fn`` at every node."""
    if isinstance(expr, BinOp):
        expr = BinOp(expr.op, map_expr(expr.lhs, fn), map_expr(expr.rhs, fn))
    elif isinstance(expr, UnOp):
        expr = UnOp(expr.op, map_expr(expr.operand, fn))
    elif isinstance(expr, Call):
        expr = Call(expr.fn, tuple(map_expr(a, fn) for a in expr.args))
    elif isinstance(expr, Select):
        expr = Select(
            map_expr(expr.cond, fn), map_expr(expr.on_true, fn), map_expr(expr.on_false, fn)
        )
    elif isinstance(expr, Load):
        expr = Load(expr.array, tuple(map_expr(i, fn) for i in expr.indices), expr._dtype)
    return fn(expr)


def map_exprs_in_body(body: Body, fn: ExprFn) -> Body:
    """Rebuild a statement body with ``fn`` applied to every expression."""
    out = []
    for stmt in body:
        if isinstance(stmt, Let):
            out.append(Let(stmt.name, map_expr(stmt.value, fn)))
        elif isinstance(stmt, Assign):
            out.append(Assign(stmt.name, map_expr(stmt.value, fn)))
        elif isinstance(stmt, Store):
            out.append(
                Store(
                    stmt.array,
                    tuple(map_expr(i, fn) for i in stmt.indices),
                    map_expr(stmt.value, fn),
                )
            )
        elif isinstance(stmt, If):
            out.append(
                If(
                    map_expr(stmt.cond, fn),
                    map_exprs_in_body(stmt.then, fn),
                    map_exprs_in_body(stmt.orelse, fn),
                )
            )
        elif isinstance(stmt, For):
            out.append(
                For(
                    stmt.var,
                    map_expr(stmt.lo, fn),
                    map_expr(stmt.hi, fn),
                    map_exprs_in_body(stmt.body, fn),
                )
            )
        else:
            raise TypeError(f"unknown statement {stmt!r}")
    return tuple(out)


def transform_kernel(kernel: Kernel, fn: ExprFn, *, name: str = None, extra_params=()) -> Kernel:
    """Clone a kernel with every expression rewritten by ``fn``."""
    return Kernel(
        name=name or kernel.name,
        params=tuple(kernel.params) + tuple(extra_params),
        body=map_exprs_in_body(kernel.body, fn),
    )
