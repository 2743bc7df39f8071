"""Row-by-row scans of an access image: the oracles of the box programs.

Every enumerator scans through its compiled box program
(:mod:`repro.poly.vectorize`), which returns merged ranges and an emission
count without visiting rows. This module keeps the two row-by-row ways to
scan the same AST that used to ship beside it: the tree-walking interpreter
(:func:`eval_expr` / :func:`interpret`, moved verbatim from
``repro.poly.ast``) and the merge of per-row emissions
(:func:`merge_ranges`, moved verbatim from ``repro.compiler.enumerators``).
:func:`row_scan` runs either scanner, or the compiled scalar scanner of
:func:`repro.poly.codegen.compile_scanner`, into the program's result shape.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.poly.ast import (
    AEmitRange,
    AFor,
    AGuard,
    ASeq,
    EAdd,
    ECDiv,
    EConst,
    EFDiv,
    EMax,
    EMin,
    EMul,
    EVar,
    Expr,
    Node,
)
from repro.poly.codegen import ScanFn, prepare_scanner
from repro.poly.linalg import ceildiv, floordiv

FlatRange = Tuple[int, int]  # half-open element range


def eval_expr(expr: Expr, env: Dict[str, int]) -> int:
    """Evaluate an expression under a variable environment."""
    if isinstance(expr, EConst):
        return expr.value
    if isinstance(expr, EVar):
        return env[expr.name]
    if isinstance(expr, EAdd):
        return sum(eval_expr(t, env) for t in expr.terms)
    if isinstance(expr, EMul):
        return expr.coeff * eval_expr(expr.operand, env)
    if isinstance(expr, EFDiv):
        return floordiv(eval_expr(expr.operand, env), expr.divisor)
    if isinstance(expr, ECDiv):
        return ceildiv(eval_expr(expr.operand, env), expr.divisor)
    if isinstance(expr, EMin):
        return min(eval_expr(o, env) for o in expr.operands)
    if isinstance(expr, EMax):
        return max(eval_expr(o, env) for o in expr.operands)
    raise TypeError(f"unknown expression node {expr!r}")


EmitFn = Callable[[Tuple[int, ...], int, int], None]


def interpret(node: Node, env: Dict[str, int], emit: EmitFn) -> None:
    """Run the scanner AST directly (the tree-walking oracle)."""
    if isinstance(node, ASeq):
        for child in node.children:
            interpret(child, env, emit)
        return
    if isinstance(node, AGuard):
        if all(eval_expr(e, env) >= 0 for e in node.ineqs) and all(
            eval_expr(e, env) == 0 for e in node.eqs
        ):
            interpret(node.body, env, emit)
        return
    if isinstance(node, AFor):
        lo = eval_expr(node.lower, env)
        hi = eval_expr(node.upper, env)
        for v in range(lo, hi + 1):
            env[node.var] = v
            interpret(node.body, env, emit)
        env.pop(node.var, None)
        return
    if isinstance(node, AEmitRange):
        lo = eval_expr(node.lower, env)
        hi = eval_expr(node.upper, env)
        if lo <= hi:
            emit(tuple(eval_expr(r, env) for r in node.row), lo, hi)
        return
    raise TypeError(f"unknown AST node {node!r}")


def interpreted_scanner(set_or_bset, param_names: Optional[Sequence[str]] = None) -> ScanFn:
    """Like :func:`repro.poly.codegen.compile_scanner` but walking the AST
    at scan time."""
    node, names = prepare_scanner(set_or_bset, param_names)

    def scan(params: Sequence[int], emit) -> None:
        env = {name: params[i] for i, name in enumerate(names)}
        interpret(node, env, emit)

    return scan


def merge_ranges(ranges: List[FlatRange]) -> List[FlatRange]:
    """Sort and coalesce overlapping/adjacent half-open ranges."""
    if not ranges:
        return []
    ranges = sorted(ranges)
    out = [ranges[0]]
    for lo, hi in ranges[1:]:
        last_lo, last_hi = out[-1]
        if lo <= last_hi:
            if hi > last_hi:
                out[-1] = (last_lo, hi)
        else:
            out.append((lo, hi))
    return out


def row_scan(
    scanner: ScanFn, params: Sequence[int], strides: Sequence[int]
) -> Tuple[List[FlatRange], int]:
    """``(merged flat ranges, emissions)`` of one row-by-row scan: what
    :meth:`repro.poly.vectorize.VectorProgram.run` must return."""
    raw: List[FlatRange] = []

    def emit(row: Tuple[int, ...], lo: int, hi: int) -> None:
        base = sum(r * s for r, s in zip(row, strides[:-1]))
        raw.append((base + lo, base + hi + 1))

    scanner(params, emit)
    return merge_ranges(raw), len(raw)


def strides_of(shape: Sequence[int]) -> List[int]:
    """Row-major element strides of an array shape."""
    strides = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]
    return strides
