"""Building scanner ASTs from polyhedral sets.

Given a set over array-index dimensions (with runtime parameters), this
module produces the loop-nest AST that enumerates the set's integer points
as per-row element ranges (Section 6.1 of the paper): nested loops over all
but the innermost dimension, and for every visited row the lexicographic
minimum/maximum of the innermost (row-major contiguous) dimension.

For unions, each convex disjunct is scanned separately — exactly the paper's
remedy for the over-approximation a union-level scan would introduce. The
consumer (the runtime's buffer synchronizer) merges overlapping ranges.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import PolyhedralError
from repro.poly.ast import (
    AEmitRange,
    AFor,
    AGuard,
    ASeq,
    ECDiv,
    EConst,
    EFDiv,
    EMax,
    EMin,
    EMul,
    EAdd,
    EVar,
    Expr,
    Node,
)
from repro.poly.basic_set import BasicSet, BoundSpec
from repro.poly.linalg import Vec
from repro.poly.set_ import Set

__all__ = ["build_scan_ast", "build_scan_ast_union", "bound_exprs"]


def _aff_expr(names: Sequence[str], vec: Vec) -> Expr:
    """Affine vector (column layout over ``names``) to an expression tree."""
    terms: List[Expr] = []
    if vec[0] != 0:
        terms.append(EConst(vec[0]))
    for name, coeff in zip(names, vec[1:]):
        if coeff == 0:
            continue
        if coeff == 1:
            terms.append(EVar(name))
        else:
            terms.append(EMul(coeff, EVar(name)))
    if not terms:
        return EConst(0)
    if len(terms) == 1:
        return terms[0]
    return EAdd(tuple(terms))


def bound_exprs(bset: BasicSet, name: str) -> Tuple[Expr, Expr]:
    """(lower, upper) bound expressions for one dimension of ``bset``.

    Constraints involving later dimensions must already have been projected
    away. Raises :class:`PolyhedralError` if the dimension is unbounded.
    """
    spec: BoundSpec = bset.dim_bounds(name)
    names = bset.space.all_names
    lowers: List[Expr] = []
    for div, rest in spec.lowers:
        e = _aff_expr(names, tuple(-r for r in rest))
        lowers.append(e if div == 1 else ECDiv(e, div))
    uppers: List[Expr] = []
    for div, rest in spec.uppers:
        e = _aff_expr(names, rest)
        uppers.append(e if div == 1 else EFDiv(e, div))
    if not lowers or not uppers:
        raise PolyhedralError(
            f"dimension {name!r} of {bset!r} is unbounded; cannot generate a scanner"
        )
    lo = lowers[0] if len(lowers) == 1 else EMax(tuple(lowers))
    hi = uppers[0] if len(uppers) == 1 else EMin(tuple(uppers))
    return lo, hi


def build_scan_ast(bset: BasicSet) -> Node:
    """Scanner AST for one convex set over its (out) dimensions.

    The innermost dimension (assumed row-major contiguous) is emitted as a
    range; outer dimensions become loops whose bounds come from
    Fourier-Motzkin shadows (all later dimensions projected out). Every
    original constraint is enforced at the loop level of its highest
    dimension, so the scan is exact for a single convex disjunct; inexact FM
    shadows can only cause empty inner ranges, which the emit guard drops.
    """
    dims = bset.space.out_dims
    if not dims:
        raise PolyhedralError("cannot build a scanner for a 0-dimensional set")
    if bset._trivially_empty:
        return ASeq(())

    # Shadow sets: shadow[k] has dims k+1.. projected out.
    shadows: List[BasicSet] = [bset]
    for k in range(len(dims) - 1, 0, -1):
        shadows.append(shadows[-1].project_out([dims[k]]))
    shadows.reverse()  # shadows[k] bounds dims[k]
    if any(s._trivially_empty for s in shadows):
        return ASeq(())

    inner_lo, inner_hi = bound_exprs(shadows[-1], dims[-1])
    node: Node = AEmitRange(
        row=tuple(EVar(d) for d in dims[:-1]), lower=inner_lo, upper=inner_hi
    )
    for k in range(len(dims) - 2, -1, -1):
        lo, hi = bound_exprs(shadows[k], dims[k])
        node = AFor(var=dims[k], lower=lo, upper=hi, body=node)

    # Constraints that involve no dimension at all (parameter-only
    # feasibility conditions) never become loop bounds; they guard the
    # whole nest.
    names = bset.space.all_names
    dim_cols = set(bset.space.dim_columns())
    guard_ineqs: List[Expr] = []
    guard_eqs: List[Expr] = []
    for c in bset.constraints:
        if any(c.vec[col] != 0 for col in dim_cols):
            continue
        expr = _aff_expr(names, c.vec)
        (guard_eqs if c.is_eq else guard_ineqs).append(expr)
    if guard_ineqs or guard_eqs:
        node = AGuard(tuple(guard_ineqs), tuple(guard_eqs), node)
    return node


def build_scan_ast_union(s: Set) -> Node:
    """Scanner AST for a union: each convex piece scanned separately."""
    pieces: List[Node] = []
    for d in s.disjuncts:
        if d.is_empty():
            continue
        pieces.append(build_scan_ast(d))
    if len(pieces) == 1:
        return pieces[0]
    return ASeq(tuple(pieces))
