"""AST nodes for polyhedral code generation (isl-style).

The paper (Section 6) uses isl's AST generation: control flow is limited to
``for`` loops and conditionals, and expressions are closed-form trees whose
operators map 1:1 onto LLVM IR. Here the same AST maps 1:1 onto Python
source; :mod:`repro.poly.codegen` renders and compiles it, and
:func:`eval_expr` / :func:`interpret` provide the interpreted fallback
(the scalar scanner backend, ``use_codegen=False``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple, Union

from repro.poly.linalg import ceildiv, floordiv

__all__ = [
    "Expr",
    "EConst",
    "EVar",
    "EAdd",
    "EMul",
    "EFDiv",
    "ECDiv",
    "EMin",
    "EMax",
    "Node",
    "AFor",
    "AGuard",
    "AEmitRange",
    "ASeq",
    "eval_expr",
    "interpret",
    "expr_to_py",
]


class Expr:
    """Base class of closed-form integer expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class EConst(Expr):
    value: int


@dataclass(frozen=True)
class EVar(Expr):
    name: str


@dataclass(frozen=True)
class EAdd(Expr):
    terms: Tuple[Expr, ...]


@dataclass(frozen=True)
class EMul(Expr):
    coeff: int
    operand: Expr


@dataclass(frozen=True)
class EFDiv(Expr):
    """Floor division by a positive integer constant."""

    operand: Expr
    divisor: int


@dataclass(frozen=True)
class ECDiv(Expr):
    """Ceiling division by a positive integer constant."""

    operand: Expr
    divisor: int


@dataclass(frozen=True)
class EMin(Expr):
    operands: Tuple[Expr, ...]


@dataclass(frozen=True)
class EMax(Expr):
    operands: Tuple[Expr, ...]


class Node:
    """Base class of AST statements."""

    __slots__ = ()


@dataclass(frozen=True)
class AFor(Node):
    """``for var in [lower, upper]`` (inclusive bounds)."""

    var: str
    lower: Expr
    upper: Expr
    body: "Node"


@dataclass(frozen=True)
class AGuard(Node):
    """Run ``body`` only if every listed expression is satisfied.

    ``ineqs`` must evaluate >= 0 and ``eqs`` must evaluate == 0. Generated
    for constraints that involve no loop dimension (typically parameter-only
    feasibility conditions of a disjunct, e.g. "this boundary piece exists
    only when the partition touches row zero").
    """

    ineqs: Tuple[Expr, ...]
    eqs: Tuple[Expr, ...]
    body: "Node"


@dataclass(frozen=True)
class AEmitRange(Node):
    """Emit one per-row element range ``(row..., lower..upper)`` if non-empty.

    ``row`` holds the values of all but the innermost array dimension;
    ``lower``/``upper`` bound the innermost dimension (inclusive).
    """

    row: Tuple[Expr, ...]
    lower: Expr
    upper: Expr


@dataclass(frozen=True)
class ASeq(Node):
    children: Tuple[Node, ...]


# -- interpretation ---------------------------------------------------------


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
    """Run the scanner AST directly (the non-codegen fallback)."""
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


# -- python source rendering --------------------------------------------------


def expr_to_py(expr: Expr, *, array: bool = False) -> str:
    """Render an expression as Python source.

    With ``array=True`` the operands may be numpy arrays: ``EMin``/``EMax``
    become nested ``_np.minimum``/``_np.maximum`` calls; every other
    operator already broadcasts.
    """
    if isinstance(expr, EConst):
        return repr(expr.value)
    if isinstance(expr, EVar):
        return expr.name
    if isinstance(expr, EAdd):
        return "(" + " + ".join(expr_to_py(t, array=array) for t in expr.terms) + ")"
    if isinstance(expr, EMul):
        return f"({expr.coeff} * {expr_to_py(expr.operand, array=array)})"
    if isinstance(expr, EFDiv):
        # divisor > 0, so Python's // is floor division already.
        return f"({expr_to_py(expr.operand, array=array)} // {expr.divisor})"
    if isinstance(expr, ECDiv):
        return f"(-((-({expr_to_py(expr.operand, array=array)})) // {expr.divisor}))"
    if isinstance(expr, (EMin, EMax)):
        args = [expr_to_py(o, array=array) for o in expr.operands]
        if not array:
            return ("min(" if isinstance(expr, EMin) else "max(") + ", ".join(args) + ")"
        fn = "_np.minimum" if isinstance(expr, EMin) else "_np.maximum"
        out = args[0]
        for arg in args[1:]:
            out = f"{fn}({out}, {arg})"
        return out
    raise TypeError(f"unknown expression node {expr!r}")
