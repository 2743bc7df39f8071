"""Compiling scanner ASTs to Python functions.

The paper translates isl ASTs into LLVM IR functions embedded in the
application (Section 6.1-6.2); the analogue here renders the AST as Python
source and compiles it with :func:`compile`. Every enumerator runs the
box/rows program of :mod:`repro.poly.vectorize`, which returns an image's
ranges without calling back per row (:func:`render_vector_source`). The
scalar scanner (:func:`compile_scanner`), which calls back once per row,
serves where the rows themselves are the answer: the exact-read oracle of
:mod:`repro.analysis.dataflow` flattens every point of a candidate set.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PolyhedralError
from repro.poly.ast import (
    AEmitRange,
    AFor,
    AGuard,
    ASeq,
    EAdd,
    ECDiv,
    EFDiv,
    EMax,
    EMin,
    EMul,
    EVar,
    Expr,
    Node,
    expr_to_py,
)
from repro.poly.astbuild import build_scan_ast, build_scan_ast_union
from repro.poly.basic_set import BasicSet
from repro.poly.set_ import Set

__all__ = [
    "ScanFn",
    "compile_scanner",
    "compile_vector_scanner",
    "prepare_scanner",
    "render_scanner_source",
    "render_vector_source",
]

ScanFn = Callable[..., None]
_counter = itertools.count()
_IDENT = re.compile(r"[A-Za-z_]\w*")
#: Names the generated scanners use themselves; a dimension or parameter
#: named like one of them is renamed.
_RESERVED = frozenset(
    ("_params", "_emit", "_lo", "_hi", "_S", "_np", "_boxes", "_rows", "min", "max", "range")
)


#: Renders one node in place of the default and returns True, or declines.
LeafFn = Callable[[Node, List[str], str], bool]


def _emit_node(
    node: Node, lines: List[str], indent: int, leaf: Optional[LeafFn] = None
) -> None:
    pad = "    " * indent
    if leaf is not None and leaf(node, lines, pad):
        return
    if isinstance(node, ASeq):
        if not node.children:
            lines.append(f"{pad}pass")
        for child in node.children:
            _emit_node(child, lines, indent, leaf)
        return
    if isinstance(node, AGuard):
        conds = [f"{expr_to_py(e)} >= 0" for e in node.ineqs]
        conds.extend(f"{expr_to_py(e)} == 0" for e in node.eqs)
        lines.append(f"{pad}if {' and '.join(conds)}:")
        _emit_node(node.body, lines, indent + 1, leaf)
        return
    if isinstance(node, AFor):
        lines.append(
            f"{pad}for {node.var} in range({expr_to_py(node.lower)}, "
            f"{expr_to_py(node.upper)} + 1):"
        )
        _emit_node(node.body, lines, indent + 1, leaf)
        return
    if isinstance(node, AEmitRange):
        lo = expr_to_py(node.lower)
        hi = expr_to_py(node.upper)
        row = ", ".join(expr_to_py(r) for r in node.row)
        row_tuple = f"({row},)" if node.row else "()"
        lines.append(f"{pad}_lo = {lo}")
        lines.append(f"{pad}_hi = {hi}")
        lines.append(f"{pad}if _lo <= _hi:")
        lines.append(f"{pad}    _emit({row_tuple}, _lo, _hi)")
        return
    raise TypeError(f"unknown AST node {node!r}")


def render_scanner_source(
    node: Node, param_names: Sequence[str], *, fn_name: str = "_scan"
) -> str:
    """Render a scanner AST as the source of ``fn_name(params, emit)``.

    ``params`` is a flat sequence of integers bound positionally to
    ``param_names`` — matching the paper's enumerator interface (Section
    6.2), where partition bounds and scalar arguments arrive as arrays of
    64-bit integers and results are delivered through a callback.
    """
    node, param_names = _sanitize(node, param_names)
    lines = [f"def {fn_name}(_params, _emit):"]
    for i, name in enumerate(param_names):
        lines.append(f"    {name} = _params[{i}]")
    _emit_node(node, lines, 1)
    if len(lines) == 1 + len(param_names):
        lines.append("    pass")
    return "\n".join(lines) + "\n"


def _row_base(row: Tuple[Expr, ...]) -> str:
    """Flat offset of a row: each outer index times its stride ``_S[k]``."""
    terms = [f"{expr_to_py(r, array=True)} * _S[{k}]" for k, r in enumerate(row)]
    return "(" + " + ".join(terms) + ")" if terms else "0"


def _vector_leaf(node: Node, lines: List[str], pad: str) -> bool:
    """Render an emit, or an innermost loop around one, as a box or rows.

    A loop whose emit bounds do not mention the loop variable is one box
    ``(row_lo, row_hi, lo, hi)``: every row in the loop's range has the
    same columns. Any other innermost loop becomes an ``arange`` and one
    numpy rows entry ``(n, base, lo, hi)``. An emit outside such a loop is
    a box on row 0 (a 1-D array) or a one-row entry.
    """
    if isinstance(node, AEmitRange):
        lo, hi = expr_to_py(node.lower), expr_to_py(node.upper)
        if node.row:
            lines.append(f"{pad}_rows.append((1, {_row_base(node.row)}, {lo}, {hi}))")
        else:
            lines.append(f"{pad}_boxes.append((0, 0, {lo}, {hi}))")
        return True
    if not (isinstance(node, AFor) and isinstance(node.body, AEmitRange)):
        return False
    emit = node.body
    lo, hi = expr_to_py(node.lower), expr_to_py(node.upper)
    cols = (expr_to_py(emit.lower), expr_to_py(emit.upper))
    if emit.row == (EVar(node.var),) and node.var not in _IDENT.findall(" ".join(cols)):
        lines.append(f"{pad}_boxes.append(({lo}, {hi}, {cols[0]}, {cols[1]}))")
    else:
        lines.append(f"{pad}{node.var} = _np.arange({lo}, {hi} + 1)")
        lines.append(
            f"{pad}_rows.append(({node.var}.size, {_row_base(emit.row)}, "
            f"{expr_to_py(emit.lower, array=True)}, {expr_to_py(emit.upper, array=True)}))"
        )
    return True


def render_vector_source(
    node: Node, param_names: Sequence[str], *, fn_name: str = "_vec"
) -> str:
    """Render a scanner AST as ``fn_name(params, strides) -> (boxes, rows)``.

    Guards and outer loops stay straight-line scalar Python; each innermost
    loop with its emit becomes a box or a numpy rows entry (see
    :func:`_vector_leaf`). ``strides`` are the array's element strides,
    bound as ``_S``; the caller unions the boxes and rows.
    """
    node, param_names = _sanitize(node, param_names)
    lines = [f"def {fn_name}(_params, _S):"]
    lines.extend(f"    {name} = _params[{i}]" for i, name in enumerate(param_names))
    lines.extend(["    _boxes = []", "    _rows = []"])
    _emit_node(node, lines, 1, _vector_leaf)
    lines.append("    return _boxes, _rows")
    return "\n".join(lines) + "\n"


def _load(source: str, fn_name: str, tag: str, namespace: Dict[str, object]):
    """Compile generated ``source`` into ``namespace`` and return ``fn_name``."""
    code = compile(source, filename=f"<{tag}:{fn_name}>", mode="exec")
    exec(code, namespace)  # noqa: S102 - compiling our own generated source
    fn = namespace[fn_name]
    fn.__poly_source__ = source  # type: ignore[attr-defined]
    return fn


def compile_vector_scanner(node: Node, param_names: Sequence[str]) -> Callable:
    """Compile :func:`render_vector_source` for one scan AST."""
    fn_name = f"_vec_{next(_counter)}"
    source = render_vector_source(node, param_names, fn_name=fn_name)
    return _load(source, fn_name, "poly-vector", {"_np": np})


def compile_scanner(
    set_or_bset, param_names: Optional[Sequence[str]] = None
) -> ScanFn:
    """Compile a scanner ``f(params, emit)`` for a set or union of sets.

    ``emit`` is invoked as ``emit(row, lo, hi)`` once per non-empty per-row
    element range; ``row`` excludes the innermost dimension, whose inclusive
    bounds are ``lo``/``hi``.
    """
    node, names = _prepare(set_or_bset, param_names)
    fn_name = f"_scan_{next(_counter)}"
    source = render_scanner_source(node, names, fn_name=fn_name)
    return _load(source, fn_name, "poly-scanner", {})


def _safe_name(name: str) -> str:
    """Map an arbitrary dimension name to a valid Python identifier."""
    safe = re.sub(r"\W", "_", name)
    if not safe or safe[0].isdigit():
        safe = "_" + safe
    if safe in _RESERVED:
        safe = safe + "_v"
    return safe


def _sanitize(node: Node, param_names: Sequence[str]) -> Tuple[Node, Tuple[str, ...]]:
    """Rename every variable in the AST to an identifier-safe name."""
    mapping = {n: _safe_name(n) for n in param_names}

    def fix_expr(e: Expr) -> Expr:
        if isinstance(e, EVar):
            return EVar(mapping.setdefault(e.name, _safe_name(e.name)))
        if isinstance(e, EAdd):
            return EAdd(tuple(fix_expr(t) for t in e.terms))
        if isinstance(e, EMul):
            return EMul(e.coeff, fix_expr(e.operand))
        if isinstance(e, EFDiv):
            return EFDiv(fix_expr(e.operand), e.divisor)
        if isinstance(e, ECDiv):
            return ECDiv(fix_expr(e.operand), e.divisor)
        if isinstance(e, EMin):
            return EMin(tuple(fix_expr(o) for o in e.operands))
        if isinstance(e, EMax):
            return EMax(tuple(fix_expr(o) for o in e.operands))
        return e

    def fix(n: Node) -> Node:
        if isinstance(n, ASeq):
            return ASeq(tuple(fix(c) for c in n.children))
        if isinstance(n, AGuard):
            return AGuard(
                tuple(fix_expr(e) for e in n.ineqs),
                tuple(fix_expr(e) for e in n.eqs),
                fix(n.body),
            )
        if isinstance(n, AFor):
            var = mapping.setdefault(n.var, _safe_name(n.var))
            return AFor(var, fix_expr(n.lower), fix_expr(n.upper), fix(n.body))
        if isinstance(n, AEmitRange):
            return AEmitRange(
                tuple(fix_expr(r) for r in n.row), fix_expr(n.lower), fix_expr(n.upper)
            )
        raise TypeError(f"unknown AST node {n!r}")

    fixed = fix(node)
    if len(set(mapping.values())) != len(mapping):
        raise PolyhedralError(f"name sanitization produced a collision: {mapping}")
    return fixed, tuple(mapping[n] for n in param_names)


def prepare_scanner(
    set_or_bset, param_names: Optional[Sequence[str]] = None
) -> Tuple[Node, Tuple[str, ...]]:
    """The scan AST and positional parameter names for a set or union.

    The shared front half of both rendered scanners (the scalar scanner
    and :mod:`repro.poly.vectorize`'s program), which sanitize the names
    afterwards: both walk the same AST, which is what makes their results
    identical.
    """
    node, names = _prepare(set_or_bset, param_names)
    return node, tuple(names)


def _prepare(set_or_bset, param_names: Optional[Sequence[str]]):
    if isinstance(set_or_bset, BasicSet):
        node = build_scan_ast(set_or_bset)
        space = set_or_bset.space
    elif isinstance(set_or_bset, Set):
        node = build_scan_ast_union(set_or_bset)
        space = set_or_bset.space
    else:
        raise TypeError(f"expected BasicSet or Set, got {type(set_or_bset).__name__}")
    names = tuple(param_names) if param_names is not None else space.params
    missing = set(space.params) - set(names)
    if missing:
        raise PolyhedralError(f"scanner parameters missing bindings: {sorted(missing)}")
    return node, names
