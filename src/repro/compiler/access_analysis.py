"""Polyhedral memory-access analysis of kernels (paper §4).

For every kernel and every array argument this pass derives polyhedral
*read* and *write* maps from thread-grid coordinates to array elements.

Modelling follows the paper exactly:

* Thread coordinates are the nine dimensions ``blockOff.{z,y,x}``,
  ``blockIdx.{z,y,x}``, ``threadIdx.{z,y,x}`` (after the §4.1 blockOff
  rewrite removed the non-affine ``blockIdx*blockDim`` product).
* ``threadIdx`` dimensions are constrained by ``0 <= threadIdx.w <
  blockDim.w`` and then projected out, yielding maps that are subsets of
  ``Z^6 -> Z^d`` (block granularity — a thread block is the atomic unit).
* Block dimensions, grid dimensions and the kernel's integer scalar
  arguments are map *parameters*.
* Loop iterators become existentially projected extra input dimensions;
  affine guard conditions restrict the access domain (in disjunctive normal
  form, so ``||`` produces unions).
* A read whose subscript is not affine is over-approximated by the whole
  array (sound, marked inexact). A write that cannot be modelled exactly
  makes the kernel non-partitionable — the paper's fallback is single-GPU
  execution and so is ours.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.compiler.blockoff import encapsulate_block_offsets
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
from repro.cuda.ir.kernel import ArrayParam, Kernel, ScalarParam
from repro.cuda.ir.stmts import Assign, Body, For, If, Let, Store
from repro.errors import AnalysisError, NonAffineError
from repro.poly.affine import Aff
from repro.poly.constraint import Constraint, Kind
from repro.poly.map_ import BasicMap, Map
from repro.poly.space import Space

__all__ = [
    "IN_DIMS9",
    "IN_DIMS6",
    "GID_DIMS",
    "GRID_PARAMS",
    "ArrayAccess",
    "KernelAccessInfo",
    "RawAccess",
    "analyze_kernel",
]

#: Input dimensions of the pre-projection access relations.
IN_DIMS9 = ("bo_z", "bo_y", "bo_x", "bi_z", "bi_y", "bi_x", "ti_z", "ti_y", "ti_x")
#: Input dimensions after projecting out ``threadIdx`` (paper's Z^6).
IN_DIMS6 = IN_DIMS9[:6]
#: Global-thread-id dimensions used by the injectivity check.
GID_DIMS = ("g_z", "g_y", "g_x")
#: Launch-configuration parameters available to every map.
GRID_PARAMS = ("bd_z", "bd_y", "bd_x", "gd_z", "gd_y", "gd_x")

_REGISTER_DIM = {
    ("blockOff", "z"): "bo_z",
    ("blockOff", "y"): "bo_y",
    ("blockOff", "x"): "bo_x",
    ("blockIdx", "z"): "bi_z",
    ("blockIdx", "y"): "bi_y",
    ("blockIdx", "x"): "bi_x",
    ("threadIdx", "z"): "ti_z",
    ("threadIdx", "y"): "ti_y",
    ("threadIdx", "x"): "ti_x",
    ("blockDim", "z"): "bd_z",
    ("blockDim", "y"): "bd_y",
    ("blockDim", "x"): "bd_x",
    ("gridDim", "z"): "gd_z",
    ("gridDim", "y"): "gd_y",
    ("gridDim", "x"): "gd_x",
}


# ---------------------------------------------------------------------------
# Symbolic affine forms (space-free; bound to a Space when maps are built)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymAff:
    """``const + sum(coeff * name)`` with names resolved later."""

    const: int
    terms: Tuple[Tuple[str, int], ...] = ()

    @staticmethod
    def constant(c: int) -> "SymAff":
        return SymAff(int(c))

    @staticmethod
    def of(name: str) -> "SymAff":
        return SymAff(0, ((name, 1),))

    def _tmap(self) -> Dict[str, int]:
        return dict(self.terms)

    def add(self, other: "SymAff") -> "SymAff":
        t = self._tmap()
        for name, c in other.terms:
            t[name] = t.get(name, 0) + c
        return SymAff(self.const + other.const, _norm(t))

    def sub(self, other: "SymAff") -> "SymAff":
        return self.add(other.scale(-1))

    def scale(self, k: int) -> "SymAff":
        return SymAff(self.const * k, _norm({n: c * k for n, c in self.terms}))

    def is_constant(self) -> bool:
        return not self.terms

    def coeff(self, name: str) -> int:
        return self._tmap().get(name, 0)

    def names(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.terms)

    def rename(self, mapping: Mapping[str, str]) -> "SymAff":
        t: Dict[str, int] = {}
        for name, c in self.terms:
            nn = mapping.get(name, name)
            t[nn] = t.get(nn, 0) + c
        return SymAff(self.const, _norm(t))

    def to_aff(self, space: Space) -> Aff:
        return Aff.from_terms(space, self._tmap(), self.const)


def _norm(t: Dict[str, int]) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted((n, c) for n, c in t.items() if c != 0))


#: A symbolic constraint: ``aff >= 0`` (INEQ) or ``aff == 0`` (EQ).
SymConstraint = Tuple[Kind, SymAff]
#: A conjunction of symbolic constraints.
Conj = Tuple[SymConstraint, ...]
#: Disjunctive normal form: a union of conjunctions.
Dnf = Tuple[Conj, ...]

_TRUE_DNF: Dnf = ((),)


def _dnf_and(a: Dnf, b: Dnf) -> Dnf:
    return tuple(ca + cb for ca in a for cb in b)


def _dnf_or(a: Dnf, b: Dnf) -> Dnf:
    return a + b


# ---------------------------------------------------------------------------
# Expression -> affine form
# ---------------------------------------------------------------------------


class _AffineEnv:
    """Maps local names to symbolic affine values (None = not affine)."""

    def __init__(self, int_scalars: Sequence[str]) -> None:
        self.int_scalars = set(int_scalars)
        self.locals: Dict[str, Optional[SymAff]] = {}


def _affine(expr: Expr, env: _AffineEnv) -> SymAff:
    """Symbolic affine value of an integer expression.

    Raises :class:`NonAffineError` when the expression cannot be represented.
    """
    if isinstance(expr, Const):
        if isinstance(expr.value, bool) or expr._dtype.is_float:
            raise NonAffineError(f"non-integer constant {expr.value!r}")
        return SymAff.constant(int(expr.value))
    if isinstance(expr, GridIdx):
        return SymAff.of(_REGISTER_DIM[(expr.register, expr.axis)])
    if isinstance(expr, Param):
        if expr._dtype.is_float:
            raise NonAffineError(f"float parameter {expr.name!r} in index expression")
        if expr.name not in env.int_scalars:
            raise NonAffineError(f"unknown scalar {expr.name!r}")
        return SymAff.of(expr.name)
    if isinstance(expr, LocalRef):
        val = env.locals.get(expr.name)
        if val is None:
            raise NonAffineError(f"local {expr.name!r} has no affine value")
        return val
    if isinstance(expr, UnOp):
        if expr.op == "neg":
            return _affine(expr.operand, env).scale(-1)
        raise NonAffineError(f"boolean op {expr.op!r} in index expression")
    if isinstance(expr, BinOp):
        if expr.op == "add":
            return _affine(expr.lhs, env).add(_affine(expr.rhs, env))
        if expr.op == "sub":
            return _affine(expr.lhs, env).sub(_affine(expr.rhs, env))
        if expr.op == "mul":
            lhs = _affine(expr.lhs, env)
            rhs = _affine(expr.rhs, env)
            if lhs.is_constant():
                return rhs.scale(lhs.const)
            if rhs.is_constant():
                return lhs.scale(rhs.const)
            raise NonAffineError("product of two non-constant expressions")
        raise NonAffineError(f"operator {expr.op!r} is not affine")
    raise NonAffineError(f"expression {type(expr).__name__} is not affine")


def _cond_dnf(expr: Expr, env: _AffineEnv, *, negate: bool = False) -> Optional[Dnf]:
    """Condition expression -> DNF of affine constraints (None = non-affine)."""
    if isinstance(expr, UnOp) and expr.op == "not":
        return _cond_dnf(expr.operand, env, negate=not negate)
    if isinstance(expr, Const) and isinstance(expr.value, bool):
        value = expr.value != negate
        return _TRUE_DNF if value else ()
    if isinstance(expr, BinOp):
        op = expr.op
        if op == "and":
            a = _cond_dnf(expr.lhs, env, negate=negate)
            b = _cond_dnf(expr.rhs, env, negate=negate)
            if a is None or b is None:
                return None
            # De Morgan: !(x && y) == !x || !y
            return _dnf_or(a, b) if negate else _dnf_and(a, b)
        if op == "or":
            a = _cond_dnf(expr.lhs, env, negate=negate)
            b = _cond_dnf(expr.rhs, env, negate=negate)
            if a is None or b is None:
                return None
            return _dnf_and(a, b) if negate else _dnf_or(a, b)
        if op in ("lt", "le", "gt", "ge", "eq", "ne"):
            if negate:
                op = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt", "eq": "ne", "ne": "eq"}[op]
            return _cmp_dnf(op, expr.lhs, expr.rhs, env)
    return None


def _cmp_dnf(op: str, lhs: Expr, rhs: Expr, env: _AffineEnv) -> Optional[Dnf]:
    """One comparison as a DNF, expanding affine ``min``/``max`` operands.

    ``x < min(a, b)`` is ``x < a and x < b``; ``x < max(a, b)`` is
    ``x < a or x < b`` — and dually for ``>``/``>=``. Equality against a
    min/max is not expanded (returns None, treated as non-affine).
    """
    if isinstance(rhs, BinOp) and rhs.op in ("min", "max"):
        a = _cmp_dnf(op, lhs, rhs.lhs, env)
        b = _cmp_dnf(op, lhs, rhs.rhs, env)
        if a is None or b is None or op in ("eq", "ne"):
            return None
        conjunctive = (rhs.op == "min") == (op in ("lt", "le"))
        return _dnf_and(a, b) if conjunctive else _dnf_or(a, b)
    if isinstance(lhs, BinOp) and lhs.op in ("min", "max"):
        flipped = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq", "ne": "ne"}[op]
        return _cmp_dnf(flipped, rhs, lhs, env)
    try:
        l = _affine(lhs, env)
        r = _affine(rhs, env)
    except NonAffineError:
        return None
    diff = r.sub(l)  # rhs - lhs
    if op == "lt":  # lhs < rhs  <=>  rhs - lhs - 1 >= 0
        return (((Kind.INEQ, diff.add(SymAff.constant(-1))),),)
    if op == "le":
        return (((Kind.INEQ, diff),),)
    if op == "gt":  # lhs > rhs  <=>  lhs - rhs - 1 >= 0
        return (((Kind.INEQ, diff.scale(-1).add(SymAff.constant(-1))),),)
    if op == "ge":
        return (((Kind.INEQ, diff.scale(-1)),),)
    if op == "eq":
        return (((Kind.EQ, diff),),)
    # ne: lhs < rhs || lhs > rhs
    return (
        ((Kind.INEQ, diff.add(SymAff.constant(-1))),),
        ((Kind.INEQ, diff.scale(-1).add(SymAff.constant(-1))),),
    )


# ---------------------------------------------------------------------------
# Raw access collection
# ---------------------------------------------------------------------------


@dataclass
class RawAccess:
    """One source-level access in pre-projection (thread-granular) form.

    The polyhedral maps of :class:`ArrayAccess` are block-granular (the
    ``threadIdx`` dimensions are projected out, paper §4); the raw form
    keeps per-thread identity and is what the static race detector
    (:mod:`repro.analysis.races`) and out-of-bounds prover
    (:mod:`repro.analysis.bounds`) reason about.
    """

    array: str
    mode: str  # "read" | "write"
    indices: Optional[Tuple[SymAff, ...]]  # None = non-affine subscript
    domain: Dnf  # guard conditions + loop bounds, DNF
    iterators: Tuple[str, ...]  # loop dims in scope
    may: bool  # under any control flow
    approx_domain: bool  # a guard was dropped because it was non-affine


#: Backwards-compatible private alias (the class predates its export).
_RawAccess = RawAccess


#: Cap on the number of (guard, affine) cases a Select-bearing subscript may
#: expand into before the analysis falls back to "non-affine".
_MAX_SELECT_CASES = 16


def _affine_cases(expr: Expr, env: _AffineEnv) -> Optional[List[Tuple[Dnf, SymAff]]]:
    """Piecewise-affine value of an index expression.

    A ``select`` with an affine condition and affine branches is *exactly*
    representable as a union: one case per branch, guarded by the condition
    (resp. its negation). Returns a list of ``(guard_dnf, value)`` cases, or
    None when the expression is genuinely non-affine.
    """
    if isinstance(expr, Select):
        cond = _cond_dnf(expr.cond, env)
        ncond = _cond_dnf(expr.cond, env, negate=True)
        if cond is None or ncond is None:
            return None
        on_true = _affine_cases(expr.on_true, env)
        on_false = _affine_cases(expr.on_false, env)
        if on_true is None or on_false is None:
            return None
        out = [(_dnf_and(cond, g), aff) for g, aff in on_true]
        out += [(_dnf_and(ncond, g), aff) for g, aff in on_false]
        return out if len(out) <= _MAX_SELECT_CASES else None
    if isinstance(expr, BinOp) and expr.op in ("add", "sub", "mul"):
        lhs = _affine_cases(expr.lhs, env)
        rhs = _affine_cases(expr.rhs, env)
        if lhs is None or rhs is None:
            return None
        out: List[Tuple[Dnf, SymAff]] = []
        for gl, al in lhs:
            for gr, ar in rhs:
                if expr.op == "add":
                    val = al.add(ar)
                elif expr.op == "sub":
                    val = al.sub(ar)
                else:
                    if al.is_constant():
                        val = ar.scale(al.const)
                    elif ar.is_constant():
                        val = al.scale(ar.const)
                    else:
                        return None
                out.append((_dnf_and(gl, gr), val))
        return out if len(out) <= _MAX_SELECT_CASES else None
    if isinstance(expr, UnOp) and expr.op == "neg":
        inner = _affine_cases(expr.operand, env)
        if inner is None:
            return None
        return [(g, a.scale(-1)) for g, a in inner]
    try:
        return [(_TRUE_DNF, _affine(expr, env))]
    except NonAffineError:
        return None


class _Collector:
    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        int_scalars = [p.name for p in kernel.scalar_params if not p.dtype.is_float]
        self.env = _AffineEnv(int_scalars)
        self.accesses: List[_RawAccess] = []
        self._iter_count = itertools.count()

    # -- expression side: collect loads ------------------------------------

    def _loads_in(self, expr: Expr, ctx: "_Ctx") -> None:
        for node in _walk(expr):
            if isinstance(node, Load):
                self._record(node.array, "read", node.indices, ctx)

    def _record(self, array: str, mode: str, indices: Tuple[Expr, ...], ctx: "_Ctx") -> None:
        per_index = [_affine_cases(i, self.env) for i in indices]
        total_cases = 1
        for cases in per_index:
            total_cases *= len(cases) if cases else 1
        if any(c is None for c in per_index) or total_cases > _MAX_SELECT_CASES:
            self.accesses.append(
                _RawAccess(
                    array=array,
                    mode=mode,
                    indices=None,
                    domain=ctx.dnf,
                    iterators=ctx.iterators,
                    may=ctx.depth > 0,
                    approx_domain=ctx.approx,
                )
            )
            return
        for combo in itertools.product(*per_index):
            domain = ctx.dnf
            for guard, _ in combo:
                domain = _dnf_and(domain, guard)
            self.accesses.append(
                _RawAccess(
                    array=array,
                    mode=mode,
                    indices=tuple(aff for _, aff in combo),
                    domain=domain,
                    iterators=ctx.iterators,
                    may=ctx.depth > 0,
                    approx_domain=ctx.approx,
                )
            )

    # -- statement walk ------------------------------------------------------

    def run(self) -> None:
        self._body(self.kernel.body, _Ctx(_TRUE_DNF, (), 0, False))

    def _body(self, body: Body, ctx: "_Ctx") -> None:
        for stmt in body:
            if isinstance(stmt, Let):
                self._loads_in(stmt.value, ctx)
                try:
                    self.env.locals[stmt.name] = _affine(stmt.value, self.env)
                except NonAffineError:
                    self.env.locals[stmt.name] = None
            elif isinstance(stmt, Assign):
                self._loads_in(stmt.value, ctx)
                # A rebound local's value is control-flow dependent; treat as
                # non-affine from here on (conservative).
                self.env.locals[stmt.name] = None
            elif isinstance(stmt, Store):
                for idx in stmt.indices:
                    self._loads_in(idx, ctx)
                self._loads_in(stmt.value, ctx)
                self._record(stmt.array, "write", stmt.indices, ctx)
            elif isinstance(stmt, If):
                self._loads_in(stmt.cond, ctx)
                dnf = _cond_dnf(stmt.cond, self.env)
                if dnf is None:
                    then_ctx = ctx.deeper(approx=True)
                    else_ctx = ctx.deeper(approx=True)
                else:
                    then_ctx = ctx.with_dnf(_dnf_and(ctx.dnf, dnf)).deeper()
                    neg = _cond_dnf(stmt.cond, self.env, negate=True)
                    else_ctx = (
                        ctx.with_dnf(_dnf_and(ctx.dnf, neg)).deeper()
                        if neg is not None
                        else ctx.deeper(approx=True)
                    )
                self._body(stmt.then, then_ctx)
                if stmt.orelse:
                    self._body(stmt.orelse, else_ctx)
            elif isinstance(stmt, For):
                self._loads_in(stmt.lo, ctx)
                self._loads_in(stmt.hi, ctx)
                it = f"it{next(self._iter_count)}"
                try:
                    lo = _affine(stmt.lo, self.env)
                    hi = _affine(stmt.hi, self.env)
                    bounds: Conj = (
                        (Kind.INEQ, SymAff.of(it).sub(lo)),  # it >= lo
                        (Kind.INEQ, hi.sub(SymAff.of(it)).add(SymAff.constant(-1))),  # it < hi
                    )
                    inner = ctx.with_dnf(_dnf_and(ctx.dnf, (bounds,)))
                    inner = inner.with_iterators(ctx.iterators + (it,)).deeper()
                except NonAffineError:
                    inner = ctx.with_iterators(ctx.iterators + (it,)).deeper(approx=True)
                saved = self.env.locals.get(stmt.var)
                self.env.locals[stmt.var] = SymAff.of(it)
                self._body(stmt.body, inner)
                if saved is None:
                    self.env.locals.pop(stmt.var, None)
                else:  # pragma: no cover - shadowing is rejected by the validator
                    self.env.locals[stmt.var] = saved
            else:
                raise AnalysisError(f"unknown statement {stmt!r}")


@dataclass(frozen=True)
class _Ctx:
    dnf: Dnf
    iterators: Tuple[str, ...]
    depth: int
    approx: bool

    def with_dnf(self, dnf: Dnf) -> "_Ctx":
        return _Ctx(dnf, self.iterators, self.depth, self.approx)

    def with_iterators(self, iterators: Tuple[str, ...]) -> "_Ctx":
        return _Ctx(self.dnf, iterators, self.depth, self.approx)

    def deeper(self, approx: bool = False) -> "_Ctx":
        return _Ctx(self.dnf, self.iterators, self.depth + 1, self.approx or approx)


def _walk(expr: Expr):
    yield expr
    if isinstance(expr, BinOp):
        yield from _walk(expr.lhs)
        yield from _walk(expr.rhs)
    elif isinstance(expr, UnOp):
        yield from _walk(expr.operand)
    elif isinstance(expr, Call):
        for a in expr.args:
            yield from _walk(a)
    elif isinstance(expr, Select):
        yield from _walk(expr.cond)
        yield from _walk(expr.on_true)
        yield from _walk(expr.on_false)
    elif isinstance(expr, Load):
        for i in expr.indices:
            yield from _walk(i)


# ---------------------------------------------------------------------------
# Raw accesses -> polyhedral maps
# ---------------------------------------------------------------------------


@dataclass
class ArrayAccess:
    """The combined polyhedral access map of one (array, mode) pair."""

    array: str
    mode: str
    access_map: Map  # Z^6 -> Z^d
    exact: bool
    may: bool
    #: The same relation over global-thread-id inputs, when every access
    #: fits the gid pattern (coeff(blockOff.w) == coeff(threadIdx.w),
    #: coeff(blockIdx.w) == 0); used by the injectivity check.
    gid_map: Optional[Map] = None
    #: For inexact 1-D write maps: the term structure needed by the
    #: launch-time coverage validation (:mod:`repro.compiler.coverage`).
    #: None when the accesses don't qualify for runtime validation.
    coverage: Optional["CoverageSpec"] = None
    #: True when this map was supplied by the programmer
    #: (:mod:`repro.compiler.annotations`, the paper's §11 remedy);
    #: legality trusts annotated maps.
    annotated: bool = False


@dataclass
class KernelAccessInfo:
    """Result of :func:`analyze_kernel` for one kernel."""

    kernel: Kernel
    reads: Dict[str, ArrayAccess]
    writes: Dict[str, ArrayAccess]
    partitionable: bool
    reject_reason: Optional[str] = None
    #: Arrays whose writes could not be modelled (candidates for the
    #: programmer annotations of :mod:`repro.compiler.annotations`).
    nonaffine_write_arrays: frozenset = frozenset()
    #: The thread-granular accesses the maps were built from, in source
    #: order (consumed by the static-analysis passes of :mod:`repro.analysis`).
    raw_accesses: Tuple[RawAccess, ...] = ()


def _kernel_params(kernel: Kernel) -> Tuple[str, ...]:
    scalars = tuple(p.name for p in kernel.scalar_params if not p.dtype.is_float)
    return GRID_PARAMS + scalars


def _shape_affs(array: ArrayParam, env: _AffineEnv) -> Optional[Tuple[SymAff, ...]]:
    try:
        return tuple(_affine(e, env) for e in array.shape)
    except NonAffineError:
        return None


def _full_array_map(
    space: Space, shape: Optional[Tuple[SymAff, ...]]
) -> BasicMap:
    """The over-approximation 'touches every element of the array'."""
    cons: List[Constraint] = []
    if shape is not None:
        for j, extent in enumerate(shape):
            a = Aff.var(space, f"a{j}")
            cons.append(Constraint.ineq(a))
            cons.append(Constraint.ineq(extent.to_aff(space) - a - 1))
    bm = BasicMap(space, cons)
    return BasicMap._wrap(space, bm.bset._with_exact(False))


def _ti_box(space: Space) -> List[Constraint]:
    cons = []
    for w in ("z", "y", "x"):
        ti = Aff.var(space, f"ti_{w}")
        bd = Aff.var(space, f"bd_{w}")
        cons.append(Constraint.ineq(ti))
        cons.append(Constraint.ineq(bd - ti - 1))
    return cons


def _build_maps(
    raw: _RawAccess,
    ndim: int,
    params: Tuple[str, ...],
    shape: Optional[Tuple[SymAff, ...]],
) -> Tuple[Map, Optional[Map], bool]:
    """One raw access -> (Z^6 map, gid map or None, exact)."""
    out_dims = tuple(f"a{j}" for j in range(ndim))
    space9 = Space.map_space(IN_DIMS9 + raw.iterators, out_dims, params)

    disjuncts: List[BasicMap] = []
    exact = not raw.approx_domain
    if raw.indices is None:
        full = _full_array_map(Space.map_space(IN_DIMS6, out_dims, params), shape)
        return Map.from_basic(full), None, False

    for conj in raw.domain:
        cons: List[Constraint] = []
        for j, idx in enumerate(raw.indices):
            cons.append(
                Constraint.eq(Aff.var(space9, f"a{j}") - idx.to_aff(space9))
            )
        for kind, aff in conj:
            cons.append(Constraint(kind, aff.to_aff(space9).vec))
        cons.extend(_ti_box(space9))
        if shape is not None:
            for j, extent in enumerate(shape):
                a = Aff.var(space9, f"a{j}")
                cons.append(Constraint.ineq(a))
                cons.append(Constraint.ineq(extent.to_aff(space9) - a - 1))
        bm = BasicMap(space9, cons)
        projected = bm.bset.project_out(raw.iterators + ("ti_z", "ti_y", "ti_x"))
        exact = exact and projected.exact
        space6 = Space.map_space(IN_DIMS6, out_dims, params)
        from repro.poly.basic_set import _rebind_constraint

        disjuncts.append(
            BasicMap(
                space6,
                [_rebind_constraint(c, projected.space, space6) for c in projected.constraints],
                exact=projected.exact and not raw.approx_domain,
            )
        )

    space6 = Space.map_space(IN_DIMS6, out_dims, params)
    z6 = Map(space6, disjuncts)

    gid = _gid_map(raw, ndim, params, shape)
    return z6, gid, exact


def _gid_fits(aff: SymAff) -> bool:
    """True if an affine form uses grid dims only through bo+ti pairs."""
    for w in ("z", "y", "x"):
        if aff.coeff(f"bi_{w}") != 0:
            return False
        if aff.coeff(f"bo_{w}") != aff.coeff(f"ti_{w}"):
            return False
    return True


def _gid_rename(aff: SymAff) -> SymAff:
    """Rewrite ``c*(bo_w + ti_w)`` into ``c*g_w`` (requires :func:`_gid_fits`)."""
    out = aff
    for w in ("z", "y", "x"):
        c = out.coeff(f"bo_{w}")
        t = dict(out.terms)
        t.pop(f"bo_{w}", None)
        t.pop(f"ti_{w}", None)
        if c != 0:
            t[f"g_{w}"] = t.get(f"g_{w}", 0) + c
        out = SymAff(out.const, _norm(t))
    return out


def _gid_map(
    raw: _RawAccess,
    ndim: int,
    params: Tuple[str, ...],
    shape: Optional[Tuple[SymAff, ...]],
) -> Optional[Map]:
    if raw.indices is None:
        return None
    for idx in raw.indices:
        if not _gid_fits(idx):
            return None
    for conj in raw.domain:
        for _, aff in conj:
            if not _gid_fits(aff):
                return None
    out_dims = tuple(f"a{j}" for j in range(ndim))
    space = Space.map_space(GID_DIMS + raw.iterators, out_dims, params)
    disjuncts = []
    for conj in raw.domain:
        cons: List[Constraint] = []
        # Global ids are non-negative in every launch (blockOff >= 0 and
        # threadIdx >= 0); flat-indexed kernels need this for injectivity.
        for g in GID_DIMS:
            cons.append(Constraint.ineq(Aff.var(space, g)))
        for j, idx in enumerate(raw.indices):
            cons.append(
                Constraint.eq(Aff.var(space, f"a{j}") - _gid_rename(idx).to_aff(space))
            )
        for kind, aff in conj:
            cons.append(Constraint(kind, _gid_rename(aff).to_aff(space).vec))
        if shape is not None:
            for j, extent in enumerate(shape):
                a = Aff.var(space, f"a{j}")
                cons.append(Constraint.ineq(a))
                cons.append(Constraint.ineq(extent.to_aff(space) - a - 1))
        bm = BasicMap(space, cons)
        if raw.iterators:
            projected = bm.bset.project_out(raw.iterators)
            space3 = Space.map_space(GID_DIMS, out_dims, params)
            from repro.poly.basic_set import _rebind_constraint

            bm = BasicMap(
                space3,
                [_rebind_constraint(c, projected.space, space3) for c in projected.constraints],
                exact=projected.exact,
            )
        disjuncts.append(bm)
    space3 = Space.map_space(GID_DIMS, out_dims, params)
    return Map(space3, disjuncts)


def _coverage_disjuncts(raw: _RawAccess):
    """CoverageDisjuncts for one raw write access, or None if unsupported.

    Qualification: 1-D affine subscript over grid dimensions only (no loop
    iterators, no symbolic parameters) with grid-dimension-only guards.
    """
    from repro.compiler.coverage import CoverageDisjunct, CoverageTerm, GuardSpec
    from repro.poly.constraint import Kind as _Kind

    if raw.indices is None or len(raw.indices) != 1 or raw.approx_domain:
        return None
    idx = raw.indices[0]
    if any(name not in IN_DIMS9 for name in idx.names()):
        return None
    terms = tuple(CoverageTerm(d, c) for d, c in idx.terms)
    out = []
    for conj in raw.domain:
        guards = []
        for kind, aff in conj:
            if any(name not in IN_DIMS9 for name in aff.names()):
                return None
            gterms = tuple(CoverageTerm(d, c) for d, c in aff.terms)
            guards.append(GuardSpec(aff.const, gterms))
            if kind is _Kind.EQ:
                guards.append(
                    GuardSpec(-aff.const, tuple(CoverageTerm(t.dim, -t.coeff) for t in gterms))
                )
        out.append(CoverageDisjunct(idx.const, terms, tuple(guards)))
    return out


def analyze_kernel(kernel: Kernel) -> KernelAccessInfo:
    """Build the polyhedral application model of one kernel (paper §4)."""
    kernel = encapsulate_block_offsets(kernel)
    collector = _Collector(kernel)
    collector.run()

    params = _kernel_params(kernel)
    arrays = {p.name: p for p in kernel.array_params}
    env = _AffineEnv([p.name for p in kernel.scalar_params if not p.dtype.is_float])

    reads: Dict[str, ArrayAccess] = {}
    writes: Dict[str, ArrayAccess] = {}
    partitionable = True
    reason: Optional[str] = None

    coverage_lists: Dict[str, Optional[list]] = {}
    nonaffine_writes: set = set()
    for raw in collector.accesses:
        array = arrays[raw.array]
        shape = _shape_affs(array, env)
        z6, gid, exact = _build_maps(raw, array.ndim, params, shape)
        if raw.mode == "write":
            disjuncts = _coverage_disjuncts(raw)
            if raw.array not in coverage_lists:
                coverage_lists[raw.array] = [] if disjuncts is not None else None
            if disjuncts is None:
                coverage_lists[raw.array] = None
            elif coverage_lists[raw.array] is not None:
                coverage_lists[raw.array].extend(disjuncts)
        bucket = reads if raw.mode == "read" else writes
        if raw.array in bucket:
            prev = bucket[raw.array]
            prev.access_map = prev.access_map.union(z6)
            prev.exact = prev.exact and exact
            prev.may = prev.may or raw.may
            if prev.gid_map is not None and gid is not None:
                prev.gid_map = prev.gid_map.union(gid)
            else:
                prev.gid_map = None
        else:
            bucket[raw.array] = ArrayAccess(
                array=raw.array,
                mode=raw.mode,
                access_map=z6,
                exact=exact,
                may=raw.may,
                gid_map=gid,
            )
        if raw.mode == "write" and (raw.indices is None or raw.approx_domain):
            partitionable = False
            nonaffine_writes.add(raw.array)
            reason = (
                f"write to {raw.array!r} cannot be modelled exactly "
                f"({'non-affine subscript' if raw.indices is None else 'non-affine guard'})"
            )

    from repro.compiler.coverage import CoverageSpec

    for name, disjuncts in coverage_lists.items():
        if disjuncts is not None and name in writes:
            writes[name].coverage = CoverageSpec(name, tuple(disjuncts))

    return KernelAccessInfo(
        kernel=kernel,
        reads=reads,
        writes=writes,
        partitionable=partitionable,
        reject_reason=reason,
        nonaffine_write_arrays=frozenset(nonaffine_writes),
        raw_accesses=tuple(collector.accesses),
    )
