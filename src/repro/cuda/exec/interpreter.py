"""Mini-CUDA kernels rendered once to numpy programs.

A kernel executes for every thread of a launch grid *at once*: each IR
expression evaluates to a numpy array over the flat lane axis (one lane per
thread). Structured control flow becomes lane masking — ``If`` narrows the
active mask, loops with lane-varying bounds iterate over the union range
with per-lane activity. This follows the numpy-vectorization idiom (no
per-thread Python loops) while preserving CUDA's semantics:

* thread blocks are independent (nothing here synchronizes lanes);
* arrays are row-major and shared across all lanes;
* concurrent writes to one cell have no defined order (numpy fancy-index
  assignment keeps the last occurrence, a valid realization).

Each :class:`~repro.cuda.ir.kernel.Kernel` is rendered once, on its first
run, into the Python source of one function over numpy and compiled in the
idiom of :mod:`repro.poly.codegen`; the program is memoized on the kernel
object, so it lives exactly as long as the compiled image holding the
kernel. Lane coordinates and locals are Python locals, expressions are
nested Python expressions (numpy can still elide their temporaries), and
the numpy calls are those of a lane-vectorized tree walk, in its order, so
dtype promotion and last-occurrence scatter writes follow from the IR
alone. Where the program departs from that, the result is the same array:

* pure integer lane-index expressions (grid registers, integer scalars,
  ``+ - * min max``, comparisons), which cannot raise or warn, are computed
  once per launch and shared;
* a bounds check is one ``min``/``max`` per index; the exact
  :class:`~repro.errors.ExecutionError` is rebuilt only when it fails;
* a body whose mask is all true loads and stores unmasked;
* a load at one element for every lane reads it once and fills the lanes.

Only the traced variant (``run_kernel(..., trace=...)``) records into an
:class:`AccessTrace`; the tree walker that used to run kernels is kept in
the test suite as the oracle the rendered programs are held to.
"""

from __future__ import annotations

import itertools
import math
import weakref
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import DType
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
from repro.cuda.ir.kernel import ArrayParam, Kernel, PartitionParam
from repro.cuda.ir.stmts import Assign, Body, For, If, Let, Store
from repro.errors import ExecutionError

__all__ = ["run_kernel", "eval_scalar_expr", "AccessTrace"]


class AccessTrace:
    """Ground-truth access record of one launch (instrumented execution).

    Collects, per array argument, the set of *flattened* element indices
    actually loaded and stored by active threads. Used by the property
    tests to validate the polyhedral access analysis against reality, and
    by debug tooling to audit scanned write sets.

    With ``record_lanes=True`` the trace additionally keeps, per array and
    per written cell, the set of *lane ids* that stored to it (``writers``).
    Lane ids follow the flat lane order of :func:`lane_coordinate` — blocks
    in z,y,x-major order, then threads within the block. This is the replay
    hook the static race detector (:mod:`repro.analysis.replay`) uses to
    confirm that both threads of a witness really write the same cell.
    """

    def __init__(self, *, record_lanes: bool = False) -> None:
        self.reads: Dict[str, set] = {}
        self.writes: Dict[str, set] = {}
        self.record_lanes = record_lanes
        #: ``{array: {flat_cell_index: {lane_id, ...}}}`` (only populated
        #: when ``record_lanes`` is set).
        self.writers: Dict[str, Dict[int, set]] = {}
        self.readers: Dict[str, Dict[int, set]] = {}

    @staticmethod
    def _record_lanes(per_cell: Dict[int, set], flat_indices, lane_ids) -> None:
        cells = np.asarray(flat_indices).ravel().tolist()
        lanes = np.asarray(lane_ids).ravel().tolist()
        for cell, lane in zip(cells, lanes):
            per_cell.setdefault(int(cell), set()).add(int(lane))

    def record_read(self, array: str, flat_indices, lane_ids=None) -> None:
        self.reads.setdefault(array, set()).update(np.unique(flat_indices).tolist())
        if self.record_lanes and lane_ids is not None:
            self._record_lanes(self.readers.setdefault(array, {}), flat_indices, lane_ids)

    def record_write(self, array: str, flat_indices, lane_ids=None) -> None:
        self.writes.setdefault(array, set()).update(np.unique(flat_indices).tolist())
        if self.record_lanes and lane_ids is not None:
            self._record_lanes(self.writers.setdefault(array, {}), flat_indices, lane_ids)


#: The six lane coordinates, in the order of a launch's extents.
_LANE_AXES = tuple(f"{reg}_{axis}" for reg in ("blockIdx", "threadIdx") for axis in "zyx")


def lane_coordinate(extents: Tuple[int, ...], axis: int) -> np.ndarray:
    """Coordinate ``axis`` of every lane, as a flat int64 array.

    ``extents`` are a launch's ``grid.zyx() + block.zyx()``, and ``axis``
    indexes them: 0-2 give ``blockIdx.z/y/x``, 3-5 ``threadIdx.z/y/x``.
    Lane order: blocks in z,y,x-major order, then threads within the block
    in z,y,x-major order (row ``axis`` of ``np.indices(extents)``).
    """
    shape = [1] * len(extents)
    shape[axis] = extents[axis]
    out = np.empty(extents, dtype=np.int64)
    out[...] = np.arange(extents[axis], dtype=np.int64).reshape(shape)
    return out.reshape(-1)


# -- runtime helpers of the rendered programs ------------------------------------------


def _np_const(value, dtype: DType):
    return np.asarray(value, dtype=dtype.to_numpy())[()]


def _raise_oob(idx_b, d: int, ext: int, mask, word: str) -> None:
    """Raise the bounds error of the first bad active lane, if there is one."""
    bad = (idx_b < 0) | (idx_b >= ext)
    if mask is not None:
        bad = bad & mask
    if np.any(bad):
        lane = int(np.argmax(bad))
        raise ExecutionError(
            f"out-of-bounds {word} {int(idx_b[lane])} in dim {d} (extent {ext})"
        )


def _ix(i, d: int, arr, n: int, g):
    """Checked index of dim ``d`` of a load; inactive lanes (``g``) read 0."""
    idx = np.asarray(i)
    ext = arr.shape[d]
    if idx.ndim == 0:
        idx_b = np.broadcast_to(idx, (n,))
        if not 0 <= idx < ext:
            _raise_oob(idx_b, d, ext, g, "index")
        return idx_b if g is None else np.where(g, idx_b, 0)
    safe = idx if g is None else np.where(g, idx, 0)
    if safe.min() < 0 or safe.max() >= ext:
        _raise_oob(idx, d, ext, g, "index")
    return safe


def _sx(i, d: int, arr, n: int, m, g):
    """Checked index of dim ``d`` of a store: every lane, or the active ones."""
    idx = np.asarray(i)
    ext = arr.shape[d]
    idx_b = np.broadcast_to(idx, (n,)) if idx.ndim == 0 else idx
    sel = idx_b if g is None else idx_b[g]
    if idx.ndim == 0:
        bad = not 0 <= idx < ext
    else:
        bad = sel.min() < 0 or sel.max() >= ext
    if bad:
        _raise_oob(idx_b, d, ext, g, "index" if m is None else "store index")
    return sel


def _st(arr, g, n: int, value, *idx) -> None:
    value = np.asarray(value, dtype=arr.dtype)
    value_b = np.broadcast_to(value, (n,)) if value.ndim == 0 else value
    arr[idx] = value_b if g is None else value_b[g]


def _iu(i, d: int, arr):
    """Checked uniform (scalar) index of dim ``d`` of a load."""
    ext = arr.shape[d]
    if not 0 <= i < ext:
        raise ExecutionError(f"out-of-bounds index {int(i)} in dim {d} (extent {ext})")
    return i


def _ldu(arr, g, n: int, *idx):
    """A load at one element for every lane; inactive lanes read element 0."""
    value = arr[idx]
    if g is not None:
        return np.where(g, value, arr[(0,) * arr.ndim])
    out = np.empty(n, dtype=value.dtype)
    out.fill(value)
    return out


def _ld_traced(trace: AccessTrace, name: str, arr, g, n: int, idx):
    flat = np.ravel_multi_index(idx if g is None else tuple(s[g] for s in idx), arr.shape)
    trace.record_read(name, flat, np.arange(n) if g is None else np.nonzero(g)[0])
    return arr[idx]


def _st_traced(trace: AccessTrace, name: str, arr, g, n: int, value, *idx) -> None:
    lanes = np.arange(n) if g is None else np.nonzero(g)[0]
    trace.record_write(name, np.ravel_multi_index(idx, arr.shape), lanes)
    _st(arr, g, n, value, *idx)


def _lane_range(n: int, mask, lo, hi):
    """Union iteration range of a loop with lane-varying bounds."""
    lo_b = np.broadcast_to(lo, (n,))
    hi_b = np.broadcast_to(hi, (n,))
    active = mask if mask is not None else np.ones(n, dtype=bool)
    if np.any(hi_b[active] > lo_b[active]):
        return range(int(lo_b[active].min()), int(hi_b[active].max())), active, lo_b, hi_b
    return range(0), active, lo_b, hi_b


def _div(a, b):
    # Float division for floats; floor division for integers (the IR's
    # kernels use explicit fdiv for index math, so this path is rare).
    if np.asarray(a).dtype.kind == "f" or np.asarray(b).dtype.kind == "f":
        return a / b
    return a // b


def _unbound(name: str):
    raise ExecutionError(f"unbound name {name!r} during execution")


def _not_array(name: str):
    raise ExecutionError(f"array argument {name!r} is not bound to an ndarray")


def _unknown(what: str):
    raise ExecutionError(what)


def _scalar_arg(values: Mapping[str, object], name: str):
    if name not in values:
        _unbound(name)
    return np.asarray(values[name])[()]


# -- the renderer ----------------------------------------------------------------------

_BINOPS = {
    "add": "({} + {})",
    "sub": "({} - {})",
    "mul": "({} * {})",
    "div": "_div({}, {})",
    "fdiv": "({} // {})",
    "mod": "({} % {})",
    "min": "_np.minimum({}, {})",
    "max": "_np.maximum({}, {})",
    "lt": "({} < {})",
    "le": "({} <= {})",
    "gt": "({} > {})",
    "ge": "({} >= {})",
    "eq": "({} == {})",
    "ne": "({} != {})",
    "and": "_np.logical_and({}, {})",
    "or": "_np.logical_or({}, {})",
}
_CALLS = {
    "sqrt": "_np.sqrt({})",
    "rsqrt": "_np.reciprocal(_np.sqrt({}))",
    "abs": "_np.abs({})",
    "exp": "_np.exp({})",
    "log": "_np.log({})",
    "pow": "_np.power({}, {})",
    "floor": "_np.floor({})",
}
#: Integer/boolean ops that never raise or warn on lane arrays.
_QUIET_OPS = frozenset(("add", "sub", "mul", "min", "max", "lt", "le", "gt", "ge", "eq", "ne",
                        "and", "or"))
#: The subset that also never warns on two numpy scalars (no overflow).
_QUIET_SCALAR_OPS = _QUIET_OPS - {"add", "sub", "mul"}
_LANE_REGISTERS = ("threadIdx", "blockIdx", "blockOff")
_DIM_AXES = tuple(f"{reg}_{axis}" for reg in ("gridDim", "blockDim") for axis in "zyx")
_HELPERS = {
    "_np": np, "_i64": np.int64, "_ix": _ix, "_sx": _sx, "_st": _st, "_ld_traced": _ld_traced,
    "_st_traced": _st_traced, "_lane_range": _lane_range, "_div": _div, "_unbound": _unbound,
    "_not_array": _not_array, "_unknown": _unknown, "_scalar_arg": _scalar_arg,
    "_iu": _iu, "_ldu": _ldu, "_np_const": _np_const,
    "_coord": lane_coordinate,
}
_counter = itertools.count()


def _py_name(name: str) -> str:
    """The Python local of an IR name (params, locals, loop variables)."""
    return "v_" + (name if name.isidentifier() else "_" + name.encode().hex())


class _Renderer:
    """Renders one kernel (or one scalar expression) as Python source.

    A body is rendered against its scope's mask variables: ``m`` is the
    mask a tree walk would carry (``None`` outside every ``If`` and
    lane-varying loop), and ``g`` the one loads and stores apply (``None``
    also when ``m`` is all true).
    """

    def __init__(self, kernel: Optional[Kernel], traced: bool) -> None:
        self.traced = traced
        self.ns: Dict[str, object] = dict(_HELPERS)
        self.consts: Dict[int, str] = {}
        #: Parameter bindings, hoisted lane expressions, then the body.
        self.head: List[str] = []
        self.pre: List[str] = []
        self.lines: List[str] = []
        self.hoistable: Set[int] = set()
        self.hoisted: Set[int] = set()
        self.cse: Dict[object, int] = {}
        self.cse_ids: Dict[int, int] = {}
        self.kinds: Dict[int, str] = {}
        self.scopes = itertools.count(1)
        #: Grid registers the program reads (its prelude computes only these).
        self.registers: Set[str] = set()
        self.arrays: Set[str] = set()
        #: Names that hold one numpy scalar for the whole launch, and the
        #: integer ones among the parameters.
        self.uniform: Set[str] = set()
        self.ints: Set[str] = set()
        if kernel is not None:
            found = _bindings(kernel.body)
            locals_ = found[Let] | found[Assign]
            for p in kernel.params:
                if isinstance(p, ArrayParam):
                    self.arrays.add(p.name)
                else:
                    self.uniform.update(_param_names(p))
                    if isinstance(p, PartitionParam) or not p.dtype.is_float:
                        self.ints.update(_param_names(p))
            # A parameter shadowed by a local is not launch-invariant.
            self.uniform -= locals_ | found[For]
            self.plan_hoisting(kernel)
            # Loop variables are uniform, but not pure: only loads use this.
            self.uniform |= found[For] - locals_

    # -- classification ----------------------------------------------------------------

    def _kind(self, e: Expr) -> str:
        """``"lane"`` (integer lane array), ``"scalar"`` (integer numpy
        scalar) or ``""``; the first two never read memory, raise or warn."""
        key = id(e)
        if key in self.kinds:
            return self.kinds[key]
        kind = ""
        if isinstance(e, GridIdx):
            kind = "lane" if e.register in _LANE_REGISTERS else "scalar"
        elif isinstance(e, Const):
            kind = "" if e.dtype.is_float else "scalar"
        elif isinstance(e, Param):
            kind = "scalar" if e.name in self.uniform and e.name in self.ints else ""
        elif isinstance(e, BinOp) and e.op in _QUIET_OPS:
            kinds = {self._kind(e.lhs), self._kind(e.rhs)}
            if "" not in kinds:
                if "lane" in kinds:
                    kind = "lane"
                elif e.op in _QUIET_SCALAR_OPS:
                    kind = "scalar"
        elif isinstance(e, UnOp):
            inner = self._kind(e.operand)
            kind = inner if (inner == "lane" or e.op == "not") else ""
        self.kinds[key] = kind
        return kind

    def _is_uniform(self, e: Expr) -> bool:
        """Whether ``e`` is one value for every lane (no lane register, no
        load, no local but loop variables)."""
        if isinstance(e, GridIdx):
            return e.register not in _LANE_REGISTERS
        if isinstance(e, (Param, LocalRef)):
            return e.name in self.uniform
        if isinstance(e, Load):
            return False
        return all(self._is_uniform(c) for c in _children(e))

    def plan_hoisting(self, kernel: Kernel) -> None:
        """Mark lane expressions worth computing once per launch: those used
        twice or more (or once inside a loop) either as a whole or under two
        different parent expressions."""
        weight: Dict[int, int] = {}
        parents: Dict[int, Set] = {}

        def visit(e: Expr, parent, in_loop: bool) -> None:
            lane = self._kind(e) == "lane"
            if lane:
                key = self._cse(e)
                weight[key] = weight.get(key, 0) + (2 if in_loop else 1)
                parents.setdefault(key, set()).add(parent)
            for child in _children(e):
                visit(child, self._cse(e) if lane else None, in_loop)

        def walk(body: Body, in_loop: bool) -> None:
            for s in body:
                for e in _stmt_exprs(s):
                    visit(e, None, in_loop)
                if isinstance(s, If):
                    walk(s.then, in_loop)
                    walk(s.orelse, in_loop)
                elif isinstance(s, For):
                    walk(s.body, True)

        walk(kernel.body, False)
        self.hoistable = {
            k for k, w in weight.items() if w >= 2 and (None in parents[k] or len(parents[k]) > 1)
        }

    def _cse(self, e: Expr) -> int:
        """A structural number of a lane expression: equal trees, equal
        numbers (hash-consed bottom up, so no deep hash per node)."""
        got = self.cse_ids.get(id(e))
        if got is None:
            key = (type(e), e.op, *map(self._cse, _children(e))) if _children(e) else e
            got = self.cse_ids[id(e)] = self.cse.setdefault(key, len(self.cse))
        return got

    # -- expressions -------------------------------------------------------------------

    def const(self, e: Const) -> str:
        # Keyed by node, not value: 0.0 == -0.0, but their bits differ.
        key = id(e)
        if key not in self.consts:
            name = f"_K{len(self.consts)}"
            try:
                self.ns[name] = _np_const(e.value, e.dtype)
            except (OverflowError, TypeError, ValueError):  # raise where it is used
                self.ns[name] = (e.value, e.dtype)
                name = f"_np_const(*{name})"
            self.consts[key] = name
        return self.consts[key]

    def ref(self, name: str, env: Set[str]) -> str:
        return _py_name(name) if name in env else f"_unbound({name!r})"

    def hoisted_id(self, e: Expr) -> Optional[int]:
        """The number of ``e``'s launch-invariant local ``_h<n>``, or None."""
        key = self._cse(e) if self.kinds.get(id(e)) == "lane" else None
        if key not in self.hoistable:
            return None
        if key not in self.hoisted:
            self.hoisted.add(key)
            self.pre.append(f"    _h{key} = {self._expr(e, self.uniform, 'None')}")
        return key

    def expr(self, e: Expr, env: Set[str], g: str) -> str:
        h = self.hoisted_id(e)
        return f"_h{h}" if h is not None else self._expr(e, env, g)

    def _expr(self, e: Expr, env: Set[str], g: str) -> str:
        if isinstance(e, Const):
            return self.const(e)
        if isinstance(e, GridIdx):
            if e.register == "blockOff":  # blockIdx.w * blockDim.w (Section 4.1)
                self.registers.update((f"blockIdx_{e.axis}", f"blockDim_{e.axis}"))
                return f"(blockIdx_{e.axis} * blockDim_{e.axis})"
            self.registers.add(f"{e.register}_{e.axis}")
            return f"{e.register}_{e.axis}"
        if isinstance(e, (Param, LocalRef)):
            return self.ref(e.name, env)
        if isinstance(e, BinOp):
            return _BINOPS[e.op].format(self.expr(e.lhs, env, g), self.expr(e.rhs, env, g))
        if isinstance(e, UnOp):
            v = self.expr(e.operand, env, g)
            return f"_np.logical_not({v})" if e.op == "not" else f"(-{v})"
        if isinstance(e, Call):
            return _CALLS[e.fn].format(*(self.expr(a, env, g) for a in e.args))
        if isinstance(e, Select):
            parts = (self.expr(x, env, g) for x in (e.cond, e.on_true, e.on_false))
            return "_np.where({}, {}, {})".format(*parts)
        if isinstance(e, Load):
            if e.array not in self.arrays:
                return f"_not_array({e.array!r})"
            arr = _py_name(e.array)
            if e.indices and not self.traced and all(map(self._is_uniform, e.indices)):
                idx = "".join(
                    f", _iu({self.expr(i, env, g)}, {d}, {arr})"
                    for d, i in enumerate(e.indices)
                )
                return f"_ldu({arr}, {g}, _n{idx})"
            idx = "".join(
                f"_ix({self.expr(i, env, g)}, {d}, {arr}, _n, {g}), "
                for d, i in enumerate(e.indices)
            )
            if self.traced:
                return f"_ld_traced(_T, {e.array!r}, {arr}, {g}, _n, ({idx}))"
            return f"{arr}[{idx or '()'}]"
        return f"_unknown({f'unknown expression node {e!r}'!r})"

    # -- statements --------------------------------------------------------------------

    def body(self, body: Body, pad: str, m: str, g: str, env: Set[str]) -> None:
        start = len(self.lines)
        for s in body:
            self.stmt(s, pad, m, g, env)
        if len(self.lines) == start:
            self.lines.append(f"{pad}pass")

    def stmt(self, s, pad: str, m: str, g: str, env: Set[str]) -> None:
        out = self.lines.append
        if isinstance(s, Let):
            out(f"{pad}{_py_name(s.name)} = {self.expr(s.value, env, g)}")
            env.add(s.name)
        elif isinstance(s, Assign):
            new = self.expr(s.value, env, g)
            name = _py_name(s.name)
            if s.name not in env:
                out(f"{pad}_t = {new}")
                out(f"{pad}raise KeyError({s.name!r})")
            elif m == "None":
                out(f"{pad}{name} = {new}")
            else:
                out(f"{pad}_t = {new}")
                out(f"{pad}{name} = _t if {m} is None else _np.where({m}, _t, {name})")
        elif isinstance(s, Store):
            if s.array not in self.arrays:
                out(f"{pad}_not_array({s.array!r})")
                return
            arr = _py_name(s.array)
            value = self.expr(s.value, env, g)
            idx = "".join(
                f", _sx({self.expr(i, env, g)}, {d}, {arr}, _n, {m}, {g})"
                for d, i in enumerate(s.indices)
            )
            if self.traced:
                out(f"{pad}_st_traced(_T, {s.array!r}, {arr}, {g}, _n, {value}{idx})")
            else:
                out(f"{pad}_st({arr}, {g}, _n, {value}{idx})")
        elif isinstance(s, If):
            k = next(self.scopes)
            c = f"_c{k}"
            out(f"{pad}{c} = _np.asarray({self.expr(s.cond, env, g)})")
            out(f"{pad}if {c}.ndim == 0:")
            out(f"{pad}    {c} = _np.broadcast_to({c}, (_n,))")
            for suffix, neg, body in (("", "", s.then), ("e", "~", s.orelse)):
                if suffix and not body:
                    break
                bm, bg = f"_m{k}{suffix}", f"_g{k}{suffix}"
                if m == "None":
                    out(f"{pad}{bm} = {neg}{c}")
                else:
                    out(f"{pad}{bm} = {neg}{c} if {m} is None else ({m} & {neg}{c})")
                out(f"{pad}if {bm}.any():")
                out(f"{pad}    {bg} = None if {bm}.all() else {bm}")
                self.body(body, pad + "    ", bm, bg, set(env))
        elif isinstance(s, For):
            k = next(self.scopes)
            lo, hi, r, a = f"_lo{k}", f"_hi{k}", f"_r{k}", f"_a{k}"
            bm, bg = f"_m{k}", f"_g{k}"
            out(f"{pad}{lo} = _np.asarray({self.expr(s.lo, env, g)})")
            out(f"{pad}{hi} = _np.asarray({self.expr(s.hi, env, g)})")
            out(f"{pad}if {lo}.ndim == 0 and {hi}.ndim == 0:")
            out(f"{pad}    {r}, {a} = range(int({lo}), int({hi})), None")
            out(f"{pad}    {bm}, {bg} = {m}, {g}")
            out(f"{pad}else:")
            out(f"{pad}    {r}, {a}, {lo}, {hi} = _lane_range(_n, {m}, {lo}, {hi})")
            out(f"{pad}for _k{k} in {r}:")
            out(f"{pad}    if {a} is not None:")
            out(f"{pad}        {bm} = {a} & ({lo} <= _k{k}) & (_k{k} < {hi})")
            out(f"{pad}        if not {bm}.any():")
            out(f"{pad}            continue")
            out(f"{pad}        {bg} = None if {bm}.all() else {bm}")
            out(f"{pad}    {_py_name(s.var)} = _i64(_k{k})")
            self.body(s.body, pad + "    ", bm, bg, set(env) | {s.var})
        else:
            out(f"{pad}_unknown({f'unknown statement {s!r}'!r})")

    # -- whole functions ---------------------------------------------------------------

    def compile(self, fn_name: str, tag: str, args: str) -> Callable:
        prelude = [f"    {name} = _coord(_e, {i})" for i, name in enumerate(_LANE_AXES)
                   if name in self.registers]
        prelude += [f"    {name} = _i64(_e[{i}])" for i, name in enumerate(_DIM_AXES)
                    if name in self.registers]
        lines = [f"def {fn_name}({args}):", *prelude, *self.head, *self.pre, *self.lines]
        source = "\n".join(lines) + "\n"
        code = compile(source, filename=f"<{tag}:{fn_name}>", mode="exec")
        exec(code, self.ns)  # noqa: S102 - compiling our own generated source
        return self.ns[fn_name]


def _children(e: Expr) -> Tuple[Expr, ...]:
    if isinstance(e, BinOp):
        return (e.lhs, e.rhs)
    if isinstance(e, UnOp):
        return (e.operand,)
    if isinstance(e, Call):
        return tuple(e.args)
    if isinstance(e, Select):
        return (e.cond, e.on_true, e.on_false)
    if isinstance(e, Load):
        return tuple(e.indices)
    return ()


def _bindings(body: Body, found: Optional[Dict[type, Set[str]]] = None) -> Dict[type, Set[str]]:
    """The names each statement kind (``Let``, ``Assign``, ``For``) binds."""
    found = found if found is not None else {Let: set(), Assign: set(), For: set()}
    for s in body:
        if isinstance(s, (Let, Assign)):
            found[type(s)].add(s.name)
        elif isinstance(s, If):
            _bindings(s.then, found)
            _bindings(s.orelse, found)
        elif isinstance(s, For):
            found[For].add(s.var)
            _bindings(s.body, found)
    return found


def _stmt_exprs(s) -> Tuple[Expr, ...]:
    if isinstance(s, (Let, Assign)):
        return (s.value,)
    if isinstance(s, Store):
        return (s.value, *s.indices)
    if isinstance(s, If):
        return (s.cond,)
    if isinstance(s, For):
        return (s.lo, s.hi)
    return ()


def render_kernel(kernel: Kernel, *, traced: bool = False) -> Callable:
    """Compile ``kernel`` to ``fn(n, extents, args[, trace])``.

    ``n`` is the lane count and ``extents`` the launch's
    ``grid.zyx() + block.zyx()``; ``args`` binds every parameter name as
    :func:`run_kernel` prepares it.
    """
    r = _Renderer(kernel, traced)
    env = {name for p in kernel.params for name in _param_names(p)}
    for name in sorted(env):
        r.head.append(f"    {_py_name(name)} = _a[{name!r}]")
    r.body(kernel.body, "    ", "None", "None", env)
    if traced:
        return r.compile(f"_kernel_{next(_counter)}", "kernel-traced", "_n, _e, _a, _T")
    return r.compile(f"_kernel_{next(_counter)}", "kernel", "_n, _e, _a")


def _param_names(p) -> Tuple[str, ...]:
    return p.field_names() if isinstance(p, PartitionParam) else (p.name,)


def _program(kernel: Kernel, traced: bool) -> Callable:
    """The kernel's rendered program, built on its first run.

    Memoized on the kernel object itself (``Kernel.programs``) — by
    identity, without hashing the IR — so it is freed with the compiled
    image."""
    fn = kernel.programs.get(traced)
    if fn is None:
        fn = kernel.programs[traced] = render_kernel(kernel, traced=traced)
    return fn


def run_kernel(
    kernel: Kernel,
    grid,
    block,
    args: Mapping[str, object],
    *,
    trace: Optional[AccessTrace] = None,
) -> None:
    """Execute a kernel over a full launch grid.

    ``args`` binds every parameter name: array params to shaped numpy arrays
    (mutated in place by stores), scalar params to numbers, and — for
    partitioned kernels — the six reserved partition scalars.

    Pass an :class:`AccessTrace` to record the ground-truth element indices
    every active thread loads and stores (instrumented execution).
    """
    extents = Dim3.of(grid).zyx() + Dim3.of(block).zyx()
    values: Dict[str, object] = {}
    for p in kernel.params:
        if isinstance(p, PartitionParam):
            for f in p.field_names():
                if f not in args:
                    raise ExecutionError(f"partitioned kernel launch missing field {f!r}")
                values[f] = np.int64(args[f])
        else:
            if p.name not in args:
                raise ExecutionError(f"kernel launch missing argument {p.name!r}")
            v = args[p.name]
            if isinstance(p, ArrayParam):
                if not isinstance(v, np.ndarray) or v.ndim != p.ndim:
                    raise ExecutionError(
                        f"argument {p.name!r} must be a {p.ndim}-d ndarray, got {type(v)}"
                    )
                values[p.name] = v
            else:
                values[p.name] = _np_const(v, p.dtype)
    n = math.prod(extents)
    if trace is None:
        _program(kernel, False)(n, extents, values)
    else:
        _program(kernel, True)(n, extents, values, trace)


def _scalar_registers() -> Dict[str, object]:
    """The one-lane grid of a scalar expression, with read-only coordinates.

    Shared by every :func:`eval_scalar_expr` call: a launch resolves one
    expression per array dimension, and building a lane grid for each cost
    more than evaluating it."""
    registers: Dict[str, object] = {name: np.int64(1) for name in _DIM_AXES}
    for i, name in enumerate(_LANE_AXES):
        registers[name] = lane_coordinate((1,) * 6, i)
        registers[name].flags.writeable = False
    return registers


#: One program per scalar expression object (by identity: equal nodes such
#: as ``0.0`` and ``-0.0`` may differ in bits); an entry goes with its node.
_SCALAR_PROGRAMS: Dict[int, Callable] = {}


def render_scalar_expr(expr: Expr) -> Callable:
    """Compile a scalar expression to ``fn(scalars)`` (one lane, no arrays)."""
    r = _Renderer(None, False)
    r.ns.update(_SCALAR_REGISTERS)
    names: List[str] = []
    _collect_names(expr, names)
    for name in names:
        r.head.append(f"    {_py_name(name)} = _scalar_arg(_a, {name!r})")
    r.lines.append(f"    return {r.expr(expr, set(names), 'None')}")
    r.registers.clear()  # bound once, in the namespace
    return r.compile(f"_expr_{next(_counter)}", "expr", "_a")


def _scalar_program(expr: Expr) -> Callable:
    fn = _SCALAR_PROGRAMS.get(id(expr))
    if fn is None:
        fn = _SCALAR_PROGRAMS[id(expr)] = render_scalar_expr(expr)
        weakref.finalize(expr, _SCALAR_PROGRAMS.pop, id(expr), None)
    return fn


_SCALAR_REGISTERS = _scalar_registers()


def _collect_names(e: Expr, names: List[str]) -> None:
    if isinstance(e, (Param, LocalRef)) and e.name not in names:
        names.append(e.name)
    for child in _children(e):
        _collect_names(child, names)


def eval_scalar_expr(expr: Expr, scalars: Mapping[str, object]):
    """Evaluate an expression that references only scalar parameters.

    Used for array shape expressions and loop trip counts at launch time.
    """
    return np.asarray(_scalar_program(expr)(scalars))[()]
