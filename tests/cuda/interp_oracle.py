"""The tree-walking kernel interpreter: the oracle of the rendered programs.

:mod:`repro.cuda.exec.interpreter` renders each kernel once into a numpy
program. This module keeps the interpreter that used to ship in its place,
moved verbatim: it re-walks the IR on every run, evaluating each expression
to a numpy array over the flat lane axis, with ``If`` as lane masks and
lane-varying loops as masked loops. ``tests/cuda/test_interp_oracle.py``
holds every rendered program to it: bitwise-equal outputs, equal
:class:`~repro.cuda.exec.interpreter.AccessTrace` records, the same
:class:`~repro.errors.ExecutionError` messages and no extra warnings.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

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
from repro.cuda.exec.interpreter import AccessTrace
from repro.cuda.ir.stmts import Assign, Body, For, If, Let, Store
from repro.errors import ExecutionError

__all__ = ["run_kernel", "eval_scalar_expr"]


class _Lanes:
    """Per-launch lane state: grid coordinates, arrays, locals, mask."""

    trace: Optional[AccessTrace] = None

    def __init__(self, grid: Dim3, block: Dim3) -> None:
        gz, gy, gx = grid.zyx()
        bz, by, bx = block.zyx()
        # Lane order: blocks in z,y,x-major order, then threads within block.
        coords = np.indices((gz, gy, gx, bz, by, bx), dtype=np.int64)
        flat = coords.reshape(6, -1)
        self.block_idx = {"z": flat[0], "y": flat[1], "x": flat[2]}
        self.thread_idx = {"z": flat[3], "y": flat[4], "x": flat[5]}
        self.block_dim = {"z": bz, "y": by, "x": bx}
        self.grid_dim = {"z": gz, "y": gy, "x": gx}
        self.n = flat.shape[1]


class _Frame:
    """Name bindings for the current launch (params, locals, loop vars).

    Scoping is handled by snapshotting the bound names around nested bodies:
    names introduced inside (``Let``, loop variables) are dropped on exit,
    while masked ``Assign`` updates to pre-existing locals persist.
    """

    def __init__(self, values: Dict[str, object]) -> None:
        self.values = values


def _np_const(value, dtype: DType):
    return np.asarray(value, dtype=dtype.to_numpy())[()]


def _eval(expr: Expr, lanes: _Lanes, frame: _Frame, mask: Optional[np.ndarray]):
    if isinstance(expr, Const):
        return _np_const(expr.value, expr._dtype)
    if isinstance(expr, GridIdx):
        if expr.register == "threadIdx":
            return lanes.thread_idx[expr.axis]
        if expr.register == "blockIdx":
            return lanes.block_idx[expr.axis]
        if expr.register == "blockDim":
            return np.int64(lanes.block_dim[expr.axis])
        if expr.register == "gridDim":
            return np.int64(lanes.grid_dim[expr.axis])
        # blockOff.w == blockIdx.w * blockDim.w (Section 4.1).
        return lanes.block_idx[expr.axis] * np.int64(lanes.block_dim[expr.axis])
    if isinstance(expr, (Param, LocalRef)):
        try:
            return frame.values[expr.name]
        except KeyError:
            raise ExecutionError(f"unbound name {expr.name!r} during execution") from None
    if isinstance(expr, BinOp):
        a = _eval(expr.lhs, lanes, frame, mask)
        b = _eval(expr.rhs, lanes, frame, mask)
        return _binop(expr.op, a, b)
    if isinstance(expr, UnOp):
        v = _eval(expr.operand, lanes, frame, mask)
        return np.logical_not(v) if expr.op == "not" else -v
    if isinstance(expr, Call):
        args = [_eval(a, lanes, frame, mask) for a in expr.args]
        return _call(expr.fn, args)
    if isinstance(expr, Select):
        c = _eval(expr.cond, lanes, frame, mask)
        t = _eval(expr.on_true, lanes, frame, mask)
        f = _eval(expr.on_false, lanes, frame, mask)
        return np.where(c, t, f)
    if isinstance(expr, Load):
        return _load(expr, lanes, frame, mask)
    raise ExecutionError(f"unknown expression node {expr!r}")


def _binop(op: str, a, b):
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        # Float division for floats; floor division for integers (the IR's
        # kernels use explicit fdiv for index math, so this path is rare).
        if np.asarray(a).dtype.kind == "f" or np.asarray(b).dtype.kind == "f":
            return a / b
        return a // b
    if op == "fdiv":
        return a // b
    if op == "mod":
        return a % b
    if op == "min":
        return np.minimum(a, b)
    if op == "max":
        return np.maximum(a, b)
    if op == "lt":
        return a < b
    if op == "le":
        return a <= b
    if op == "gt":
        return a > b
    if op == "ge":
        return a >= b
    if op == "eq":
        return a == b
    if op == "ne":
        return a != b
    if op == "and":
        return np.logical_and(a, b)
    if op == "or":
        return np.logical_or(a, b)
    raise ExecutionError(f"unknown binary op {op!r}")


def _call(fn: str, args):
    if fn == "sqrt":
        return np.sqrt(args[0])
    if fn == "rsqrt":
        return np.reciprocal(np.sqrt(args[0]))
    if fn == "abs":
        return np.abs(args[0])
    if fn == "exp":
        return np.exp(args[0])
    if fn == "log":
        return np.log(args[0])
    if fn == "pow":
        return np.power(args[0], args[1])
    if fn == "floor":
        return np.floor(args[0])
    raise ExecutionError(f"unknown math function {fn!r}")


def _index_lanes(indices, lanes: _Lanes, frame: _Frame, mask, shape) -> Tuple[np.ndarray, ...]:
    """Evaluate index expressions, broadcast to lanes, validate active lanes."""
    idx_arrays = []
    for d, idx_expr in enumerate(indices):
        idx = np.asarray(_eval(idx_expr, lanes, frame, mask))
        idx_b = np.broadcast_to(idx, (lanes.n,)) if idx.ndim == 0 else idx
        bad = (idx_b < 0) | (idx_b >= shape[d])
        if mask is not None:
            bad = bad & mask
        if np.any(bad):
            lane = int(np.argmax(bad))
            raise ExecutionError(
                f"out-of-bounds index {int(idx_b[lane])} in dim {d} (extent {shape[d]})"
            )
        idx_arrays.append(idx_b)
    return tuple(idx_arrays)


def _load(expr: Load, lanes: _Lanes, frame: _Frame, mask):
    arr = frame.values.get(expr.array)
    if not isinstance(arr, np.ndarray):
        raise ExecutionError(f"array argument {expr.array!r} is not bound to an ndarray")
    if mask is None:
        idx = _index_lanes(expr.indices, lanes, frame, mask, arr.shape)
        if lanes.trace is not None:
            flat = np.ravel_multi_index(
                tuple(np.broadcast_to(i, (lanes.n,)) for i in idx), arr.shape
            )
            lanes.trace.record_read(expr.array, flat, np.arange(lanes.n))
        return arr[idx]
    safe = []
    for d, idx_expr in enumerate(expr.indices):
        idx = np.asarray(_eval(idx_expr, lanes, frame, mask))
        idx_b = np.broadcast_to(idx, (lanes.n,)) if idx.ndim == 0 else idx
        bad = ((idx_b < 0) | (idx_b >= arr.shape[d])) & mask
        if np.any(bad):
            lane = int(np.argmax(bad))
            raise ExecutionError(
                f"out-of-bounds index {int(idx_b[lane])} in dim {d} (extent {arr.shape[d]})"
            )
        safe.append(np.where(mask, idx_b, 0))
    if lanes.trace is not None and np.any(mask):
        flat = np.ravel_multi_index(tuple(s[mask] for s in safe), arr.shape)
        lanes.trace.record_read(expr.array, flat, np.nonzero(mask)[0])
    values = arr[tuple(safe)]
    # Inactive lanes read element 0; callers only consume them under `mask`.
    return values


def _store(stmt: Store, lanes: _Lanes, frame: _Frame, mask) -> None:
    arr = frame.values.get(stmt.array)
    if not isinstance(arr, np.ndarray):
        raise ExecutionError(f"array argument {stmt.array!r} is not bound to an ndarray")
    value = np.asarray(_eval(stmt.value, lanes, frame, mask), dtype=arr.dtype)
    value_b = np.broadcast_to(value, (lanes.n,)) if value.ndim == 0 else value
    if mask is None:
        idx = _index_lanes(stmt.indices, lanes, frame, mask, arr.shape)
        if lanes.trace is not None:
            flat = np.ravel_multi_index(
                tuple(np.broadcast_to(i, (lanes.n,)) for i in idx), arr.shape
            )
            lanes.trace.record_write(stmt.array, flat, np.arange(lanes.n))
        arr[idx] = value_b
        return
    if not np.any(mask):
        return
    idx_full = []
    for d, idx_expr in enumerate(stmt.indices):
        idx = np.asarray(_eval(idx_expr, lanes, frame, mask))
        idx_b = np.broadcast_to(idx, (lanes.n,)) if idx.ndim == 0 else idx
        bad = ((idx_b < 0) | (idx_b >= arr.shape[d])) & mask
        if np.any(bad):
            lane = int(np.argmax(bad))
            raise ExecutionError(
                f"out-of-bounds store index {int(idx_b[lane])} in dim {d} "
                f"(extent {arr.shape[d]})"
            )
        idx_full.append(idx_b[mask])
    if lanes.trace is not None:
        flat = np.ravel_multi_index(tuple(idx_full), arr.shape)
        lanes.trace.record_write(stmt.array, flat, np.nonzero(mask)[0])
    arr[tuple(idx_full)] = value_b[mask]


def _run_body(body: Body, lanes: _Lanes, frame: _Frame, mask) -> None:
    for stmt in body:
        if isinstance(stmt, Let):
            frame.values[stmt.name] = _eval(stmt.value, lanes, frame, mask)
        elif isinstance(stmt, Assign):
            new = _eval(stmt.value, lanes, frame, mask)
            old = frame.values[stmt.name]
            if mask is None:
                frame.values[stmt.name] = new
            else:
                frame.values[stmt.name] = np.where(mask, new, old)
        elif isinstance(stmt, Store):
            _store(stmt, lanes, frame, mask)
        elif isinstance(stmt, If):
            cond = np.asarray(_eval(stmt.cond, lanes, frame, mask))
            cond_b = np.broadcast_to(cond, (lanes.n,)) if cond.ndim == 0 else cond
            then_mask = cond_b if mask is None else (mask & cond_b)
            if np.any(then_mask):
                _run_scoped(stmt.then, lanes, frame, then_mask)
            if stmt.orelse:
                else_mask = ~cond_b if mask is None else (mask & ~cond_b)
                if np.any(else_mask):
                    _run_scoped(stmt.orelse, lanes, frame, else_mask)
        elif isinstance(stmt, For):
            _run_for(stmt, lanes, frame, mask)
        else:
            raise ExecutionError(f"unknown statement {stmt!r}")


def _run_scoped(body: Body, lanes: _Lanes, frame: _Frame, mask) -> None:
    """Run a nested body; drop names it introduced, keep Assign updates."""
    before = set(frame.values)
    _run_body(body, lanes, frame, mask)
    for name in set(frame.values) - before:
        del frame.values[name]


def _run_for(stmt: For, lanes: _Lanes, frame: _Frame, mask) -> None:
    lo = np.asarray(_eval(stmt.lo, lanes, frame, mask))
    hi = np.asarray(_eval(stmt.hi, lanes, frame, mask))
    before = set(frame.values)
    if lo.ndim == 0 and hi.ndim == 0:
        # Uniform trip count: plain sequential loop, fully vectorized body.
        for k in range(int(lo), int(hi)):
            frame.values[stmt.var] = np.int64(k)
            _run_body(stmt.body, lanes, frame, mask)
    else:
        # Lane-varying bounds: iterate the union range with per-lane masking.
        lo_b = np.broadcast_to(lo, (lanes.n,))
        hi_b = np.broadcast_to(hi, (lanes.n,))
        active = mask if mask is not None else np.ones(lanes.n, dtype=bool)
        if np.any(hi_b[active] > lo_b[active]):
            k_min = int(lo_b[active].min())
            k_max = int(hi_b[active].max())
            for k in range(k_min, k_max):
                lane_mask = active & (lo_b <= k) & (k < hi_b)
                if not np.any(lane_mask):
                    continue
                frame.values[stmt.var] = np.int64(k)
                _run_body(stmt.body, lanes, frame, lane_mask)
    for name in set(frame.values) - before:
        del frame.values[name]


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
    grid = Dim3.of(grid)
    block = Dim3.of(block)
    lanes = _Lanes(grid, block)
    lanes.trace = trace
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
    _run_body(kernel.body, lanes, _Frame(values), None)


def _scalar_lanes() -> _Lanes:
    """The one-lane grid of a scalar expression, with read-only coordinates."""
    lanes = _Lanes(Dim3(1), Dim3(1))
    for axes in (lanes.block_idx, lanes.thread_idx):
        for coords in axes.values():
            coords.flags.writeable = False
    return lanes


#: Shared by every :func:`eval_scalar_expr` call: a launch resolves one
#: expression per array dimension, and building a lane grid (``np.indices``)
#: for each cost more than evaluating it.
_SCALAR_LANES = _scalar_lanes()


def eval_scalar_expr(expr: Expr, scalars: Mapping[str, object]):
    """Evaluate an expression that references only scalar parameters.

    Used for array shape expressions and loop trip counts at launch time.
    """
    lanes = _SCALAR_LANES
    frame = _Frame({k: np.asarray(v)[()] for k, v in scalars.items()})
    value = _eval(expr, lanes, frame, None)
    return np.asarray(value)[()]
