"""Analytical kernel cost model for the timing simulation.

Derives per-thread work from the kernel IR itself: arithmetic operations are
weighted by rough instruction costs, loads/stores contribute global-memory
bytes, and loop bodies multiply by trip counts evaluated from the launch's
scalar arguments. Kernel time on one device then follows the roofline
``max(flops / peak_flops, bytes / peak_bandwidth)``.

This replaces measuring real kernels on the paper's K80s; only relative
magnitudes matter for reproducing the speedup *shapes*.

The per-thread cost is a pure function of the kernel and of the scalars its
``For`` bounds mention, so the IR is walked once per such binding and the
result reused for every later launch and partition (a launch's duration is
then closed-form in its block count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.cuda.dim3 import Dim3
from repro.cuda.exec.interpreter import eval_scalar_expr
from repro.cuda.ir.exprs import BinOp, Call, Expr, Load, LocalRef, Param, Select, UnOp
from repro.cuda.ir.kernel import Kernel
from repro.cuda.ir.stmts import Assign, Body, For, If, Let, Store
from repro.cuda.ir.visitors import walk_body, walk_expr
from repro.errors import AnalysisError
from repro.memo import MISS, Memo
from repro.sim.topology import MachineSpec

__all__ = ["ThreadCost", "KernelCostModel"]

#: Kernels one cost model keeps, and loop-bound bindings per kernel.
COST_ENTRIES = 64

_FLOP_WEIGHT = {
    "add": 1.0,
    "sub": 1.0,
    "mul": 1.0,
    "min": 1.0,
    "max": 1.0,
    "div": 4.0,
    "fdiv": 4.0,
    "mod": 4.0,
}
_CALL_WEIGHT = {
    "sqrt": 8.0,
    "rsqrt": 8.0,
    "abs": 1.0,
    "exp": 12.0,
    "log": 12.0,
    "pow": 16.0,
    "floor": 1.0,
}


@dataclass(frozen=True)
class ThreadCost:
    """Per-thread work: weighted float ops and global-memory bytes."""

    flops: float
    bytes: float

    def __add__(self, other: "ThreadCost") -> "ThreadCost":
        return ThreadCost(self.flops + other.flops, self.bytes + other.bytes)

    def scaled(self, k: float) -> "ThreadCost":
        return ThreadCost(self.flops * k, self.bytes * k)


_ZERO = ThreadCost(0.0, 0.0)


class KernelCostModel:
    """Callable matching :data:`repro.cuda.api.KernelCostFn`."""

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec
        # id(kernel) -> (kernel, names its For bounds mention, memo of their
        # values -> cost). Keyed on identity because ``Kernel.__hash__``
        # walks the whole IR; the entry holds the kernel so its id cannot be
        # reused while the entry lives.
        self._memo = Memo("thread_cost", COST_ENTRIES)

    # -- IR walking --------------------------------------------------------------

    def _expr_cost(self, expr: Expr, elem_sizes: Mapping[str, int]) -> ThreadCost:
        total = _ZERO
        if isinstance(expr, BinOp):
            total = total + self._expr_cost(expr.lhs, elem_sizes)
            total = total + self._expr_cost(expr.rhs, elem_sizes)
            weight = _FLOP_WEIGHT.get(expr.op, 0.5)
            total = total + ThreadCost(weight, 0.0)
        elif isinstance(expr, UnOp):
            total = total + self._expr_cost(expr.operand, elem_sizes) + ThreadCost(0.5, 0.0)
        elif isinstance(expr, Call):
            for a in expr.args:
                total = total + self._expr_cost(a, elem_sizes)
            total = total + ThreadCost(_CALL_WEIGHT.get(expr.fn, 4.0), 0.0)
        elif isinstance(expr, Select):
            for sub in (expr.cond, expr.on_true, expr.on_false):
                total = total + self._expr_cost(sub, elem_sizes)
            total = total + ThreadCost(1.0, 0.0)
        elif isinstance(expr, Load):
            for i in expr.indices:
                total = total + self._expr_cost(i, elem_sizes)
            total = total + ThreadCost(0.0, float(elem_sizes[expr.array]))
        return total

    def _body_cost(
        self, body: Body, scalars: Mapping[str, object], elem_sizes: Mapping[str, int]
    ) -> ThreadCost:
        total = _ZERO
        for stmt in body:
            if isinstance(stmt, (Let, Assign)):
                total = total + self._expr_cost(stmt.value, elem_sizes)
            elif isinstance(stmt, Store):
                for i in stmt.indices:
                    total = total + self._expr_cost(i, elem_sizes)
                total = total + self._expr_cost(stmt.value, elem_sizes)
                total = total + ThreadCost(0.0, float(elem_sizes[stmt.array]))
            elif isinstance(stmt, If):
                cond = self._expr_cost(stmt.cond, elem_sizes)
                then = self._body_cost(stmt.then, scalars, elem_sizes)
                orelse = self._body_cost(stmt.orelse, scalars, elem_sizes)
                # Divergent warps execute both paths in the worst case; the
                # common whole-grid guard makes `max` the better estimate.
                branch = then if then.flops + then.bytes >= orelse.flops + orelse.bytes else orelse
                total = total + cond + branch
            elif isinstance(stmt, For):
                trips = self._trip_count(stmt, scalars)
                inner = self._body_cost(stmt.body, scalars, elem_sizes)
                # Loads repeated across loop iterations hit caches / shared
                # memory in the tiled kernels the paper evaluates; discount
                # their global traffic accordingly.
                inner = ThreadCost(
                    inner.flops, inner.bytes / max(1.0, self.spec.cache_reuse_factor)
                )
                total = total + inner.scaled(trips)
            else:
                raise AnalysisError(f"unknown statement {stmt!r} in cost model")
        return total

    def _trip_count(self, stmt: For, scalars: Mapping[str, object]) -> float:
        try:
            lo = float(eval_scalar_expr(stmt.lo, scalars))
            hi = float(eval_scalar_expr(stmt.hi, scalars))
            return max(0.0, hi - lo)
        except Exception:
            # Data-dependent trip count: assume one iteration (documented
            # limitation; none of the evaluated workloads hit this).
            return 1.0

    # -- public API ----------------------------------------------------------------

    def thread_cost(self, kernel: Kernel, scalars: Mapping[str, object]) -> ThreadCost:
        """Per-thread work of ``kernel``; one IR walk per loop-bound binding.

        Only ``_trip_count`` reads ``scalars``, and only the names a ``For``
        bound mentions, so launches that differ in any other scalar (an
        ``alpha``, a time step) share one entry. Values are keyed with their
        type: ``n=5`` and ``n=5.0`` compare equal but divide differently.
        """
        entry = self._memo.get(id(kernel))
        if entry is MISS:
            names = {
                e.name
                for stmt in walk_body(kernel.body)
                if isinstance(stmt, For)
                for bound in (stmt.lo, stmt.hi)
                for e in walk_expr(bound)
                if isinstance(e, (Param, LocalRef))
            }
            entry = (kernel, tuple(sorted(names)), Memo("thread_cost", COST_ENTRIES))
            self._memo.put(id(kernel), entry)
        _, names, costs = entry
        # Most kernels' bounds mention no scalar: allocate nothing on a hit.
        key = tuple([(type(v), v) for v in map(scalars.get, names)]) if names else ()
        cost = costs.get(key)
        if cost is MISS:
            elem_sizes: Dict[str, int] = {p.name: p.dtype.size for p in kernel.array_params}
            cost = self._body_cost(kernel.body, scalars, elem_sizes)
            costs.put(key, cost)
        return cost

    def __call__(
        self,
        kernel: Kernel,
        n_blocks: int,
        block: Dim3,
        scalars: Mapping[str, object],
    ) -> float:
        """Modelled on-device duration of one launch."""
        per_thread = self.thread_cost(kernel, scalars)
        n_threads = float(n_blocks) * float(block.volume)
        flop_time = per_thread.flops * n_threads / self.spec.flops_per_gpu
        mem_time = per_thread.bytes * n_threads / self.spec.mem_bw_per_gpu
        return max(flop_time, mem_time)
