"""Access-set enumerator generation (paper §6).

For every (kernel, array argument, read/write) access map we generate a
function that — given a grid partition and the scalar kernel arguments —
enumerates the accessed array elements as per-row ``[first, last]`` ranges
(the paper scans only the first and last element of each row of the image,
§6.1). Unions are scanned per convex piece and the resulting ranges merged.

Interface (paper §6.2): each enumerator is named
``<kernel>__arg<i>__<read|write>``; inputs arrive as flat integer tuples
(the partition box plus the launch configuration plus scalar arguments) and
output ranges are delivered through a callback — here additionally wrapped
into a convenience method producing merged, flat (row-major) element ranges.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.compiler.access_analysis import (
    GRID_PARAMS,
    IN_DIMS6,
    ArrayAccess,
    KernelAccessInfo,
)
from repro.compiler.strategy import Partition
from repro.cuda.dim3 import Dim3
from repro.errors import AnalysisError
from repro.memo import MISS, Memo
from repro.poly.affine import Aff
from repro.poly.basic_set import BasicSet, _rebind_constraint
from repro.poly.codegen import (
    ScanFn,
    compile_scanner,
    interpreted_scanner,
    prepare_scanner,
)
from repro.poly.vectorize import VectorizeError, vector_program
from repro.poly.constraint import Constraint
from repro.poly.set_ import Set
from repro.poly.space import Space

__all__ = ["PARTITION_PARAMS", "Enumerator", "EnumeratorTable", "build_enumerator"]

#: Parameters describing the partition box: half-open ``blockOff`` and
#: ``blockIdx`` intervals per axis (the paper's 6-tuple of thread-block
#: intervals; blockOff bounds are derived from them at runtime since the
#: block dimension is then known).
PARTITION_PARAMS = (
    "pbo_min_z",
    "pbo_max_z",
    "pbo_min_y",
    "pbo_max_y",
    "pbo_min_x",
    "pbo_max_x",
    "pbi_min_z",
    "pbi_max_z",
    "pbi_min_y",
    "pbi_max_y",
    "pbi_min_x",
    "pbi_max_x",
)

_BO_BOUNDS = tuple(zip(("bo_z", "bo_y", "bo_x"), PARTITION_PARAMS[0:6:2], PARTITION_PARAMS[1:6:2]))
_BI_BOUNDS = tuple(
    zip(("bi_z", "bi_y", "bi_x"), PARTITION_PARAMS[6:12:2], PARTITION_PARAMS[7:12:2])
)

FlatRange = Tuple[int, int]  # half-open element range

#: Scans one enumerator keeps, per (partition box, launch shape). A
#: 192-shape churn on 16 GPUs asks for 3 072 distinct ones.
SCAN_CAPACITY = 4096


def _partitioned_image(access: ArrayAccess) -> Set:
    """Image of the access map restricted to a parametric partition box."""
    out_sets = []
    out_space: Optional[Space] = None
    for d in access.access_map.disjuncts:
        space = d.space.add_params(PARTITION_PARAMS)
        cons = [_rebind_constraint(c, d.space.to_set(), space.to_set()) for c in d.constraints]
        for dim, lo, hi in _BO_BOUNDS + _BI_BOUNDS:
            v = Aff.var(space.to_set(), dim)
            cons.append(Constraint.ineq(v - Aff.var(space.to_set(), lo)))
            cons.append(Constraint.ineq(Aff.var(space.to_set(), hi) - v - 1))
        boxed = BasicSet(space.to_set(), cons, exact=d.exact)
        projected = boxed.project_out(IN_DIMS6)
        if out_space is None:
            out_space = Space.set_space(d.space.out_dims, space.params)
        out_sets.append(
            BasicSet(
                out_space,
                [_rebind_constraint(c, projected.space, out_space) for c in projected.constraints],
                exact=projected.exact,
            )
        )
    if out_space is None:
        raise AnalysisError("access map has no disjuncts")
    return Set(out_space, out_sets)


@dataclass
class Enumerator:
    """A compiled access-set enumerator for one (kernel, argument, mode)."""

    name: str
    kernel_name: str
    array: str
    arg_index: int
    mode: str  # "read" | "write"
    ndim: int
    image: Set
    scan: ScanFn
    param_order: Tuple[str, ...]
    exact: bool
    #: Memoized scan results ``(ranges, emitted, vectorized)``: iterative
    #: applications re-enumerate identical partitions every launch; the real
    #: runtime's generated C code does so cheaply, here we cache the Python
    #: scan (host *cost* is still charged per call by the runtime, from the
    #: recorded emit count). The third slot remembers which backend produced
    #: the entry so repeat requests attribute to the same counter. Not an
    #: init field: ``dataclasses.replace`` starts a copy with an empty memo.
    _scans: Memo = field(
        default_factory=lambda: Memo("enumerator_scan", SCAN_CAPACITY),
        init=False, repr=False, compare=False,
    )
    #: Whether cache misses may scan through the compiled box program
    #: (repro.poly.vectorize). False pins the scalar scanner — the ablation
    #: path — and is also set when an interpreted table is requested.
    specialize: bool = True
    #: Vectorized-backend state: "unbuilt" until the first miss, then
    #: "ready" or "disabled" (program construction raised VectorizeError;
    #: scalar fallback from then on).
    _vec_state: str = field(default="unbuilt", repr=False, compare=False)
    _vec: Optional[object] = field(default=None, repr=False, compare=False)

    def pack_params(
        self,
        partition: Partition,
        block: Dim3,
        grid: Dim3,
        scalars: Mapping[str, int],
    ) -> Tuple[int, ...]:
        """Flatten runtime values into the scanner's parameter tuple."""
        bo = {}
        bi = {}
        for axis in ("z", "y", "x"):
            lo, hi = partition.range_of(axis)
            bd = block.axis(axis)
            # The box is spanned between the first and the *last* block's
            # coordinates (paper §6): blockOff ranges over
            # [lo*bd, (hi-1)*bd] inclusive — using hi*bd as the upper corner
            # would admit phantom offsets inside the last block and widen
            # every image by up to one block extent.
            bo[axis] = (lo * bd, (hi - 1) * bd + 1)
            bi[axis] = (lo, hi)
        values: Dict[str, int] = {
            "pbo_min_z": bo["z"][0],
            "pbo_max_z": bo["z"][1],
            "pbo_min_y": bo["y"][0],
            "pbo_max_y": bo["y"][1],
            "pbo_min_x": bo["x"][0],
            "pbo_max_x": bo["x"][1],
            "pbi_min_z": bi["z"][0],
            "pbi_max_z": bi["z"][1],
            "pbi_min_y": bi["y"][0],
            "pbi_max_y": bi["y"][1],
            "pbi_min_x": bi["x"][0],
            "pbi_max_x": bi["x"][1],
            "bd_z": block.z,
            "bd_y": block.y,
            "bd_x": block.x,
            "gd_z": grid.z,
            "gd_y": grid.y,
            "gd_x": grid.x,
        }
        out = []
        for name in self.param_order:
            if name in values:
                out.append(int(values[name]))
            elif name in scalars:
                out.append(int(scalars[name]))
            else:
                raise AnalysisError(f"enumerator {self.name}: no value for parameter {name!r}")
        return tuple(out)

    def element_ranges(
        self,
        partition: Partition,
        block: Dim3,
        grid: Dim3,
        scalars: Mapping[str, int],
        shape: Sequence[int],
        stats=None,
        audit: bool = False,
    ) -> Tuple[List[FlatRange], int]:
        """Merged flat (row-major) element ranges accessed by ``partition``.

        Returns ``(ranges, n_emitted)`` where ``n_emitted`` counts raw
        callback invocations (the runtime's per-range host cost driver) —
        the vectorized backend reproduces the same count without invoking a
        callback. ``stats`` (a ``RunStats``, optional) receives one
        ``enumerator_specialized``/``enumerator_fallback`` tick per request,
        attributed to the backend that produced the result — deterministic
        per call sequence even when another runtime already warmed the scan
        memo. ``audit`` re-scans on a memo hit and raises
        :exc:`~repro.errors.MemoAuditError` if the memoized scan differs.
        """
        if partition.is_empty:
            return [], 0
        params = self.pack_params(partition, block, grid, scalars)
        key = (params, tuple(shape))
        cached = self._scans.get(key)
        if cached is MISS:
            cached = self._scan(params, shape)
            self._scans.put(key, cached)
        elif audit:
            self._scans.audit(key, cached, self._scan(params, shape))
        ranges, count, vectorized = cached
        if stats is not None:
            if vectorized:
                stats.enumerator_specialized += 1
            else:
                stats.enumerator_fallback += 1
        return ranges, count

    def _scan(
        self, params: Tuple[int, ...], shape: Sequence[int]
    ) -> Tuple[List[FlatRange], int, bool]:
        """One scan, uncached: ``(ranges, emitted, vectorized)``."""
        strides = [1] * len(shape)
        for d in range(len(shape) - 2, -1, -1):
            strides[d] = strides[d + 1] * shape[d + 1]
        result = self._scan_vectorized(params, strides)
        vectorized = result is not None
        if result is None:
            raw: List[FlatRange] = []
            count = 0

            def emit(row: Tuple[int, ...], lo: int, hi: int) -> None:
                nonlocal count
                count += 1
                base = sum(r * s for r, s in zip(row, strides[:-1]))
                raw.append((base + lo, base + hi + 1))

            self.scan(params, emit)
            result = (merge_ranges(raw), count)
        return result[0], result[1], vectorized

    def _scan_vectorized(
        self, params: Tuple[int, ...], strides: Sequence[int]
    ) -> Optional[Tuple[List[FlatRange], int]]:
        """One scan through the memoized box program; None means fall back."""
        if not self.specialize or self._vec_state == "disabled":
            return None
        if self._vec_state == "unbuilt":
            try:
                node, names = prepare_scanner(self.image, self.param_order)
                self._vec = vector_program(node, names)
            except VectorizeError:
                self._vec_state = "disabled"
                return None
            self._vec_state = "ready"
        return self._vec.run(params, strides)


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


def build_enumerator(
    info: KernelAccessInfo,
    array: str,
    mode: str,
    *,
    use_codegen: bool = True,
) -> Enumerator:
    """Generate the enumerator for one (kernel, array, mode) access map."""
    bucket = info.reads if mode == "read" else info.writes
    if array not in bucket:
        raise AnalysisError(f"kernel {info.kernel.name!r} has no {mode} access to {array!r}")
    access = bucket[array]
    image = _partitioned_image(access)
    param_order = PARTITION_PARAMS + tuple(
        p for p in image.space.params if p not in PARTITION_PARAMS
    )
    factory = compile_scanner if use_codegen else interpreted_scanner
    scan = factory(image, param_order)
    arg_index = info.kernel.param_index(array)
    return Enumerator(
        name=f"{info.kernel.name}__arg{arg_index}__{mode}",
        kernel_name=info.kernel.name,
        array=array,
        arg_index=arg_index,
        mode=mode,
        ndim=len(image.space.out_dims),
        image=image,
        scan=scan,
        param_order=param_order,
        exact=access.exact and image.exact,
        # The interpreted ablation quantifies scalar tree-walking; letting
        # it silently vectorize would measure nothing.
        specialize=use_codegen,
    )


class EnumeratorTable:
    """All enumerators of one application, keyed by (kernel, array, mode)."""

    def __init__(self) -> None:
        self._table: Dict[Tuple[str, str, str], Enumerator] = {}

    def add(self, enum: Enumerator) -> None:
        self._table[(enum.kernel_name, enum.array, enum.mode)] = enum

    def get(self, kernel_name: str, array: str, mode: str) -> Optional[Enumerator]:
        return self._table.get((kernel_name, array, mode))

    def for_kernel(self, kernel_name: str, mode: str) -> List[Enumerator]:
        return [
            e
            for (k, _, m), e in sorted(self._table.items())
            if k == kernel_name and m == mode
        ]

    def all(self) -> List[Enumerator]:
        """Every enumerator in the table, in deterministic key order."""
        return [e for _, e in sorted(self._table.items())]

    def __len__(self) -> int:
        return len(self._table)

    @staticmethod
    def build(info: KernelAccessInfo, *, use_codegen: bool = True) -> "EnumeratorTable":
        table = EnumeratorTable()
        for array in info.reads:
            table.add(build_enumerator(info, array, "read", use_codegen=use_codegen))
        for array in info.writes:
            table.add(build_enumerator(info, array, "write", use_codegen=use_codegen))
        return table
