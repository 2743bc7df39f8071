"""Exact read sets from compiled scans, checked against point enumeration.

:func:`~repro.analysis.dataflow.exact_read_ranges` scans each convex piece
of a read access with its compiled §6 scanner and flattens the rows in
numpy. Its predecessor walked the same pieces one integer point at a time
with :meth:`BasicSet.enumerate_points`; that body is kept below verbatim as
the oracle. The two must return equal results — ``None`` included — on the
six applications' read accesses under random block boxes, on small kernels
covering the subscript and domain shapes the scanner must get right, and at
the edge of the point budget.
"""

from functools import lru_cache
from typing import List, Mapping, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.concretize import (
    UnmodelledAccess,
    concrete_extents,
    concretize_access,
    thread_box_constraints,
)
from repro.analysis.dataflow import (
    MAX_READ_POINTS,
    _partition_box_constraints,
    exact_read_ranges,
)
from repro.compiler.access_analysis import KernelAccessInfo, analyze_kernel
from repro.compiler.strategy import Partition
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.errors import PolyhedralError
from repro.poly.basic_set import BasicSet
from repro.poly.constraint import Constraint
from repro.poly.space import Space
from repro.workloads import (
    CholeskyWorkload,
    DStencilWorkload,
    HotspotWorkload,
    ImgPipeWorkload,
    MatmulWorkload,
    NBodyWorkload,
)
from repro.workloads.common import functional_config

# ---------------------------------------------------------------------------
# The oracle: the point-enumerating predecessor, verbatim
# ---------------------------------------------------------------------------


def _element_runs(elements: Sequence[int]) -> List[Tuple[int, int]]:
    """Sorted distinct flat elements -> merged half-open element runs."""
    runs: List[Tuple[int, int]] = []
    for e in sorted(set(elements)):
        if runs and e == runs[-1][1]:
            runs[-1] = (runs[-1][0], e + 1)
        else:
            runs.append((e, e + 1))
    return runs


def oracle_exact_read_ranges(
    info: KernelAccessInfo,
    array: str,
    extents: Sequence[int],
    elem_size: int,
    partition: Partition,
    grid: Dim3,
    block: Dim3,
    scalars: Mapping[str, int],
    *,
    max_points: int = MAX_READ_POINTS,
) -> Optional[List[Tuple[int, int]]]:
    if partition.is_empty:
        return []
    reads = [
        raw
        for raw in info.raw_accesses
        if raw.mode == "read" and raw.array == array
    ]
    elements: set = set()
    strides = [1] * len(extents)
    for d in range(len(extents) - 2, -1, -1):
        strides[d] = strides[d + 1] * extents[d + 1]
    n_elems = strides[0] * extents[0] if extents else 0
    for raw in reads:
        if raw.indices is None:
            return None
        try:
            acc = concretize_access(raw, info.kernel, grid, block, scalars)
        except UnmodelledAccess:
            return None
        dims = acc.coords + acc.iterators
        space = Space.set_space(dims, ())
        base = thread_box_constraints(space, acc.coords, grid, block)
        base += _partition_box_constraints(space, acc.coords, partition, block)
        for conj in acc.domain or ((),):
            cons = base + [
                Constraint(kind, aff.to_aff(space).vec) for kind, aff in conj
            ]
            cand = BasicSet(space, cons)
            if cand.is_empty():
                continue
            try:
                for point in cand.enumerate_points(max_points=max_points):
                    values = dict(zip(dims, point))
                    flat = 0
                    for j, aff in enumerate(acc.indices):
                        val = aff.const + sum(
                            coeff * values[name] for name, coeff in aff.terms
                        )
                        # Clamp like the runtime's guarded accesses would;
                        # phantom out-of-range points (approximate domains)
                        # only widen the kept set — still sound.
                        val = min(max(val, 0), extents[j] - 1)
                        flat += val * strides[j]
                    elements.add(flat)
            except PolyhedralError:
                return None
    if n_elems and len(elements) > n_elems:  # pragma: no cover - safety net
        return None
    return [(lo * elem_size, hi * elem_size) for lo, hi in _element_runs(elements)]


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def both(info, array, partition, grid, block, scalars=None, **kwargs):
    """(scanned, oracle) answers for one array of one kernel."""
    scalars = scalars or {}
    param = next(p for p in info.kernel.array_params if p.name == array)
    extents = concrete_extents(param, scalars)
    args = (info, array, extents, param.dtype.size, partition, grid, block, scalars)
    return exact_read_ranges(*args, **kwargs), oracle_exact_read_ranges(*args, **kwargs)


@st.composite
def block_boxes(draw, grid: Dim3) -> Partition:
    """A random box of blocks inside ``grid``, empty and single-block included."""
    ranges = {}
    for axis in ("z", "y", "x"):
        extent = grid.axis(axis)
        lo = draw(st.integers(0, extent - 1))
        ranges[axis] = (lo, draw(st.integers(lo + 1, min(extent, lo + 2))))
    if draw(st.integers(0, 9)) == 0:
        axis = draw(st.sampled_from("zyx"))
        ranges[axis] = (ranges[axis][0],) * 2
    return Partition(**ranges)


#: Applications at functional size, except nbody and matmul, which run at
#: ``compile_lint``'s sizes: the oracle takes tens of µs a point, and their
#: inner loops make a whole-grid read set 10^5 points at functional size.
APPS = {
    "hotspot": (HotspotWorkload, None),
    "nbody": (NBodyWorkload, 64),
    "matmul": (MatmulWorkload, 16),
    "dstencil": (DStencilWorkload, None),
    "cholesky": (CholeskyWorkload, None),
    "imgpipe": (ImgPipeWorkload, None),
}


@lru_cache(maxsize=None)
def app_reads(name: str):
    """``[(info, array, scalar names)]`` for every read array of an app, and its launch."""
    cls, size = APPS[name]
    wl = cls(functional_config(name, size=size))
    grid, block = wl.launch_config()
    cases = []
    for kernel in wl.build_kernels():
        info = analyze_kernel(kernel)
        scalars = tuple(p.name for p in kernel.scalar_params)
        for array in sorted({raw.array for raw in info.raw_accesses if raw.mode == "read"}):
            cases.append((info, array, scalars))
    return cases, grid, block


@st.composite
def app_cases(draw):
    name = draw(st.sampled_from(sorted(APPS)))
    cases, grid, block = app_reads(name)
    info, array, scalar_names = draw(st.sampled_from(cases))
    # Tile / row offsets of cholesky and imgpipe; out-of-range subscripts
    # clamp identically on both sides.
    scalars = {s: draw(st.integers(0, 7)) * 8 for s in scalar_names}
    return info, array, draw(block_boxes(grid)), grid, block, scalars


@settings(max_examples=30, deadline=None)
@given(app_cases())
def test_app_read_sets_equal_the_point_oracle(case):
    scanned, oracle = both(*case)
    assert scanned == oracle


def test_whole_grid_app_read_sets_equal_the_point_oracle():
    """Whole-grid read sets of all six apps: equal, and never ``None``."""
    for name in APPS:
        cases, grid, block = app_reads(name)
        for info, array, scalar_names in cases:
            scalars = {s: 8 for s in scalar_names}
            scanned, oracle = both(info, array, Partition.whole(grid), grid, block, scalars)
            assert scanned == oracle, (name, info.kernel.name, array)
            assert scanned is not None and scanned, (name, info.kernel.name, array)


N = 24


def strided():
    kb = KernelBuilder("strided")
    src = kb.array("src", f32, (3 * N + 2,))
    dst = kb.array("dst", f32, (N,))
    gx = kb.global_id("x")
    with kb.if_(gx < N):
        dst[gx,] = src[2 * gx,] + src[3 * gx + 1,]
    return kb.finish(), Dim3(x=4), Dim3(x=8)


def reversed_():
    kb = KernelBuilder("reversed")
    src = kb.array("src", f32, (N,))
    dst = kb.array("dst", f32, (N,))
    gx = kb.global_id("x")
    with kb.if_(gx < N):
        dst[gx,] = src[N - 1 - gx,]
    return kb.finish(), Dim3(x=4), Dim3(x=8)


def broadcast():
    kb = KernelBuilder("broadcast")
    a = kb.array("a", f32, (N, 8))
    out = kb.array("out", f32, (N, 8))
    gy, gx = kb.global_id("y"), kb.global_id("x")
    with kb.if_((gy < N) & (gx < 8)):
        acc = kb.let("acc", kb.f32const(0.0))
        with kb.for_range("j", 0, 4) as j:
            kb.assign(acc, acc + a[j, 0])
        out[gy, gx] = acc
    return kb.finish(), Dim3(x=1, y=3), Dim3(x=8, y=8)


def triangular():
    kb = KernelBuilder("triangular")
    a = kb.array("a", f32, (N, N))
    out = kb.array("out", f32, (N,))
    gx = kb.global_id("x")
    with kb.if_(gx < N):
        acc = kb.let("acc", kb.f32const(0.0))
        with kb.for_range("j", 0, gx + 1) as j:
            kb.assign(acc, acc + a[gx, j])
        out[gx,] = acc
    return kb.finish(), Dim3(x=3), Dim3(x=8)


def or_guard():
    kb = KernelBuilder("or_guard")
    src = kb.array("src", f32, (N + 2,))
    dst = kb.array("dst", f32, (N,))
    gx = kb.global_id("x")
    with kb.if_((gx < 5) | ((gx >= N - 5) & (gx < N))):
        dst[gx,] = src[gx + 2,]
    return kb.finish(), Dim3(x=4), Dim3(x=8)


def grid_3d():
    kb = KernelBuilder("grid3d")
    a = kb.array("a", f32, (4, 6, 10))
    out = kb.array("out", f32, (4, 6, 8))
    gz, gy, gx = kb.global_id("z"), kb.global_id("y"), kb.global_id("x")
    with kb.if_((gz < 4) & (gy < 6) & (gx < 8)):
        out[gz, gy, gx] = a[gz, gy, gx + 2] + a[3 - gz, gy, gx]
    return kb.finish(), Dim3(x=2, y=3, z=2), Dim3(x=4, y=2, z=2)


def split_form():
    kb = KernelBuilder("split_form")
    src = kb.array("src", f32, (64,))
    dst = kb.array("dst", f32, (32,))
    bx, tx = kb.blockIdx.x, kb.threadIdx.x
    dst[bx * 8 + tx,] = src[bx * 7,] + src[2 * tx + bx,]
    return kb.finish(), Dim3(x=4), Dim3(x=8)


def approximate():
    """A non-affine guard is dropped: the domain keeps phantom threads whose
    ``gx + 3`` runs past the array and is clamped to its last cell."""
    kb = KernelBuilder("approximate")
    src = kb.array("src", f32, (N,))
    dst = kb.array("dst", f32, (32,))
    gx = kb.global_id("x")
    with kb.if_(gx * gx < N):
        dst[gx,] = src[gx + 3,]
    return kb.finish(), Dim3(x=4), Dim3(x=8)


SMALL = {
    f.__name__: f
    for f in (strided, reversed_, broadcast, triangular, or_guard, grid_3d, split_form, approximate)
}


@lru_cache(maxsize=None)
def small(name: str):
    kernel, grid, block = SMALL[name]()
    return analyze_kernel(kernel), grid, block


@st.composite
def small_cases(draw):
    info, grid, block = small(draw(st.sampled_from(sorted(SMALL))))
    arrays = sorted({raw.array for raw in info.raw_accesses if raw.mode == "read"})
    return info, draw(st.sampled_from(arrays)), draw(block_boxes(grid)), grid, block


@settings(max_examples=80, deadline=None)
@given(small_cases())
def test_small_kernel_read_sets_equal_the_point_oracle(case):
    scanned, oracle = both(*case)
    assert scanned == oracle


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_kernel_whole_grid(name):
    info, grid, block = small(name)
    array = next(raw.array for raw in info.raw_accesses if raw.mode == "read")
    scanned, oracle = both(info, array, Partition.whole(grid), grid, block)
    assert scanned == oracle
    assert scanned  # every shape is modelled and reads something


def test_clamped_phantom_points_reach_the_last_cell():
    info, grid, block = small("approximate")
    scanned, _ = both(info, "src", Partition.whole(grid), grid, block)
    assert scanned == [(3 * 4, N * 4)]


# ---------------------------------------------------------------------------
# The point budget and the ways to give up
# ---------------------------------------------------------------------------


def budget_kernel():
    """One read in one convex piece: 32 threads x 3 iterations = 96 points
    over 34 distinct cells, so a budget on cells would differ."""
    kb = KernelBuilder("budget")
    src = kb.array("src", f32, (34,))
    dst = kb.array("dst", f32, (32,))
    gx = kb.global_id("x")
    acc = kb.let("acc", kb.f32const(0.0))
    with kb.for_range("j", 0, 3) as j:
        kb.assign(acc, acc + src[gx + j,])
    dst[gx,] = acc
    return analyze_kernel(kb.finish()), Dim3(x=4), Dim3(x=8)


def test_budget_equal_to_the_point_count_returns_ranges():
    info, grid, block = budget_kernel()
    whole = Partition.whole(grid)
    scanned, oracle = both(info, "src", whole, grid, block, max_points=96)
    assert scanned == oracle == [(0, 34 * 4)]


def test_budget_one_below_the_point_count_returns_none():
    info, grid, block = budget_kernel()
    whole = Partition.whole(grid)
    assert both(info, "src", whole, grid, block, max_points=95) == (None, None)


def test_budget_is_per_piece():
    """The two conjuncts of ``or_guard`` hold 5 points each: a budget of 5
    covers both, although the partition reads 10 cells."""
    info, grid, block = small("or_guard")
    whole = Partition.whole(grid)
    scanned, oracle = both(info, "src", whole, grid, block, max_points=5)
    assert scanned == oracle == [(2 * 4, 7 * 4), (21 * 4, 26 * 4)]
    assert both(info, "src", whole, grid, block, max_points=4) == (None, None)


def test_non_affine_subscript_gives_none():
    kb = KernelBuilder("nonaffine")
    src = kb.array("src", f32, (64,))
    dst = kb.array("dst", f32, (8,))
    gx = kb.global_id("x")
    dst[gx,] = src[gx * gx,]
    info = analyze_kernel(kb.finish())
    grid, block = Dim3(x=1), Dim3(x=8)
    assert both(info, "src", Partition.whole(grid), grid, block) == (None, None)


def test_unbounded_iterator_gives_none():
    kb = KernelBuilder("unbounded")
    src = kb.array("src", f32, (64,))
    dst = kb.array("dst", f32, (8,))
    gx = kb.global_id("x")
    acc = kb.let("acc", kb.f32const(0.0))
    with kb.for_range("j", 0, gx * gx) as j:
        kb.assign(acc, acc + src[j,])
    dst[gx,] = acc
    info = analyze_kernel(kb.finish())
    (read,) = [raw for raw in info.raw_accesses if raw.mode == "read"]
    assert read.indices is not None and read.approx_domain  # the bound was dropped
    grid, block = Dim3(x=1), Dim3(x=8)
    assert both(info, "src", Partition.whole(grid), grid, block) == (None, None)


def test_empty_partition_reads_nothing():
    info, grid, block = budget_kernel()
    empty = Partition(z=(0, 1), y=(0, 1), x=(2, 2))
    assert both(info, "src", empty, grid, block) == ([], [])
