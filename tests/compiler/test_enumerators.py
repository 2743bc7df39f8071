"""Unit tests for access-set enumerators (§6) against brute-force oracles."""

import numpy as np
import pytest

from repro.compiler.access_analysis import analyze_kernel
from repro.compiler.enumerators import EnumeratorTable, build_enumerator
from repro.compiler.strategy import Partition, choose_strategy
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from tests.poly.scan_oracle import merge_ranges


def brute_access_set(n, part, block, accesses):
    """Element indices touched by all threads of a partition (flattened)."""
    out = set()
    for by in range(*part.y):
        for bx in range(*part.x):
            for ty in range(block.y):
                for tx in range(block.x):
                    gy = by * block.y + ty
                    gx = bx * block.x + tx
                    out |= accesses(gy, gx)
    return out


def cover(ranges):
    pts = set()
    for lo, hi in ranges:
        pts.update(range(lo, hi))
    return pts


class TestMergeRanges:
    """The merge the row-by-row oracles coalesce their emissions with."""

    def test_empty(self):
        assert merge_ranges([]) == []

    def test_overlap_and_adjacency(self):
        assert merge_ranges([(5, 8), (0, 3), (3, 5), (7, 9)]) == [(0, 9)]

    def test_disjoint_kept(self):
        assert merge_ranges([(10, 12), (0, 2)]) == [(0, 2), (10, 12)]

    def test_contained(self):
        assert merge_ranges([(0, 10), (3, 5)]) == [(0, 10)]


class TestStencilEnumerators:
    @pytest.fixture(scope="class")
    def setup(self, stencil_kernel):
        info = analyze_kernel(stencil_kernel)
        strat = choose_strategy(info)
        return info, strat

    @pytest.mark.parametrize("n_parts", [1, 2, 3, 4])
    def test_write_set_exact_for_all_partitions(self, setup, n_parts):
        info, strat = setup
        n = 64
        grid, block = Dim3(4, 4), Dim3(16, 16)
        enum = build_enumerator(info, "dst", "write")
        for part in strat.partitions(grid, n_parts):
            if part.is_empty:
                continue
            ranges, _ = enum.element_ranges(part, block, grid, {"n": n}, (n, n))

            def accesses(gy, gx):
                if 0 < gy < n - 1 and 0 < gx < n - 1:
                    return {gy * n + gx}
                return set()

            assert cover(ranges) == brute_access_set(n, part, block, accesses)

    def test_read_set_exact(self, setup):
        info, strat = setup
        n = 64
        grid, block = Dim3(4, 4), Dim3(16, 16)
        enum = build_enumerator(info, "src", "read")
        part = strat.partitions(grid, 4)[2]
        ranges, emitted = enum.element_ranges(part, block, grid, {"n": n}, (n, n))
        assert emitted > 0

        def accesses(gy, gx):
            if 0 < gy < n - 1 and 0 < gx < n - 1:
                return {
                    gy * n + gx,
                    (gy - 1) * n + gx,
                    (gy + 1) * n + gx,
                    gy * n + gx - 1,
                    gy * n + gx + 1,
                }
            return set()

        assert cover(ranges) == brute_access_set(n, part, block, accesses)

    def test_empty_partition_yields_nothing(self, setup):
        info, _ = setup
        enum = build_enumerator(info, "dst", "write")
        empty = Partition(z=(0, 1), y=(2, 2), x=(0, 4))
        ranges, emitted = enum.element_ranges(empty, Dim3(16, 16), Dim3(4, 4), {"n": 64}, (64, 64))
        assert ranges == [] and emitted == 0

    def test_caching_returns_same_result(self, setup):
        info, strat = setup
        enum = build_enumerator(info, "dst", "write")
        part = strat.partitions(Dim3(4, 4), 2)[0]
        a = enum.element_ranges(part, Dim3(16, 16), Dim3(4, 4), {"n": 64}, (64, 64))
        b = enum.element_ranges(part, Dim3(16, 16), Dim3(4, 4), {"n": 64}, (64, 64))
        assert a == b

    def test_interface_naming(self, setup):
        """The §6.2 interface: kernel__arg<i>__<mode>."""
        info, _ = setup
        enum_r = build_enumerator(info, "src", "read")
        enum_w = build_enumerator(info, "dst", "write")
        assert enum_r.name == "stencil__arg1__read"
        assert enum_w.name == "stencil__arg2__write"


class TestFlatMatmulEnumerators:
    def test_b_read_covers_whole_matrix(self):
        from repro.workloads.matmul import build_matmul_kernel

        n = 64
        info = analyze_kernel(build_matmul_kernel(n))
        strat = choose_strategy(info)
        enum = build_enumerator(info, "B", "read")
        grid, block = Dim3(4, 4), Dim3(16, 16)
        part = strat.partitions(grid, 4)[1]
        ranges, _ = enum.element_ranges(part, block, grid, {}, (n * n,))
        assert cover(ranges) == set(range(n * n))

    def test_c_write_is_row_band(self):
        from repro.workloads.matmul import build_matmul_kernel

        n = 64
        info = analyze_kernel(build_matmul_kernel(n))
        strat = choose_strategy(info)
        enum = build_enumerator(info, "C", "write")
        grid, block = Dim3(4, 4), Dim3(16, 16)
        parts = strat.partitions(grid, 4)
        for i, part in enumerate(parts):
            ranges, _ = enum.element_ranges(part, block, grid, {}, (n * n,))
            rows = range(part.y[0] * 16, part.y[1] * 16)
            assert cover(ranges) == {r * n + c for r in rows for c in range(n)}


class TestEnumeratorTable:
    def test_build_from_info(self, stencil_kernel):
        info = analyze_kernel(stencil_kernel)
        table = EnumeratorTable.build(info)
        assert len(table) == 2
        assert table.get("stencil", "src", "read") is not None
        assert table.get("stencil", "dst", "write") is not None
        assert table.get("stencil", "dst", "read") is None
        assert [e.array for e in table.for_kernel("stencil", "read")] == ["src"]


def test_union_scan_is_exact_per_convex_piece():
    """§6.1: the bands [0, n) and [3n, 4n) scan apart; their hull would
    ship the 2n gap too."""
    kb = KernelBuilder("tworeads")
    n = kb.scalar("n")
    src = kb.array("src", f32, (4 * n,))
    dst = kb.array("dst", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        dst[gi,] = src[gi,] + src[gi + 3 * n,]
    enum = build_enumerator(analyze_kernel(kb.finish()), "src", "read")
    grid, n = Dim3(8), 256
    ranges, _ = enum.element_ranges(Partition.whole(grid), Dim3(32), grid, {"n": n}, (4 * n,))
    assert ranges == [(0, n), (3 * n, 4 * n)]
    exact = sum(hi - lo for lo, hi in ranges)
    hull = max(hi for _, hi in ranges) - min(lo for lo, _ in ranges)
    assert hull >= 1.9 * exact
