"""Error paths and edge cases of the enumerator layer."""

import pytest

from repro.compiler.access_analysis import analyze_kernel
from repro.compiler.enumerators import Enumerator, build_enumerator
from repro.compiler.strategy import Partition
from repro.cuda.dim3 import Dim3
from repro.errors import AnalysisError


class TestErrors:
    def test_unknown_access_rejected(self, copy_kernel):
        info = analyze_kernel(copy_kernel)
        with pytest.raises(AnalysisError, match="no write access"):
            build_enumerator(info, "src", "write")
        with pytest.raises(AnalysisError, match="no read access"):
            build_enumerator(info, "dst", "read")

    def test_missing_scalar_binding(self, copy_kernel):
        info = analyze_kernel(copy_kernel)
        enum = build_enumerator(info, "dst", "write")
        part = Partition.whole(Dim3(4))
        with pytest.raises(AnalysisError, match="no value for parameter"):
            enum.element_ranges(part, Dim3(8), Dim3(4), {}, (32,))  # n missing

    def test_exactness_flag_propagates(self, copy_kernel):
        info = analyze_kernel(copy_kernel)
        enum = build_enumerator(info, "dst", "write")
        assert enum.exact

    def test_cache_bounded(self, copy_kernel):
        info = analyze_kernel(copy_kernel)
        enum = build_enumerator(info, "dst", "write")
        grid, block = Dim3(4), Dim3(8)
        for n in range(40):
            part = Partition.whole(grid)
            enum.element_ranges(part, block, grid, {"n": n + 1}, (n + 1,))
        assert len(enum._scans) <= enum._scans.capacity


class TestDegenerateLaunches:
    def test_single_block_grid(self, copy_kernel):
        info = analyze_kernel(copy_kernel)
        enum = build_enumerator(info, "dst", "write")
        part = Partition.whole(Dim3(1))
        ranges, _ = enum.element_ranges(part, Dim3(8), Dim3(1), {"n": 5}, (5,))
        assert ranges == [(0, 5)]

    def test_oversized_grid_clipped_by_guard(self, copy_kernel):
        info = analyze_kernel(copy_kernel)
        enum = build_enumerator(info, "dst", "write")
        part = Partition.whole(Dim3(100))
        ranges, _ = enum.element_ranges(part, Dim3(8), Dim3(100), {"n": 12}, (12,))
        assert ranges == [(0, 12)]
