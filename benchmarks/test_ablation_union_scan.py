"""Ablation: per-convex-piece union scanning vs a bounding-hull scan (§6.1).

"For a union of sets, the over-approximation can be eliminated by applying
this approach to each convex set of the union instead of the union set
itself." This ablation quantifies the over-approximation a hull scan would
introduce for a kernel whose access set is a union of two distant bands.
"""

import pytest

from repro.compiler.access_analysis import analyze_kernel
from repro.compiler.enumerators import build_enumerator, merge_ranges
from repro.compiler.strategy import Partition
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder


def _banded_kernel():
    """Reads two distant bands of the input (union with a large gap)."""
    kb = KernelBuilder("banded")
    n = kb.scalar("n")
    src = kb.array("src", f32, (n,))
    dst = kb.array("dst", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        dst[gi,] = kb.select(gi < n // 1 if False else gi < 8, src[gi,], src[gi,])
    return kb.finish()


def _two_reads_kernel():
    kb = KernelBuilder("tworeads")
    n = kb.scalar("n")
    src = kb.array("src", f32, (4 * n,))
    dst = kb.array("dst", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        dst[gi,] = src[gi,] + src[gi + 3 * n,]  # bands [0,n) and [3n,4n)
    return kb.finish()


@pytest.fixture(scope="module")
def enum_setup():
    kernel = _two_reads_kernel()
    info = analyze_kernel(kernel)
    enum = build_enumerator(info, "src", "read")
    grid, block = Dim3(8), Dim3(32)
    part = Partition.whole(grid)
    n = 256
    return enum, part, block, grid, {"n": n}, n


def test_union_scan_is_exact(benchmark, enum_setup, write_report):
    enum, part, block, grid, scalars, n = enum_setup

    def run():
        enum._scans.clear()
        return enum.element_ranges(part, block, grid, scalars, (4 * n,))

    ranges, emitted = benchmark(run)
    exact_bytes = sum(hi - lo for lo, hi in ranges) * 4
    hull = (min(lo for lo, _ in ranges), max(hi for _, hi in ranges))
    hull_bytes = (hull[1] - hull[0]) * 4
    text = (
        "Ablation: union scanning vs bounding hull (two bands, gap of 2n)\n"
        f"  per-piece scan: {exact_bytes} bytes across {len(ranges)} ranges\n"
        f"  bounding hull:  {hull_bytes} bytes (over-approximation "
        f"{hull_bytes / exact_bytes:.2f}x)\n"
    )
    write_report("ablation_union_scan.txt", text)
    # Two disjoint bands of n elements each.
    assert ranges == [(0, n), (3 * n, 4 * n)]
    # The hull would transfer ~2x the necessary data.
    assert hull_bytes >= 1.9 * exact_bytes
