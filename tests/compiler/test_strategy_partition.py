"""Unit tests for strategy selection and grid partitions (§4, §7)."""

import pytest

from repro.compiler.access_analysis import analyze_kernel
from repro.compiler.strategy import Partition, PartitionStrategy, choose_strategy
from repro.cuda.dim3 import Dim3
from repro.errors import PartitioningError


class TestPartition:
    def test_whole(self):
        p = Partition.whole(Dim3(x=4, y=3, z=2))
        assert p.as_tuple() == (0, 2, 0, 3, 0, 4)
        assert p.n_blocks == 24 and not p.is_empty

    def test_grid_equation_10(self):
        p = Partition(z=(0, 1), y=(2, 5), x=(0, 4))
        assert p.grid() == Dim3(x=4, y=3, z=1)

    def test_empty_partition(self):
        p = Partition(z=(0, 1), y=(3, 3), x=(0, 4))
        assert p.is_empty and p.n_blocks == 0

    def test_range_of(self):
        p = Partition(z=(0, 1), y=(2, 5), x=(1, 4))
        assert p.range_of("y") == (2, 5) and p.range_of("x") == (1, 4)


class TestSplitting:
    def test_balanced_split(self):
        s = PartitionStrategy(axis="y")
        parts = s.partitions(Dim3(x=4, y=10), 3)
        assert [p.y for p in parts] == [(0, 4), (4, 7), (7, 10)]
        assert all(p.x == (0, 4) and p.z == (0, 1) for p in parts)

    def test_exact_division(self):
        s = PartitionStrategy(axis="x")
        parts = s.partitions(Dim3(x=16), 4)
        assert [p.x for p in parts] == [(0, 4), (4, 8), (8, 12), (12, 16)]

    def test_more_parts_than_blocks(self):
        s = PartitionStrategy(axis="x")
        parts = s.partitions(Dim3(x=2), 4)
        assert sum(not p.is_empty for p in parts) == 2
        assert sum(p.n_blocks for p in parts) == 2

    def test_single_part_is_whole_grid(self):
        s = PartitionStrategy(axis="y")
        (p,) = s.partitions(Dim3(x=3, y=5), 1)
        assert p == Partition.whole(Dim3(x=3, y=5))

    def test_partitions_tile_the_grid(self):
        s = PartitionStrategy(axis="y")
        grid = Dim3(x=2, y=13)
        parts = s.partitions(grid, 5)
        covered = []
        for p in parts:
            covered.extend(range(*p.y))
        assert covered == list(range(13))

    def test_invalid_part_count(self):
        with pytest.raises(PartitioningError):
            PartitionStrategy(axis="x").partitions(Dim3(4), 0)


class TestStrategyChoice:
    def test_2d_row_write_prefers_y(self, stencil_kernel):
        info = analyze_kernel(stencil_kernel)
        assert choose_strategy(info).axis == "y"

    def test_1d_kernel_prefers_x(self, copy_kernel):
        info = analyze_kernel(copy_kernel)
        assert choose_strategy(info).axis == "x"

    def test_no_writes_defaults_to_x(self):
        from repro.cuda.dtypes import f32
        from repro.cuda.ir.builder import KernelBuilder

        kb = KernelBuilder("readonly")
        n = kb.scalar("n")
        kb.array("a", f32, (n,))
        info = analyze_kernel(kb.finish())
        assert choose_strategy(info).axis == "x"

    def test_transposed_write_couples_x_to_rows(self):
        # dst[gx, gy]: the x axis drives the slowest-varying written dim.
        from repro.cuda.dtypes import f32
        from repro.cuda.ir.builder import KernelBuilder

        kb = KernelBuilder("transposed")
        n = kb.scalar("n")
        src = kb.array("src", f32, (n, n))
        dst = kb.array("dst", f32, (n, n))
        gy, gx = kb.global_id("y"), kb.global_id("x")
        with kb.if_((gy < n) & (gx < n)):
            dst[gx, gy] = src[gy, gx]
        info = analyze_kernel(kb.finish())
        assert choose_strategy(info).axis == "x"


def test_row_split_beats_a_forced_column_split():
    """Forcing columns on the row-split stencil fragments every row's
    coherence: > 4x the transfers, no less simulated time (8 GPUs)."""
    from repro.compiler.pipeline import compile_app
    from repro.runtime.api import MultiGpuApi
    from repro.runtime.config import RuntimeConfig
    from repro.sim.engine import SimMachine
    from repro.sim.topology import MachineSpec
    from repro.workloads.common import ProblemConfig
    from repro.workloads.hotspot import HotspotWorkload

    wl = HotspotWorkload(ProblemConfig("hotspot", "functional", 256, 6))
    app = compile_app(wl.build_kernels())
    ck = app.kernel("hotspot")
    assert ck.strategy.axis == "y"

    def run(axis):
        ck.strategy = PartitionStrategy(axis=axis)
        machine = SimMachine(MachineSpec(n_gpus=8))
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=8), machine=machine, functional=False)
        wl.run(api, None)
        return machine.elapsed(), api.stats.sync_transfers

    row_time, row_transfers = run("y")
    col_time, col_transfers = run("x")
    assert row_transfers > 0
    assert col_transfers > 4 * row_transfers
    assert col_time >= row_time
