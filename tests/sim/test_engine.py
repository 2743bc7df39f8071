"""Unit tests for the timing engine (scheduler, lanes, staging bus)."""

import random
from bisect import insort

import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import HOST
from repro.errors import SimulationError
from repro.sim.engine import SimMachine, _Lane
from repro.sim.topology import MachineSpec
from repro.sim.trace import Category

SPEC = MachineSpec(
    n_gpus=4,
    pcie_bw=1e9,
    host_bus_bw=2e9,
    pcie_latency=0.0,
    staging_latency=0.0,
    issue_overhead=0.0,
    sync_overhead=0.0,
    staging_factor=2.0,
    p2p_enabled=False,
)


class TestLane:
    def test_next_fit_empty(self):
        lane = _Lane()
        assert lane.next_fit(3.0, 1.0) == 3.0

    def test_backfill_into_gap(self):
        lane = _Lane()
        lane.reserve(0.0, 1.0)
        lane.reserve(5.0, 6.0)
        assert lane.next_fit(0.0, 2.0) == 1.0  # gap [1, 5)
        assert lane.next_fit(0.0, 5.0) == 6.0  # too big for the gap

    def test_avail(self):
        lane = _Lane()
        assert lane.avail == 0.0
        lane.reserve(2.0, 4.0)
        assert lane.avail == 4.0


class _LinearLane:
    """The lane as it was before bisection: scan from index 0. The oracle."""

    def __init__(self):
        self.busy = []

    def next_fit(self, earliest, duration):
        t = earliest
        for start, end in self.busy:
            if t + duration <= start:
                return t
            if end > t:
                t = end
        return t

    def reserve(self, start, end):
        insort(self.busy, (start, end))
        if len(self.busy) > 512:
            horizon = self.busy[len(self.busy) // 2][0]
            merged = [iv for iv in self.busy if iv[1] > horizon]
            prefix_end = max((iv[1] for iv in self.busy if iv[1] <= horizon), default=0.0)
            self.busy = [(0.0, prefix_end)] + merged if prefix_end > 0 else merged


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lookback=st.sampled_from([0.0, 4.0, 64.0, 1e9]))
def test_bisected_lane_equals_linear_scan(seed, lookback):
    """Random next_fit/reserve interleavings: bisecting skips nothing that matters.

    ``lookback`` is how far before the lane's drain time a copy may become
    ready: 0 appends, small values backfill recent gaps, 1e9 probes the whole
    list (and the merged prefix compaction leaves at the front). Durations
    are multiples of 1/8 so that exact fits (``t + duration == start``) and
    abutting intervals occur. 1200 steps cross the 512-interval compaction
    at least twice.
    """
    rng = random.Random(seed)
    lane, oracle = _Lane(), _LinearLane()
    compactions = 0
    for _ in range(1200):
        earliest = max(0.0, oracle.busy[-1][1] - rng.random() * lookback) if oracle.busy else 0.0
        earliest = round(earliest * 8) / 8 + rng.choice([0.0, 0.0, 0.125, 1.5])
        duration = rng.choice([0.125, 0.25, 0.5, 1.0, 3.0])
        start = lane.next_fit(earliest, duration)
        assert start == oracle.next_fit(earliest, duration)
        if rng.random() < 0.9:
            before = len(lane.busy)
            lane.reserve(start, start + duration)
            oracle.reserve(start, start + duration)
            compactions += len(lane.busy) < before
            assert lane.busy == oracle.busy
            assert lane._ends == [end for _, end in lane.busy]
    assert compactions >= 2
    assert all(a[0] < a[1] <= b[0] for a, b in zip(lane.busy, lane.busy[1:]))  # sorted, disjoint


class TestKernels:
    def test_kernels_on_different_devices_overlap(self):
        m = SimMachine(SPEC)
        m.launch_kernel(0, 1.0)
        m.launch_kernel(1, 1.0)
        m.synchronize()
        assert m.now == pytest.approx(1.0)

    def test_kernels_on_same_device_serialize(self):
        m = SimMachine(SPEC)
        m.launch_kernel(0, 1.0)
        m.launch_kernel(0, 1.0)
        m.synchronize()
        assert m.now == pytest.approx(2.0)

    def test_bad_device_rejected(self):
        m = SimMachine(SPEC)
        with pytest.raises(SimulationError):
            m.launch_kernel(9, 1.0)
        with pytest.raises(SimulationError):
            m.launch_kernel(0, -1.0)


class TestTransfers:
    def test_h2d_duration(self):
        m = SimMachine(SPEC)
        m.transfer(HOST, 0, int(1e9), synchronous=True)
        assert m.now == pytest.approx(1.0)

    def test_d2d_staging_inflation(self):
        m = SimMachine(SPEC)
        m.transfer(0, 1, int(1e9), synchronous=True)
        # 2x staging over a 1 GB/s lane.
        assert m.now == pytest.approx(2.0)

    def test_p2p_avoids_staging(self):
        spec = MachineSpec(
            n_gpus=2, pcie_bw=1e9, p2p_enabled=True, pcie_latency=0.0,
            issue_overhead=0.0, sync_overhead=0.0, host_bus_bw=1e12,
        )
        m = SimMachine(spec)
        m.transfer(0, 1, int(1e9), synchronous=True)
        assert m.now == pytest.approx(1.0)

    def test_disjoint_pairs_overlap(self):
        m = SimMachine(SPEC)
        m.transfer(0, 1, int(1e9))
        m.transfer(2, 3, int(1e9))
        m.synchronize()
        # Two staged 2s copies; the 2 GB/s bus carries 2 GB each => the bus
        # serializes them: 2 + 2 = 4s? No: bus time per copy = 2GB/2GBps = 1s
        # but lane time is 2s; the bus slots can overlap lanes differently.
        # Lane-bound: both lanes busy 2s in parallel; bus: 1s + 1s.
        assert m.elapsed() <= 4.0 + 1e-9
        assert m.elapsed() >= 2.0

    def test_same_lane_serializes(self):
        m = SimMachine(SPEC)
        m.transfer(HOST, 0, int(1e9))
        m.transfer(HOST, 0, int(1e9))
        m.synchronize()
        assert m.now >= 2.0

    def test_backfill_no_lane_cascade(self):
        m = SimMachine(SPEC)
        # Staged big copy: lanes 0,1 busy 4s, bus busy 2s. An independent
        # pair must wait only for the *bus* (shared), not for lanes 0/1 —
        # the naive "max of availability times" scheduler would cascade to 4s.
        m.transfer(0, 1, int(2e9))
        m.transfer(2, 3, int(1e8))
        t_end = min(iv.end for iv in m.trace.intervals if iv.resource == "lane2")
        assert t_end < 2.5  # bus frees at 2.0; 0.2s lane time after that

    def test_transfer_waits_for_producing_kernel(self):
        m = SimMachine(SPEC)
        m.launch_kernel(0, 5.0)
        m.transfer(0, 1, int(1e8))
        end = max(iv.end for iv in m.trace.intervals if iv.category is Category.TRANSFERS)
        assert end >= 5.0

    def test_zero_bytes_is_free(self):
        m = SimMachine(SPEC)
        m.transfer(0, 1, 0, synchronous=True)
        assert m.now == 0.0

    def test_first_fit_that_never_converges_raises(self):
        """A copy with no common gap must not be reserved on top of another."""

        class Drifting(_Lane):
            def next_fit(self, earliest, duration):
                return earliest + 1.0  # never agrees with the proposal

        m = SimMachine(SPEC)
        m._lanes[0] = Drifting()
        with pytest.raises(SimulationError, match="'halo' -1->0 .* 1000 first-fit rounds"):
            m.transfer(HOST, 0, 1024, label="halo")
        assert m._lanes[0].busy == [] and m._bus.busy == []

    def test_negative_bytes_rejected(self):
        m = SimMachine(SPEC)
        with pytest.raises(SimulationError):
            m.transfer(0, 1, -1)


class TestHostAndSync:
    def test_host_compute_advances_clock(self):
        m = SimMachine(SPEC)
        m.host_compute(0.5, Category.PATTERNS)
        assert m.now == pytest.approx(0.5)
        assert m.trace.busy_time(Category.PATTERNS) == pytest.approx(0.5)

    def test_sync_specific_devices(self):
        m = SimMachine(SPEC)
        m.launch_kernel(0, 1.0)
        m.launch_kernel(1, 3.0)
        m.synchronize([0])
        assert m.now == pytest.approx(1.0)
        m.synchronize()
        assert m.now == pytest.approx(3.0)

    def test_wait_device(self):
        m = SimMachine(SPEC)
        m.launch_kernel(2, 2.0)
        m.wait_device(2)
        assert m.now == pytest.approx(2.0)

    def test_elapsed_includes_all_resources(self):
        m = SimMachine(SPEC)
        m.transfer(HOST, 3, int(1e9))
        assert m.now == 0.0  # async
        assert m.elapsed() == pytest.approx(1.0)

    def test_issue_overhead_accounted(self):
        spec = MachineSpec(n_gpus=1, issue_overhead=1e-3, sync_overhead=0.0)
        m = SimMachine(spec)
        m.launch_kernel(0, 0.0)
        assert m.now == pytest.approx(1e-3)


class TestTrace:
    def test_categories_recorded(self):
        m = SimMachine(SPEC)
        m.launch_kernel(0, 1.0, label="k")
        m.transfer(0, 1, int(1e6), label="t")
        m.host_compute(0.1, Category.PATTERNS)
        by = m.trace.by_category()
        assert by[Category.APPLICATION] == pytest.approx(1.0)
        assert by[Category.TRANSFERS] > 0
        assert by[Category.PATTERNS] == pytest.approx(0.1)

    def test_by_resource(self):
        m = SimMachine(SPEC)
        m.launch_kernel(2, 1.0)
        assert "gpu2" in m.trace.by_resource()
