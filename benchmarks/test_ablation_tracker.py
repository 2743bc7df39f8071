"""Ablation: the segment tracker vs a whole-list rebuild tracker (§8.1).

The paper bases its tracker on a B-tree map. Here the sorted map is three
parallel lists searched with ``bisect``, and an update splices only the
segments it overlaps plus one neighbor on each side. This ablation compares
that with the naive list tracker, which rebuilds, re-sorts and re-merges the
whole segment list on every update, on a fragmentation-heavy workload, and
also measures the batched update path.
"""

import random
from bisect import bisect_right

import pytest

from repro.runtime.tracker import SegmentTracker


class ListTracker:
    """Reference tracker: sorted (start, end, owner) list, linear updates."""

    def __init__(self, size, initial_owner=0):
        self.size = size
        self.segments = [(0, size, initial_owner)]

    def update(self, lo, hi, owner):
        if lo >= hi:
            return
        out = []
        for s, e, o in self.segments:
            if e <= lo or s >= hi:
                out.append((s, e, o))
            else:
                if s < lo:
                    out.append((s, lo, o))
                if e > hi:
                    out.append((hi, e, o))
        out.append((lo, hi, owner))
        out.sort()
        merged = [out[0]]
        for s, e, o in out[1:]:
            ls, le, lo_ = merged[-1]
            if o == lo_ and s == le:
                merged[-1] = (ls, e, o)
            else:
                merged.append((s, e, o))
        self.segments = merged

    def query(self, lo, hi):
        return [
            (max(s, lo), min(e, hi), o)
            for s, e, o in self.segments
            if e > lo and s < hi
        ]


def _workload(ops=400, size=1 << 20, owners=16, seed=5):
    rng = random.Random(seed)
    out = []
    for _ in range(ops):
        lo = rng.randrange(0, size)
        hi = min(size, lo + rng.randrange(1, size // 64))
        out.append((lo, hi, rng.randrange(owners)))
    return out, size


def test_segment_tracker(benchmark):
    ops, size = _workload()

    def run():
        tr = SegmentTracker(size, 0)
        for lo, hi, owner in ops:
            tr.update(lo, hi, owner)
            tr.query(max(0, lo - 64), min(size, hi + 64))
        return tr.n_segments

    segs = benchmark(run)
    assert segs > 1


def test_list_tracker(benchmark):
    ops, size = _workload()

    def run():
        tr = ListTracker(size, 0)
        for lo, hi, owner in ops:
            tr.update(lo, hi, owner)
            tr.query(max(0, lo - 64), min(size, hi + 64))
        return len(tr.segments)

    segs = benchmark(run)
    assert segs > 1


def test_batched_update_many(benchmark):
    """The runtime's hot path: thousands of per-row ranges per call."""
    size = 1 << 22
    ranges = [(r * 4096 + 4, r * 4096 + 4092) for r in range(1024)]

    def run():
        tr = SegmentTracker(size, 0)
        for gpu in range(4):
            tr.update_many(ranges[gpu * 256 : (gpu + 1) * 256], gpu)
        return tr.n_segments

    segs = benchmark(run)
    assert segs >= 4


def test_trackers_agree():
    ops, size = _workload(ops=150, size=4096)
    a = SegmentTracker(size, 0)
    b = ListTracker(size, 0)
    for lo, hi, owner in ops:
        a.update(lo, hi, owner)
        b.update(lo, hi, owner)
    assert [(s.start, s.end, s.owner) for s in a.segments()] == b.segments
