"""Shared-copy tracker semantics vs a naive byte-map reference model.

The :class:`~repro.runtime.tracker.SegmentTracker` keeps an owner plus a
sharer set per coalesced segment; the reference model here keeps one
``(owner, sharers)`` pair *per byte* in a plain list. Random interleavings
of writes (``update`` / ``update_many``), synchronization registrations
(``add_sharer``), and queries must agree byte-for-byte — and with no
``add_sharer`` calls the tracker must reproduce the paper's sole-owner
tracker exactly (segments, counts, and all).
"""

from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TrackerError
from repro.runtime.tracker import Segment, SegmentTracker

SIZE = 200


class ByteModel:
    """Naive coherence model: one (owner, sharers) pair per byte.

    It also keeps the op counts the tracker documents: one ``update`` per
    non-empty written range (plus one ``invalidate`` when that range
    discarded a sharer copy), one ``share`` per non-empty registration, one
    ``query`` per queried range, and nothing for a footprint digest.
    """

    def __init__(self, size, owner=0):
        self.cells = [(owner, frozenset())] * size
        self.op_counts = {"query": 0, "update": 0, "share": 0, "invalidate": 0}

    def update(self, lo, hi, owner):
        if lo == hi:
            return 0
        invalidated = 1 if any(self.cells[i][1] for i in range(lo, hi)) else 0
        self.cells[lo:hi] = [(owner, frozenset())] * (hi - lo)
        self.op_counts["update"] += 1
        self.op_counts["invalidate"] += invalidated
        return invalidated

    def update_many(self, ranges, owner):
        return sum(self.update(lo, hi, owner) for lo, hi in ranges)

    def add_sharer(self, lo, hi, dev):
        if lo < hi:
            self.op_counts["share"] += 1
        for i in range(lo, hi):
            o, s = self.cells[i]
            if dev != o:
                self.cells[i] = (o, s | {dev})

    def holders(self, i):
        o, s = self.cells[i]
        return s | {o}

    def runs(self, lo, hi):
        """Maximal runs of equal cells (the canonical segmentation), clipped to [lo, hi).

        A zero-length range strictly inside a run yields one zero-length
        run; on a run boundary or at the end of the buffer it yields none.
        """
        out = []
        start = 0
        for i in range(1, len(self.cells) + 1):
            if i == len(self.cells) or self.cells[i] != self.cells[start]:
                if start < hi and i > lo:
                    out.append((max(start, lo), min(i, hi), *self.cells[start]))
                start = i
        return out

    def query(self, lo, hi):
        self.op_counts["query"] += 1
        return self.runs(lo, hi)

    def query_many(self, ranges):
        self.op_counts["query"] += len(ranges)
        return self.footprint_digest(ranges)

    def footprint_digest(self, ranges):
        return [run for lo, hi in ranges for run in self.runs(lo, hi)]


def _tuples(segments):
    return [(s.start, s.end, s.owner, s.sharers) for s in segments]


def _ranges(points, gaps):
    """Sorted, non-overlapping ranges between consecutive points (empty ones included)."""
    points = sorted(points)
    return list(zip(points, points[1:]))[:: 2 if gaps else 1]


# One op: (kind, a, b, device) — kind 0 = update, 1 = add_sharer, 2 = batched
# update over the subranges of [a, b).
ops_strategy = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, SIZE - 1),
        st.integers(0, SIZE - 1),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=40,
)

# One op: (kind, points, device, gaps). Kinds 0-2 write over [min, max) of the
# points: 0 = update, 1 = add_sharer, 2 = update_many over the ranges between
# consecutive points. Kinds 3-5 read: 3 = query over [min, max), 4 =
# query_many and 5 = footprint_digest over those ranges. Half the points are
# landmarks shared by all ops, so writes leave boundaries there and later
# zero-length ranges land on them, inside segments and at SIZE alike.
model_ops_strategy = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.lists(
            st.integers(0, SIZE) | st.sampled_from([0, SIZE // 4, SIZE // 2, SIZE]),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 5),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=model_ops_strategy)
def test_sharer_tracker_matches_byte_model(ops):
    """Property: every op's answer, the segments and the op counts equal the byte map.

    ``segments()`` must be the maximal-run encoding of the cells (the
    canonical form the replay cache's digests rely on), every read must
    return the clipped runs, and the invariants must hold after every op.
    """
    tr = SegmentTracker(SIZE, 0)
    model = ByteModel(SIZE, 0)
    for kind, points, dev, gaps in ops:
        lo, hi = min(points), max(points)
        ranges = _ranges(points, gaps)
        if kind == 0:
            assert tr.update(lo, hi, dev) == model.update(lo, hi, dev)
        elif kind == 1:
            tr.add_sharer(lo, hi, dev)
            model.add_sharer(lo, hi, dev)
        elif kind == 2:
            assert tr.update_many(ranges, dev) == model.update_many(ranges, dev)
        elif kind == 3:
            assert _tuples(tr.query(lo, hi)) == model.query(lo, hi)
        elif kind == 4:
            assert _tuples(tr.query_many(ranges)) == model.query_many(ranges)
        else:
            assert list(tr.footprint_digest(ranges)) == model.footprint_digest(ranges)
        assert _tuples(tr.segments()) == model.runs(0, SIZE)
        assert tr.op_counts == model.op_counts
        tr.check_invariants()


@settings(max_examples=100, deadline=None)
@given(ops=ops_strategy, probe=st.integers(0, SIZE - 1))
def test_holders_at_matches_byte_model(ops, probe):
    tr = SegmentTracker(SIZE, 0)
    model = ByteModel(SIZE, 0)
    for kind, a, b, dev in ops:
        lo, hi = min(a, b), max(a, b)
        if kind == 1:
            tr.add_sharer(lo, hi, dev)
            model.add_sharer(lo, hi, dev)
        else:
            tr.update(lo, hi, dev)
            model.update(lo, hi, dev)
    assert tr.holders_at(probe) == model.holders(probe)


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, SIZE - 1), st.integers(0, SIZE - 1), st.integers(0, 5)),
        min_size=1,
        max_size=40,
    )
)
def test_sole_owner_mode_reproduces_legacy_tracker(ops):
    """Regression gate: without add_sharer the tracker is the paper's (§8.1).

    Segment boundaries, owners, query results, op counts: all must match a
    tracker driven through the legacy owner-only surface, and no segment
    may ever grow a sharer or report an invalidation.
    """
    tr = SegmentTracker(SIZE, 0)
    legacy_segments = [(0, SIZE, 0)]  # maintained by brute force
    n_ops = 0
    for a, b, owner in ops:
        lo, hi = min(a, b), max(a, b)
        assert tr.update(lo, hi, owner) == 0  # nothing shared, ever
        n_ops += 1 if lo < hi else 0
        flat = []
        for s, e, o in legacy_segments:
            flat.extend([o] * (e - s))
        flat[lo:hi] = [owner] * (hi - lo)
        legacy_segments = []
        for i, o in enumerate(flat):
            if legacy_segments and legacy_segments[-1][2] == o:
                legacy_segments[-1] = (legacy_segments[-1][0], i + 1, o)
            else:
                legacy_segments.append((i, i + 1, o))
    assert [(s.start, s.end, s.owner) for s in tr.segments()] == legacy_segments
    assert all(not s.sharers for s in tr.segments())
    assert tr.op_counts["share"] == 0 and tr.op_counts["invalidate"] == 0
    assert tr.op_counts["update"] == n_ops
    assert tr.op_count == n_ops  # the legacy single counter


# One op: (kind, a, b, device, cuts). Kind 0 = add_sharer over [a, b); 1 =
# update_many over [a, b) cut into ranges with gaps; 2 = the ping-pong steady
# state, made on purpose: the device first takes [a, b) whole, then rewrites
# ranges inside it, so update_many sees one sole-owner segment of the writer.
twin_ops_strategy = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, SIZE - 1),
        st.integers(0, SIZE - 1),
        st.integers(0, 3),
        st.lists(st.integers(0, SIZE), max_size=6),
    ),
    min_size=1,
    max_size=40,
)


def _cut(lo, hi, cuts):
    """Sorted, non-overlapping ranges inside [lo, hi); every other piece is a gap."""
    points = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    return list(zip(points, points[1:]))[::2]


@settings(max_examples=150, deadline=None)
@given(ops=twin_ops_strategy)
def test_update_many_equals_per_range_updates(ops):
    """Property: the batched write (fast path included) is the per-range write.

    A twin tracker is driven by one :meth:`SegmentTracker.update` per range;
    segments, return values and every op count must agree after each step.
    """
    batched, twin = SegmentTracker(SIZE, 0), SegmentTracker(SIZE, 0)
    for kind, a, b, dev, cuts in ops:
        lo, hi = min(a, b), max(a, b)
        if kind == 0:
            batched.add_sharer(lo, hi, dev)
            twin.add_sharer(lo, hi, dev)
        else:
            if kind == 2:
                batched.update(lo, hi, dev)
                twin.update(lo, hi, dev)
            ranges = _cut(lo, hi, cuts)
            assert batched.update_many(ranges, dev) == sum(
                twin.update(x, y, dev) for x, y in ranges
            )
        assert batched.segments() == twin.segments()
        assert batched.op_counts == twin.op_counts
        batched.check_invariants()


#: One batch of sharer registrations: (ranges, device). The ranges come
#: unsorted, may overlap or touch, and may be empty.
share_batch_strategy = st.tuples(
    st.lists(st.tuples(st.integers(0, SIZE), st.integers(0, SIZE)), max_size=8),
    st.integers(0, 3),
)


@settings(max_examples=150, deadline=None)
@given(ops=twin_ops_strategy, batches=st.lists(share_batch_strategy, min_size=1, max_size=40))
def test_add_sharer_many_equals_per_range_add_sharer(ops, batches):
    """Property: one splice per batch is the per-range registration.

    Twin trackers take the same writes and registrations; then each batch
    goes to one as a single :meth:`SegmentTracker.add_sharer_many` and to
    the other one :meth:`SegmentTracker.add_sharer` per range. Segments and
    every op count must agree, and the batched tracker stay canonical,
    after each step.
    """
    batched, twin = SegmentTracker(SIZE, 0), SegmentTracker(SIZE, 0)
    for (kind, a, b, dev, cuts), (pairs, share_dev) in zip(ops, batches):
        lo, hi = min(a, b), max(a, b)
        for tr in (batched, twin):
            if kind == 0:
                tr.add_sharer(lo, hi, dev)
            else:
                tr.update_many(_cut(lo, hi, cuts), dev)
        ranges = [(min(x, y), max(x, y)) for x, y in pairs]
        batched.add_sharer_many(ranges, share_dev)
        for x, y in ranges:
            twin.add_sharer(x, y, share_dev)
        assert batched.segments() == twin.segments()
        assert batched.op_counts == twin.op_counts
        batched.check_invariants()


def test_add_sharer_many_rejects_a_stray_range_untouched():
    tr = SegmentTracker(SIZE, 0)
    tr.update(50, 100, 1)
    before = (tr.segments(), dict(tr.op_counts))
    with pytest.raises(TrackerError):
        tr.add_sharer_many([(0, 10), (SIZE - 5, SIZE + 1)], 2)
    assert (tr.segments(), tr.op_counts) == before


def _query_many_over_every_segment(self, ranges):
    """``SegmentTracker.query_many`` as it was when it built every segment."""
    if not ranges:
        return []
    self.op_counts["query"] += len(ranges)
    segs = self.segments()
    out: List[Segment] = []
    i = 0
    n = len(segs)
    for lo, hi in ranges:
        self._check_range(lo, hi)
        while i < n and segs[i].end <= lo:
            i += 1
        j = i
        while j < n and segs[j].start < hi:
            s = segs[j]
            out.append(Segment(max(s.start, lo), min(s.end, hi), s.owner, s.sharers))
            j += 1
        # The last overlapping segment may also overlap the next range.
        i = max(i, j - 1)
    return out


@settings(max_examples=150, deadline=None)
@given(
    ops=twin_ops_strategy,
    points=st.lists(st.integers(0, SIZE + 4), max_size=12),
    gaps=st.booleans(),
)
def test_query_many_walks_only_its_window(ops, points, gaps):
    """Property: the windowed batched query is the whole-list merge-join.

    Twin trackers take the same writes and sharer registrations; each is
    then asked for the same sorted, non-overlapping ranges (touching or with
    gaps, empty ones included, some past the end of the buffer). Answers,
    errors and op counts must agree.
    """
    windowed, whole = SegmentTracker(SIZE, 0), SegmentTracker(SIZE, 0)
    for kind, a, b, dev, cuts in ops:
        lo, hi = min(a, b), max(a, b)
        for tr in (windowed, whole):
            if kind == 0:
                tr.add_sharer(lo, hi, dev)
            else:
                tr.update_many(_cut(lo, hi, cuts), dev)
    points = sorted(points)
    ranges = list(zip(points, points[1:]))[:: 2 if gaps else 1]
    try:
        want = _query_many_over_every_segment(whole, ranges)
    except TrackerError:
        with pytest.raises(TrackerError):
            windowed.query_many(ranges)
    else:
        assert windowed.query_many(ranges) == want
    assert windowed.op_counts == whole.op_counts


class TestOpClasses:
    """Unit tests for the per-class operation accounting."""

    def test_update_many_inside_own_segment_leaves_the_segments_alone(self):
        """The writer already solely owns the window: counted, not rebuilt."""
        tr = SegmentTracker(100, 0)
        tr.update(10, 90, 3)
        before = tr.segments()

        def frozen(*args):
            raise AssertionError("a no-op write must not touch the segments")

        tr._replace = frozen
        assert tr.update_many([(20, 30), (40, 50), (60, 60)], 3) == 0
        assert tr.op_counts["update"] == 3  # the whole-range write + two non-empty ranges
        assert tr.op_counts["invalidate"] == 0
        assert tr.segments() == before

    def test_update_many_inside_shared_or_foreign_segment_still_rebuilds(self):
        tr = SegmentTracker(100, 0)
        assert tr.update_many([(40, 50)], 2) == 0  # one sole-owner segment, not the writer's
        assert tr.segments() == [Segment(0, 40, 0), Segment(40, 50, 2), Segment(50, 100, 0)]
        tr = SegmentTracker(100, 0)
        tr.add_sharer(0, 100, 1)
        assert tr.update_many([(20, 30)], 0) == 1  # own segment, but a sharer loses its copy
        assert tr.update_many([(40, 50)], 2) == 1  # somebody else's segment
        assert tr.segments() == [
            Segment(0, 20, 0, frozenset({1})),
            Segment(20, 30, 0),
            Segment(30, 40, 0, frozenset({1})),
            Segment(40, 50, 2),
            Segment(50, 100, 0, frozenset({1})),
        ]
        tr.check_invariants()

    def test_query_classes(self):
        tr = SegmentTracker(100, 0)
        tr.query(0, 10)
        tr.query_many([(0, 10), (20, 30), (40, 50)])
        assert tr.op_counts["query"] == 4
        assert tr.op_count == 4

    def test_update_and_invalidate_classes(self):
        tr = SegmentTracker(100, 0)
        assert tr.update(0, 50, 1) == 0
        tr.add_sharer(0, 50, 2)
        assert tr.op_counts["share"] == 1
        # The write discards sharer 2's copy: one invalidation.
        assert tr.update(10, 20, 3) == 1
        assert tr.op_counts["update"] == 2
        assert tr.op_counts["invalidate"] == 1
        # The remaining shared pieces still invalidate later.
        assert tr.update(0, 100, 0) == 1
        assert tr.op_counts["invalidate"] == 2
        assert tr.segments() == [Segment(0, 100, 0)]

    def test_update_many_counts_per_range(self):
        tr = SegmentTracker(100, 0)
        tr.add_sharer(0, 30, 1)
        tr.add_sharer(60, 90, 2)
        # Three ranges; the middle one overlaps no shared bytes.
        assert tr.update_many([(10, 20), (40, 50), (65, 70)], 3) == 2
        assert tr.op_counts["update"] == 3
        assert tr.op_counts["invalidate"] == 2

    def test_add_sharer_idempotent_and_owner_excluded(self):
        tr = SegmentTracker(100, 5)
        tr.add_sharer(0, 100, 5)  # the owner already holds a valid copy
        assert tr.segments() == [Segment(0, 100, 5)]
        tr.add_sharer(0, 100, 1)
        tr.add_sharer(0, 100, 1)
        assert tr.segments() == [Segment(0, 100, 5, frozenset({1}))]
        assert tr.holders_at(50) == frozenset({1, 5})
        tr.check_invariants()

    def test_add_sharer_coalesces_equal_neighbors(self):
        tr = SegmentTracker(100, 0)
        tr.add_sharer(0, 50, 1)
        tr.add_sharer(50, 100, 1)
        assert tr.segments() == [Segment(0, 100, 0, frozenset({1}))]
        tr.check_invariants()
