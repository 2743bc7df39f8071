"""Segment trackers for virtual buffers (paper §8.1, extended with sharers).

"The tracker contains a sorted list of non-overlapping segments, each
containing a reference to the buffer instance that holds the most recently
updated copy of that segment." Segments partition the byte range
``[0, size)``; the value of each segment is the owning device id *plus a
sharer set* — the devices holding a valid (byte-identical) copy of the
owner's data. Adjacent segments with equal owner and sharers are merged
eagerly, so a kernel with a 1:1 write pattern keeps exactly one segment per
partition (§8.1's observation about locality limiting fragmentation).

The paper keys a B-tree map by segment start. Canonical coalescing keeps a
tracker down to a few segments, so here the sorted map is three parallel
lists — starts, owners, sharer sets — searched with :mod:`bisect` and
spliced in place; segment *i* ends where segment *i + 1* starts (the last
one at ``size``), so coverage holds by construction.

The sharer set relaxes the paper's §8.3 limitation ("the tracker does not
support shared copies"): a synchronization copy may *register* its
destination as a sharer (:meth:`SegmentTracker.add_sharer`; one launch's
copies into one device go through :meth:`~SegmentTracker.add_sharer_many`
in a single splice), so the next launch skips segments the reader already
holds. MSI-style invalidation keeps the representation coherent: every
write (:meth:`SegmentTracker.update` / :meth:`~SegmentTracker.update_many`)
resets the written range to a sole owner, discarding all sharer copies.
With no ``add_sharer`` calls the tracker degenerates to the paper's
single-owner semantics exactly — segment boundaries, owners, and operation
counts are all unchanged.

Operations are counted per class (``query`` / ``update`` / ``share`` /
``invalidate``) for host-cost accounting; ``op_count`` is their sum, which
in sole-owner mode equals the original single-counter accounting.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.errors import TrackerError

__all__ = ["Segment", "SegmentTracker"]

#: The empty sharer set (interned: almost every segment uses it).
_NO_SHARERS: FrozenSet[int] = frozenset()

#: A clipped segment as a plain tuple: ``(start, end, owner, sharers)``.
_Piece = Tuple[int, int, int, FrozenSet[int]]


@dataclass(frozen=True)
class Segment:
    """A half-open byte range with one owner plus the devices sharing a valid copy."""

    start: int
    end: int
    owner: int
    sharers: FrozenSet[int] = _NO_SHARERS

    @property
    def nbytes(self) -> int:
        return self.end - self.start

    @property
    def holders(self) -> FrozenSet[int]:
        """All devices holding a valid copy: the owner plus every sharer."""
        return self.sharers | {self.owner}


class SegmentTracker:
    """Maps every byte of ``[0, size)`` to its owner and valid-copy sharer set."""

    def __init__(self, size: int, initial_owner: int = 0) -> None:
        if size <= 0:
            raise TrackerError(f"tracker over empty range (size={size})")
        self.size = size
        # Segment i is [_starts[i], _starts[i + 1]) (the last ends at size),
        # owned by _owners[i] and shared with _sharers[i].
        self._starts: List[int] = [0]
        self._owners: List[int] = [initial_owner]
        self._sharers: List[FrozenSet[int]] = [_NO_SHARERS]
        #: Tracker operations per class (host-cost accounting): ``query``
        #: (interval lookups), ``update`` (ownership writes), ``share``
        #: (sharer registrations), ``invalidate`` (updates that discarded at
        #: least one sharer copy).
        self.op_counts: Dict[str, int] = {
            "query": 0,
            "update": 0,
            "share": 0,
            "invalidate": 0,
        }

    @property
    def op_count(self) -> int:
        """Total tracker operations across all classes.

        In sole-owner mode (no sharer registrations) this equals the
        original single-counter accounting exactly.
        """
        return sum(self.op_counts.values())

    # -- queries ------------------------------------------------------------------

    def _clipped(self, lo: int, hi: int) -> List[_Piece]:
        """Every segment overlapping ``[lo, hi)``, clipped to it, in order.

        A zero-length range strictly inside a segment yields one zero-length
        piece; one on a segment boundary or at ``size`` yields none.
        """
        if lo >= self.size:
            return []
        starts = self._starts
        i = bisect_right(starts, lo) - 1
        j = bisect_left(starts, hi, i)
        if i == j:
            return []
        ends = starts[i + 1 : j + 1]
        if len(ends) < j - i:
            ends.append(self.size)
        out = list(zip(starts[i:j], ends, self._owners[i:j], self._sharers[i:j]))
        start, end, owner, sharers = out[0]
        if start < lo:
            out[0] = (lo, end, owner, sharers)
        start, end, owner, sharers = out[-1]
        if end > hi:
            out[-1] = (start, hi, owner, sharers)
        return out

    def query(self, lo: int, hi: int) -> List[Segment]:
        """Segments overlapping ``[lo, hi)``, clipped to it, in order."""
        self._check_range(lo, hi)
        self.op_counts["query"] += 1
        return [Segment(*piece) for piece in self._clipped(lo, hi)]

    def query_many(self, ranges: List[Tuple[int, int]]) -> List[Segment]:
        """Clipped segments for many sorted, non-overlapping ranges.

        The read set of a launch makes this the runtime's hot path.
        ``op_counts`` charge one logical tracker operation per range (the
        cost model charges what the paper's per-interval queries would).
        """
        if not ranges:
            return []
        self.op_counts["query"] += len(ranges)
        out: List[Segment] = []
        for lo, hi in ranges:
            self._check_range(lo, hi)
            out.extend(Segment(*piece) for piece in self._clipped(lo, hi))
        return out

    def footprint_digest(self, runs: List[Tuple[int, int]]) -> Tuple[_Piece, ...]:
        """Stable summary of the tracker state intersecting ``runs``.

        Returns the clipped ``(start, end, owner, sharers)`` tuples of every
        segment overlapping the given sorted, non-overlapping byte runs —
        the exact coherence state a launch whose reads fall inside ``runs``
        can observe. Two trackers with equal digests over a footprint answer
        every query inside that footprint identically (the segmentation is
        canonical: equal-valued neighbors merge eagerly), which is what lets
        the residual replay cache key memoized plans on
        ``(fingerprint, digest vector)`` soundly.

        Costs one bisection per run and charges *no* tracker operation:
        computing the digest is cache bookkeeping, not a dependency-resolution
        query, so ``op_counts`` stay untouched and the replay path remains
        invisible to host-cost accounting.
        """
        out: List[_Piece] = []
        for lo, hi in runs:
            self._check_range(lo, hi)
            out += self._clipped(lo, hi)
        return tuple(out)

    def owner_at(self, offset: int) -> int:
        """The device owning the byte at ``offset``."""
        seg = self.query(offset, offset + 1)
        return seg[0].owner

    def holders_at(self, offset: int) -> FrozenSet[int]:
        """All devices holding a valid copy of the byte at ``offset``."""
        seg = self.query(offset, offset + 1)
        return seg[0].holders

    def segments(self) -> List[Segment]:
        """All segments in order."""
        return [Segment(*piece) for piece in self._clipped(0, self.size)]

    def owners(self) -> Set[int]:
        return set(self._owners)

    @property
    def n_segments(self) -> int:
        return len(self._starts)

    # -- updates --------------------------------------------------------------------

    def _replace(self, lo: int, hi: int, pieces: List[_Piece]) -> None:
        """Overwrite ``[lo, hi)`` with ``pieces`` and restore canonical form.

        ``pieces`` are non-empty, contiguous and cover ``lo < hi`` exactly.
        One splice replaces the segments overlapping the window plus one
        neighbor on each side, merging equal neighbors on the way, so the
        window's edges coalesce in the same pass.
        """
        starts, owners, sharers = self._starts, self._owners, self._sharers
        n = len(starts)
        i = bisect_right(starts, lo) - 1
        j = bisect_left(starts, hi, i + 1)
        p, q = max(i - 1, 0), min(j + 1, n)
        runs: List[Tuple[int, int, FrozenSet[int]]] = []

        def push(start: int, owner: int, shared: FrozenSet[int]) -> None:
            if not runs or runs[-1][1] != owner or runs[-1][2] != shared:
                runs.append((start, owner, shared))

        for k in range(p, i + 1):  # the left neighbor and the head of segment i
            if starts[k] < lo:
                push(starts[k], owners[k], sharers[k])
        for start, _, owner, shared in pieces:
            push(start, owner, shared)
        if (starts[j] if j < n else self.size) > hi:  # the tail of segment j - 1
            push(hi, owners[j - 1], sharers[j - 1])
        if j < n:  # the right neighbor
            push(starts[j], owners[j], sharers[j])
        starts[p:q], owners[p:q], sharers[p:q] = zip(*runs)

    def update(self, lo: int, hi: int, owner: int) -> int:
        """Mark ``[lo, hi)`` as most recently written by ``owner``.

        The write invalidates every shared copy of the range (MSI): the
        range collapses to a sole-owner segment. Returns the number of
        invalidations performed (1 when any overlapped segment had a
        non-empty sharer set, else 0).
        """
        self._check_range(lo, hi)
        if lo == hi:
            return 0
        self.op_counts["update"] += 1
        invalidated = 1 if any(piece[3] for piece in self._clipped(lo, hi)) else 0
        self.op_counts["invalidate"] += invalidated
        self._replace(lo, hi, [(lo, hi, owner, _NO_SHARERS)])
        return invalidated

    def add_sharer(self, lo: int, hi: int, dev: int) -> None:
        """Register ``dev`` as holding a valid copy of ``[lo, hi)``.

        Called after a synchronization copy lands on ``dev``: ownership is
        unchanged, but subsequent queries report ``dev`` among the holders,
        so the next launch can skip re-transferring the range. Segments
        already owned by (or shared with) ``dev`` are left untouched.
        """
        self._check_range(lo, hi)
        if lo == hi:
            return
        self.op_counts["share"] += 1
        self._replace(
            lo,
            hi,
            [
                (start, end, owner, sharers if dev == owner or dev in sharers else sharers | {dev})
                for start, end, owner, sharers in self._clipped(lo, hi)
            ],
        )

    def add_sharer_many(self, ranges: List[Tuple[int, int]], dev: int) -> None:
        """Bulk form of :meth:`add_sharer`: one splice for any list of ranges.

        The ranges may be unsorted and may overlap (one launch's copies
        into one device, in plan order). Registration is a per-byte set
        union, so the result equals calling :meth:`add_sharer` per range in
        any order, and ``op_counts["share"]`` still counts one per non-empty
        range. A range outside the tracker raises before anything changes.
        """
        for lo, hi in ranges:
            self._check_range(lo, hi)
        merged: List[Tuple[int, int]] = []
        for lo, hi in sorted(ranges):
            if lo == hi:
                continue
            self.op_counts["share"] += 1
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        if not merged:
            return
        window_lo, window_hi = merged[0][0], merged[-1][1]
        pieces: List[_Piece] = []
        mi = 0
        for start, end, owner, sharers in self._clipped(window_lo, window_hi):
            added = sharers if dev == owner or dev in sharers else sharers | {dev}
            while start < end:
                while merged[mi][1] <= start:
                    mi += 1
                lo, hi = merged[mi]
                if lo <= start:  # inside a registered range
                    cut = min(end, hi)
                    pieces.append((start, cut, owner, added))
                else:  # in the gap before it
                    cut = min(end, lo)
                    pieces.append((start, cut, owner, sharers))
                start = cut
        self._replace(window_lo, window_hi, pieces)

    def update_many(self, ranges: List[Tuple[int, int]], owner: int) -> int:
        """Bulk form of :meth:`update` for sorted, non-overlapping ranges.

        Rebuilds the affected window in one splice: listed ranges collapse
        to the new sole owner (invalidating sharer copies) and gaps keep
        their current owner+sharers — so a stencil's thousands of per-row
        write ranges cost one list splice. Returns the number of ranges
        whose write discarded at least one sharer copy.
        """
        ranges = [(lo, hi) for lo, hi in ranges if lo < hi]
        if not ranges:
            return 0
        self.op_counts["update"] += len(ranges)
        window_lo, window_hi = ranges[0][0], ranges[-1][1]
        self._check_range(window_lo, window_hi)
        existing = self._clipped(window_lo, window_hi)
        if len(existing) == 1 and existing[0][2] == owner and not existing[0][3]:
            # The writer already solely owns the whole window (a ping-pong
            # loop's steady state): the rebuild would reproduce the segments.
            return 0

        invalidated = 0
        shared = [(start, end) for start, end, _, sharers in existing if sharers]
        if shared:
            si = 0
            for lo, hi in ranges:
                while si < len(shared) and shared[si][1] <= lo:
                    si += 1
                if si < len(shared) and shared[si][0] < hi:
                    invalidated += 1
        self.op_counts["invalidate"] += invalidated

        pieces: List[_Piece] = []
        ei = 0
        cursor = window_lo
        for lo, hi in ranges:
            # The gap before this range keeps its existing ownership.
            while cursor < lo:
                while existing[ei][1] <= cursor:
                    ei += 1
                _, end, who, sharers = existing[ei]
                pieces.append((cursor, min(end, lo), who, sharers))
                cursor = min(end, lo)
            pieces.append((lo, hi, owner, _NO_SHARERS))
            cursor = hi
        self._replace(window_lo, window_hi, pieces)
        return invalidated

    # -- invariants ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Full coverage, no empty segment, no mergeable neighbors, owner ∉ sharers."""
        starts = self._starts
        if not starts or len(starts) != len(self._owners) or len(starts) != len(self._sharers):
            raise TrackerError("tracker segment lists are empty or of unequal length")
        if starts[0] != 0:
            raise TrackerError(f"tracker does not cover [0, {self.size})")
        segs = [
            Segment(*piece)
            for piece in zip(starts, starts[1:] + [self.size], self._owners, self._sharers)
        ]
        for s in segs:
            if s.start >= s.end:
                raise TrackerError(f"empty or out-of-order segment {s}")
            if s.owner in s.sharers:
                raise TrackerError(f"segment {s} lists its owner as a sharer")
        for a, b in zip(segs, segs[1:]):
            if a.owner == b.owner and a.sharers == b.sharers:
                raise TrackerError(f"unmerged neighbors {a} and {b}")

    def _check_range(self, lo: int, hi: int) -> None:
        if not (0 <= lo <= hi <= self.size):
            raise TrackerError(f"range [{lo}, {hi}) outside tracker [0, {self.size})")

    def __repr__(self) -> str:
        def fmt(s: Segment) -> str:
            extra = f"+{sorted(s.sharers)}" if s.sharers else ""
            return f"[{s.start},{s.end})->{s.owner}{extra}"

        return f"SegmentTracker({', '.join(fmt(s) for s in self.segments())})"
