"""Segment trackers for virtual buffers (paper §8.1, extended with sharers).

"The tracker contains a sorted list of non-overlapping segments, each
containing a reference to the buffer instance that holds the most recently
updated copy of that segment." Segments partition the byte range
``[0, size)``; the value of each segment is the owning device id *plus a
sharer set* — the devices holding a valid (byte-identical) copy of the
owner's data. Adjacent segments with equal owner and sharers are merged
eagerly, so a kernel with a 1:1 write pattern keeps exactly one segment per
partition (§8.1's observation about locality limiting fragmentation).

The sharer set relaxes the paper's §8.3 limitation ("the tracker does not
support shared copies"): a synchronization copy may *register* its
destination as a sharer (:meth:`SegmentTracker.add_sharer`), so the next
launch skips segments the reader already holds. MSI-style invalidation
keeps the representation coherent: every write (:meth:`SegmentTracker.update`
/ :meth:`~SegmentTracker.update_many`) resets the written range to a sole
owner, discarding all sharer copies. With no ``add_sharer`` calls the
tracker degenerates to the paper's single-owner semantics exactly —
segment boundaries, owners, and operation counts are all unchanged.

Operations are counted per class (``query`` / ``update`` / ``share`` /
``invalidate``) for host-cost accounting; ``op_count`` is their sum, which
in sole-owner mode equals the original single-counter accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.errors import TrackerError
from repro.runtime.btree import BTreeMap

__all__ = ["Segment", "SegmentTracker"]

#: The empty sharer set (interned: almost every segment uses it).
_NO_SHARERS: FrozenSet[int] = frozenset()


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

    def __init__(self, size: int, initial_owner: int = 0, *, min_degree: int = 8) -> None:
        if size <= 0:
            raise TrackerError(f"tracker over empty range (size={size})")
        self.size = size
        # key = segment start; value = (segment end, owner, sharers)
        self._map = BTreeMap(min_degree)
        self._map.insert(0, (size, initial_owner, _NO_SHARERS))
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

    def query(self, lo: int, hi: int) -> List[Segment]:
        """Segments overlapping ``[lo, hi)``, clipped to it, in order."""
        self._check_range(lo, hi)
        self.op_counts["query"] += 1
        return self._query_nocount(lo, hi)

    def _query_nocount(self, lo: int, hi: int) -> List[Segment]:
        out: List[Segment] = []
        entry = self._map.floor(lo)
        if entry is None:
            raise TrackerError("tracker lost coverage of offset 0")
        start = entry[0]
        for key, (end, owner, sharers) in self._map.items_from(start):
            if key >= hi:
                break
            if end <= lo:
                continue
            out.append(Segment(max(key, lo), min(end, hi), owner, sharers))
        return out

    def footprint_digest(
        self, runs: List[Tuple[int, int]]
    ) -> Tuple[Tuple[int, int, int, FrozenSet[int]], ...]:
        """Stable summary of the tracker state intersecting ``runs``.

        Returns the clipped ``(start, end, owner, sharers)`` tuples of every
        segment overlapping the given sorted, non-overlapping byte runs —
        the exact coherence state a launch whose reads fall inside ``runs``
        can observe. Two trackers with equal digests over a footprint answer
        every query inside that footprint identically (the segmentation is
        canonical: equal-valued neighbors merge eagerly), which is what lets
        the residual replay cache key memoized plans on
        ``(fingerprint, digest vector)`` soundly.

        Costs O(segments-in-footprint) tree walking and charges *no* tracker
        operation: computing the digest is cache bookkeeping, not a
        dependency-resolution query, so ``op_counts`` stay untouched and the
        replay path remains invisible to host-cost accounting.
        """
        if not runs:
            return ()
        out: List[Tuple[int, int, int, FrozenSet[int]]] = []
        # Inlined tuple-only variant of _query_nocount: the digest runs on
        # every launch's hot path, so no Segment objects are built.
        floor = self._map.floor
        items_from = self._map.items_from
        for lo, hi in runs:
            self._check_range(lo, hi)
            entry = floor(lo)
            if entry is None:
                raise TrackerError("tracker lost coverage of offset 0")
            for key, (end, owner, sharers) in items_from(entry[0]):
                if key >= hi:
                    break
                if end <= lo:
                    continue
                out.append((max(key, lo), min(end, hi), owner, sharers))
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
        return [Segment(k, end, owner, sharers) for k, (end, owner, sharers) in self._map.items()]

    def owners(self) -> Set[int]:
        return {owner for _, (_, owner, _) in self._map.items()}

    @property
    def n_segments(self) -> int:
        return len(self._map)

    # -- updates --------------------------------------------------------------------

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
        invalidated = 1 if any(s.sharers for s in self._query_nocount(lo, hi)) else 0
        self.op_counts["invalidate"] += invalidated

        self._split_at(lo)
        self._split_at(hi)

        # Remove all segments fully inside [lo, hi).
        doomed = [k for k, _ in self._map.range_items(lo, hi)]
        for k in doomed:
            self._map.delete(k)
        self._map.insert(lo, (hi, owner, _NO_SHARERS))
        self._coalesce(lo, hi)
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

        self._split_at(lo)
        self._split_at(hi)
        changes: List[Tuple[int, Tuple[int, int, FrozenSet[int]]]] = []
        for key, (end, owner, sharers) in self._map.range_items(lo, hi):
            if dev == owner or dev in sharers:
                continue
            changes.append((key, (end, owner, sharers | {dev})))
        for key, value in changes:
            self._map.insert(key, value)
        # Re-coalesce the window (registration may equalize neighbors). The
        # reverse walk keeps every remaining key valid: merging into the
        # previous segment only deletes keys not yet visited via `get`.
        for key in reversed([k for k, _ in self._map.range_items(lo, hi)]):
            value = self._map.get(key)
            if value is not None:
                self._coalesce(key, value[0])

    def _split_at(self, offset: int) -> None:
        """Split the segment containing ``offset`` so a boundary falls on it."""
        if offset <= 0 or offset >= self.size:
            return
        entry = self._map.floor(offset)
        if entry is None:
            raise TrackerError("tracker lost coverage of offset 0")
        key, (end, owner, sharers) = entry
        if key < offset < end:
            self._map.insert(key, (offset, owner, sharers))
            self._map.insert(offset, (end, owner, sharers))

    def _coalesce(self, lo: int, hi: int) -> None:
        """Merge the segment starting at ``lo`` with equal-value neighbors."""
        start, (end, owner, sharers) = lo, self._map.get(lo)
        prev = self._map.floor(lo - 1) if lo > 0 else None
        if prev is not None:
            pk, (pend, powner, psharers) = prev
            if pend == start and powner == owner and psharers == sharers:
                self._map.delete(start)
                self._map.insert(pk, (end, owner, sharers))
                start = pk
        nxt = self._map.ceiling(end)
        if nxt is not None:
            nk, (nend, nowner, nsharers) = nxt
            if nk == end and nowner == owner and nsharers == sharers:
                self._map.delete(nk)
                self._map.insert(start, (nend, owner, sharers))

    # -- batched operations ------------------------------------------------------------

    def query_many(self, ranges: List[Tuple[int, int]]) -> List[Segment]:
        """Clipped segments for many sorted, non-overlapping ranges.

        One descent to the first range, then one merge-join pass over the
        segments up to the last range's end, instead of one descent per
        range; the ranges of a launch's read set make this the runtime's
        hot path. ``op_counts`` still charge one logical tracker operation
        per range (the cost model charges what the paper's per-interval
        queries would).
        """
        if not ranges:
            return []
        self.op_counts["query"] += len(ranges)
        self._check_range(*ranges[0])
        window_hi = ranges[-1][1]
        segs: List[Tuple[int, int, int, FrozenSet[int]]] = []
        for key, (end, owner, sharers) in self._map.items_from(self._map.floor(ranges[0][0])[0]):
            if key >= window_hi:
                break
            segs.append((key, end, owner, sharers))
        out: List[Segment] = []
        i = 0
        n = len(segs)
        for lo, hi in ranges:
            self._check_range(lo, hi)
            while i < n and segs[i][1] <= lo:
                i += 1
            j = i
            while j < n and segs[j][0] < hi:
                start, end, owner, sharers = segs[j]
                out.append(Segment(max(start, lo), min(end, hi), owner, sharers))
                j += 1
            # The last overlapping segment may also overlap the next range.
            i = max(i, j - 1)
        return out

    def update_many(self, ranges: List[Tuple[int, int]], owner: int) -> int:
        """Bulk form of :meth:`update` for sorted, non-overlapping ranges.

        Rebuilds the affected window in one pass: listed ranges collapse to
        the new sole owner (invalidating sharer copies), gaps keep their
        current owner+sharers, and the result is coalesced before touching
        the B-tree — so a stencil's thousands of per-row write ranges
        collapse into a handful of tree operations. Returns the number of
        ranges whose write discarded at least one sharer copy.
        """
        ranges = [(lo, hi) for lo, hi in ranges if lo < hi]
        if not ranges:
            return 0
        self.op_counts["update"] += len(ranges)
        window_lo, window_hi = ranges[0][0], ranges[-1][1]
        self._check_range(window_lo, window_hi)
        existing = self._query_nocount(window_lo, window_hi)
        if len(existing) == 1 and existing[0].owner == owner and not existing[0].sharers:
            # The writer already solely owns the whole window (a ping-pong
            # loop's steady state): the rebuild would reproduce the tree.
            return 0

        invalidated = 0
        shared = [(s.start, s.end) for s in existing if s.sharers]
        if shared:
            si = 0
            for lo, hi in ranges:
                while si < len(shared) and shared[si][1] <= lo:
                    si += 1
                if si < len(shared) and shared[si][0] < hi:
                    invalidated += 1
        self.op_counts["invalidate"] += invalidated

        # Build the window's new (start, end, owner, sharers) list.
        pieces: List[Tuple[int, int, int, FrozenSet[int]]] = []

        def add(lo: int, hi: int, who: int, sharers: FrozenSet[int]) -> None:
            if lo >= hi:
                return
            if pieces and pieces[-1][2:] == (who, sharers) and pieces[-1][1] == lo:
                pieces[-1] = (pieces[-1][0], hi, who, sharers)
            else:
                pieces.append((lo, hi, who, sharers))

        ei = 0
        cursor = window_lo
        for lo, hi in ranges:
            # Gap before this range keeps existing ownership.
            gap_lo = cursor
            while gap_lo < lo:
                while ei < len(existing) and existing[ei].end <= gap_lo:
                    ei += 1
                seg = existing[ei]
                add(gap_lo, min(seg.end, lo), seg.owner, seg.sharers)
                gap_lo = min(seg.end, lo)
            add(lo, hi, owner, _NO_SHARERS)
            cursor = hi

        # Replace the window in the tree.
        entry = self._map.floor(window_lo)
        assert entry is not None
        k0, (end0, owner0, sharers0) = entry
        head = (k0, window_lo, owner0, sharers0) if k0 < window_lo else None
        entry = self._map.floor(window_hi - 1)
        assert entry is not None
        k1, (end1, owner1, sharers1) = entry
        tail = (window_hi, end1, owner1, sharers1) if end1 > window_hi else None
        for k in [k for k, _ in self._map.range_items(k0, window_hi)]:
            self._map.delete(k)
        if head is not None:
            if pieces and pieces[0][2:] == head[2:] and head[1] == pieces[0][0]:
                pieces[0] = (head[0], pieces[0][1], head[2], head[3])
            else:
                self._map.insert(head[0], (head[1], head[2], head[3]))
        if tail is not None:
            if pieces and pieces[-1][2:] == tail[2:] and pieces[-1][1] == tail[0]:
                pieces[-1] = (pieces[-1][0], tail[1], tail[2], tail[3])
            else:
                self._map.insert(tail[0], (tail[1], tail[2], tail[3]))
        for lo, hi, who, sharers in pieces:
            self._map.insert(lo, (hi, who, sharers))
        # Merge across the window edges.
        first_key = pieces[0][0] if pieces else window_lo
        if self._map.get(first_key) is not None:
            self._coalesce(first_key, self._map.get(first_key)[0])
        last = self._map.floor(window_hi - 1)
        if last is not None:
            self._coalesce(last[0], last[1][0])
        return invalidated

    # -- invariants ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Full coverage, no overlap, no mergeable neighbors, owner ∉ sharers."""
        segs = self.segments()
        if not segs:
            raise TrackerError("tracker has no segments")
        if segs[0].start != 0 or segs[-1].end != self.size:
            raise TrackerError(f"tracker does not cover [0, {self.size})")
        for a, b in zip(segs, segs[1:]):
            if a.end != b.start:
                raise TrackerError(f"gap or overlap between {a} and {b}")
            if a.owner == b.owner and a.sharers == b.sharers:
                raise TrackerError(f"unmerged neighbors {a} and {b}")
        for s in segs:
            if s.owner in s.sharers:
                raise TrackerError(f"segment {s} lists its owner as a sharer")
        self._map.check_invariants()

    def _check_range(self, lo: int, hi: int) -> None:
        if not (0 <= lo <= hi <= self.size):
            raise TrackerError(f"range [{lo}, {hi}) outside tracker [0, {self.size})")

    def __repr__(self) -> str:
        def fmt(s: Segment) -> str:
            extra = f"+{sorted(s.sharers)}" if s.sharers else ""
            return f"[{s.start},{s.end})->{s.owner}{extra}"

        return f"SegmentTracker({', '.join(fmt(s) for s in self.segments())})"
