"""Interval consumers that trust normalized range lists.

``trim_copies`` normalizes its ``keep`` list once and bisects each copy's
window into it; ``TaskGraph.finalize`` intersects footprints — normalized
when lowered — without normalizing them again. Their predecessors, which
ran :func:`~repro.poly.intervals.intersect_intervals` (normalize both sides,
then intersect) per copy and per footprint pair, are kept below verbatim as
the oracles, and must agree on random inputs: zero-length copies, unsorted
and overlapping ``keep`` lists, empty ones, and every footprint lowering.
"""

from typing import List, Sequence, Tuple

from hypothesis import given, settings, strategies as st

from repro.cluster.topology import ClusterSpec
from repro.poly.intervals import (
    intersect_intervals,
    intersect_normalized,
    normalize_intervals,
    total_bytes,
)
from repro.runtime.sync import trim_copies
from repro.runtime.tracker import Segment
from repro.tasks.footprints import Footprint, lower_access, opaque, region2d, span, whole
from repro.tasks.graph import TaskGraph

# ---------------------------------------------------------------------------
# The oracles: the predecessors, verbatim
# ---------------------------------------------------------------------------


def oracle_trim_copies(
    copies: Sequence[Segment],
    keep: Sequence[Tuple[int, int]],
    gpu: int,
    cluster=None,
) -> Tuple[List[Segment], int, int]:
    trimmed: List[Segment] = []
    overapprox = overapprox_inter = 0
    for seg in copies:
        pieces = intersect_intervals([(seg.start, seg.end)], keep)
        slack = seg.nbytes - sum(hi - lo for lo, hi in pieces)
        if slack:
            overapprox += slack
            if cluster is not None and not cluster.same_node(seg.owner, gpu):
                overapprox_inter += slack
        trimmed.extend(Segment(lo, hi, seg.owner) for lo, hi in pieces)
    return trimmed, overapprox, overapprox_inter


def oracle_overlap(a: Sequence[Footprint], b: Sequence[Footprint]) -> Tuple[int, bool]:
    nbytes = 0
    opaque = False
    by_key = {}
    for fp in a:
        by_key.setdefault(fp.key, []).append((fp.intervals, fp.affine))
    for fp in b:
        for intervals, affine in by_key.get(fp.key, ()):
            common = intersect_intervals(intervals, fp.intervals)
            if common:
                nbytes += total_bytes(common)
                opaque = opaque or not affine or not fp.affine
    return nbytes, opaque


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

ranges = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 60)).map(lambda t: (min(t), max(t))),
    max_size=8,
)


@st.composite
def copy_lists(draw):
    """Ascending, possibly abutting copies; some zero-length."""
    copies = []
    pos = draw(st.integers(0, 10))
    for _ in range(draw(st.integers(0, 6))):
        start = pos + draw(st.integers(0, 6))
        end = start + draw(st.sampled_from([0, 1, 3, 8, 15]))
        copies.append(Segment(start, end, draw(st.integers(0, 3))))
        pos = end
    return copies


class TwoNodes:
    """Devices 0-1 on one node, 2-3 on the other."""

    @staticmethod
    def same_node(a: int, b: int) -> bool:
        return a // 2 == b // 2


class Buf:
    def __init__(self, vb_id: int, nbytes: int):
        self.vb_id = vb_id
        self.nbytes = nbytes


BUFS = [Buf(0, 96), Buf(1, 64), Buf(2, 0)]


@st.composite
def footprints(draw):
    """Footprints from every lowering over three buffers, one zero-sized."""
    buf = draw(st.sampled_from(BUFS))
    form = draw(st.sampled_from(["span", "region", "whole", "opaque", "bare"]))
    if form == "span" and buf.nbytes:
        lo = draw(st.integers(0, buf.nbytes - 1))
        return lower_access(span(buf, lo, draw(st.integers(lo + 1, buf.nbytes))))
    if form == "region" and buf.nbytes:
        # Halo bounds clip at the border, never to nothing.
        r0, c0 = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
        rows = (r0, r0 + draw(st.integers(2, 3)))
        cols = (c0, c0 + draw(st.integers(2, 4)))
        return lower_access(region2d(buf, (buf.nbytes // 16, 4), rows, cols))
    if form == "opaque":
        return lower_access(opaque(buf))
    if form == "bare":
        return lower_access(buf)
    return lower_access(whole(buf, draw(st.sampled_from([None, 0]))))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class TestIntersectNormalized:
    @settings(max_examples=300, deadline=None)
    @given(ranges, ranges)
    def test_equals_intersect_intervals_on_normalized_inputs(self, a, b):
        xs, ys = normalize_intervals(a), normalize_intervals(b)
        assert intersect_normalized(xs, ys) == intersect_intervals(a, b)


class TestTrimCopies:
    @settings(max_examples=400, deadline=None)
    @given(copy_lists(), ranges, st.integers(0, 3), st.booleans())
    def test_matches_predecessor(self, copies, keep, gpu, clustered):
        # The predecessor's unclustered call is the one-node cluster's.
        if clustered:
            cluster = predecessor_cluster = TwoNodes()
        else:
            cluster, predecessor_cluster = ClusterSpec.single_node(4), None
        assert trim_copies(copies, keep, gpu, cluster) == oracle_trim_copies(
            copies, keep, gpu, predecessor_cluster
        )

    def test_unsorted_overlapping_and_empty_keep(self):
        copies = [Segment(0, 10, 1), Segment(10, 10, 2), Segment(12, 30, 3)]
        for keep in ([(20, 25), (2, 6), (4, 8), (8, 9)], [], [(5, 5)]):
            assert trim_copies(copies, keep, 0, TwoNodes()) == oracle_trim_copies(
                copies, keep, 0, TwoNodes()
            )


class TestOverlap:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.lists(footprints(), max_size=3),
                              st.lists(footprints(), max_size=3)), max_size=4))
    def test_matches_predecessor(self, tasks):
        """Every edge ``finalize`` derives carries the kinds, bytes and
        opaque flag the predecessor gives each earlier/later task pair."""
        g = TaskGraph()
        for reads, writes in tasks:
            t = g.add_task(lambda: None)
            t.reads, t.writes = reads, writes
        want = {}
        for j, (t_reads, t_writes) in enumerate(tasks):
            for i, (s_reads, s_writes) in enumerate(tasks[:j]):
                for kind, (a, b) in {"RAW": (s_writes, t_reads), "WAR": (s_reads, t_writes),
                                     "WAW": (s_writes, t_writes)}.items():
                    nbytes, opaque_ = oracle_overlap(a, b)
                    if nbytes:
                        rec = want.setdefault((i, j), [set(), 0, False])
                        rec[0].add(kind)
                        rec[1] += nbytes
                        rec[2] = rec[2] or opaque_
        got = {(e.src, e.dst): [set(e.kinds), e.overlap_bytes, e.opaque] for e in g.finalize().edges}
        assert got == want
