"""Buffer synchronization building blocks (paper §8.3, extended).

Synchronizing one GPU's instance of a virtual buffer for one partition
means: enumerate the partition's *read set* with the generated code (§6,
:func:`byte_ranges`), query the tracker for each interval, and copy every
segment without a valid copy on the target over from the *nearest* valid
copy (:func:`plan_stale_copies_tiered`, optionally trimmed to the exact
read set by :func:`trim_copies`). The launch planner (``repro.sched.graph``)
composes these per partition; the executor issues the planned copies. With
:attr:`~repro.runtime.config.RuntimeConfig.shared_copies` enabled each copy
also *registers* the target as a sharer of the segment (the executor
batches one launch's registrations per buffer and device through
:meth:`~repro.runtime.tracker.SegmentTracker.add_sharer_many`), so the next
launch skips it — the remedy for the redundant re-broadcast traffic §8.3
calls out. With the flag off the tracker keeps the paper's sole-owner
behaviour: copies never update ownership and shared data is re-transferred
every launch. A partition's *write set* is marked by the executor straight
on the tracker (``update_many``), invalidating every sharer copy of the
written ranges (MSI).

Source selection (:func:`pick_source`) prefers, in order: a valid copy on
the destination's own cluster node (avoiding the network fabric), the
owner, then the lowest device id — deterministic, and identical to the
paper's newest-owner rule whenever no sharers exist.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, List, Mapping, Sequence, Tuple

from repro.compiler.enumerators import Enumerator
from repro.compiler.strategy import Partition
from repro.cuda.dim3 import Dim3
from repro.poly.intervals import normalize_intervals
from repro.runtime.tracker import Segment

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import ClusterSpec

__all__ = [
    "byte_ranges",
    "pick_source",
    "plan_stale_copies_tiered",
    "trim_copies",
]


def byte_ranges(
    enum: Enumerator,
    partition: Partition,
    block: Dim3,
    grid: Dim3,
    scalars: Mapping[str, int],
    shape: Sequence[int],
    elem_size: int,
    stats=None,
    audit: bool = False,
) -> Tuple[List[Tuple[int, int]], int]:
    """Flat element ranges of one enumerator, converted to byte ranges.

    ``stats`` and ``audit`` are threaded to the enumerator: each request
    counts one scan, and an audited request re-scans on a memo hit.
    """
    ranges, emitted = enum.element_ranges(
        partition, block, grid, scalars, shape, stats=stats, audit=audit
    )
    return [(lo * elem_size, hi * elem_size) for lo, hi in ranges], emitted


def pick_source(seg: Segment, gpu: int, cluster: "ClusterSpec") -> int:
    """The valid copy one stale segment is fetched from.

    Nearest-copy routing: prefer a holder on ``gpu``'s own cluster node
    (an intra-node copy never touches the NIC/fabric tier), break ties
    toward the owner, then toward the lowest device id. On one node every
    holder is equidistant, so the owner is chosen — exactly the paper's
    newest-owner rule when the sharer set is empty.
    """
    if not seg.sharers:
        return seg.owner

    def rank(dev: int) -> Tuple[int, int, int]:
        return (
            0 if cluster.same_node(dev, gpu) else 1,
            0 if dev == seg.owner else 1,
            dev,
        )

    return min(seg.holders, key=rank)


def plan_stale_copies_tiered(
    segments: Sequence[Segment], gpu: int, cluster: "ClusterSpec"
) -> Tuple[List[Segment], int, int]:
    """(copies, redundant_bytes_avoided, avoided_inter) for one read set.

    A segment is *stale* when ``gpu`` holds no valid copy; each stale
    segment is assigned its :func:`pick_source` and adjacent copies from
    the same source coalesce into one transfer. Segments ``gpu`` already
    holds as a mere sharer (not owner) are counted as redundant bytes a
    sole-owner tracker would have re-transferred; ``avoided_inter`` is the
    share of those bytes whose re-transfer would have crossed the node
    fabric (the owner — the sole-owner source — lives on another node).

    The returned segments carry the chosen *source* in their ``owner``
    field — the shape the plan builder turns into transfer tasks.
    """
    merged: List[Segment] = []
    avoided = avoided_inter = 0
    for seg in segments:
        if gpu in seg.holders:
            if seg.owner != gpu:
                avoided += seg.nbytes
                if not cluster.same_node(seg.owner, gpu):
                    avoided_inter += seg.nbytes
            continue
        src = pick_source(seg, gpu, cluster)
        if merged and merged[-1].owner == src and merged[-1].end == seg.start:
            merged[-1] = Segment(merged[-1].start, seg.end, src)
        else:
            merged.append(Segment(seg.start, seg.end, src))
    return merged, avoided, avoided_inter


def trim_copies(
    copies: Sequence[Segment],
    keep: Sequence[Tuple[int, int]],
    gpu: int,
    cluster: "ClusterSpec",
) -> Tuple[List[Segment], int, int]:
    """Intersect planned copies with the provably-read byte ranges.

    ``keep`` is the exact read set of the partition as flat byte ranges
    (from the dataflow analyzer's per-access enumeration); planned bytes
    outside it are bounding-range slack the affine model proves the kernel
    never reads. Returns ``(trimmed, overapprox, overapprox_inter)`` where
    the byte counts split the dropped slack by transfer tier (the copy's
    chosen source is in ``seg.owner``). Dropping slack is sound precisely
    because the bytes are never read — the destination simply keeps a stale
    copy the tracker continues to consider stale.
    """
    keep = normalize_intervals(keep)
    ends = [hi for _, hi in keep]
    trimmed: List[Segment] = []
    overapprox = overapprox_inter = 0
    for seg in copies:
        # From the first kept range ending after the copy starts, every one
        # starting before it ends.
        pieces = []
        i = bisect_right(ends, seg.start)
        while i < len(keep) and keep[i][0] < seg.end:
            lo, hi = max(keep[i][0], seg.start), min(keep[i][1], seg.end)
            if lo < hi:
                pieces.append((lo, hi))
            i += 1
        slack = seg.nbytes - sum(hi - lo for lo, hi in pieces)
        if slack:
            overapprox += slack
            if not cluster.same_node(seg.owner, gpu):
                overapprox_inter += slack
        trimmed.extend(Segment(lo, hi, seg.owner) for lo, hi in pieces)
    return trimmed, overapprox, overapprox_inter

