"""Half-open integer interval algebra and MAIRS atomic decomposition.

The runtime's enumerators flatten every partition's access set to sorted
half-open ``(lo, hi)`` byte ranges.  This module is the shared algebra over
those flat ranges: union/intersection/difference plus the *atomic
decomposition* of a family of per-reader range lists into Maximal Atomic
irRedundant Sets ("MAIRS: a Usage-based Dataflow Partitioning Algorithm" —
see PAPERS.md).  An atom is a maximal interval whose byte positions all have
the identical reader set; atoms are pairwise disjoint, and their union is
exactly the union of all the input range lists.  The dataflow analyzer
(:mod:`repro.analysis.dataflow`) classifies transfer bytes atom by atom, and
the schedule builder reuses the same subtraction when deriving cross-launch
edges.

All intervals are half-open ``lo <= x < hi`` with ``lo < hi``; empty and
inverted inputs are dropped during normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

__all__ = [
    "normalize_intervals",
    "union_intervals",
    "intersect_intervals",
    "intersect_normalized",
    "subtract_intervals",
    "total_bytes",
    "Atom",
    "atomic_decomposition",
]

Interval = Tuple[int, int]


def normalize_intervals(ranges: Iterable[Interval]) -> List[Interval]:
    """Sorted, disjoint, non-adjacent form: merges overlap and abutment."""
    out: List[Interval] = []
    for lo, hi in sorted((int(lo), int(hi)) for lo, hi in ranges):
        if hi <= lo:
            continue
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def union_intervals(a: Iterable[Interval], b: Iterable[Interval]) -> List[Interval]:
    """Normalized union of two interval lists."""
    return normalize_intervals(list(a) + list(b))


def intersect_intervals(a: Iterable[Interval], b: Iterable[Interval]) -> List[Interval]:
    """Pairwise intersection of two normalized-or-not range lists."""
    return intersect_normalized(normalize_intervals(a), normalize_intervals(b))


def intersect_normalized(xs: Sequence[Interval], ys: Sequence[Interval]) -> List[Interval]:
    """Intersection of two range lists already in :func:`normalize_intervals` form."""
    out: List[Interval] = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        lo = max(xs[i][0], ys[j][0])
        hi = min(xs[i][1], ys[j][1])
        if lo < hi:
            out.append((lo, hi))
        if xs[i][1] <= ys[j][1]:
            i += 1
        else:
            j += 1
    return out


def subtract_intervals(a: Iterable[Interval], b: Iterable[Interval]) -> List[Interval]:
    """``a`` minus ``b``, both arbitrary range lists."""
    xs, ys = normalize_intervals(a), normalize_intervals(b)
    out: List[Interval] = []
    j = 0
    for lo, hi in xs:
        cur = lo
        while j < len(ys) and ys[j][1] <= cur:
            j += 1
        k = j
        while k < len(ys) and ys[k][0] < hi:
            blo, bhi = ys[k]
            if blo > cur:
                out.append((cur, blo))
            cur = max(cur, bhi)
            if cur >= hi:
                break
            k += 1
        if cur < hi:
            out.append((cur, hi))
    return out


def total_bytes(ranges: Iterable[Interval]) -> int:
    """Total measure of a range list (after normalization)."""
    return sum(hi - lo for lo, hi in normalize_intervals(ranges))


@dataclass(frozen=True)
class Atom:
    """One maximal atomic irredundant set: a run with a fixed reader set."""

    lo: int
    hi: int
    readers: FrozenSet[int]

    @property
    def nbytes(self) -> int:
        return self.hi - self.lo

    @property
    def multiplicity(self) -> int:
        return len(self.readers)


def atomic_decomposition(read_sets: Mapping[int, Sequence[Interval]]) -> List[Atom]:
    """Partition the union of per-reader range lists into MAIRS atoms.

    ``read_sets`` maps a reader id (a device, a partition index) to its flat
    ranges.  The result is the coarsest partition of the union such that
    every atom's bytes are read by exactly ``atom.readers`` — the atomic
    communication sets of the MAIRS algorithm, computed here by a boundary
    sweep over the (already interval-flattened) relations.
    """
    normalized: Dict[int, List[Interval]] = {
        reader: normalize_intervals(ranges) for reader, ranges in read_sets.items()
    }
    boundaries = sorted(
        {b for ranges in normalized.values() for lo, hi in ranges for b in (lo, hi)}
    )
    atoms: List[Atom] = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        readers = frozenset(
            reader
            for reader, ranges in normalized.items()
            if any(rlo <= lo and hi <= rhi for rlo, rhi in ranges)
        )
        if not readers:
            continue
        if atoms and atoms[-1].hi == lo and atoms[-1].readers == readers:
            atoms[-1] = Atom(atoms[-1].lo, hi, readers)  # maximality: fuse runs
        else:
            atoms.append(Atom(lo, hi, readers))
    return atoms
