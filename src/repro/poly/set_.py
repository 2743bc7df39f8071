"""Unions of convex Z-polyhedra (isl's ``set``).

A :class:`Set` is a finite union of :class:`~repro.poly.basic_set.BasicSet`
disjuncts sharing one space. Most operations distribute over the disjuncts.
The paper's code generator (Section 6.1) scans each convex piece of a union
separately to avoid over-approximation, which is why the disjunct structure
is preserved rather than hulled.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.poly.basic_set import BasicSet
from repro.poly.space import Space

__all__ = ["Set"]


class Set:
    """A union of :class:`BasicSet` disjuncts over a common space."""

    __slots__ = ("space", "disjuncts")

    def __init__(self, space: Space, disjuncts: Sequence[BasicSet] = ()) -> None:
        self.space = space
        kept: List[BasicSet] = []
        seen = set()
        for d in disjuncts:
            space.check_compatible(d.space)
            if d._trivially_empty:
                continue
            key = (frozenset(d.constraints), d.exact)
            if key in seen:
                continue
            seen.add(key)
            kept.append(d)
        self.disjuncts: Tuple[BasicSet, ...] = tuple(kept)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_basic(bset: BasicSet) -> "Set":
        return Set(bset.space, [bset])

    @staticmethod
    def empty(space: Space) -> "Set":
        return Set(space, [])

    @staticmethod
    def universe(space: Space) -> "Set":
        return Set(space, [BasicSet.universe(space)])

    # -- queries -----------------------------------------------------------

    @property
    def exact(self) -> bool:
        """True when every disjunct is exact."""
        return all(d.exact for d in self.disjuncts)

    @property
    def n_basic_sets(self) -> int:
        return len(self.disjuncts)

    def is_empty(self) -> bool:
        return all(d.is_empty() for d in self.disjuncts)

    def contains(self, values: Mapping[str, int]) -> bool:
        return any(d.contains(values) for d in self.disjuncts)

    # -- operations ---------------------------------------------------------

    def union(self, other: "Set") -> "Set":
        self.space.check_compatible(other.space)
        return Set(self.space, list(self.disjuncts) + list(other.disjuncts))

    def intersect(self, other: "Set") -> "Set":
        self.space.check_compatible(other.space)
        out = [a.intersect(b) for a in self.disjuncts for b in other.disjuncts]
        return Set(self.space, out)

    def subtract(self, other: "Set") -> "Set":
        """Set difference: subtract every disjunct of ``other`` in turn."""
        self.space.check_compatible(other.space)
        remaining = list(self.disjuncts)
        for sub in other.disjuncts:
            remaining = [p for d in remaining for p in d.subtract(sub)]
        return Set(self.space, remaining)

    def project_out(self, names: Iterable[str]) -> "Set":
        names = list(names)
        out = [d.project_out(names) for d in self.disjuncts]
        space = out[0].space if out else self.space.drop_dims(names)
        return Set(space, out)

    def fix(self, name: str, value: int) -> "Set":
        out = [d.fix(name, value) for d in self.disjuncts]
        space = out[0].space if out else self.space.drop_dims([name]) if name in (
            self.space.in_dims + self.space.out_dims
        ) else self.space.drop_params([name])
        return Set(space, out)

    def rename(self, mapping) -> "Set":
        out = [d.rename(mapping) for d in self.disjuncts]
        return Set(self.space.rename(mapping), out)

    def coalesce(self) -> "Set":
        """Drop disjuncts that are (detectably) empty.

        This is deliberately cheaper than isl's coalescing: exactly-redundant
        disjuncts were already deduplicated at construction.
        """
        return Set(self.space, [d for d in self.disjuncts if not d.is_empty()])

    def enumerate_points(self, max_points: int = 1_000_000) -> Iterator[Tuple[int, ...]]:
        """All integer points of a bounded, parameter-free union (deduped)."""
        seen = set()
        for d in self.disjuncts:
            for p in d.enumerate_points(max_points):
                if p not in seen:
                    seen.add(p)
                    yield p

    def __eq__(self, other: object) -> bool:
        """Semantic equality via mutual emptiness of differences is costly;
        this compares disjunct structure only (sufficient for tests)."""
        if not isinstance(other, Set):
            return NotImplemented
        return self.space == other.space and set(self.disjuncts) == set(other.disjuncts)

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.disjuncts)))

    def __iter__(self) -> Iterator[BasicSet]:
        return iter(self.disjuncts)

    def __repr__(self) -> str:
        from repro.poly.pretty import set_to_str

        return set_to_str(self)
