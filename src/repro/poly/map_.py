"""Polyhedral maps (relations between integer tuples).

A :class:`BasicMap` relates input tuples to output tuples through a
conjunction of affine constraints over the combined ``in + out`` space. The
access maps of Section 4 of the paper are of this shape: inputs are the six
grid coordinates (``blockOff.{z,y,x}``, ``blockIdx.{z,y,x}``), outputs are
array indices, and scalar kernel arguments appear as parameters.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import SpaceMismatchError
from repro.poly.affine import Aff
from repro.poly.basic_set import BasicSet, _rebind_constraint
from repro.poly.constraint import Constraint
from repro.poly.set_ import Set
from repro.poly.space import Space

__all__ = ["BasicMap", "Map"]


class BasicMap:
    """A single-disjunct polyhedral relation."""

    __slots__ = ("space", "bset")

    def __init__(self, space: Space, constraints: Sequence[Constraint] = (), *, exact: bool = True):
        if space.is_set:
            raise SpaceMismatchError("BasicMap requires a map space (with input dims)")
        self.space = space
        self.bset = BasicSet(space, constraints, exact=exact)

    @staticmethod
    def _wrap(space: Space, bset: BasicSet) -> "BasicMap":
        bm = BasicMap.__new__(BasicMap)
        bm.space = space
        bm.bset = bset
        return bm

    # -- constructors ------------------------------------------------------

    @staticmethod
    def universe(space: Space) -> "BasicMap":
        return BasicMap(space, ())

    @staticmethod
    def from_affine_exprs(
        space: Space, out_exprs: Sequence[Aff], domain: Sequence[Constraint] = ()
    ) -> "BasicMap":
        """Map defined by ``out_i == expr_i(in, params)`` plus domain constraints."""
        if len(out_exprs) != space.n_out:
            raise SpaceMismatchError(
                f"{len(out_exprs)} output expressions for {space.n_out} output dims"
            )
        cons: List[Constraint] = []
        for name, expr in zip(space.out_dims, out_exprs):
            cons.append(Constraint.eq(Aff.var(space, name) - expr.rebind(space)))
        cons.extend(domain)
        return BasicMap(space, cons)

    # -- queries -----------------------------------------------------------

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        return self.bset.constraints

    @property
    def exact(self) -> bool:
        return self.bset.exact

    def is_empty(self) -> bool:
        return self.bset.is_empty()

    def contains(self, values: Mapping[str, int]) -> bool:
        return self.bset.contains(values)

    # -- operations ---------------------------------------------------------

    def intersect(self, other: "BasicMap") -> "BasicMap":
        self.space.check_compatible(other.space)
        return BasicMap._wrap(self.space, self.bset.intersect(other.bset))

    def intersect_domain(self, dom: BasicSet) -> "BasicMap":
        """Restrict the relation's input tuples to ``dom``.

        ``dom`` must be a set over the map's input dimensions (a subset of
        names is allowed; missing names are unconstrained).
        """
        cons = [_rebind_constraint(c, dom.space, self.space) for c in dom.constraints]
        return BasicMap._wrap(
            self.space,
            self.bset.add_constraints(cons)._with_exact(self.exact and dom.exact),
        )

    def intersect_range(self, rng: BasicSet) -> "BasicMap":
        """Restrict the relation's output tuples to ``rng``."""
        cons = [_rebind_constraint(c, rng.space, self.space) for c in rng.constraints]
        return BasicMap._wrap(
            self.space,
            self.bset.add_constraints(cons)._with_exact(self.exact and rng.exact),
        )

    def domain(self) -> BasicSet:
        """Projection onto the input dimensions."""
        out = self.bset.project_out(self.space.out_dims)
        return _as_set_space(out, Space.set_space(self.space.in_dims, self.space.params))

    def range(self) -> BasicSet:
        """Projection onto the output dimensions (the image of the domain)."""
        out = self.bset.project_out(self.space.in_dims)
        return _as_set_space(out, Space.set_space(self.space.out_dims, self.space.params))

    def image(self, dom: BasicSet) -> BasicSet:
        """Image of ``dom`` under this relation."""
        return self.intersect_domain(dom).range()

    def reverse(self) -> "BasicMap":
        """The inverse relation (in/out swapped)."""
        new_space = self.space.reversed()
        cons = [_rebind_constraint(c, self.space, new_space) for c in self.constraints]
        return BasicMap(new_space, cons, exact=self.exact)

    def wrap(self) -> BasicSet:
        """The relation as a set over ``in + out`` dimensions."""
        return _as_set_space(self.bset, self.space.to_set())

    def rename(self, mapping: Dict[str, str]) -> "BasicMap":
        bm = BasicMap.__new__(BasicMap)
        bm.space = self.space.rename(mapping)
        bm.bset = self.bset.rename(mapping)
        return bm

    def add_params(self, names: Sequence[str]) -> "BasicMap":
        space = self.space.add_params(names)
        cons = [_rebind_constraint(c, self.space, space) for c in self.constraints]
        return BasicMap(space, cons, exact=self.exact)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasicMap):
            return NotImplemented
        return self.space == other.space and self.bset == other.bset

    def __hash__(self) -> int:
        return hash((self.space, self.bset))

    def __repr__(self) -> str:
        from repro.poly.pretty import basic_map_to_str

        return basic_map_to_str(self)


class Map:
    """A union of :class:`BasicMap` disjuncts."""

    __slots__ = ("space", "disjuncts")

    def __init__(self, space: Space, disjuncts: Sequence[BasicMap] = ()) -> None:
        self.space = space
        kept: List[BasicMap] = []
        seen = set()
        for d in disjuncts:
            space.check_compatible(d.space)
            if d.bset._trivially_empty:
                continue
            key = (frozenset(d.constraints), d.exact)
            if key in seen:
                continue
            seen.add(key)
            kept.append(d)
        self.disjuncts: Tuple[BasicMap, ...] = tuple(kept)

    @staticmethod
    def from_basic(bmap: BasicMap) -> "Map":
        return Map(bmap.space, [bmap])

    @property
    def exact(self) -> bool:
        return all(d.exact for d in self.disjuncts)

    def is_empty(self) -> bool:
        return all(d.is_empty() for d in self.disjuncts)

    def union(self, other: "Map") -> "Map":
        self.space.check_compatible(other.space)
        return Map(self.space, list(self.disjuncts) + list(other.disjuncts))

    def intersect_domain(self, dom: BasicSet) -> "Map":
        return Map(self.space, [d.intersect_domain(dom) for d in self.disjuncts])

    def image(self, dom: BasicSet) -> Set:
        rng_space = Space.set_space(self.space.out_dims, self.space.params)
        return Set(rng_space, [d.image(dom) for d in self.disjuncts])

    def range(self) -> Set:
        rng_space = Space.set_space(self.space.out_dims, self.space.params)
        return Set(rng_space, [d.range() for d in self.disjuncts])

    def add_params(self, names: Sequence[str]) -> "Map":
        return Map(self.space.add_params(names), [d.add_params(names) for d in self.disjuncts])

    def contains(self, values: Mapping[str, int]) -> bool:
        return any(d.contains(values) for d in self.disjuncts)

    def __iter__(self):
        return iter(self.disjuncts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Map):
            return NotImplemented
        return self.space == other.space and set(self.disjuncts) == set(other.disjuncts)

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.disjuncts)))

    def __repr__(self) -> str:
        from repro.poly.pretty import map_to_str

        return map_to_str(self)


def _as_set_space(bset: BasicSet, space: Space) -> BasicSet:
    """Re-tag a projected basic set with an explicit set space."""
    out = BasicSet(space, (), exact=bset.exact, _presimplified=True)
    out.constraints = tuple(
        _rebind_constraint(c, bset.space, space) for c in bset.constraints
    )
    out._trivially_empty = bset._trivially_empty
    return out
