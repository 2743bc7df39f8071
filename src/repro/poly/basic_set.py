"""Convex Z-polyhedra: conjunctions of affine constraints over a space.

A :class:`BasicSet` is the integer-point set of a conjunction of affine
equalities and inequalities — isl's ``basic_set``. Instances are immutable;
all operations return new sets. Each set carries an ``exact`` flag that is
cleared whenever an operation may have over-approximated the true set of
integer points (see :mod:`repro.poly.fourier_motzkin`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import PolyhedralError
from repro.poly.affine import Aff
from repro.poly.constraint import Constraint, Kind
from repro.poly.fourier_motzkin import eliminate_column, project_columns
from repro.poly.linalg import Vec, ceildiv, floordiv
from repro.poly.simplify import simplify_system
from repro.poly.space import Space

__all__ = ["BasicSet", "BoundSpec"]


class BoundSpec:
    """Bounds of one column: ``x >= ceil(-rest/a)`` / ``x <= floor(rest/|a|)``.

    ``lowers`` and ``uppers`` are lists of ``(divisor, rest_vec)`` pairs where
    ``rest_vec`` is a full-layout vector *excluding* the bounded column's own
    coefficient. For a lower bound the value is ``ceildiv(-rest, divisor)``,
    for an upper bound ``floordiv(rest, divisor)``.
    """

    __slots__ = ("col", "lowers", "uppers")

    def __init__(self, col: int) -> None:
        self.col = col
        self.lowers: List[Tuple[int, Vec]] = []
        self.uppers: List[Tuple[int, Vec]] = []

    def eval_lower(self, point: Vec) -> Optional[int]:
        """Greatest lower bound at a concrete point, or None if unbounded."""
        best: Optional[int] = None
        for div, rest in self.lowers:
            val = ceildiv(-sum(r * p for r, p in zip(rest, point)), div)
            if best is None or val > best:
                best = val
        return best

    def eval_upper(self, point: Vec) -> Optional[int]:
        """Least upper bound at a concrete point, or None if unbounded."""
        best: Optional[int] = None
        for div, rest in self.uppers:
            val = floordiv(sum(r * p for r, p in zip(rest, point)), div)
            if best is None or val < best:
                best = val
        return best


class BasicSet:
    """An immutable convex Z-polyhedron over a :class:`Space`."""

    __slots__ = ("space", "constraints", "exact", "_trivially_empty")

    def __init__(
        self,
        space: Space,
        constraints: Sequence[Constraint] = (),
        *,
        exact: bool = True,
        _presimplified: bool = False,
    ) -> None:
        self.space = space
        if _presimplified:
            self.constraints: Tuple[Constraint, ...] = tuple(constraints)
            self._trivially_empty = False
        else:
            simplified = simplify_system(constraints)
            if simplified.empty:
                # Keep the canonical contradiction so emptiness survives
                # projections, substitutions and re-simplification.
                falsum = [-1] + [0] * (space.ncols - 1)
                self.constraints = (Constraint(Kind.INEQ, tuple(falsum)),)
                self._trivially_empty = True
            else:
                self.constraints = tuple(simplified.constraints)
                self._trivially_empty = False
        self.exact = exact

    # -- constructors ------------------------------------------------------

    @staticmethod
    def universe(space: Space) -> "BasicSet":
        """The unconstrained set over ``space``."""
        return BasicSet(space, ())

    @staticmethod
    def empty(space: Space) -> "BasicSet":
        """The canonical empty set over ``space`` (encodes ``-1 >= 0``)."""
        vec = [-1] + [0] * (space.ncols - 1)
        bs = BasicSet(space, (), _presimplified=True)
        bs.constraints = (Constraint(Kind.INEQ, tuple(vec)),)
        bs._trivially_empty = True
        return bs

    @staticmethod
    def from_box(space: Space, bounds: Mapping[str, Tuple[int, int]]) -> "BasicSet":
        """Box set: for each ``name: (lo, hi)``, constrain ``lo <= name < hi``."""
        cons: List[Constraint] = []
        for name, (lo, hi) in bounds.items():
            x = Aff.var(space, name)
            cons.append(Constraint.ineq(x - lo))
            cons.append(Constraint.ineq(Aff.const(space, hi - 1) - x))
        return BasicSet(space, cons)

    # -- predicates and queries ---------------------------------------------

    def is_universe(self) -> bool:
        return not self.constraints

    def is_empty(self) -> bool:
        """Integer emptiness (sound: True means definitely empty).

        Eliminates every column (dimensions, then parameters) with
        Fourier-Motzkin / Gauss, watching for contradictions. A rationally
        empty system is integer-empty; a rationally non-empty but inexactly
        projected system is conservatively reported non-empty.
        """
        if self._trivially_empty:
            return True
        cons = list(self.constraints)
        for col in range(self.space.ncols - 1, 0, -1):
            cons, _ = eliminate_column(cons, col)
            simplified = simplify_system(cons)
            if simplified.empty:
                return True
            cons = simplified.constraints
        return False

    def contains(self, values: Mapping[str, int]) -> bool:
        """Membership test with concrete values for every dim and param."""
        point = self._point_vec(values)
        return all(c.satisfied_by(point) for c in self.constraints)

    def _point_vec(self, values: Mapping[str, int]) -> Vec:
        vec = [1]
        for name in self.space.all_names:
            if name not in values:
                raise PolyhedralError(f"missing value for {name!r} in membership test")
            vec.append(int(values[name]))
        return tuple(vec)

    def involves(self, name: str) -> bool:
        """True if any constraint has a nonzero coefficient on ``name``."""
        col = self.space.column_of(name)
        return any(c.vec[col] != 0 for c in self.constraints)

    # -- constraint combination ---------------------------------------------

    def add_constraints(self, extra: Iterable[Constraint]) -> "BasicSet":
        return BasicSet(self.space, list(self.constraints) + list(extra), exact=self.exact)

    def add_ineq(self, aff: Aff) -> "BasicSet":
        return self.add_constraints([Constraint.ineq(aff.rebind(self.space))])

    def _with_exact(self, exact: bool) -> "BasicSet":
        """Copy with the exactness flag replaced (internal)."""
        if exact == self.exact:
            return self
        out = BasicSet(self.space, (), exact=exact, _presimplified=True)
        out.constraints = self.constraints
        out._trivially_empty = self._trivially_empty
        return out

    def intersect(self, other: "BasicSet") -> "BasicSet":
        self.space.check_compatible(other.space)
        return BasicSet(
            self.space,
            list(self.constraints) + list(other.constraints),
            exact=self.exact and other.exact,
        )

    def subtract(self, other: "BasicSet") -> List["BasicSet"]:
        """Set difference ``self \\ other`` as a list of disjoint pieces.

        Distributes the complement of ``other``'s conjunction: for the i-th
        inequality ``e_i >= 0`` the i-th piece is ``self ∧ e_1>=0 ∧ ... ∧
        e_{i-1}>=0 ∧ e_i <= -1`` (equalities are split into two
        inequalities first), so the pieces partition the true difference.
        Integer-exact when both operands are exact; an inexact ``other``
        over-approximates, which can make the difference an
        *under*-approximation — the pieces' ``exact`` flags are cleared and
        callers needing soundness must check them.
        """
        self.space.check_compatible(other.space)
        if self._trivially_empty:
            return []
        if other._trivially_empty:
            return [self]
        ineqs: List[Vec] = []
        for c in other.constraints:
            ineqs.append(c.vec)
            if c.is_eq:
                ineqs.append(tuple(-v for v in c.vec))
        exact = self.exact and other.exact
        pieces: List[BasicSet] = []
        kept: List[Constraint] = []
        for vec in ineqs:
            # ¬(v·x >= 0)  ⟺  -v·x - 1 >= 0
            negated = (-vec[0] - 1,) + tuple(-v for v in vec[1:])
            piece = self.add_constraints(kept + [Constraint(Kind.INEQ, negated)])
            if not piece.is_empty():
                pieces.append(piece._with_exact(exact))
            kept.append(Constraint(Kind.INEQ, vec))
        return pieces

    # -- projection / substitution ------------------------------------------

    def project_out(self, names: Iterable[str]) -> "BasicSet":
        """Existentially project out the named dimensions.

        The result lives in the reduced space. The ``exact`` flag is cleared
        when the elimination may over-approximate on Z.
        """
        names = list(names)
        if not names:
            return self
        cols = [self.space.column_of(n) for n in names]
        cons, elim_exact = project_columns(self.constraints, cols)
        new_space = self.space.drop_dims(names)
        compacted = _compact(cons, sorted(cols))
        return BasicSet(new_space, compacted, exact=self.exact and elim_exact)

    def project_out_params(self, names: Iterable[str]) -> "BasicSet":
        """Existentially project out the named parameters."""
        names = list(names)
        if not names:
            return self
        cols = [self.space.column_of(n) for n in names]
        cons, elim_exact = project_columns(self.constraints, cols)
        new_space = self.space.drop_params(names)
        compacted = _compact(cons, sorted(cols))
        return BasicSet(new_space, compacted, exact=self.exact and elim_exact)

    def fix(self, name: str, value: int) -> "BasicSet":
        """Substitute a concrete value for a dim/param; drops the dimension."""
        return self.substitute(name, Aff.const(self.space, int(value)))

    def substitute(self, name: str, aff: Aff) -> "BasicSet":
        """Replace ``name`` by the affine expression ``aff`` (then drop it).

        ``aff`` must not itself involve ``name``.
        """
        aff = aff.rebind(self.space)
        if aff.involves(name):
            raise PolyhedralError(f"substitution for {name!r} involves itself")
        col = self.space.column_of(name)
        cons: List[Constraint] = []
        for c in self.constraints:
            k = c.vec[col]
            if k == 0:
                cons.append(c)
                continue
            vec = tuple(
                v + k * a for v, a in zip(_zeroed(c.vec, col), aff.vec)
            )
            cons.append(Constraint(c.kind, vec))
        if name in self.space.params:
            new_space = self.space.drop_params([name])
        else:
            new_space = self.space.drop_dims([name])
        return BasicSet(new_space, _compact(cons, [col]), exact=self.exact)

    def rename(self, mapping: Dict[str, str]) -> "BasicSet":
        """Rename dimensions/parameters (columns are unchanged)."""
        bs = BasicSet(self.space.rename(mapping), (), exact=self.exact, _presimplified=True)
        bs.constraints = self.constraints
        bs._trivially_empty = self._trivially_empty
        return bs

    def align(self, space: Space) -> "BasicSet":
        """Re-express this set in a superspace containing all its names."""
        cons = [_rebind_constraint(c, self.space, space) for c in self.constraints]
        return BasicSet(space, cons, exact=self.exact)

    # -- bounds and enumeration ----------------------------------------------

    def dim_bounds(self, name: str) -> BoundSpec:
        """Bound descriptors for one dimension from the *current* constraints.

        The caller is responsible for having eliminated any later dimensions
        (see :mod:`repro.poly.astbuild`); constraints mentioning other
        dimensions simply contribute bounds that depend on them.
        """
        col = self.space.column_of(name)
        spec = BoundSpec(col)
        for c in self.constraints:
            a = c.vec[col]
            if a == 0:
                continue
            rest = _zeroed(c.vec, col)
            if c.is_eq:
                if a > 0:
                    spec.lowers.append((a, rest))
                    spec.uppers.append((a, tuple(-r for r in rest)))
                else:
                    spec.lowers.append((-a, tuple(-r for r in rest)))
                    spec.uppers.append((-a, rest))
            elif a > 0:
                # a*x + rest >= 0  =>  x >= ceil(-rest / a)
                spec.lowers.append((a, rest))
            else:
                # a*x + rest >= 0, a < 0  =>  x <= floor(rest / |a|)
                spec.uppers.append((-a, rest))
        return spec

    def enumerate_points(self, max_points: int = 1_000_000) -> Iterator[Tuple[int, ...]]:
        """Yield every integer point of a bounded, parameter-free set.

        Used by the race and bounds passes to extract witnesses, and by
        tests as the brute-force oracle of every scanner.
        Raises :class:`PolyhedralError` if the set has parameters or is
        unbounded in some dimension.
        """
        if self.space.n_params:
            raise PolyhedralError("cannot enumerate a parametric set; fix the parameters first")
        yield from _enumerate(self, [], max_points=[max_points])

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasicSet):
            return NotImplemented
        return self.space == other.space and set(self.constraints) == set(other.constraints)

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.constraints)))

    def __repr__(self) -> str:
        from repro.poly.pretty import basic_set_to_str

        return basic_set_to_str(self)


def _zeroed(vec: Vec, col: int) -> Vec:
    return vec[:col] + (0,) + vec[col + 1 :]


def _compact(constraints: Sequence[Constraint], removed_cols: Sequence[int]) -> List[Constraint]:
    """Delete columns (which must be all-zero) from every constraint vector.

    Dropping zero coefficients keeps a normalized vector normalized.
    """
    removed = sorted(removed_cols, reverse=True)
    out: List[Constraint] = []
    for c in constraints:
        vec = list(c.vec)
        for col in removed:
            if vec[col] != 0:
                raise PolyhedralError("internal error: compacting a live column")
            del vec[col]
        out.append(Constraint._canonical(c.kind, tuple(vec)))
    return out


def _rebind_constraint(c: Constraint, src: Space, dst: Space) -> Constraint:
    vec = [0] * dst.ncols
    vec[0] = c.vec[0]
    for i, name in enumerate(src.all_names):
        coeff = c.vec[i + 1]
        if coeff:
            vec[dst.column_of(name)] += coeff
    return Constraint(c.kind, tuple(vec))


def _enumerate(
    bset: BasicSet, prefix: List[int], *, max_points: List[int]
) -> Iterator[Tuple[int, ...]]:
    if bset._trivially_empty:
        return
    dims = bset.space.all_names
    if not dims:
        simplified = simplify_system(bset.constraints)
        if not simplified.empty:
            max_points[0] -= 1
            if max_points[0] < 0:
                raise PolyhedralError("enumerate_points: too many points")
            yield tuple(prefix)
        return
    first = dims[0]
    rest = dims[1:]
    # Bounds on `first` come from the set with the later dims projected out.
    shadow = bset.project_out(rest) if rest else bset
    if shadow._trivially_empty:
        return
    spec = shadow.dim_bounds(first)
    point = (1,) + (0,) * (shadow.space.ncols - 1)
    lo = spec.eval_lower(point)
    hi = spec.eval_upper(point)
    if lo is None or hi is None:
        raise PolyhedralError(f"enumerate_points: dimension {first!r} is unbounded")
    for v in range(lo, hi + 1):
        sub = bset.fix(first, v)
        yield from _enumerate(sub, prefix + [v], max_points=max_points)
