"""Affine constraints (equalities and inequalities) over a space.

A constraint stores an integer vector ``v`` in the space's column layout and
a kind: ``EQ`` means ``v . [1, names...] == 0`` and ``INEQ`` means
``v . [1, names...] >= 0``. Constraints are normalized on construction:
coefficients are divided by their GCD (with the correct integer tightening of
the constant for inequalities) and equalities get a canonical sign.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd
from typing import Mapping, Tuple

from repro.poly.affine import Aff
from repro.poly.linalg import Vec, vec_dot, vec_neg
from repro.poly.space import Space

__all__ = ["Kind", "Constraint"]


class Kind(enum.Enum):
    """Constraint kind: equality (== 0) or inequality (>= 0)."""

    EQ = "eq"
    INEQ = "ineq"


@dataclass(frozen=True)
class Constraint:
    """A normalized affine constraint over ``space``."""

    kind: Kind
    vec: Vec

    def __post_init__(self) -> None:
        object.__setattr__(self, "vec", _normalize(self.kind, tuple(map(int, self.vec))))

    @classmethod
    def _canonical(cls, kind: Kind, vec: Vec) -> "Constraint":
        """A constraint over a vector that is already in normal form.

        Skips :func:`_normalize`, so only for vectors canonical by
        construction: an inequality whose non-constant coefficients are
        those of a normalized inequality, or a normalized vector with
        all-zero columns deleted (neither changes the coefficient GCD or the
        first nonzero coefficient's sign).
        """
        c = object.__new__(cls)
        object.__setattr__(c, "kind", kind)
        object.__setattr__(c, "vec", vec)
        return c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def eq(aff: Aff) -> "Constraint":
        """The constraint ``aff == 0``."""
        return Constraint(Kind.EQ, aff.vec)

    @staticmethod
    def ineq(aff: Aff) -> "Constraint":
        """The constraint ``aff >= 0``."""
        return Constraint(Kind.INEQ, aff.vec)

    @staticmethod
    def eq_terms(space: Space, terms: Mapping[str, int], const: int = 0) -> "Constraint":
        return Constraint.eq(Aff.from_terms(space, terms, const))

    @staticmethod
    def ineq_terms(space: Space, terms: Mapping[str, int], const: int = 0) -> "Constraint":
        return Constraint.ineq(Aff.from_terms(space, terms, const))

    # -- queries -----------------------------------------------------------

    @property
    def is_eq(self) -> bool:
        return self.kind is Kind.EQ

    @property
    def const_term(self) -> int:
        return self.vec[0]

    def coeff(self, col: int) -> int:
        return self.vec[col]

    def is_tautology(self) -> bool:
        """True for ``0 == 0`` or ``c >= 0`` with ``c >= 0``."""
        if any(self.vec[1:]):
            return False
        if self.is_eq:
            return self.vec[0] == 0
        return self.vec[0] >= 0

    def is_contradiction(self) -> bool:
        """True for ``c == 0`` with ``c != 0`` or ``c >= 0`` with ``c < 0``."""
        if any(self.vec[1:]):
            return False
        if self.is_eq:
            return self.vec[0] != 0
        return self.vec[0] < 0

    def satisfied_by(self, point: Vec) -> bool:
        """Evaluate against ``[1, values...]`` in column layout."""
        value = vec_dot(self.vec, point)
        return value == 0 if self.is_eq else value >= 0

    def negated(self) -> "Constraint":
        """For an inequality ``e >= 0``, its integer complement ``-e - 1 >= 0``.

        (The complement of ``e >= 0`` over the integers is ``e <= -1``.)
        """
        if self.is_eq:
            raise ValueError("cannot negate an equality into a single constraint")
        vec = list(vec_neg(self.vec))
        vec[0] -= 1
        return Constraint(Kind.INEQ, tuple(vec))

    def __str__(self) -> str:
        op = "=" if self.is_eq else ">="
        return f"{_vec_str(self.vec)} {op} 0"


def _normalize(kind: Kind, vec: Vec) -> Vec:
    """Canonicalize a raw constraint vector."""
    g = gcd(*vec[1:])
    if g > 1:
        # An inequality's constant is floor-divided: tightening keeps every
        # integer point. The coefficients divide exactly.
        if kind is Kind.INEQ or vec[0] % g == 0:
            vec = tuple([v // g for v in vec])
        # else: equality with non-divisible constant; left as-is, the
        # emptiness check will detect the contradiction.
    if kind is Kind.EQ:
        # Canonical sign: first nonzero coefficient positive.
        for v in vec[1:]:
            if v > 0:
                break
            if v < 0:
                vec = vec_neg(vec)
                break
        else:
            if vec[0] < 0:
                vec = vec_neg(vec)
    return vec


def _vec_str(vec: Vec) -> str:
    parts = []
    for i, v in enumerate(vec):
        if v == 0:
            continue
        name = "1" if i == 0 else f"c{i}"
        parts.append(f"{v}*{name}")
    return " + ".join(parts) if parts else "0"
