"""Exact integer affine expressions bound to a :class:`~repro.poly.space.Space`.

An :class:`Aff` is the value ``vec[0] + sum(vec[i] * name_i)`` where the
vector follows the space's column layout. Affine expressions support exact
integer arithmetic; multiplying two non-constant expressions raises
:class:`~repro.errors.NonAffineError`, which is precisely how the compiler's
access analysis detects non-affine subscripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Union

from repro.errors import NonAffineError, SpaceMismatchError
from repro.poly.linalg import Vec, vec_add, vec_neg, vec_scale, vec_sub
from repro.poly.space import Space

__all__ = ["Aff"]

IntLike = Union[int, "Aff"]


@dataclass(frozen=True)
class Aff:
    """An affine expression ``c0 + sum(c_i * x_i)`` over a space."""

    space: Space
    vec: Vec

    def __post_init__(self) -> None:
        if len(self.vec) != self.space.ncols:
            raise SpaceMismatchError(
                f"affine vector has {len(self.vec)} columns, space needs {self.space.ncols}"
            )
        object.__setattr__(self, "vec", tuple(map(int, self.vec)))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(space: Space, value: int) -> "Aff":
        """The constant expression ``value``."""
        vec = [0] * space.ncols
        vec[0] = int(value)
        return Aff(space, tuple(vec))

    @staticmethod
    def var(space: Space, name: str) -> "Aff":
        """The expression referencing a single dimension or parameter."""
        vec = [0] * space.ncols
        vec[space.column_of(name)] = 1
        return Aff(space, tuple(vec))

    @staticmethod
    def from_terms(space: Space, terms: Mapping[str, int], const: int = 0) -> "Aff":
        """Build ``const + sum(coeff * name)`` from a name->coefficient map."""
        vec = [0] * space.ncols
        vec[0] = int(const)
        for name, coeff in terms.items():
            vec[space.column_of(name)] += int(coeff)
        return Aff(space, tuple(vec))

    # -- queries -----------------------------------------------------------

    @property
    def const_term(self) -> int:
        return self.vec[0]

    def coeff(self, name: str) -> int:
        """Coefficient of a named dimension or parameter."""
        return self.vec[self.space.column_of(name)]

    def is_constant(self) -> bool:
        """True when no dimension or parameter has a nonzero coefficient."""
        return all(v == 0 for v in self.vec[1:])

    def terms(self) -> Dict[str, int]:
        """Nonzero name->coefficient pairs (excluding the constant)."""
        return {
            name: self.vec[i + 1]
            for i, name in enumerate(self.space.all_names)
            if self.vec[i + 1] != 0
        }

    def involves(self, name: str) -> bool:
        return self.coeff(name) != 0

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: IntLike) -> "Aff":
        if isinstance(other, Aff):
            self.space.check_compatible(other.space)
            return other
        if isinstance(other, int):
            return Aff.const(self.space, other)
        raise TypeError(f"cannot combine Aff with {type(other).__name__}")

    def __add__(self, other: IntLike) -> "Aff":
        other = self._coerce(other)
        return Aff(self.space, vec_add(self.vec, other.vec))

    __radd__ = __add__

    def __sub__(self, other: IntLike) -> "Aff":
        other = self._coerce(other)
        return Aff(self.space, vec_sub(self.vec, other.vec))

    def __rsub__(self, other: IntLike) -> "Aff":
        other = self._coerce(other)
        return Aff(self.space, vec_sub(other.vec, self.vec))

    def __neg__(self) -> "Aff":
        return Aff(self.space, vec_neg(self.vec))

    def __mul__(self, other: IntLike) -> "Aff":
        if isinstance(other, Aff):
            if other.is_constant():
                other = other.const_term
            elif self.is_constant():
                return other * self.const_term
            else:
                raise NonAffineError(
                    f"product of two non-constant affine expressions: ({self}) * ({other})"
                )
        return Aff(self.space, vec_scale(self.vec, int(other)))

    __rmul__ = __mul__

    # -- evaluation / rebinding --------------------------------------------

    def evaluate(self, values: Mapping[str, int]) -> int:
        """Evaluate with concrete integer values for every involved name."""
        total = self.vec[0]
        for i, name in enumerate(self.space.all_names):
            c = self.vec[i + 1]
            if c != 0:
                total += c * values[name]
        return total

    def rebind(self, space: Space) -> "Aff":
        """Re-express this Aff in another space containing all involved names."""
        terms = self.terms()
        return Aff.from_terms(space, terms, self.const_term)

    def __str__(self) -> str:
        parts = []
        for i, name in enumerate(self.space.all_names):
            c = self.vec[i + 1]
            if c == 0:
                continue
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}{name}")
        if self.vec[0] != 0 or not parts:
            parts.append(str(self.vec[0]))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")
