"""Constraint-system simplification.

Removes duplicate and trivially redundant constraints, detects trivial
contradictions, promotes opposed inequality pairs to equalities, and brings
the equalities into a (deterministic) echelon form. This keeps
Fourier-Motzkin from drowning in derived constraints and gives sets a
canonical-enough form for printing and hashing.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from repro.poly.constraint import Constraint, Kind
from repro.poly.fourier_motzkin import _substitute
from repro.poly.linalg import Vec, vec_neg

__all__ = ["simplify_system", "SimplifiedSystem"]


class SimplifiedSystem:
    """Result of :func:`simplify_system`.

    Attributes:
        constraints: the simplified constraint list (eqs first).
        empty: True when a contradiction was detected (the set is empty).
    """

    __slots__ = ("constraints", "empty")

    def __init__(self, constraints: List[Constraint], empty: bool):
        self.constraints = constraints
        self.empty = empty

    @staticmethod
    def empty_system() -> "SimplifiedSystem":
        return SimplifiedSystem([], True)


def _echelon(eqs: List[Constraint]) -> Tuple[List[Constraint], bool]:
    """Gauss-reduce equalities among themselves; returns (eqs, contradiction)."""
    eqs = list(eqs)
    reduced: List[Constraint] = []
    ncols = len(eqs[0].vec) if eqs else 0
    for col in range(ncols - 1, 0, -1):
        pivot_idx: Optional[int] = None
        for i, eq in enumerate(eqs):
            if eq.vec[col] != 0 and (
                pivot_idx is None or abs(eq.vec[col]) < abs(eqs[pivot_idx].vec[col])
            ):
                pivot_idx = i
                if abs(eq.vec[col]) == 1:
                    break
        if pivot_idx is None:
            continue
        pivot = eqs.pop(pivot_idx)
        eqs = [_substitute(e, pivot, col) for e in eqs]
        reduced = [_substitute(e, pivot, col) for e in reduced]
        reduced.append(pivot)
    # Remaining eqs involve only the constant column.
    for eq in eqs:
        if eq.is_contradiction():
            return reduced, True
    for eq in reduced:
        if eq.is_contradiction():
            return reduced, True
        # Integer infeasibility: g * (...) + c == 0 with g not dividing c.
        g = 0
        for v in eq.vec[1:]:
            g = gcd(g, abs(v))
        if g > 1 and eq.vec[0] % g != 0:
            return reduced, True
    return list(reversed(reduced)), False


def simplify_system(constraints: Sequence[Constraint]) -> SimplifiedSystem:
    """Simplify a constraint system; detect trivial emptiness."""
    eqs: List[Constraint] = []
    ineq_by_coeffs: Dict[Vec, int] = {}  # nonconst coeffs -> strongest const

    def add_ineq(vec: Vec) -> None:
        key = vec[1:]
        cur = ineq_by_coeffs.get(key)
        if cur is None or vec[0] < cur:
            ineq_by_coeffs[key] = vec[0]

    for c in constraints:
        if c.is_tautology():
            continue
        if c.is_contradiction():
            return SimplifiedSystem.empty_system()
        if c.is_eq:
            eqs.append(c)
        else:
            add_ineq(c.vec)

    # Opposed inequality pairs: v + c1 >= 0 and -v + c2 >= 0.
    promoted: List[Constraint] = []
    seen: set = set()
    for key, const in list(ineq_by_coeffs.items()):
        if key in seen:
            continue
        neg_key = vec_neg(key)
        if neg_key in ineq_by_coeffs:
            other = ineq_by_coeffs[neg_key]
            total = const + other
            if total < 0:
                return SimplifiedSystem.empty_system()
            if total == 0:
                promoted.append(Constraint(Kind.EQ, (const,) + tuple(key)))
                seen.add(key)
                seen.add(neg_key)
    for key in seen:
        ineq_by_coeffs.pop(key, None)
    eqs.extend(promoted)

    if eqs:
        eqs, contradiction = _echelon(eqs)
        if contradiction:
            return SimplifiedSystem.empty_system()
        # Substitute the echelon equalities into the inequalities for a
        # tighter, more canonical system.
        leads = [(eq, lead) for eq in eqs if (lead := _leading_col(eq.vec)) is not None]
        new_ineqs: Dict[Vec, int] = {}
        for key, const in ineq_by_coeffs.items():
            c = Constraint._canonical(Kind.INEQ, (const,) + key)
            for eq, lead in leads:
                if c.vec[lead] != 0:
                    c = _substitute(c, eq, lead)
            if c.is_contradiction():
                return SimplifiedSystem.empty_system()
            if not c.is_tautology():
                k = c.vec[1:]
                cur = new_ineqs.get(k)
                if cur is None or c.vec[0] < cur:
                    new_ineqs[k] = c.vec[0]
        ineq_by_coeffs = new_ineqs
        # Opposed pairs introduced by the substitution: contradictions end
        # it; exact pairs promote to new equalities, which may expose
        # further (e.g. divisibility) contradictions — iterate to fixpoint.
        for key, const in ineq_by_coeffs.items():
            neg_key = vec_neg(key)
            if neg_key in ineq_by_coeffs:
                total = const + ineq_by_coeffs[neg_key]
                if total < 0:
                    return SimplifiedSystem.empty_system()
                if total == 0:
                    rerun = list(eqs)
                    rerun.extend(
                        Constraint._canonical(Kind.INEQ, (c,) + k)
                        for k, c in ineq_by_coeffs.items()
                    )
                    return simplify_system(rerun)

    out = list(eqs)
    # Every key is the coefficient part of a normalized inequality, so the
    # rebuilt rows are in normal form whatever their constant.
    out.extend(
        Constraint._canonical(Kind.INEQ, (const,) + key)
        for key, const in sorted(ineq_by_coeffs.items(), key=lambda kv: (kv[0], kv[1]))
    )
    return SimplifiedSystem(out, False)


def _leading_col(vec: Vec) -> Optional[int]:
    """Highest nonzero column of a vector (None for constant vectors)."""
    for col in range(len(vec) - 1, 0, -1):
        if vec[col] != 0:
            return col
    return None
