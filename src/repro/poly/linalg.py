"""Exact integer vector helpers for the polyhedral layer.

Vectors are plain tuples of Python ``int`` so arithmetic never overflows and
never loses precision. Vectors follow the *column layout* defined by
:class:`repro.poly.space.Space`: index 0 is the constant term, followed by
parameter columns, then dimension columns.
"""

from __future__ import annotations

import operator
from typing import Sequence, Tuple

__all__ = [
    "Vec",
    "vec_add",
    "vec_sub",
    "vec_neg",
    "vec_scale",
    "vec_combine",
    "vec_dot",
    "floordiv",
    "ceildiv",
]

Vec = Tuple[int, ...]


def vec_add(a: Sequence[int], b: Sequence[int]) -> Vec:
    """Component-wise sum of two equal-length vectors."""
    if len(a) != len(b):
        raise ValueError(f"vector length mismatch: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Sequence[int], b: Sequence[int]) -> Vec:
    """Component-wise difference ``a - b``."""
    if len(a) != len(b):
        raise ValueError(f"vector length mismatch: {len(a)} vs {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a: Sequence[int]) -> Vec:
    """Component-wise negation."""
    return tuple(map(operator.neg, a))


def vec_scale(a: Sequence[int], k: int) -> Vec:
    """Vector scaled by the integer ``k``."""
    return tuple(x * k for x in a)


def vec_combine(a: Sequence[int], ka: int, b: Sequence[int], kb: int) -> Vec:
    """Linear combination ``ka * a + kb * b`` (the Fourier-Motzkin kernel op)."""
    if len(a) != len(b):
        raise ValueError(f"vector length mismatch: {len(a)} vs {len(b)}")
    return tuple([ka * x + kb * y for x, y in zip(a, b)])


def vec_dot(a: Sequence[int], b: Sequence[int]) -> int:
    """Exact dot product."""
    if len(a) != len(b):
        raise ValueError(f"vector length mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def floordiv(a: int, b: int) -> int:
    """Floor division that accepts a negative divisor (isl's ``fdiv_q``)."""
    if b < 0:
        a, b = -a, -b
    return a // b


def ceildiv(a: int, b: int) -> int:
    """Ceiling division that accepts a negative divisor (isl's ``cdiv_q``)."""
    if b < 0:
        a, b = -a, -b
    return -((-a) // b)
