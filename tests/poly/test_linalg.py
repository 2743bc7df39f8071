"""Unit tests for exact integer vector helpers."""

import pytest

from repro.poly.linalg import (
    ceildiv,
    floordiv,
    vec_add,
    vec_combine,
    vec_dot,
    vec_neg,
    vec_scale,
    vec_sub,
)


class TestVectorOps:
    def test_add_sub_roundtrip(self):
        a, b = (1, -2, 3), (4, 5, -6)
        assert vec_sub(vec_add(a, b), b) == a

    def test_neg(self):
        assert vec_neg((1, 0, -7)) == (-1, 0, 7)

    def test_scale(self):
        assert vec_scale((1, -2), 3) == (3, -6)
        assert vec_scale((1, -2), 0) == (0, 0)

    def test_combine_is_linear(self):
        a, b = (2, 3), (5, -1)
        assert vec_combine(a, 2, b, -3) == (-11, 9)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            vec_add((1,), (1, 2))
        with pytest.raises(ValueError):
            vec_dot((1,), (1, 2))

    def test_dot(self):
        assert vec_dot((1, 2, 3), (4, 5, 6)) == 32


class TestDivision:
    @pytest.mark.parametrize(
        "a,b,expected",
        [(7, 2, 3), (-7, 2, -4), (7, -2, -4), (-7, -2, 3), (6, 3, 2), (0, 5, 0)],
    )
    def test_floordiv(self, a, b, expected):
        assert floordiv(a, b) == expected

    @pytest.mark.parametrize(
        "a,b,expected",
        [(7, 2, 4), (-7, 2, -3), (7, -2, -3), (-7, -2, 4), (6, 3, 2), (0, 5, 0)],
    )
    def test_ceildiv(self, a, b, expected):
        assert ceildiv(a, b) == expected

    def test_floor_le_ceil(self):
        for a in range(-12, 13):
            for b in (1, 2, 3, 5, -1, -3):
                assert floordiv(a, b) <= ceildiv(a, b)
                # Match Python semantics for positive divisors.
                if b > 0:
                    assert floordiv(a, b) == a // b
