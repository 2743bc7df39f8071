"""Constraint normal form: established once, trusted afterwards.

:class:`~repro.poly.constraint.Constraint` normalizes its vector on
construction. Two places rebuild constraints whose vectors are canonical by
construction and skip that work through ``Constraint._canonical``:
``simplify_system``'s inequality rows (rebuilt from the coefficients of
normalized inequalities) and ``_compact`` (which deletes all-zero columns).

The predecessor of the constructor's normalization is kept below verbatim
as the oracle; the current one must produce the identical vector on every
input. And every constraint those two trusted sites emit must be a fixed
point of the full constructor — otherwise a non-canonical vector slipped
past normalization.
"""

from math import gcd
from typing import Iterable

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.poly.affine import Aff
from repro.poly.basic_set import BasicSet, _compact
from repro.poly.constraint import Constraint, Kind
from repro.poly.fourier_motzkin import project_columns
from repro.poly.simplify import simplify_system
from repro.poly.space import Space

# ---------------------------------------------------------------------------
# The oracle: the predecessor normalization, verbatim
# ---------------------------------------------------------------------------


def vec_gcd(a: Iterable[int]) -> int:
    """GCD of all components (0 for the zero vector)."""
    g = 0
    for x in a:
        g = gcd(g, abs(x))
        if g == 1:
            return 1
    return g


def vec_neg(a):
    """Component-wise negation."""
    return tuple(-x for x in a)


def oracle_normalize(kind: Kind, vec):
    """Canonicalize a raw constraint vector."""
    g = vec_gcd(vec[1:])
    if g > 1:
        if kind is Kind.INEQ:
            # Tighten: floor-divide the constant (keeps all integer points).
            vec = (vec[0] // g,) + tuple(v // g for v in vec[1:])
        elif all(v % g == 0 for v in vec):
            vec = tuple(v // g for v in vec)
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


def oracle_post_init(kind: Kind, raw):
    """The vector the predecessor ``Constraint.__post_init__`` stored."""
    vec = tuple(int(v) for v in raw)
    vec = oracle_normalize(kind, vec)
    return vec


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: Small coefficients, zero-heavy, plus a few large ones.
coeffs = st.one_of(
    st.just(0),
    st.integers(-12, 12),
    st.sampled_from([-(2**40), 2**40, 3 * 2**33, -6 * 10**12]),
)

#: A coefficient as an int, a numpy int of either width, or a bool.
raw_coeffs = st.one_of(
    coeffs,
    st.integers(-1000, 1000).map(np.int64),
    st.integers(-1000, 1000).map(np.int32),
    st.booleans(),
)

kinds = st.sampled_from([Kind.EQ, Kind.INEQ])


@st.composite
def raw_vectors(draw):
    """Constant plus 0-6 coefficients; leading zeros and all-zero rows likely."""
    n = draw(st.integers(0, 6))
    lead = draw(st.integers(0, n))
    body = [0] * lead + draw(st.lists(raw_coeffs, min_size=n - lead, max_size=n - lead))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([2, 3, 6]))
        body = [int(v) * scale for v in body]
    return [draw(raw_coeffs)] + body


class TestNormalizationOracle:
    @settings(max_examples=600, deadline=None)
    @given(kinds, raw_vectors())
    def test_constructor_matches_predecessor(self, kind, raw):
        c = Constraint(kind, raw)
        assert c.vec == oracle_post_init(kind, raw)
        assert all(type(v) is int for v in c.vec)

    @settings(max_examples=200, deadline=None)
    @given(kinds, raw_vectors())
    def test_normal_form_is_a_fixed_point(self, kind, raw):
        c = Constraint(kind, raw)
        assert Constraint(kind, c.vec) == c
        assert Constraint._canonical(kind, c.vec) == c

    @settings(max_examples=100, deadline=None)
    @given(st.lists(raw_coeffs, min_size=3, max_size=3))
    def test_aff_stores_python_ints(self, raw):
        aff = Aff(Space.set_space(["x"], params=["n"]), raw)
        assert aff.vec == tuple(int(v) for v in raw)
        assert all(type(v) is int for v in aff.vec)


# ---------------------------------------------------------------------------
# The trusted sites emit fixed points of the constructor
# ---------------------------------------------------------------------------

SPACE = Space.set_space(["y", "x"], params=["n"])


@st.composite
def systems(draw):
    """Random systems over [n, y, x], with opposed pairs to force promotion."""
    cons = []
    for _ in range(draw(st.integers(1, 6))):
        vec = (
            draw(st.integers(-8, 8)),
            draw(st.integers(-4, 4)),
            draw(st.integers(-4, 4)),
            draw(st.integers(-4, 4)),
        )
        kind = draw(st.sampled_from([Kind.INEQ, Kind.INEQ, Kind.EQ]))
        c = Constraint(kind, vec)
        cons.append(c)
        if kind is Kind.INEQ and draw(st.booleans()):
            # The opposite inequality: with no slack the pair promotes to an
            # equality whose sign simplify_system has to fix.
            opposite = vec_neg(c.vec)
            slack = draw(st.sampled_from([0, 0, 1]))
            cons.append(Constraint(Kind.INEQ, (opposite[0] + slack,) + opposite[1:]))
    return cons


def assert_fixed_points(constraints):
    for c in constraints:
        assert Constraint(c.kind, c.vec) == c, f"{c} is not in normal form"


class TestTrustedSitesEmitNormalForm:
    @settings(max_examples=400, deadline=None)
    @given(systems())
    def test_simplify_system_output(self, cons):
        assert_fixed_points(simplify_system(cons).constraints)

    @settings(max_examples=300, deadline=None)
    @given(systems(), st.sets(st.integers(1, 3), min_size=1, max_size=2))
    def test_compact_output(self, cons, cols):
        projected, _ = project_columns(simplify_system(cons).constraints, cols)
        assert_fixed_points(_compact(projected, sorted(cols)))

    @settings(max_examples=200, deadline=None)
    @given(systems(), st.sampled_from(["y", "x"]), st.integers(-3, 3))
    def test_basic_set_operations(self, cons, name, value):
        bs = BasicSet(SPACE, cons)
        assert_fixed_points(bs.constraints)
        assert_fixed_points(bs.project_out([name]).constraints)
        assert_fixed_points(bs.project_out_params(["n"]).constraints)
        assert_fixed_points(bs.fix(name, value).constraints)
