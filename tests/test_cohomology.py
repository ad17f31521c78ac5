"""Cohomology counting rules and autoregularity."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from polynorm import (
    InvalidInputError,
    autoregularity_from_definition,
    build_polytope,
    d_of_p,
    h_table,
    normality_bound,
    np_bound_from_regularity,
    scaled_count,
)
from conftest import random_polytope


def autoregularity_formula(P):
    """n - 1 - d(P); may be negative and is returned unclamped."""
    return P.dim - 1 - d_of_p(P)


def test_h_table_unit_square(unit_square):
    tab = h_table(unit_square, -2, 2)
    rows = {r["k"]: r["h"] for r in tab.to_jsonable()["rows"]}
    assert rows[1] == [4, 0, 0]
    assert rows[2] == [9, 0, 0]
    assert rows[0] == [1, 0, 0]
    # negative twists: only top cohomology, counting interior points
    assert rows[-1] == [0, 0, 0]
    assert rows[-2] == [0, 0, 1]


def test_h_table_t2(t2):
    tab = h_table(t2, -2, 2)
    rows = {r["k"]: r["h"] for r in tab.to_jsonable()["rows"]}
    assert rows[1] == [4, 0, 0, 0]
    assert rows[2] == [11, 0, 0, 0]
    assert rows[-1] == [0, 0, 0, 0]
    assert rows[-2] == [0, 0, 0, 1]  # relint(2*T2) = {(1,1,1)}


def test_h_zero_matches_counts(t2, delta3, interior_count):
    for P in (t2, delta3):
        tab = h_table(P, -3, 3)
        for row in tab.to_jsonable()["rows"]:
            k, h = row["k"], row["h"]
            if k >= 1:
                assert h[0] == scaled_count(P, k)
            elif k == 0:
                assert h[0] == 1
            else:
                assert h[0] == 0
                assert h[-1] == interior_count(P, -k)
            # middle cohomology always vanishes under the counting rules
            assert all(x == 0 for x in h[1:-1])


def test_h_table_row_range_validation(unit_square):
    with pytest.raises(InvalidInputError):
        h_table(unit_square, 2, -2)


def test_autoregularity_known_values(unit_square, t2, delta3, big_triangle):
    assert autoregularity_from_definition(unit_square) == 0
    assert autoregularity_from_definition(t2) == 1
    assert autoregularity_from_definition(delta3) == -1
    assert autoregularity_from_definition(big_triangle) == 1


def test_autoregularity_agrees_with_formula(unit_square, t2, delta3, big_triangle):
    for P in (unit_square, t2, delta3, big_triangle):
        assert autoregularity_from_definition(P) == autoregularity_formula(P)
        assert autoregularity_formula(P) == P.dim - 1 - d_of_p(P)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.integers(0, 10**6))
def test_autoregularity_formula_on_random_polytopes(n, seed):
    rng = random.Random(seed)
    P = random_polytope(rng, n)
    assert autoregularity_from_definition(P) == n - 1 - d_of_p(P)


def test_minimality_of_autoregularity(t2, interior_count):
    # at m-1 the defining vanishing must fail: the top twist hits the
    # dilation whose interior is populated
    m = autoregularity_from_definition(t2)
    n = t2.dim
    # h^n at twist (m-1) + 1 - n = m - n, i.e. interior of (n - m)P
    assert interior_count(t2, n - m) > 0


def test_np_bound_from_regularity(t2, unit_square, delta3):
    # T2: m_a = 1, so p=0 gives 2 and p >= 1 gives 1 + p
    assert [np_bound_from_regularity(autoregularity_from_definition(t2), p)
            for p in range(4)] == [2, 2, 3, 4]
    # unit square: m_a = 0, everything clamps to at least 1
    assert [np_bound_from_regularity(autoregularity_from_definition(unit_square), p)
            for p in range(4)] == [1, 1, 2, 3]
    # delta3: m_a = -1, the clamp is doing the work at p = 0, 1
    assert [np_bound_from_regularity(autoregularity_from_definition(delta3), p)
            for p in range(4)] == [1, 1, 1, 2]


def test_np_bound_dominance_containment(big_triangle, delta3, t2,
                                        np_dominance_failure):
    """Exactly where np_bound_from_regularity(m, p) leaves n-1+p.

    m is the autoregularity of P.  The default corpus holds no polytope
    with n = d = 2 and none of dimension 1, so these fixtures reach the
    clauses criterion 7 cannot.  Each row gives the levels for p = 0..3
    and how each compares with n-1+p.
    """
    cases = [
        # n = d = 2: the level clamps at 1 = n-1, so p = 0 is not strict
        (build_polytope([(0, 0), (1, 0), (0, 1)]), [1, 1, 1, 2], "=<<<"),
        # d = 0: one above n-1 at p = 0 only
        (big_triangle, [2, 2, 3, 4], ">==="),
        # d = 3: strictly below [2, 3, 4, 5] everywhere
        (delta3, [1, 1, 1, 2], "<<<<"),
        (t2, [2, 2, 3, 4], "=<<<"),
        # n = 1: n-1 = 0 is not a dilation level, whatever d is
        (build_polytope([(0,), (1,)]), [1, 1, 1, 2], ">=<<"),
        (build_polytope([(0,), (3,)]), [1, 1, 2, 3], ">==="),
    ]
    for P, expected, relation in cases:
        bounds = normality_bound(P)
        n = bounds.n
        levels = [np_bound_from_regularity(autoregularity_from_definition(P), p)
                  for p in range(4)]
        assert levels == expected
        assert "".join("<" if lvl < n - 1 + p else "=" if lvl == n - 1 + p
                       else ">" for p, lvl in enumerate(levels)) == relation
        assert levels[0] == bounds.corollary_bound
        assert [np_dominance_failure(n, bounds.d, p, lvl)
                for p, lvl in enumerate(levels)] == [None] * 4
    # the rule refuses each way the dominance could silently grow
    assert np_dominance_failure(2, 0, 0, 1)  # d = 0, p = 0: n, not n-1
    assert np_dominance_failure(2, 0, 0, 3)  # nor n+1
    assert np_dominance_failure(3, 1, 1, 4)  # above n-1+p at p >= 1
    assert np_dominance_failure(4, 2, 1, 4)  # d >= 2 must be strict
    assert np_dominance_failure(3, 2, 0, 2)  # ... at p = 0 too when n > 2


def test_np_bound_rejects_negative_p(t2):
    with pytest.raises(InvalidInputError):
        np_bound_from_regularity(autoregularity_from_definition(t2), -1)
