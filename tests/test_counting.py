"""Ehrhart interpolation, d(P), codegree, reciprocity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polynorm import (
    EhrhartPolynomial,
    InvalidInputError,
    analyze,
    d_of_p,
    ehrhart_polynomial,
    extrapolation_check,
    reciprocity_check,
    scaled_count,
)
from conftest import box_scan, random_polytope


def test_ehrhart_unit_square(unit_square):
    E = ehrhart_polynomial(unit_square)
    assert E.coefficients == (Fraction(1), Fraction(2), Fraction(1))
    assert [E.evaluate(k) for k in range(5)] == [1, 4, 9, 16, 25]


def test_ehrhart_t2(t2):
    E = ehrhart_polynomial(t2)
    # interpolated at k = 0..3 from the counts 1, 4, 11, 24
    assert E.coefficients == (
        Fraction(1), Fraction(5, 3), Fraction(1), Fraction(1, 3))
    assert E.evaluate(1) == 4
    assert E.evaluate(2) == 11


def test_ehrhart_delta3(delta3):
    E = ehrhart_polynomial(delta3)
    # binomial(t+3, 3)
    assert [E.evaluate(k) for k in range(5)] == [1, 4, 10, 20, 35]


def test_ehrhart_constant_term_and_leading_sign(unit_square, t2, delta3):
    for P in (unit_square, t2, delta3):
        E = ehrhart_polynomial(P)
        assert E.coefficients[0] == 1
        assert E.coefficients[-1] > 0


def test_ehrhart_matches_direct_counts_beyond_interpolation(t2):
    E = ehrhart_polynomial(t2)
    for k in (4, 5):
        assert E.evaluate(k) == scaled_count(t2, k)


def test_ehrhart_to_jsonable(unit_square):
    assert ehrhart_polynomial(unit_square).to_jsonable() == ["1", "2", "1"]


def test_interior_count_against_box_scan(unit_square, t2, big_triangle,
                                         interior_count):
    for P in (unit_square, t2, big_triangle):
        for k in (1, 2, 3):
            assert interior_count(P, k) == len(box_scan(P, k, strict=True))


def test_d_of_p_known_values(unit_square, t2, delta3, big_triangle):
    assert d_of_p(unit_square) == 1
    assert d_of_p(t2) == 1
    assert d_of_p(delta3) == 3
    assert d_of_p(big_triangle) == 0


def test_codegree_is_d_plus_one(unit_square, t2, delta3, big_triangle):
    for P in (unit_square, t2, delta3, big_triangle):
        assert analyze(P).codegree == d_of_p(P) + 1


def test_dilation_profile_interior_counts(t2, interior_count):
    # relint(1*T2) empty, relint(2*T2) = {(1,1,1)}
    assert interior_count(t2, 1) == 0
    assert interior_count(t2, 2) == 1
    assert d_of_p(t2) == 1


def test_reciprocity_and_extrapolation(unit_square, t2, delta3, big_triangle):
    for P in (unit_square, t2, delta3, big_triangle):
        poly = ehrhart_polynomial(P)
        assert reciprocity_check(P, poly)
        assert extrapolation_check(P, poly)


def off_at(poly, points):
    """poly + prod (t - x) over points: the same values at points, other
    values at every other integer."""
    extra = [Fraction(1)]
    for x in points:
        extra = [a - x * b for a, b in zip([Fraction(0)] + extra, extra + [Fraction(0)])]
    coeffs = list(poly.coefficients)
    size = max(len(coeffs), len(extra))
    coeffs += [Fraction(0)] * (size - len(coeffs))
    extra += [Fraction(0)] * (size - len(extra))
    return EhrhartPolynomial(tuple(c + e for c, e in zip(coeffs, extra)))


# the points at which each check evaluates the polynomial of delta3 (dim 3):
# reciprocity at -t for t = 1..4, extrapolation at k = 4, 5
CHECKS = {"reciprocity": (reciprocity_check, (-1, -2, -3, -4)),
          "extrapolation": (extrapolation_check, (4, 5))}


@pytest.mark.parametrize("name, point", [(name, x) for name, (_, xs) in CHECKS.items()
                                         for x in xs],
                         ids=lambda v: f"at{v}" if isinstance(v, int) else v)
def test_check_fails_on_a_polynomial_off_at_one_of_its_points(delta3, name, point):
    check, points = CHECKS[name]
    poly = off_at(ehrhart_polynomial(delta3), [x for x in points if x != point])
    assert poly.evaluate(point) != ehrhart_polynomial(delta3).evaluate(point)
    assert not check(delta3, poly)


def fraction_horner(coefficients, t):
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * t + c
    return acc


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(-100, 100, max_denominator=12), min_size=1, max_size=6),
       st.integers(-10**6, 10**6))
def test_evaluate_matches_fraction_horner(coefficients, t):
    # the integer Horner pass and its one division give the Fraction rule's
    # value, as an int exactly when that value is integral
    value = EhrhartPolynomial(tuple(coefficients)).evaluate(t)
    expected = fraction_horner(coefficients, t)
    assert value == expected
    assert type(value) is (int if expected.denominator == 1 else Fraction)


def test_evaluate_keeps_non_integral_values():
    E = EhrhartPolynomial((Fraction(1, 2), Fraction(0), Fraction(1, 3)))
    assert E.evaluate(1) == Fraction(5, 6) and type(E.evaluate(1)) is Fraction
    assert E.evaluate(-3) == Fraction(7, 2)
    assert E.evaluate(0) == Fraction(1, 2)
    assert type(EhrhartPolynomial((Fraction(1, 2), Fraction(1, 2))).evaluate(-3)) is int


@pytest.mark.parametrize("name", CHECKS)
def test_check_reads_no_point_but_its_own(delta3, name):
    check, points = CHECKS[name]
    assert check(delta3, off_at(ehrhart_polynomial(delta3), points))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.integers(0, 10**6))
def test_reciprocity_on_random_polytopes(n, seed):
    rng = random.Random(seed)
    P = random_polytope(rng, n)
    E = ehrhart_polynomial(P)
    sign = (-1) ** n
    for t in range(1, n + 2):
        assert sign * E.evaluate(-t) == len(box_scan(P, t, strict=True))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.integers(0, 10**6))
def test_d_of_p_definition(n, seed):
    # d(P) is the last dilation factor whose relative interior is empty
    rng = random.Random(seed)
    P = random_polytope(rng, n)
    d = d_of_p(P)
    for k in range(1, d + 1):
        assert len(box_scan(P, k, strict=True)) == 0
    assert len(box_scan(P, d + 1, strict=True)) > 0


def test_interior_count_rejects_nonpositive(unit_square, interior_count):
    with pytest.raises(InvalidInputError):
        interior_count(unit_square, 0)
