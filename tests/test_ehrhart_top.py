"""The Ehrhart polynomial against what the hull alone decides.

volume_oracle gives c_n and c_{n-1} from pulling triangulations, without
counting a lattice point, so it checks the counting walk and the
interpolation from outside them. fraction_interpolation takes a second
route from the same counts to every coefficient: divided differences over
Fractions, where ehrhart_polynomial runs in integers over n!.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polynorm import build_polytope, ehrhart_polynomial, reeve_simplex, scaled_count
from conftest import random_polytope
from exact_linalg import det
from test_metamorphic import apply, unimodular
from volume_oracle import (edges, facet_sets, pulling_triangulation, relative_volume,
                           top_coefficients)

# spreads keep the far translates' walks, in Python ints, small
SPREAD = {1: 4, 2: 3, 3: 2, 4: 1}
SHIFTS = [0, 2**62 + 1, -2**63 - 3]


def fraction_interpolation(counts):
    """Coefficients of the polynomial through the counts at t = 0..n: divided
    differences over Fractions, each step j dividing by j, and the Newton
    form expanded by Horner from the top."""
    n = len(counts) - 1
    a = [Fraction(c) for c in counts]
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            a[i] = (a[i] - a[i - 1]) / j
    coeffs = [a[n]]
    for k in range(n - 1, -1, -1):
        coeffs = [a[k] - k * coeffs[0]] + [
            lower - k * c for lower, c in zip(coeffs, coeffs[1:] + [0])]
    return tuple(coeffs)


def image(P, rng, shift):
    """P under a random unimodular map, moved by shift plus a little on every axis."""
    n = P.dim
    U = unimodular(rng, n) if n > 1 else [(rng.choice([-1, 1]),)]
    t = [shift + rng.randrange(-5, 6) for _ in range(n)]
    return build_polytope([apply(U, t, v) for v in P.vertices])


def test_pulling_triangulation_of_the_cube():
    # pulling (0, 0, 0) out of [0, 1]^3 cones it over the 3 facets that miss
    # it, each pulled at its own least vertex into 2 triangles: 6 simplices
    # of normalized volume 1. The facet x = 1 is 2 triangles of lattice area
    # 1/2, and a facet of a dilate keeps its normal and scales its area
    P = build_polytope(list(itertools.product((0, 1), repeat=3)))
    on = facet_sets(P)
    simplices = pulling_triangulation(frozenset(range(8)), 3, on)
    assert len(simplices) == len(set(simplices)) == 6
    assert all(abs(det(edges(P.vertices, s))) == 1 for s in simplices)
    assert frozenset(range(4, 8)) in on  # x = 1
    triangles = pulling_triangulation(frozenset(range(4, 8)), 2, on)
    assert [relative_volume(edges(P.vertices, s), (-1, 0, 0)) for s in triangles] == [1, 1]
    assert relative_volume([[0, 3, 0], [0, 0, 3]], (-1, 0, 0)) == 9
    assert top_coefficients(P) == (1, 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6), st.sampled_from(SHIFTS))
def test_top_coefficients_match_the_hull(n, seed, shift):
    # c_n and c_{n-1} are kept by x -> Ux + t; past 2^62 the image is
    # counted in Python ints
    rng = random.Random(seed)
    P = random_polytope(rng, n, SPREAD[n])
    Q = image(P, rng, shift)
    top = top_coefficients(P)
    assert top_coefficients(Q) == top
    for R in (P, Q):
        coeffs = ehrhart_polynomial(R).coefficients
        assert (coeffs[n], coeffs[n - 1]) == top


@pytest.mark.parametrize("vertices, top", [
    # the skew triangle: area 1/2 and 3 boundary points at any length (Pick)
    ([(0, 0), (1, 0), (10**5, 1)], (Fraction(1, 2), Fraction(3, 2))),
    # dim 1 has no other polytope than a segment: length 5, its 2 ends
    ([(0,), (5,)], (5, 1)),
    # a pentagon: area 22/2 by the shoelace sum; 3 + 1 + 2 + 2 + 2 = 10
    # boundary points
    ([(0, 0), (3, 0), (4, 2), (2, 4), (0, 2)], (11, 5)),
    # the pyramid of height 3 over [0, 2]^2: volume 4 * 3 / 3; the base has
    # lattice area 4, and each side, e.g. edges (2, 0, 0) and (1, 1, 3) with
    # cross product 2 (0, -3, 1), lattice area 2/2
    ([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 3)], (4, 4)),
    # Delta_3 x [0, 2]: volume 2/6; the boundary holds two Delta_3 of volume
    # 1/6 and four triangles of area 1/2 times a segment of length 2
    ([v + (z,) for v in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)] for z in (0, 2)],
     (Fraction(1, 3), Fraction(13, 6))),
], ids=["skew-triangle", "segment", "pentagon", "pyramid", "prism"])
def test_pinned_top_coefficients(vertices, top):
    P = build_polytope(vertices)
    coeffs = ehrhart_polynomial(P).coefficients
    assert (coeffs[-1], coeffs[-2]) == top_coefficients(P) == top


def assert_matches_fractions(P):
    """Every coefficient of ehrhart_polynomial is the Fraction the
    interpolation over Fractions gives from the same counts."""
    counts = [1] + [scaled_count(P, k) for k in range(1, P.dim + 1)]
    coeffs = ehrhart_polynomial(P).coefficients
    assert all(type(c) is Fraction for c in coeffs)
    assert coeffs == fraction_interpolation(counts)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6), st.sampled_from(SHIFTS))
def test_integer_interpolation_matches_fractions(n, seed, shift):
    rng = random.Random(seed)
    P = random_polytope(rng, n, SPREAD[n])
    assert_matches_fractions(P)
    assert_matches_fractions(image(P, rng, shift))


@pytest.mark.parametrize("q", range(2, 6))
def test_reeve_interpolation_matches_fractions(q):
    # L(t) = 1 + (2 - q/6) t + t^2 + q t^3 / 6: the t term's coefficient
    # runs through sixths
    P = reeve_simplex(q)
    assert_matches_fractions(P)
    assert ehrhart_polynomial(P).coefficients == (1, 2 - Fraction(q, 6), 1, Fraction(q, 6))
    assert top_coefficients(P) == (Fraction(q, 6), 1)
