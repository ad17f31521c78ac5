"""Inputs whose scan arithmetic does not fit int64.

Each large polytope is the image of a small one under a unimodular affine
map, so every invariant must equal that of its small twin and lattice
points must correspond through the map. The small twins run the int64
scan; the large ones need exact Python ints throughout.
"""

from fractions import Fraction

import numpy as np
import pytest

import polynorm.geometry as geometry
from polynorm import (
    build_polytope,
    d_of_p,
    ehrhart_polynomial,
    is_normal,
    reeve_simplex,
    scaled_count,
    verify_witness,
)

BIG = 2**70


def shear(p):
    """(x, y) -> (x, y - 2^70 x): maps the long triangle to the unit one."""
    x, y = p
    return (x, y - BIG * x)


def translate(t):
    return lambda p: tuple(a - b for a, b in zip(p, t))


CASES = {
    "long triangle": ([(0, 0), (0, 1), (1, BIG)], [(0, 0), (1, 0), (0, 1)], shear),
    "far square": (
        [(BIG + x, BIG + y) for x in (0, 1) for y in (0, 1)],
        [(x, y) for x in (0, 1) for y in (0, 1)],
        translate((BIG, BIG)),
    ),
    "far reeve": (
        [(2**63 + x, y, z) for x, y, z in reeve_simplex(2).vertices],
        reeve_simplex(2).vertices,
        translate((2**63, 0, 0)),
    ),
}


@pytest.fixture(params=sorted(CASES))
def twins(request):
    big, small, to_small = CASES[request.param]
    return build_polytope(big), build_polytope(small), to_small


def test_large_inputs_scan_with_exact_ints(twins):
    big, small, _ = twins
    assert geometry._scan_dtype(big, 1, False) is object
    assert geometry._scan_dtype(small, 1, False) is np.int64


def test_large_counts_match_small_twin(twins):
    big, small, _ = twins
    for k in (1, 2, 3):
        assert scaled_count(big, k) == scaled_count(small, k)
        assert scaled_count(big, k, interior=True) == scaled_count(small, k, interior=True)
    assert ehrhart_polynomial(big) == ehrhart_polynomial(small)
    assert d_of_p(big) == d_of_p(small)


def test_large_lattice_points_map_to_small_twin(twins):
    big, small, to_small = twins
    assert sorted(map(to_small, big.lattice_points())) == small.lattice_points()


def test_large_normality_matches_small_twin(twins):
    big, small, _ = twins
    rep_big, rep_small = is_normal(big), is_normal(small)
    assert rep_big.verdict == rep_small.verdict
    assert rep_big.levels_checked == rep_small.levels_checked


def test_far_reeve_witness_is_translated():
    big = build_polytope(CASES["far reeve"][0])
    rep = is_normal(big)
    assert rep.verdict == "non-normal"
    # the witness lies in 2P, so it moves by twice the translation
    assert rep.witness.level == 2
    assert rep.witness.point == (2**64 + 1, 1, 1)
    assert verify_witness(big, 2, rep.witness.point)


def test_needle_ehrhart_closed_form():
    # conv{0, e1, 2^70 e2}: L(t) = 2^69 t^2 + (2^69 + 1) t + 1; no unimodular
    # map brings its counts into int64
    P = build_polytope([(0, 0), (1, 0), (0, BIG)])
    half = 2**69
    assert ehrhart_polynomial(P).coefficients == (
        Fraction(1), Fraction(half + 1), Fraction(half))
    assert scaled_count(P, 7) == half * 49 + (half + 1) * 7 + 1
