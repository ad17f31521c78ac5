"""Inputs whose scan arithmetic does not fit int32 or int64.

Each large polytope is the image of a small one under a unimodular affine
map, so every invariant must equal that of its small twin and lattice
points must correspond through the map. The small twins run the int32
scan; the large ones need int64 or exact Python ints throughout.
"""

import itertools
import sys
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import polynorm.geometry as geometry
import polynorm.normality as normality
from polynorm import (
    BoundReport,
    InvalidInputError,
    build_polytope,
    d_of_p,
    ehrhart_polynomial,
    is_normal,
    normality_bound,
    reeve_simplex,
    scaled_count,
    verify_corollary,
    verify_witness,
)
from test_corollary import fewest_lines_frame, oracle_verify_corollary

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
    assert geometry._scan_dtype(big, 1) is object
    assert geometry._scan_dtype(small, 1) is np.int32


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


def test_large_corollary_sweep_matches_small_twin(twins):
    big, small, _ = twins

    def short_prefixes(Q, scale):
        lo, hi = Q.bounding_box()
        return all(scale * (h - l) < 2**10 for l, h in zip(lo[:-1], hi[:-1]))

    # the long triangle's 2^71-point axis stays the line axis: a wrapped
    # estimate would make it a prefix axis, whose scan does not end
    assert short_prefixes(fewest_lines_frame(big), 2)
    # the sweep runs the line ladder, which scans one scale per walk; the
    # point sums are checked in test_normality
    with mock.patch.object(normality, "_slabs", wraps=normality._slabs) as scans, \
            mock.patch.object(normality, "_first_gap", normality._line_ladder):
        rec_big = oracle_verify_corollary(big, normality_bound(big), 2)
    rec_small = oracle_verify_corollary(small, normality_bound(small), 2)
    assert rec_big.passed and rec_small.passed
    assert verify_corollary(big, normality_bound(big), 2) == rec_big
    assert verify_corollary(small, normality_bound(small), 2) == rec_small
    assert [(ell, w and w.level) for ell, w in rec_big.levels] == [
        (ell, w and w.level) for ell, w in rec_small.levels]
    # every scan, the frame choice's scan of 2P too, runs on exact ints
    for call in scans.call_args_list:
        Q, scale = call.args[:2]
        assert geometry._scan_dtype(Q, scale) is object
        assert short_prefixes(Q, scale)


def test_far_rotated_reeve_sweep_matches_small_twin():
    # conv{0, e2, e3, (5,1,1)} is checked with axis 0 last, here in exact
    # ints; a forged bound of 1 puts the non-normal P itself into the sweep
    small = build_polytope([(0, 0, 0), (0, 1, 0), (0, 0, 1), (5, 1, 1)])
    big = shifted(small, 2**63)
    assert fewest_lines_frame(big) is not big
    assert geometry._scan_dtype(big, 1) is object
    rec_big, rec_small = (oracle_verify_corollary(P, BoundReport(3, 2), 1)
                          for P in (big, small))
    assert verify_corollary(big, BoundReport(3, 2), 1) == rec_big
    assert verify_corollary(small, BoundReport(3, 2), 1) == rec_small
    assert rec_big.violations == rec_small.violations == (1,)
    assert [(ell, w and w.level) for ell, w in rec_big.levels] == [
        (ell, w and w.level) for ell, w in rec_small.levels]
    # the witness lies in mP, so it moves by m times the translation
    witness = rec_small.levels[0][1]
    x, *rest = witness.point
    assert rec_big.levels[0][1].point == (x + witness.level * 2**63, *rest)


def test_far_reeve_witness_is_translated():
    big = build_polytope(CASES["far reeve"][0])
    rep = is_normal(big)
    assert rep.verdict == "non-normal"
    # the witness lies in 2P, so it moves by twice the translation
    assert rep.witness.level == 2
    assert rep.witness.point == (2**64 + 1, 1, 1)
    assert verify_witness(big, 2, rep.witness.point)


def test_tall_simplex_points_are_refused():
    # one slab of 2P holds about 2^66 points, far past the listing budget
    P = build_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2**65)])
    with pytest.raises(InvalidInputError, match="too many lattice points"):
        geometry.scaled_points_array(P, 2)


def test_listing_past_the_byte_budget_is_refused_before_expanding(monkeypatch):
    # the unit square at 3e9 has about 9e18 points: the first slab of point
    # rows would pass _MAX_LIST_BYTES, so only prefixes (one coordinate) are
    # ever expanded, and the refusal comes at once
    widths = []
    real = geometry._expand

    def spy(*args):
        out = real(*args)
        widths.append(out.shape[1])
        return out

    monkeypatch.setattr(geometry, "_expand", spy)
    square = build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    start = time.perf_counter()
    with pytest.raises(InvalidInputError, match="too many lattice points to enumerate"):
        geometry.scaled_points_array(square, 3 * 10**9)
    assert time.perf_counter() - start < 1
    assert widths and set(widths) == {1}


def test_listing_budget_is_two_to_the_27_bytes(monkeypatch):
    # the segment [0, 2^25] lists int32 coordinates, 4 bytes a point: its
    # 2^25 + 1 points pass 2^27 bytes by 4, so its one line is refused
    # before it is expanded, and nothing is allocated for its points
    expanded = []
    monkeypatch.setattr(geometry, "_expand", lambda *args: expanded.append(args))
    segment = build_polytope([(0,), (2**25,)])
    assert geometry._scan_dtype(segment, 1) is np.int32
    with pytest.raises(InvalidInputError,
                       match=f"holds at least {2**25 + 1}, past {2**27} bytes"):
        geometry.scaled_points_array(segment)
    assert expanded == []


def unit_square(t=0):
    return build_polytope([(t, t), (t + 1, t), (t, t + 1), (t + 1, t + 1)])


def test_listing_budget_admits_exactly_its_bytes(monkeypatch):
    # past int64 the array holds pointers, and each coordinate is also
    # charged the size of an int as large as 2P's largest |coordinate|
    for t, dtype in ((0, np.int32), (2**62, object)):
        monkeypatch.undo()
        square = unit_square(t)
        points = geometry.scaled_points_array(square, 2)
        assert points.dtype == dtype
        size = points.nbytes
        if dtype is object:
            size += points.size * sys.getsizeof(2 * (t + 1))
        monkeypatch.setattr(geometry, "_MAX_LIST_BYTES", size)
        assert len(geometry.scaled_points_array(square, 2)) == 9
        monkeypatch.setattr(geometry, "_MAX_LIST_BYTES", size - 1)
        with pytest.raises(InvalidInputError, match="too many lattice points to enumerate"):
            geometry.scaled_points_array(square, 2)


def test_object_listing_budget_counts_the_ints(monkeypatch):
    # past int64 the coordinates are Python ints of 36 bytes behind 8-byte
    # pointers: a budget of 4 times the pointers' bytes does not hold them
    square = unit_square(2**62)
    points = geometry.scaled_points_array(square)
    assert points.dtype == object and len(points) == 4
    monkeypatch.setattr(geometry, "_MAX_LIST_BYTES", 4 * points.nbytes)
    with pytest.raises(InvalidInputError, match="too many lattice points to enumerate"):
        geometry.scaled_points_array(square)


def test_needle_ehrhart_closed_form():
    # conv{0, e1, 2^70 e2}: L(t) = 2^69 t^2 + (2^69 + 1) t + 1; no unimodular
    # map brings its counts into int64
    P = build_polytope([(0, 0), (1, 0), (0, BIG)])
    half = 2**69
    assert ehrhart_polynomial(P).coefficients == (
        Fraction(1), Fraction(half + 1), Fraction(half))
    assert scaled_count(P, 7) == half * 49 + (half + 1) * 7 + 1


def shifted(P, t):
    """P translated by t along the first axis."""
    return build_polytope([(v[0] + t,) + v[1:] for v in P.vertices])


def assert_twins_agree(big, small, t, cap):
    """Counts, Ehrhart, d(P) and the level-m verdict of P + t e1 match P's."""
    for k in (1, 2, 3):
        assert scaled_count(big, k) == scaled_count(small, k)
        assert scaled_count(big, k, interior=True) == scaled_count(small, k, interior=True)
    assert ehrhart_polynomial(big) == ehrhart_polynomial(small)
    assert d_of_p(big) == d_of_p(small)
    rep_big, rep_small = is_normal(big, cap), is_normal(small, cap)
    assert rep_big.verdict == rep_small.verdict
    assert rep_big.levels_checked == rep_small.levels_checked
    if rep_small.witness is not None:
        # the witness lies in mP, so it moves by m times the translation
        m, (x, *rest) = rep_small.witness.level, rep_small.witness.point
        assert rep_big.witness.point == (x + m * t, *rest)
        assert verify_witness(big, m, rep_big.witness.point)


def test_int64_twin_matches_small_twin():
    small = reeve_simplex(2)
    big = shifted(small, 2**40)
    assert [geometry._scan_dtype(big, k) for k in (1, 2, 3)] == [np.int64] * 3
    assert is_normal(small).verdict == "non-normal"
    assert_twins_agree(big, small, 2**40, None)


def scan_terms(P, scale):
    """Largest |<a, x>| + |scale * b|: (a, b) a facet of P, x a corner of scale*P's box."""
    lo, hi = P.bounding_box()
    corners = list(itertools.product(*((scale * l, scale * h) for l, h in zip(lo, hi))))
    return max(abs(sum(a * x for a, x in zip(h.normal, c))) + abs(scale * h.offset)
               for h in P.facets for c in corners)


def int32_edge(P, scale):
    """Largest t >= 0 for which the scan of scale*(P + t e1) runs in int32."""
    lo, hi = 0, 2**31
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if geometry._scan_dtype(shifted(P, mid), scale) is np.int32:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("small, cap", [
    (reeve_simplex(2), 2),
    (build_polytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]), 3),
    (build_polytope([(0, 0), (3, 1), (1, 3)]), 3),
], ids=["reeve", "cube", "triangle"])
def test_int32_edge_matches_small_twin(small, cap):
    # at the top level checked, the twin just under the int32 limit scans in
    # int32, its facet values bounded just under 2^27 (16 times below 2^31)
    # and its coordinates past 2^24; the twin just over scans in int64
    t = int32_edge(small, cap)
    under, over = shifted(small, t), shifted(small, t + 1)
    assert geometry._scan_dtype(under, cap) is np.int32
    assert geometry._scan_dtype(over, cap) is np.int64
    assert t * cap > 2**24
    # 16 times the terms of the scan fit int32, with less than 2x to spare
    assert 2**30 < 16 * scan_terms(under, cap) < 2**31
    for big, shift in ((under, t), (over, t + 1)):
        assert_twins_agree(big, small, shift, cap)
