"""Simplices against their box points (simplex_oracle), which need no scan.

The oracle gives h*, hence every count L_P(t) and d(P), and decides
normality with its witness, at any volume: thin, long and large-volume
simplices send the package to its line tables, object scans and sorted
codes, which the enumeration oracles do not reach.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from polynorm import analyze, build_polytope, is_normal, scaled_count
from exact_linalg import det
from simplex_oracle import box_points, ehrhart_from_h_star, first_box_witness, h_star


def random_simplex(rng, n, spread):
    """conv of n + 1 points drawn from [-spread, spread]^n, drawn again
    until they span the space."""
    while True:
        pts = [tuple(rng.randint(-spread, spread) for _ in range(n)) for _ in range(n + 1)]
        if det([[1, *p] for p in pts]):
            return build_polytope(pts)


def assert_matches_box_points(P, h):
    """Counts at t = 1..n+2, d(P), the codegree, and is_normal(P, n)'s
    verdict, level and witness, each as P's box points give it."""
    n = P.dim
    assert [scaled_count(P, t) for t in range(1, n + 3)] == [
        ehrhart_from_h_star(h, t) for t in range(1, n + 3)]
    degree = max(k for k, h_k in enumerate(h) if h_k)
    record = analyze(P)
    assert (record.d, record.codegree) == (n - degree, n + 1 - degree)
    rep = is_normal(P, n)
    witness = first_box_witness(P)
    assert rep.is_normal == (witness is None)
    if witness is not None:
        assert (rep.witness.level, rep.witness.point) == witness


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10**6))
def test_simplices_match_their_box_points(n, seed):
    P = random_simplex(random.Random(seed), n, {2: 4, 3: 3, 4: 2}[n])
    # one box point per unit of normalized volume; past the origin, each of
    # height k lies in kP
    points = box_points(P.vertices)
    assert len(points) == abs(det([[1, *v] for v in P.vertices]))
    assert points[0] == (0, (0,) * n)
    assert all(k >= 1 and P.contains(z, k) for k, z in points[1:])
    assert_matches_box_points(P, h_star(P.vertices))


@pytest.mark.parametrize("vertices, h", [
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (3, 7, 400)], (1, 45, 309, 45)),
    ([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 2000)],
     (1, 0, 1000, 999, 0)),
], ids=["dim3-volume400", "dim4-volume2000"])
def test_large_volume_simplices(vertices, h):
    P = build_polytope(vertices)
    assert h_star(P.vertices) == h
    assert_matches_box_points(P, h)


@pytest.mark.parametrize("p, q", [(1, 2), (2, 5), (13, 64), (101, 997)])
def test_white_empty_tetrahedra(p, q):
    # conv{0, e1, e3, (p, q, 1)}, gcd(p, q) = 1, holds no lattice point but
    # its vertices (White, Canad. J. Math. 16, 1964): h* = (1, 0, q - 1, 0),
    # so for q >= 2 level 2 fails
    P = build_polytope([(0, 0, 0), (1, 0, 0), (0, 0, 1), (p, q, 1)])
    h = (1, 0, q - 1, 0)
    assert h_star(P.vertices) == h
    assert_matches_box_points(P, h)
    assert is_normal(P).witness.level == 2


def test_volume_300_simplex_with_box_points_at_every_height():
    P = build_polytope([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                        (5, 7, 11, 300)])
    h = (1, 2, 150, 145, 2)
    assert h_star(P.vertices) == h
    assert_matches_box_points(P, h)
