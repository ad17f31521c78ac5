"""The convex hull, checked against the n-subset scan it replaced.

`reference_hull` tries every n-subset of the input: each facet hyperplane
passes through n affinely independent input points, so the scan finds every
facet, and a point is a vertex iff the normals of the facets through it have
rank n. It costs C(N, n) hyperplanes, so the inputs compared here stay at 12
points or fewer; the large inputs are checked by a certificate instead. The
scan and the affine dimensions are worked out with exact_linalg alone, not
with any hull code of the package.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from polynorm import NotFullDimensionalError, affine_dim, build_polytope
from exact_linalg import hyperplane_normal, rank


def dot(a, x):
    return sum(u * v for u, v in zip(a, x))


def reference_hull(points):
    """(facets as sorted (normal, offset) pairs, lex-sorted vertices) of conv(points)."""
    pts = sorted(set(map(tuple, points)))
    n = len(pts[0])
    adim = rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]])
    if adim != n:
        raise NotFullDimensionalError(adim, n)
    facets = set()
    for subset in itertools.combinations(pts, n):
        normal = hyperplane_normal(list(subset))
        if normal is None:
            continue
        offset = dot(normal, subset[0])
        vals = [dot(normal, p) - offset for p in pts]
        if min(vals) < 0 < max(vals):
            continue  # points on both sides: not a supporting hyperplane
        if min(vals) < 0:
            normal, offset = tuple(-a for a in normal), -offset
        facets.add((normal, offset))
    vertices = tuple(p for p in pts
                     if rank([a for a, b in facets if dot(a, p) == b]) == n)
    return sorted(facets), vertices


def hull(P):
    return [(h.normal, h.offset) for h in P.facets], P.vertices


def hull_input(rng, n, kind):
    """At most 10 points of Z^n, and 2 of them again.

    "box": every lattice point of a box (dims 1-3; no full box in Z^4 has
    10 points or fewer, so dim 4 draws "random"); "facet": most points on
    the hyperplane x_0 = 0, the rest on one side of it; "random": points of a
    cube whose side is drawn from 1 to 40.
    """
    if kind == "box" and n < 4:
        while True:
            sides = [rng.randint(1, 11) for _ in range(n)]
            if math.prod(s + 1 for s in sides) <= 10:
                break
        lo = [rng.randint(-3, 3) for _ in range(n)]
        pts = [tuple(a + x for a, x in zip(lo, p))
               for p in itertools.product(*(range(s + 1) for s in sides))]
    elif kind == "facet":
        spread = rng.choice([1, 2, 3])
        on = [(0,) + tuple(rng.randint(-spread, spread) for _ in range(n - 1))
              for _ in range(rng.randint(n, 8))]
        off = [(rng.randint(1, 3),) + tuple(rng.randint(-spread, spread) for _ in range(n - 1))
               for _ in range(rng.randint(1, 2))]
        pts = on + off
    else:
        spread = rng.choice([1, 2, 5, 40])
        pts = [tuple(rng.randint(-spread, spread) for _ in range(n))
               for _ in range(rng.randint(n + 1, 10))]
    return pts + rng.sample(pts, min(2, len(pts)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6),
       st.sampled_from(["box", "facet", "random"]), st.booleans())
def test_hull_matches_subset_scan(n, seed, kind, far):
    rng = random.Random(seed)
    pts = hull_input(rng, n, kind)
    if far:  # coordinates past 2^63: exact ints throughout
        shift = [2**63 + rng.randrange(2**64) for _ in range(n)]
        pts = [tuple(a + x for a, x in zip(shift, p)) for p in pts]
    shuffled = rng.sample(pts, len(pts))
    try:
        expected = reference_hull(pts)
    except NotFullDimensionalError as err:
        for q in (pts, shuffled):
            with pytest.raises(NotFullDimensionalError) as info:
                build_polytope(q)
            assert (info.value.actual_dim, info.value.ambient_dim) == (err.actual_dim, n)
            assert affine_dim(q) == err.actual_dim
        return
    assert hull(build_polytope(pts)) == expected
    assert hull(build_polytope(shuffled)) == expected


def flat_points(rng, n, k):
    """1 to 8 points o + sum c_j v_j of Z^n, each c_j in [-2, 2], for k random
    v_j: an affine hull of dimension k or, where the v_j or the c_j happen to
    be dependent, less."""
    spread = rng.choice([1, 3, 40])
    o = [rng.randint(-spread, spread) for _ in range(n)]
    vs = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(k)]
    pts = []
    for _ in range(rng.randint(1, 8)):
        cs = [rng.randint(-2, 2) for _ in vs]
        pts.append(tuple(x + sum(c * v[i] for c, v in zip(cs, vs)) for i, x in enumerate(o)))
    return pts


def shifted_and_shuffled(rng, n, pts, far):
    """pts and 2 of them again, moved past 2^63 if far, and a shuffle of that."""
    pts = pts + rng.sample(pts, min(2, len(pts)))
    if far:
        shift = [2**63 + rng.randrange(2**64) for _ in range(n)]
        pts = [tuple(a + x for a, x in zip(shift, p)) for p in pts]
    return pts, rng.sample(pts, len(pts))


def adim(pts):
    return rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       st.integers(0, 10**6), st.booleans())
def test_affine_dim_matches_rank_at_every_dimension(n_k, seed, far):
    n, k = n_k
    rng = random.Random(seed)
    pts, shuffled = shifted_and_shuffled(rng, n, flat_points(rng, n, k), far)
    expected = adim(pts)
    for q in (pts, shuffled):
        assert affine_dim(q) == expected
        if expected == n:
            assert hull(build_polytope(q)) == reference_hull(pts)
            continue
        with pytest.raises(NotFullDimensionalError) as info:
            build_polytope(q)
        assert (info.value.actual_dim, info.value.ambient_dim) == (expected, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
       st.integers(0, 10**6), st.booleans())
def test_hull_whose_lex_first_points_lie_on_a_flat(n_k, seed, far):
    # the points of a k-flat in x_0 = -100 sort first, so the hull adds some
    # of them while its lineality space is still nonzero; then points of
    # [-3, 3]^n until the set spans Z^n
    n, k = n_k
    rng = random.Random(seed)
    pts = [(-100,) + p for p in flat_points(rng, n - 1, k)]
    while adim(pts) < n:
        pts.append(tuple(rng.randint(-3, 3) for _ in range(n)))
    pts, shuffled = shifted_and_shuffled(rng, n, pts, far)
    expected = reference_hull(pts)
    assert hull(build_polytope(pts)) == expected
    assert hull(build_polytope(shuffled)) == expected


def test_hull_of_a_dim5_simplex_matches_subset_scan():
    pts = [(0, 0, 0, 0, 0), (2, 1, 0, 0, 0), (0, 3, 0, 1, 0), (1, 0, 2, 0, 0),
           (0, 0, 1, 4, 1), (3, 2, 1, 1, 5)]
    P = build_polytope(pts)
    assert hull(P) == reference_hull(pts)
    assert len(P.facets) == 6 and P.vertices == tuple(sorted(pts))


def test_hull_of_625_box_points():
    P = build_polytope(itertools.product(range(5), repeat=4))
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    facets = [(e, 0) for e in units] + [(tuple(-x for x in e), -4) for e in units]
    assert hull(P) == (sorted(facets), tuple(itertools.product((0, 4), repeat=4)))


def test_hull_of_200_random_points_passes_its_certificate():
    # every point inside every facet; each facet's tight points span its
    # hyperplane; a point is a vertex iff its facets meet only in it
    rng = random.Random(200)
    pts = sorted({tuple(rng.randint(0, 8) for _ in range(4)) for _ in range(200)})
    P = build_polytope(pts)
    assert len(set(P.facets)) == len(P.facets) > 8
    slacks = [[sum(a * x for a, x in zip(h.normal, p)) - h.offset for p in pts]
              for h in P.facets]
    for h, vals in zip(P.facets, slacks):
        assert math.gcd(*h.normal) == 1
        assert min(vals) == 0
        tight = [p for p, v in zip(pts, vals) if v == 0]
        assert rank([[a - b for a, b in zip(p, tight[0])] for p in tight[1:]]) == 3
    for i, p in enumerate(pts):
        normals = [h.normal for h, vals in zip(P.facets, slacks) if vals[i] == 0]
        assert (rank(normals) == 4) == (p in P.vertices)
    assert len(P.vertices) > 4


def test_flat_box_in_z4_is_refused_with_its_dimension():
    pts = [p + (0,) for p in itertools.product(range(5), repeat=3)]
    assert affine_dim(pts) == 3
    with pytest.raises(NotFullDimensionalError) as info:
        build_polytope(pts)
    assert (info.value.actual_dim, info.value.ambient_dim) == (3, 4)
