"""Polytope construction and exact lattice-point enumeration.

The enumeration oracles are independent box scans: conftest's box_scan
walks the integer bounding box and keeps points satisfying every facet
inequality, and box_slabs walks every prefix of the box and keeps the
feasible range of its line.
"""

import hashlib
import itertools
import json
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import polynorm.geometry as geometry
import polynorm.normality as normality
from polynorm import (
    InvalidInputError,
    NotFullDimensionalError,
    affine_dim,
    build_polytope,
    is_normal,
    n1_probe,
    scaled_count,
    verify_witness,
)
from conftest import box_scan, random_polytope


def _prefix_grid(lo, hi, start0, stop0):
    """Lex-ordered integer grid over the box, axis 0 restricted to [start0, stop0)."""
    axes = [np.arange(start0, stop0, dtype=np.int64)]
    axes += [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(lo[1:], hi[1:])]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


def box_slabs(P, k=1, strict=False, chunk_rows=1 << 20):
    """Reference slab rows (prefix..., lo_last, count) of k*P, lex ordered.

    Walks every prefix of the box of the first n-1 coordinates, a chunk of
    axis-0 values at a time, and keeps the lines that meet k*P.
    """
    n = P.dim
    lo, hi = ([k * x for x in c[:-1]] for c in P.bounding_box())
    A = np.array([h.normal for h in P.facets], dtype=np.int64)
    beff = np.array([k * h.offset + strict for h in P.facets], dtype=np.int64)
    A_pre, a_last = A[:, :-1], A[:, -1]
    if n == 1:
        grids = [np.zeros((1, 0), dtype=np.int64)]
    else:
        inner = int(np.prod([h - l + 1 for l, h in zip(lo[1:], hi[1:])]))
        step = max(1, chunk_rows // inner)
        grids = (_prefix_grid(lo, hi, s, min(s + step, hi[0] + 1))
                 for s in range(lo[0], hi[0] + 1, step))
    rows = []
    for prefixes in grids:
        r = beff[:, None] - A_pre @ prefixes.T
        lo_last, hi_last = geometry._last_range(r, a_last)
        for x, a, b in zip(prefixes.tolist(), lo_last.tolist(), hi_last.tolist()):
            if a <= b:
                rows.append((*x, a, b - a + 1))
    return rows


def walk_rows(P, scales, strict=False):
    """{k: rows} of one walk over the scales, which must yield them in
    ascending order: the lines that meet k*P (closed_lines), or in the
    strict mode the ranges in relint(k*P) that count_scales solves
    (relint_lines)."""
    rows, seen = {k: [] for k in scales}, []
    for K, X, lo, counts in (relint_lines if strict else closed_lines)(P, scales):
        for k, x, a, c in zip(K.tolist(), X.tolist(), lo.tolist(), counts.tolist()):
            seen.append(k)
            assert strict or c > 0
            if c > 0:
                rows[k].append((*x, a, c))
    assert seen == sorted(seen)
    return rows


def closed_lines(P, scales):
    """(K, X, lo, counts) per chunk of the lines that meet k*P: those
    geometry._slabs gives at one scale, else those of one walk over the
    scales, solved by _last_range as _slabs solves them."""
    if len(scales) == 1:
        for X, lo, counts in geometry._slabs(P, scales[0]):
            yield np.full(len(X), scales[0]), X, lo, counts
        return
    for K, X, r, a_last in geometry._walk(P, tuple(scales)):
        lo, hi = geometry._last_range(r, a_last)
        keep = lo <= hi
        yield K[keep], X[keep], lo[keep], (hi - lo + 1)[keep]


def relint_lines(P, scales):
    """(K, X, lo, counts) per chunk of the ranges in relint(k*P) that
    geometry.count_scales solves on a copy of P that has counted nothing:
    per chunk of the walk, one closed solve and one strict solve, which
    takes the lines that meet k*P and no others."""
    chunks, solves = [], []
    walk, last_range = geometry._walk, geometry._last_range

    def solve(r, a_last):
        solves.append(last_range(r, a_last))
        return solves[-1]

    def walked(Q, scales):
        for K, X, r, a_last in walk(Q, scales):
            solves.clear()
            yield K, X, r, a_last
            (lo, hi), (lo_in, hi_in) = solves  # count_scales' solves of this chunk
            keep = lo <= hi
            assert len(lo_in) == keep.sum()
            chunks.append((K[keep], X[keep], lo_in, np.maximum(hi_in - lo_in + 1, 0)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_walk", walked)
        mp.setattr(geometry, "_last_range", solve)
        geometry.count_scales(geometry.Polytope(P.dim, P.vertices, P.facets), scales)
    return chunks


def slab_rows(P, k=1, strict=False):
    """The rows walk_rows gives at scale k alone."""
    return walk_rows(P, (k,), strict)[k]


def test_affine_dim():
    assert affine_dim([(0, 0)]) == 0
    assert affine_dim([(0, 0), (2, 2)]) == 1
    assert affine_dim([(0, 0), (1, 0), (0, 1)]) == 2
    assert affine_dim([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2


def test_build_unit_square(unit_square):
    assert unit_square.dim == 2
    assert unit_square.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert len(unit_square.facets) == 4
    # support function: each facet tight at some vertex, valid on all
    for H in unit_square.facets:
        vals = [sum(a * x for a, x in zip(H.normal, v)) - H.offset
                for v in unit_square.vertices]
        assert min(vals) == 0


def test_interior_points_are_not_vertices():
    P = build_polytope([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
    assert P.vertices == ((0, 0), (0, 2), (2, 0), (2, 2))


def test_duplicate_input_points_collapse():
    P = build_polytope([(0, 0), (0, 0), (1, 0), (0, 1), (1, 0)])
    assert P.vertices == ((0, 0), (0, 1), (1, 0))


def test_not_full_dimensional():
    with pytest.raises(NotFullDimensionalError) as info:
        build_polytope([(0, 0), (1, 1), (2, 2)])
    assert info.value.actual_dim == 1
    assert info.value.ambient_dim == 2


def test_flat_input_is_refused_before_any_ray_step(monkeypatch):
    # 1,000 points on x3 = 2 x0 - x1 + 3 x2 + 1 in Z^4, sorted as the hull
    # takes them: building makes exactly the combinations of affine_dim's
    # cut of the lineality space, so not one ray
    rng = random.Random(3)
    pts = set()
    while len(pts) < 1000:
        x = [rng.randrange(-20, 21) for _ in range(3)]
        pts.add((*x, 2 * x[0] - x[1] + 3 * x[2] + 1))
    pts = sorted(pts)
    calls = []
    real = geometry._combine

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "_combine", spy)
    assert geometry.affine_dim(pts) == 3
    cut = len(calls)
    with pytest.raises(NotFullDimensionalError) as info:
        build_polytope(pts)
    assert (info.value.actual_dim, info.value.ambient_dim) == (3, 4)
    assert len(calls) == 2 * cut


def test_invalid_inputs():
    with pytest.raises(InvalidInputError):
        build_polytope([])
    with pytest.raises(InvalidInputError):
        build_polytope([(0, 0), (1, 0, 0)])
    with pytest.raises(InvalidInputError):
        build_polytope([(0.5, 0), (1, 0), (0, 1)])
    with pytest.raises(InvalidInputError, match="points must have at least one coordinate"):
        build_polytope([[], []])


@pytest.mark.parametrize("call", [
    lambda P: P.contains((0, 0, 0)),
    lambda P: P.contains((0,), 2),
    lambda P: verify_witness(P, 2, (0, 0, 0)),
], ids=["contains", "contains-scaled", "verify_witness"])
def test_point_of_the_wrong_dimension_refused(unit_square, call):
    with pytest.raises(InvalidInputError, match="expected a point of dimension 2, got"):
        call(unit_square)


def test_boolean_coordinates_rejected():
    with pytest.raises(InvalidInputError):
        geometry._as_point((True, 0))
    with pytest.raises(InvalidInputError):
        build_polytope([[True, False], [False, True], [False, False]])


def test_contains(unit_square, t2):
    assert unit_square.contains((0, 0))
    assert unit_square.contains((1, 1))
    assert not unit_square.contains((2, 0))
    assert not unit_square.contains((-1, 0))
    # scale*P: the facet offsets times scale, as in the dilate
    assert unit_square.contains((2, 0), 2)
    assert not unit_square.contains((3, 0), 2)
    for P in (unit_square, t2, build_polytope([(0, 0), (3, 1), (1, 4)])):
        for k in (1, 2, 3):
            lo, hi = P.dilate(k).bounding_box()
            box = itertools.product(*(range(a - 1, b + 2) for a, b in zip(lo, hi)))
            assert [x for x in box if P.contains(x, k)] == box_scan(P, k)


def test_dilate(unit_square):
    Q = unit_square.dilate(3)
    assert Q.vertices == ((0, 0), (0, 3), (3, 0), (3, 3))
    assert unit_square.dilate(1) is unit_square
    with pytest.raises(InvalidInputError):
        unit_square.dilate(0)


def test_lattice_points_lex_order(t2):
    pts = t2.lattice_points()
    assert pts == sorted(pts)
    assert pts == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 2)]


def test_reeve_simplex_has_no_extra_points(t2):
    # exactly the four vertices, nothing else, in every ordering of axes
    assert len(t2.lattice_points()) == 4
    assert scaled_count(t2, 1) == 4


def test_scaled_count_against_box_scan(unit_square, t2, delta3):
    for P in (unit_square, t2, delta3):
        for k in (1, 2, 3):
            assert scaled_count(P, k) == len(box_scan(P, k))


def test_count_beyond_int64_is_exact():
    # (2^13 + 1) * (2^50 + 1) points: more than an int64 sum can hold
    P = build_polytope([(0, 0), (2**13, 0), (0, 2**50), (2**13, 2**50)])
    assert scaled_count(P) == (2**13 + 1) * (2**50 + 1)
    assert scaled_count(P, interior=True) == (2**13 - 1) * (2**50 - 1)


def test_scaled_count_caches(unit_square):
    a = scaled_count(unit_square, 5)
    b = scaled_count(unit_square, 5)
    assert a == b == 36


def test_polytope_id_stable_under_input_order():
    a = build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    b = build_polytope([(1, 1), (0, 1), (1, 0), (0, 0)])
    assert a.polytope_id == b.polytope_id
    c = build_polytope([(0, 0), (2, 0), (0, 1), (2, 1)])
    assert a.polytope_id != c.polytope_id


COORDS = st.one_of(st.integers(-9, 9), st.integers(-2**80, 2**80))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[COORDS] * n), min_size=1, max_size=6)))
@example([(-1, 2**63), (2**64, -(2**70))])
def test_vertices_id_is_the_standard_sha256(vertices):
    # the id is SHA-256 of the JSON vertex list, whichever module computes
    # it, so report bytes do not depend on the interpreter's hash modules
    blob = json.dumps([list(v) for v in vertices], separators=(",", ":"))
    assert geometry.vertices_id(vertices) == hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_bounding_box(t2):
    lo, hi = t2.bounding_box()
    assert lo == (0, 0, 0)
    assert hi == (1, 1, 2)
    # computed once and kept, as the id is
    assert t2.bounding_box() is t2.bounding_box()
    assert t2.polytope_id is t2.polytope_id


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.integers(0, 10**6))
def test_lattice_points_match_box_scan(n, seed):
    rng = random.Random(seed)
    P = random_polytope(rng, n)
    assert P.lattice_points() == box_scan(P)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3), st.integers(0, 10**6), st.integers(2, 3))
def test_dilate_consistent_with_scaled_count(n, seed, k):
    rng = random.Random(seed)
    P = random_polytope(rng, n)
    assert len(P.dilate(k).lattice_points()) == scaled_count(P, k)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3), st.integers(0, 10**6))
def test_vertices_are_lattice_points_and_contained(n, seed):
    rng = random.Random(seed)
    P = random_polytope(rng, n)
    pts = set(P.lattice_points())
    for v in P.vertices:
        assert v in pts
        assert P.contains(v)


def test_pure_python_scan_matches_numpy(monkeypatch, t2, unit_square):
    reference = {P: P.lattice_points() for P in (t2, unit_square)}
    ref_counts = {P: scaled_count(P, 7) for P in (t2, unit_square)}
    monkeypatch.setattr(geometry, "_NP_SAFE_LIMIT", 0)
    for P in (t2, unit_square):
        fresh = build_polytope(P.vertices)
        assert fresh.lattice_points() == reference[P]
        assert scaled_count(fresh, 7) == ref_counts[P]


def test_scaled_points_array_covers_dilate(t2):
    arr = geometry.scaled_points_array(t2, 2)
    seen = [tuple(int(x) for x in row) for row in arr]
    assert len(arr) == scaled_count(t2, 2)
    assert sorted(seen) == t2.dilate(2).lattice_points()


def test_scaled_count_takes_integer_scales_only(unit_square):
    # a float scale neither counts inexactly nor enters the memo
    segment = build_polytope([(0,), (1,)])
    with pytest.raises(TypeError):
        scaled_count(segment, 2.0**60)
    assert scaled_count(segment, 2**60) == 2**60 + 1
    assert scaled_count(segment, np.int64(3)) == 4
    with pytest.raises(TypeError):
        scaled_count(unit_square, 2.0)


@pytest.mark.parametrize("call", [
    lambda P: P.dilate(True),
    lambda P: scaled_count(P, True),
    lambda P: geometry.scaled_points_array(P, True),
], ids=["dilate", "scaled_count", "scaled_points_array"])
def test_boolean_scale_refused(unit_square, call):
    # True is not the integer 1 here, as in n1_probe and corpus specs
    with pytest.raises(InvalidInputError, match="integer"):
        call(unit_square)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6), st.integers(2, 7))
def test_dilate_builds_the_scaled_frame(n, seed, k):
    # kP comes without a scan frame and builds its own at its first walk:
    # P's facet groups with offsets times k, and reach and box times k
    # (pi(kP) = k pi(P)); normality's line frame of kP is P's, as kP's Gram
    # is k^2 times P's
    P = random_polytope(random.Random(seed), n)
    kP = P.dilate(k)
    assert kP._frame is None
    groups, reach = geometry._scan_frame(P)
    k_groups, k_reach = geometry._scan_frame(kP)
    assert [M.tolist() for M in k_groups] == [
        np.hstack((M[:, :-1], k * M[:, -1:])).tolist() for M in groups]
    assert k_reach == k * reach
    lo, hi = P.bounding_box()
    assert kP.bounding_box() == (tuple(k * x for x in lo), tuple(k * x for x in hi))
    assert normality._line_frame(kP) == normality._line_frame(P)


# spreads keep box_scan's walk small at scale 3 in every dimension
SPREAD = {1: 4, 2: 3, 3: 2, 4: 1}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6), st.integers(1, 3), st.booleans())
def test_scan_matches_box_scan(n, seed, k, strict):
    # the closed points are scaled_points_array's listing; the interior ones
    # expand the inner ranges of the counting walk, point by point
    P = random_polytope(random.Random(seed), n, SPREAD[n])
    if strict:
        rows = np.concatenate([geometry._expand(X, lo, counts)
                               for _, X, lo, counts in relint_lines(P, (k,))])
    else:
        rows = geometry.scaled_points_array(P, k)
    pts = [tuple(row) for row in rows.tolist()]
    assert pts == box_scan(P, k, strict)
    assert scaled_count(P, k, strict) == len(pts)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6), st.integers(1, 3), st.booleans(),
       st.sampled_from([1, 2, 7, 1 << 20]), st.sets(st.integers(1, 6), max_size=3))
def test_slabs_match_box_walk(n, seed, k, strict, chunk_rows, more):
    # one walk over k and up to three more scales <= n + 2: at chunk sizes 2
    # and 7 a chunk mixes scales, and the memo count_scales fills from the
    # same walk holds each scale's sum; _slabs reads each scale alone, from
    # the lines that walk kept or by a walk of its own
    P = random_polytope(random.Random(seed), n, SPREAD[n])
    scales = sorted({k} | {s for s in more if s <= n + 2})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_CHUNK_ROWS", chunk_rows)
        rows = walk_rows(P, scales, strict)
        geometry.count_scales(P, scales)
        assert {s: slab_rows(P, s, strict) for s in scales} == rows
    assert rows == {s: box_slabs(P, s, strict) for s in scales}
    assert {s: P._count_cache[s, strict] for s in scales} == {
        s: sum(row[-1] for row in rows[s]) for s in scales}


def test_slabs_match_box_walk_through_oblique_shadow(t2, monkeypatch):
    # pi(t2) is the unit square; no facet of t2 is vertical, so none of the
    # square's edges comes from a facet of t2
    shadow = build_polytope([v[:2] for v in t2.vertices])
    vertical = {h.normal[:2] for h in t2.facets if h.normal[2] == 0}
    assert any(h.normal not in vertical for h in shadow.facets)
    P = build_polytope([(x + 2 * y, y - z, z) for x, y, z in t2.vertices])
    for Q in (t2, P):
        for k in (1, 2, 3, 5):
            for strict in (False, True):
                expected = box_slabs(Q, k, strict)
                assert slab_rows(Q, k, strict) == expected
                with monkeypatch.context() as mp:
                    mp.setattr(geometry, "_CHUNK_ROWS", 2)
                    assert slab_rows(Q, k, strict) == expected


def test_first_slab_streams_from_a_long_range():
    # 2^40 + 1 prefixes: the first chunk comes back at once
    P = build_polytope([(0, 0), (2**40, 0), (0, 1)])
    start = time.perf_counter()
    X, lo, counts = next(geometry._slabs(P, 1))
    assert time.perf_counter() - start < 1.0
    assert 0 < len(X) <= geometry._CHUNK_ROWS
    assert X[:3, 0].tolist() == [0, 1, 2]
    assert lo[:3].tolist() == [0, 0, 0] and counts[:3].tolist() == [2, 1, 1]


# -- one walk over many scales ------------------------------------------------

def assert_counts(P, scales, expected):
    """count_scales fills P's memo with expected {k: (closed, interior)}."""
    geometry.count_scales(P, scales)
    assert {k: (P._count_cache[k, False], P._count_cache[k, True])
            for k in scales} == expected


def test_one_walk_widens_to_its_top_scale():
    from test_large_coordinates import shifted

    small = build_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
    big = shifted(small, 2**24)
    assert geometry._scan_dtype(big, 1) is np.int32
    assert geometry._scan_dtype(big, 5) is np.int64
    assert_counts(big, (1, 2, 3, 4, 5), {k: tuple(sum(row[-1] for row in box_slabs(small, k, strict))
                                                  for strict in (False, True)) for k in range(1, 6)})


def test_one_walk_counts_exactly_past_int64(monkeypatch):
    t = 2**62
    square = build_polytope([(t, t), (t + 1, t), (t, t + 1), (t + 1, t + 1)])
    assert geometry._scan_dtype(square, 1) is object
    # at 7 prefixes a chunk holds the 2 of scale 1 and the 3 of scale 2
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", 7)
    assert any(len(set(K.tolist())) > 1
               for K, *_ in geometry._walk(square, (1, 2, 3, 4)))
    assert_counts(square, (1, 2, 3, 4), {k: ((k + 1)**2, (k - 1)**2) for k in range(1, 5)})


def test_one_walk_solves_strict_only_on_the_lines_it_keeps():
    # the line x = 1 of this triangle holds no lattice point
    P = build_polytope([(0, 0), (2, 1), (3, 1)])
    assert walk_rows(P, (1, 2, 3, 4), True) == {k: box_slabs(P, k, True) for k in (1, 2, 3, 4)}


def test_one_walk_counts_a_long_segment():
    # 2^55 + 1 is no float64: a float sum per scale would lose the 1. The
    # walk takes the scales sorted and once each, as given in any order
    for scales in ((1, 2, 3), (1, 1), (2, 1), (3, 1, 2)):
        segment = build_polytope([(0,), (2**55,)])
        assert_counts(segment, scales, {k: (k * 2**55 + 1, k * 2**55 - 1) for k in scales})


# -- the lines the counting walk keeps ----------------------------------------

def same_array(a, b):
    """Equal values, order and element type."""
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def translated(P, t):
    """P moved by t along the first axis."""
    return build_polytope([(v[0] + t,) + v[1:] for v in P.vertices])


def kept_and_fresh(P):
    """Two copies of P: one whose counting walk over 1..n+2 kept its lines,
    and one that has walked nothing."""
    kept = build_polytope(P.vertices)
    geometry.count_scales(kept, range(1, P.dim + 3))
    return kept, build_polytope(P.vertices)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6), st.sampled_from([0, 2**24, -2**62]))
def test_kept_lines_read_as_a_fresh_walk(n, seed, shift):
    # every reader gets the walk's rows, order and element type from the
    # kept lines; at a shift of 2^24 the counting walk's top scale runs in a
    # wider type than the readers' scales, past int64 all run on Python ints
    P = translated(random_polytope(random.Random(seed), n, 2), shift)
    kept, fresh = kept_and_fresh(P)
    assert set(kept._lines) == {1, 2, 3}
    for k in (1, 2, 3):
        # (X, lo, counts), kept or walked
        for Q in (kept, fresh):
            assert all(len(chunk) == 3 for chunk in geometry._slabs(Q, k))
        for top in (k, 2 * k):
            assert same_array(geometry._codes(kept, k, top), geometry._codes(fresh, k, top))
        assert same_array(geometry.scaled_points_array(kept, k),
                          geometry.scaled_points_array(fresh, k))
    assert not fresh._lines


@pytest.mark.parametrize("chunk", [16, 64])
def test_lines_kept_over_several_expansions_read_as_a_fresh_walk(monkeypatch, chunk):
    # a lattice point of a projection may lift to no point of P, so a kept
    # scale's prefixes can outnumber its points and its lines come from
    # several expansions of the counting walk: every block is kept, in order
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", chunk)
    for seed in range(20):
        kept, fresh = kept_and_fresh(random_polytope(random.Random(seed), 1 + seed % 4, 3))
        for k in kept._lines:
            assert same_array(geometry.scaled_points_array(kept, k),
                              geometry.scaled_points_array(fresh, k)), (seed, k)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6), st.sampled_from([0, -2**62]))
def test_kept_lines_give_a_fresh_walks_verdicts(n, seed, shift):
    # with nothing kept, every reader walks; is_normal (either ladder),
    # verify_witness and n1_probe answer the same from the kept lines
    P = translated(random_polytope(random.Random(seed), n, 2), shift)
    kept, fresh = kept_and_fresh(P)
    ell = min(n, 2 if n == 4 else 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_KEPT_TOP", 0)
        geometry.count_scales(fresh, range(1, n + 3))
        assert not fresh._lines
        expected = [is_normal(fresh), normality._line_ladder(fresh, 1, 2),
                    n1_probe(fresh, ell, 3)]
        witness = expected[0].witness
        point = witness.point if witness else tuple(2 * x for x in P.vertices[0])
        level = witness.level if witness else 2
        expected.append(verify_witness(fresh, level, point))
    assert [is_normal(kept), normality._line_ladder(kept, 1, 2), n1_probe(kept, ell, 3),
            verify_witness(kept, level, point)] == expected
    assert expected[-1] == bool(witness)


def test_kept_lines_take_each_readers_type(t2):
    # the counting walk of t2 + 2^24 e1 runs in int64 for its top scale 5;
    # P's kept lines are read in int32, as a walk of P alone gives them
    kept, fresh = kept_and_fresh(translated(t2, 2**24))
    assert geometry._scan_dtype(kept, 1) is np.int32
    assert geometry._scan_dtype(kept, 2) is geometry._scan_dtype(kept, 5) is np.int64
    assert kept._lines[1][0].dtype == np.int64
    for k in (1, 2, 3):
        points = geometry.scaled_points_array(kept, k)
        assert same_array(points, geometry.scaled_points_array(fresh, k))
        assert points.dtype == geometry._scan_dtype(kept, k)


def test_kept_lines_stop_at_chunk_rows_in_all(t2, monkeypatch):
    # |P| = 4 and |2P| = 11 (L(t) = 1 + 5t/3 + t^2 + t^3/3 at 1 and 2): a
    # scale is kept while the kept points stay within _CHUNK_ROWS, and the
    # scale that passes it and every scale above are not
    sizes = [scaled_count(t2, k) for k in (1, 2, 3)]
    assert sizes == [4, 11, 24]
    for rows, kept in ((39, {1, 2, 3}), (38, {1, 2}), (15, {1, 2}), (14, {1}), (3, set())):
        monkeypatch.setattr(geometry, "_CHUNK_ROWS", rows)
        P = build_polytope(t2.vertices)
        geometry.count_scales(P, range(1, 6))
        assert set(P._lines) == kept
        for k in kept:
            assert int(P._lines[k][2].sum()) == sizes[k - 1]
        geometry.forget_lines(P)
        assert not P._lines and P._count_cache


def test_tall_simplex_keeps_no_line_of_its_dilates(monkeypatch):
    # 2P holds about 2^65 points: the counting walk keeps P's 4 and no
    # line of a larger dilate, which its readers then walk by lines
    from test_cli import TALL_SIMPLEX

    P = build_polytope(TALL_SIMPLEX)
    geometry.count_scales(P, range(1, 6))
    assert set(P._lines) == {1}
    assert scaled_count(P, 2) > 2**65
    walks, walk = [], geometry._walk

    def walked(P, scales):
        walks.append(scales)
        return walk(P, scales)

    monkeypatch.setattr(geometry, "_walk", walked)
    next(geometry._slabs(P, 1))
    assert walks == []
    assert len(next(geometry._slabs(P, 2))[0]) <= geometry._CHUNK_ROWS
    assert walks == [(2,)]
