"""Normality checking, witnesses, and the bound arithmetic."""

import itertools
import operator
import random
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polynorm import (
    CorpusSpec,
    InvalidInputError,
    REEVE_RANGE,
    analyze,
    build_polytope,
    default_cap,
    generate_corpus,
    is_normal,
    normality_bound,
    reeve_simplex,
    verify_corollary,
    verify_witness,
)
import polynorm.geometry as geometry
import polynorm.normality as normality
from polynorm.counting import BoundReport
from polynorm.geometry import _as_points, scaled_points_array
from conftest import random_polytope


def sumset_levels(points, m):
    """The m-fold sumset {p_1 + ... + p_m : p_i in points}.

    Direct iterative computation; size grows quickly, intended for small
    inputs and cross-checks. The level checks in is_normal use an
    equivalent formulation that never materializes the sumset.
    """
    m = operator.index(m)
    if m < 1:
        raise InvalidInputError(f"sumset level must be >= 1, got {m}")
    base = set(_as_points(points))
    current = set(base)
    for _ in range(m - 1):
        current = {
            tuple(x + y for x, y in zip(p, q)) for p in current for q in base
        }
    return current


def is_normal_at_level(P, m):
    """Exact level-m test: lattice_points(mP) inside the m-fold sumset.

    While every level below m passes, T_{m-1} is all of (m-1)P and the
    level checker decides level m: is_normal(P, m) climbs to it. Past a
    failing level that premise is lost, so mP is compared with the m-fold
    sumset itself.
    """
    m = operator.index(m)
    if m < 1:
        raise InvalidInputError(f"level must be >= 1, got {m}")
    witness = is_normal(P, m).witness if m > 1 else None
    if witness is None:
        return True, None
    if witness.level == m:
        return False, witness.point
    points = {tuple(row) for row in scaled_points_array(P, m).tolist()}
    missing = points - sumset_levels(P.lattice_points(), m)
    witness = min(missing, default=None)
    return witness is None, witness


def np_bound(bounds, p):
    """Dilation level from which property N_p holds: n - 1 + p."""
    p = operator.index(p)
    if p < 0:
        raise InvalidInputError(f"p must be >= 0, got {p}")
    return bounds.n - 1 + p


def brute_sumset(points, m):
    return {
        tuple(sum(c) for c in zip(*combo))
        for combo in itertools.combinations_with_replacement(sorted(points), m)
    }


def test_sumset_segment():
    assert sumset_levels({(0, 0), (1, 0)}, 2) == {(0, 0), (1, 0), (2, 0)}


def test_sumset_unit_square(unit_square):
    pts = unit_square.lattice_points()
    expected = {(x, y) for x in range(3) for y in range(3)}
    assert sumset_levels(pts, 2) == expected


def test_sumset_t2_misses_interior_point(t2):
    s = sumset_levels(t2.lattice_points(), 2)
    assert len(s) == 10
    assert (1, 1, 1) not in s
    assert s == brute_sumset(t2.lattice_points(), 2)


def test_sumset_rejects_bad_m():
    with pytest.raises(InvalidInputError):
        sumset_levels({(0, 0)}, 0)
    with pytest.raises(InvalidInputError):
        sumset_levels(set(), 2)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 3), st.integers(0, 10**6), st.integers(2, 3))
def test_sumset_matches_brute_force(n, seed, m):
    rng = random.Random(seed)
    P = random_polytope(rng, n, spread=2)
    pts = P.lattice_points()
    assert sumset_levels(pts, m) == brute_sumset(pts, m)


def test_default_cap():
    assert default_cap(2) == 2
    assert default_cap(3) == 2
    assert default_cap(4) == 3
    assert default_cap(5) == 4


def test_is_normal_at_level_square(unit_square):
    assert is_normal_at_level(unit_square, 2) == (True, None)


def test_is_normal_at_level_t2(t2):
    ok, witness = is_normal_at_level(t2, 2)
    assert not ok
    assert witness == (1, 1, 1)


def _fails_at_level_two(rng, count, max_points=12):
    # dimension 3: lattice polygons are normal, so no dim-2 polytope fails
    found = []
    while len(found) < count:
        P = random_polytope(rng, 3, spread=2)
        if len(P.lattice_points()) <= max_points and not is_normal_at_level(P, 2)[0]:
            found.append(P)
    return found


def test_is_normal_at_level_past_a_failing_level():
    # every polytope here already fails at level 2, so levels 3 and 4 are
    # decided past a failing level; the oracle is the sumset definition
    rng = random.Random(31415)
    cases = [reeve_simplex(q) for q in REEVE_RANGE] + _fails_at_level_two(rng, 6)
    for P in cases:
        pts = P.lattice_points()
        for m in (3, 4):
            missing = set(P.dilate(m).lattice_points()) - brute_sumset(pts, m)
            expected = (False, min(missing)) if missing else (True, None)
            assert is_normal_at_level(P, m) == expected, (P.vertices, m)


def test_is_normal_square(unit_square):
    rep = is_normal(unit_square, 4)
    assert rep.verdict == "normal-up-to-cap"
    assert rep.is_normal
    assert rep.cap_used == 4
    assert rep.levels_checked == (2, 3, 4)
    assert rep.witness is None


def test_is_normal_t2_witness(t2):
    rep = is_normal(t2)
    assert rep.verdict == "non-normal"
    assert not rep.is_normal
    assert rep.witness.level == 2
    assert rep.witness.point == (1, 1, 1)


def test_witness_reverification(t2):
    rep = is_normal(t2)
    assert verify_witness(t2, rep.witness.level, rep.witness.point)
    # a decomposable point is not a witness
    assert not verify_witness(t2, 2, (0, 0, 0))
    # a point outside 2*T2 is not a witness either
    assert not verify_witness(t2, 2, (9, 9, 9))


def test_witness_check_runs_at_deep_levels(t2):
    # one pass per level, no recursion: the set of rests stays small here
    segment = build_polytope([(0,), (1,)])
    for level in (999, 1200):
        assert not verify_witness(segment, level, (1,))
        assert not verify_witness(segment, level, (level,))
        assert not verify_witness(segment, level, (level + 1,))
    # the lattice points of t2 sum to even last coordinates at every level
    assert verify_witness(t2, 1500, (1, 1, 1))


def test_witness_check_stops_at_the_first_decomposition(monkeypatch):
    # level/2 is a sum of `level` points of the unit segment: the search goes
    # down one path to k = 1, where a walk of every rest at every level
    # tests about level^2 / 2 rests
    segment = build_polytope([(0,), (1,)])
    calls = 0
    inside = normality._inside

    def counted(*args):
        nonlocal calls
        calls += 1
        return inside(*args)

    monkeypatch.setattr(normality, "_inside", counted)
    assert not verify_witness(segment, 800, (400,))
    assert 800 <= calls <= 4 * 800


def test_witness_check_validates_its_arguments_once(monkeypatch, t2):
    # the level and the point are validated once, however many rests the
    # search tests: a rest is a point the check built, so geometry._inside
    # tests it as it is. Listing P validates its own scale once; P is
    # counted first, which builds its frame, so no projection hull
    # validates its points during the check
    segment = build_polytope([(0,), (1,)])
    calls, tests = [], 0
    for module in (geometry, normality):
        for name in ("_as_point", "_as_int"):
            def spy(*args, _name=name, _real=getattr(module, name)):
                calls.append((_name, sys._getframe(1).f_code.co_name))
                return _real(*args)
            monkeypatch.setattr(module, name, spy)
    inside = normality._inside

    def counted(*args):
        nonlocal tests
        tests += 1
        return inside(*args)

    monkeypatch.setattr(normality, "_inside", counted)
    for P, level, point, verdict in ((t2, 300, (1, 1, 1), True), (segment, 800, (400,), False)):
        geometry.scaled_count(P, 1)
        calls.clear()
        tests = 0
        assert verify_witness(P, level, point) == verdict
        assert tests > level
        assert sorted(calls) == [("_as_int", "scaled_points_array"),
                                 ("_as_int", "verify_witness"), ("_as_point", "verify_witness")]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**6), st.integers(2, 4),
       st.sampled_from([None] + list(REEVE_RANGE)))
def test_witness_check_matches_sumset(n, seed, level, q):
    # every lattice point of level*P, and one just outside it, against the
    # sumset definition: a witness is a point of level*P outside the sumset.
    # The Reeve simplices have witnesses at every level
    P = reeve_simplex(q) if q else random_polytope(random.Random(seed), n, spread=4 - n)
    pts = P.lattice_points()
    sums = set(pts)
    for _ in range(level - 1):
        sums = sum_of(sums, pts)
    points = P.dilate(level).lattice_points()
    for x in points:
        assert verify_witness(P, level, x) == (x not in sums), (P.vertices, level, x)
    outside = (points[-1][0] + 1,) + points[-1][1:]
    assert not verify_witness(P, level, outside)


def test_witness_is_lex_smallest_missing(t2):
    _, witness = is_normal_at_level(t2, 2)
    missing = sorted(
        set(t2.dilate(2).lattice_points()) - brute_sumset(t2.lattice_points(), 2)
    )
    assert witness == missing[0]


def test_reeve_family_normality():
    for q in (2, 3, 4, 5):
        T = reeve_simplex(q)
        rep = is_normal(T)
        assert rep.verdict == "non-normal"
        assert rep.witness.level == 2
        assert rep.witness.point == (1, 1, 1)
        # the guaranteed range: 2T and 3T are normal at cap 4
        assert is_normal(T.dilate(2), 4).is_normal
        assert is_normal(T.dilate(3), 4).is_normal


def test_dimension_two_always_normal():
    rng = random.Random(20260815)
    for _ in range(25):
        P = random_polytope(rng, 2, spread=4)
        assert is_normal(P, 4).is_normal


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_cap_does_not_change_dim3_verdicts(seed):
    rng = random.Random(seed)
    P = random_polytope(rng, 3, spread=2)
    assert is_normal(P, 2).is_normal == is_normal(P, 5).is_normal


def test_normality_bound_t2(t2):
    b = normality_bound(t2)
    assert (b.n, b.d) == (3, 1)
    assert b.corollary_bound == 2
    assert b.classical_n0_bound == 2
    assert np_bound(b, 0) == b.classical_n0_bound
    assert [np_bound(b, p) for p in range(4)] == [2, 3, 4, 5]


def test_normality_bound_delta3(delta3):
    b = normality_bound(delta3)
    assert (b.n, b.d) == (3, 3)
    assert b.corollary_bound == 1  # max{n - d, 1} clamps at 1


def test_corollary_bound_dim2(unit_square, big_triangle):
    assert normality_bound(unit_square).corollary_bound == 1
    assert normality_bound(big_triangle).corollary_bound == 2


def test_np_bound_rejects_negative_p(t2):
    with pytest.raises(InvalidInputError):
        np_bound(normality_bound(t2), -1)


def test_verify_corollary_t2(t2):
    rec = verify_corollary(t2, normality_bound(t2), extra_levels=2)
    assert rec.n == 3 and rec.d == 1
    assert rec.corollary_bound == 2
    levels = [lv for lv, _ in rec.levels]
    assert levels == [2, 3, 4]
    assert rec.passed
    assert rec.violations == ()


def test_verify_corollary_json_round_trip(unit_square):
    rec = verify_corollary(unit_square, normality_bound(unit_square), extra_levels=1)
    data = rec.to_jsonable()
    assert data["corollary_bound"] == 1
    assert [lv["ell"] for lv in data["levels"]] == [1, 2]
    assert all(lv["verdict"] == "normal-up-to-cap" for lv in data["levels"])
    assert data["violations"] == []
    assert data["passed"] is True


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 3), st.integers(0, 10**6))
def test_corollary_holds_on_random_polytopes(n, seed):
    # every dilate from max{n-d(P),1} on is normal up to the default cap
    rng = random.Random(seed)
    P = random_polytope(rng, n, spread=2)
    assert verify_corollary(P, normality_bound(P), extra_levels=1).passed


def _sumset_verdict(P, cap):
    """(first failing level, lex-min witness) by the sumset definition, or None."""
    pts = P.lattice_points()
    for m in range(2, cap + 1):
        missing = set(P.dilate(m).lattice_points()) - brute_sumset(pts, m)
        if missing:
            return m, min(missing)
    return None


def _assert_matches_definition(P, cap):
    rep = is_normal(P, cap)
    expected = _sumset_verdict(P, cap)
    if expected is None:
        assert rep.verdict == "normal-up-to-cap", (P.vertices, cap)
        assert rep.levels_checked == tuple(range(2, cap + 1))
        assert rep.witness is None
    else:
        level, point = expected
        assert rep.verdict == "non-normal", (P.vertices, cap)
        assert rep.levels_checked == tuple(range(2, level + 1))
        assert (rep.witness.level, rep.witness.point) == (level, point)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.integers(0, 10**6), st.integers(2, 3))
def test_is_normal_matches_sumset_definition(n, seed, cap):
    rng = random.Random(seed)
    P = random_polytope(rng, n, spread=3 if n == 2 else 2)
    _assert_matches_definition(P, cap)


def test_is_normal_matches_sumset_definition_on_reeve_dilates():
    for q in REEVE_RANGE:
        for k in (1, 2, 3):
            _assert_matches_definition(reeve_simplex(q).dilate(k), 3)


# -- the lemma: no ladder computes S_c for c >= n - 1 ----------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6), st.integers(-1, 1))
def test_lemma_levels_match_sumset_definition(n, seed, past):
    # is_normal computes the levels up to n - 1 and leaves the rest to the
    # lemma; at the caps n - 1, n and n + 1 (2 at least) its verdict and
    # witness are still the definition's
    P = random_polytope(random.Random(seed), n, spread=2 if n < 4 else 1)
    _assert_matches_definition(P, max(n + past, 2))


def spy_ladders(monkeypatch):
    """Record (dim, c_lo, c_hi) of each call of either ladder."""
    calls = []
    for name in ("_sum_ladder", "_line_ladder"):
        def spied(P, c_lo, c_hi, ladder=getattr(normality, name)):
            calls.append((P.dim, c_lo, c_hi))
            return ladder(P, c_lo, c_hi)
        monkeypatch.setattr(normality, name, spied)
    return calls


def test_no_ladder_runs_past_the_lemma(monkeypatch):
    # at caps up to 8, and in sweeps that fail (a forged d sends each Reeve
    # dilate to is_normal), every ladder stops at n - 2; dims 1 and 2 run none
    calls = spy_ladders(monkeypatch)
    corpus = generate_corpus(CorpusSpec(seed=5, dims=(1, 2, 3, 4), coord_bound=2,
                                        count_per_dim=3, vertex_candidates=6))
    for P in [*corpus, reeve_simplex(2), reeve_simplex(4)]:
        for cap in (None, max(P.dim, 2), P.dim + 1, 8):
            is_normal(P, cap)
            analyze(build_polytope(P.vertices), cap)
            verify_corollary(P, normality_bound(P), 2, cap)
    for q in (2, 3):
        assert not verify_corollary(reeve_simplex(q), BoundReport(3, 2), 2, 8).passed
    assert {n for n, _, _ in calls} == {3, 4}
    assert all(1 <= c_lo <= c_hi <= n - 2 for n, c_lo, c_hi in calls)


def test_a_large_cap_costs_what_the_default_does():
    cube = build_polytope(list(itertools.product((0, 1), repeat=4)))
    start = time.perf_counter()
    rep = is_normal(cube, 1000)
    assert time.perf_counter() - start < 1
    assert (rep.cap_used, rep.levels_checked) == (1000, tuple(range(2, 1001)))
    default = is_normal(cube)
    assert (rep.verdict, rep.witness) == (default.verdict, default.witness)
    assert default.verdict == "normal-up-to-cap"


def sum_ladder_calls(monkeypatch):
    """Record (dim, c_lo, c_hi) of each call of _sum_ladder alone."""
    calls, ladder = [], normality._sum_ladder
    monkeypatch.setattr(normality, "_sum_ladder",
                        lambda P, c_lo, c_hi: calls.append((P.dim, c_lo, c_hi))
                        or ladder(P, c_lo, c_hi))
    return calls


def test_long_ladder_runs_the_line_tables(monkeypatch):
    # 2P of the Reeve simplex at q = 2^24 holds q + 9 points, whose codes
    # pass 2^27 bytes: the line tables answer it, with the same witness
    calls = sum_ladder_calls(monkeypatch)
    P = reeve_simplex(2**24)
    assert geometry.scaled_count(P, 2) == 2**24 + 9
    start = time.perf_counter()
    rep = is_normal(P)
    assert time.perf_counter() - start < 1
    assert (rep.witness.level, rep.witness.point) == (2, (1, 1, 1)) and calls == []
    assert verify_witness(P, 2, (1, 1, 1))


def test_sum_ladder_takes_codes_up_to_the_byte_budget(monkeypatch):
    # the rule admits a ladder whose codes of (c_hi + 1)P take at most
    # _MAX_LIST_BYTES, 8 bytes a code, whatever the listing budget of
    # scaled_points_array: _codes holds no listing of coordinates
    calls = sum_ladder_calls(monkeypatch)
    P = reeve_simplex(3)
    codes = 8 * geometry.scaled_count(P, 2)
    expected = normality._line_ladder(P, 1, 1)
    monkeypatch.setattr(geometry, "_MAX_LIST_BYTES", 0)
    for budget, ran in ((codes, [(3, 1, 1)]), (codes - 1, [])):
        monkeypatch.setattr(normality, "_MAX_LIST_BYTES", budget)
        assert normality._first_gap(P, 1, 5) == expected
        assert calls == ran
        calls.clear()


@pytest.mark.parametrize("N", [10, 100])
def test_thin_triangles_match_sumset_definition(N):
    # conv{(0,0),(N,0),(0,2)}: half its lines are left open by the probes
    # and reach _line_gap, which reads the lines kept on P's table. is_normal
    # runs no ladder in dim 2 (the lemma), so the line ladder is called here
    P = build_polytope([(0, 0), (N, 0), (0, 2)])
    with mock.patch.object(normality, "_line_gap", wraps=normality._line_gap) as gap:
        assert normality._line_ladder(P, 1, 2) is None
    assert gap.call_count > 0
    assert _sumset_verdict(P, 3) is None
    _assert_matches_definition(P, 3)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_segments_are_normal(k):
    P = build_polytope([(0,), (k,)])
    assert is_normal(P).is_normal
    assert is_normal_at_level(P, 3) == (True, None)
    assert verify_corollary(P, normality_bound(P), 2).passed
    rep = is_normal(P, 4)
    assert (rep.verdict, rep.levels_checked) == ("normal-up-to-cap", (2, 3, 4))


def sum_of(A, B):
    return {tuple(map(operator.add, a, b)) for a in A for b in B}


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10**6),
       st.sampled_from([None] + list(REEVE_RANGE)))
def test_multiplication_onto_matches_sumset(n, seed, q):
    # S_c: (cP cap Z^n) + (P cap Z^n) = (c+1)P cap Z^n, with its lex-first
    # gap. The Reeve simplices break S_1; for c >= n - 1 these cases check
    # the Ewald-Wessels / Bruns-Gubeladze-Trung lemma the corollary rests on
    P = (reeve_simplex(q) if q else
         random_polytope(random.Random(seed), n, spread=2 if n < 4 else 1))
    pts = P.lattice_points()
    gaps = {}
    for c in range(1, P.dim + 1):
        cP = P.dilate(c).lattice_points() if c > 1 else pts
        missing = set(P.dilate(c + 1).lattice_points()) - sum_of(cP, pts)
        gaps[c] = (c, min(missing)) if missing else None
        assert normality._first_gap(P, c, c) == gaps[c]
        if c >= P.dim - 1:
            # _first_gap leaves these to the lemma; the ladder still agrees
            assert not missing, (P.vertices, c)
            assert normality._line_ladder(P, c, c) is None
        elif q:
            assert c > 1 or missing  # Reeve's simplices are not normal
    # a ladder from c_lo hands each walk's table on to the next c
    for c_lo in gaps:
        first = next((gaps[c] for c in range(c_lo, P.dim + 1) if gaps[c]), None)
        assert normality._first_gap(P, c_lo, P.dim) == first, (P.vertices, c_lo)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6), st.integers(1, 2), st.integers(0, 2),
       st.sampled_from([None, 1, 7]))
def test_point_sums_match_line_tables_and_sumset(n, seed, c_lo, more, chunk):
    # both ladders of _first_gap, whichever its rule picks, find the gap of
    # the sumset definition, the sum ladder also when it marks `chunk` pair
    # sums at a time (None keeps the default); so they do on P translated by
    # 2^62, whose coordinates run in Python ints while the codes of its
    # points, digits above the box's corner, stay int64. On both, the codes
    # the sum ladder reads, here up to a top past its scales, ascend within
    # each scale and decode to the points of each dilate
    c_hi = min(c_lo + more, 3)
    P = random_polytope(random.Random(seed), n, spread=2 if n < 4 else 1)
    scales = sorted({1, *range(c_lo, c_hi + 2)})
    listed = {k: P.dilate(k).lattice_points() for k in scales}
    pts = listed[1]
    expected = None
    for c in range(c_lo, c_hi + 1):
        missing = set(listed[c + 1]) - sum_of(listed[c], pts)
        if missing:
            expected = c, min(missing)
            break
    if c_lo == 1:
        verdict = _sumset_verdict(P, c_hi + 1)
        assert expected == (verdict and (verdict[0] - 1, verdict[1]))
    t = 2**62
    far = build_polytope([tuple(x + t for x in v) for v in P.vertices])
    assert geometry._scan_dtype(far, 1) is object
    for Q, shift in ((P, 0), (far, t)):
        # the witness lies in (c+1)P, so it moves by c + 1 times the shift
        gap = expected and (expected[0], tuple(x + (expected[0] + 1) * shift
                                               for x in expected[1]))
        with mock.patch.object(normality, "_PAIR_CHUNK", chunk or normality._PAIR_CHUNK):
            assert normality._sum_ladder(Q, c_lo, c_hi) == gap, (Q.vertices, c_lo, c_hi)
        assert normality._line_ladder(Q, c_lo, c_hi) == gap, (Q.vertices, c_lo, c_hi)
        top = c_hi + 2
        for k in scales:
            at_k = geometry._codes(Q, k, top)
            assert (np.diff(at_k) > 0).all()
            assert [geometry._decode_point(Q, top, k, code) for code in at_k] == [
                tuple(x + k * shift for x in u) for u in listed[k]]


def reference_probe_deltas(k):
    """The probe offsets built by sorting tuples: {0, 1}^k in lex order, then
    the rest of {-1..2}^k by (max |x|, sum |x|, lex)."""
    near = list(itertools.product((0, 1), repeat=k))
    ring = sorted(
        (d for d in itertools.product((-1, 0, 1, 2), repeat=k)
         if not all(x in (0, 1) for x in d)),
        key=lambda d: (max(abs(x) for x in d), sum(abs(x) for x in d), d),
    )
    return np.array(near + ring, dtype=np.int64)


@pytest.mark.parametrize("k", range(5))
def test_probe_deltas_match_sorted_tuples(k):
    deltas, expected = normality._probe_deltas(k), reference_probe_deltas(k)
    assert deltas.shape == expected.shape == (4**k, k)
    assert deltas.dtype == np.int64
    assert deltas.tolist() == expected.tolist()
