"""Fiber enumeration and the degree-capped quadratic-generation probe.

The probe's shortcut machinery (descent sinks, point-linking, and the
batched search on the point graphs) is cross-validated here against two
references: `brute_probe` enumerates every fiber exhaustively and BFSes its
move graph, and `reference_probe` is the depth-first probe loop (recursive
cliques, tuple sums, point-linking one sum at a time, the breadth-first
region merge over quadratic moves) that the breadth-wise extension replaced.
The candidate bits are checked against `reference_candidate_bits`, which
unpacks every packed row to one byte per column before `nonzero`.
"""

import itertools
import json
import random
import time
import tracemalloc
import weakref
from collections import Counter, deque
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polynorm import (
    DEFAULT_CORPUS_SPEC,
    REEVE_RANGE,
    CorpusSpec,
    InvalidInputError,
    LatticePoint,
    NotFullDimensionalError,
    build_polytope,
    generate_corpus,
    n1_probe,
    reeve_simplex,
    scaled_count,
)
from polynorm import syzygy
from polynorm.geometry import _as_point
from polynorm.syzygy import DegreeSummary, N1ProbeReport
from conftest import build_configuration, random_polytope
from test_metamorphic import apply, unimodular

CONNECTED = "quadratically connected up to cap"
# the code-set bounds the oracle tests run at: the default, whose dense
# tables every probe here takes, and 0, which forces the sorted arrays
BOUNDS = [None, 0]


def _bound(mp, bound):
    """Force syzygy._DENSE_CODES to `bound` on `mp` (None keeps the default)."""
    if bound is not None:
        mp.setattr(syzygy, "_DENSE_CODES", bound)


@dataclass(frozen=True)
class Fiber:
    target: tuple[int, ...]
    elements: tuple[tuple[LatticePoint, ...], ...]  # sorted multisets, lex order


def enumerate_fiber(C, b) -> Fiber:
    """All size-d multisets of configuration points summing to b (d = b[0]).

    Exhaustive backtracking with per-axis range pruning; an empty fiber is
    a valid result.
    """
    target = _as_point(b)
    if len(target) != C.n_plus_1:
        raise InvalidInputError(
            f"target has dimension {len(target)}, configuration has {C.n_plus_1}"
        )
    d = target[0]
    if d < 2:
        raise InvalidInputError(f"fiber degree must be >= 2, got {d}")
    pts = C.points
    ncoord = C.n_plus_1
    mins = tuple(min(p[j] for p in pts) for j in range(ncoord))
    maxs = tuple(max(p[j] for p in pts) for j in range(ncoord))
    out = []
    chosen = []

    def rec(start, k, rest):
        if k == 0:
            if all(x == 0 for x in rest):
                out.append(tuple(chosen))
            return
        for j in range(ncoord):
            if not k * mins[j] <= rest[j] <= k * maxs[j]:
                return
        for i in range(start, len(pts)):
            p = pts[i]
            chosen.append(p)
            rec(i, k - 1, tuple(x - y for x, y in zip(rest, p)))
            chosen.pop()

    rec(0, d, target)
    return Fiber(target=target, elements=tuple(out))


def encode(C, cap):
    """The probe's code of a homogenized sum (d, b) of d points of C.

    Digit j of b is b_j - d * lo_j over the points' own extent on axis j,
    in radix cap * span_j + 1, the first axis the most significant.
    """
    cols = list(zip(*C.points))[1:]
    lo = [min(c) for c in cols]
    radix = [cap * (max(c) - l) + 1 for c, l in zip(cols, lo)]

    def code(v):
        out = 0
        for x, l, r in zip(v[1:], lo, radix):
            out = out * r + (x - v[0] * l)
        return out

    return code


def _find(parent, x):
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class PairTable:
    """Every unordered point pair (i <= j) of a configuration, grouped by
    the encoded pair sum, each group in index-lex order: the quadratic
    moves the reference searches walk. The first pair of a sum is its
    irreducible pair."""

    def __init__(self, C):
        self.C = C
        self.enc_by_index = list(map(encode(C, 2), C.points))
        self._pos = {q: t for t, q in enumerate(C.points)}
        self.by_sum = {}
        for i, j in itertools.combinations_with_replacement(range(len(C)), 2):
            s = self.enc_by_index[i] + self.enc_by_index[j]
            self.by_sum.setdefault(s, []).append((i, j))

    @property
    def irreducible(self):
        return [pairs[0] for pairs in self.by_sum.values()]

    def pairs_with_sum(self, u, v):
        """All point pairs (p <= q) whose sum equals u + v."""
        pts = self.C.points
        s = self.enc_by_index[self._pos[u]] + self.enc_by_index[self._pos[v]]
        return [(pts[i], pts[j]) for i, j in self.by_sum.get(s, ())]


def _multiset_cliques(adj, size):
    """All size-`size` multisets {i_1 <= ... <= i_size} with every pair adjacent.

    adj[i] holds bits j >= i for admissible pairs; bit i itself marks an
    admissible repeat (loop). Yields index tuples in lex order.
    """
    chosen = []

    def rec(cand, need):
        if need == 0:
            yield tuple(chosen)
            return
        c = cand
        while c:
            low = c & -c
            c ^= low
            i = low.bit_length() - 1
            chosen.append(i)
            # adj[i] only holds bits >= i, so deeper picks stay sorted
            yield from rec(cand & adj[i], need - 1)
            chosen.pop()

    yield from rec((1 << len(adj)) - 1, size)


def _sinks_point_linked(sinks):
    """True when the sinks chain together through shared points (one sum)."""
    parent = list(range(len(sinks)))
    ncomp = len(sinks)
    first_with = {}
    for t, idx in enumerate(sinks):
        for i in set(idx):
            o = first_with.setdefault(i, t)
            if o != t:
                ra, rb = _find(parent, t), _find(parent, o)
                if ra != rb:
                    parent[ra] = rb
                    ncomp -= 1
    return ncomp == 1


def reference_sinks_connected(sinks, table):
    """The breadth-first region merge over quadratic moves: regions grow
    from every sink and unite when they meet, or when a new element's point
    bitset meets a region's coverage (a shared point lifts a path from one
    degree down). Exact once every lower-degree fiber is connected."""
    k = len(sinks)
    if k <= 1:
        return True
    by_sum = table.by_sum
    enc = table.enc_by_index
    parent = list(range(k))

    def support(elem: tuple[int, ...]) -> int:
        m = 0
        for i in elem:
            m |= 1 << i
        return m

    ncomp = k
    label = {s: t for t, s in enumerate(sinks)}
    coverage = {t: support(s) for t, s in enumerate(sinks)}
    queue = deque(sinks)
    while queue and ncomp > 1:
        cur = queue.popleft()
        lab = _find(parent, label[cur])
        d = len(cur)
        for a in range(d):
            for b in range(a + 1, d):
                rest = cur[:a] + cur[a + 1 : b] + cur[b + 1 :]
                pair = (cur[a], cur[b])
                for uv in by_sum[enc[cur[a]] + enc[cur[b]]]:
                    if uv == pair:
                        continue
                    nxt = tuple(sorted(rest + uv))
                    other = label.get(nxt)
                    if other is not None:
                        rb = _find(parent, other)
                        if lab != rb:
                            parent[lab] = rb
                            coverage[rb] |= coverage.pop(lab)
                            ncomp -= 1
                            if ncomp == 1:
                                return True
                            lab = rb
                        continue
                    label[nxt] = lab
                    queue.append(nxt)
                    m = support(nxt)
                    coverage[lab] |= m
                    hit = [r for r in coverage if r != lab and coverage[r] & m]
                    for r in hit:
                        parent[lab] = r
                        coverage[r] |= coverage.pop(lab)
                        ncomp -= 1
                        if ncomp == 1:
                            return True
                        lab = r
    return ncomp == 1


def reference_probe(P, ell, cap):
    """The depth-first probe: each degree re-enumerates its cliques
    recursively, sums them point by point into tuples, and point-links the
    colliding sums one at a time before the region merge."""
    C = build_configuration(P, ell)
    table = PairTable(C)
    pts = C.points
    adj = [0] * len(pts)
    for i, j in table.irreducible:
        adj[i] |= 1 << j
    summaries = []
    witness = None
    for d in range(2, cap + 1):
        sums = {}
        for idx in _multiset_cliques(adj, d):
            s = tuple(sum(pts[i][j] for i in idx) for j in range(C.n_plus_1))
            sums.setdefault(s, []).append(idx)
        bfs_runs = 0
        for s in sorted(s for s, lst in sums.items() if len(lst) > 1):
            if _sinks_point_linked(sums[s]):
                continue
            bfs_runs += 1
            if not reference_sinks_connected(sums[s], table):
                witness = s
                break
        summaries.append(DegreeSummary(d, len(sums), bfs_runs, witness is None))
        if witness is not None:
            break
    return N1ProbeReport(
        polytope_id=P.polytope_id,
        ell=ell,
        degree_cap=cap,
        verdict=CONNECTED if witness is None else "disconnected",
        witness_degree=None if witness is None else witness[0],
        witness_fiber=witness,
        per_degree=tuple(summaries),
    )


def fiber_connected(fiber, table):
    """Breadth-first search over quadratic moves."""
    elements = fiber.elements
    if len(elements) <= 1:
        return True
    index = {e: t for t, e in enumerate(elements)}
    seen = {elements[0]}
    queue = deque([elements[0]])
    while queue:
        cur = queue.popleft()
        d = len(cur)
        for a in range(d):
            for b in range(a + 1, d):
                for u, v in table.pairs_with_sum(cur[a], cur[b]):
                    if (u, v) == (cur[a], cur[b]) or (u, v) == (cur[b], cur[a]):
                        continue
                    rest = cur[:a] + cur[a + 1 : b] + cur[b + 1 :]
                    nxt = tuple(sorted(rest + (u, v)))
                    if nxt in index and nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
    return len(seen) == len(elements)


def brute_probe(P, ell, cap):
    """Reference implementation: exhaustive fibers + BFS, no shortcuts."""
    C = build_configuration(P, ell)
    table = PairTable(C)
    per = []
    for d in range(2, cap + 1):
        fibers = {}
        for combo in itertools.combinations_with_replacement(C.points, d):
            s = tuple(sum(p[j] for p in combo) for j in range(C.n_plus_1))
            fibers.setdefault(s, []).append(combo)
        bad = None
        for s in sorted(fibers):
            fib = Fiber(target=s, elements=tuple(sorted(fibers[s])))
            if not fiber_connected(fib, table):
                bad = s
                break
        per.append((d, len(fibers), bad is None))
        if bad is not None:
            return per, bad
    return per, None


def reference_candidate_bits(cand, n):
    """(row, column) of every set bit of the n-column bit-packed rows:
    every row unpacked to one byte per column before `nonzero`."""
    return np.nonzero(np.unpackbits(cand, axis=1, count=n))


def test_build_configuration_sizes(unit_square):
    assert len(build_configuration(unit_square, 1)) == 4
    assert len(build_configuration(unit_square, 2)) == 9
    tri = build_polytope([(0, 0), (1, 0), (0, 1)])
    assert len(build_configuration(tri, 1)) == 3


def test_configuration_is_homogenized_and_ordered(t2):
    C = build_configuration(t2, 2)
    assert all(p[0] == 1 for p in C.points)
    assert list(C.points) == sorted(C.points)
    assert C.n_plus_1 == 4


def test_enumerate_fiber_square(unit_square):
    C = build_configuration(unit_square, 1)
    fib = enumerate_fiber(C, (2, 1, 1))
    assert fib.elements == (
        ((1, 0, 0), (1, 1, 1)),
        ((1, 0, 1), (1, 1, 0)),
    )


def test_enumerate_fiber_empty(unit_square):
    C = build_configuration(unit_square, 1)
    assert enumerate_fiber(C, (2, 3, 0)).elements == ()


def test_enumerate_fiber_simplex_singleton():
    tri = build_polytope([(0, 0), (1, 0), (0, 1)])
    C = build_configuration(tri, 1)
    fib = enumerate_fiber(C, (2, 1, 0))
    assert fib.elements == (((1, 0, 0), (1, 1, 0)),)


def test_enumerate_fiber_validation(unit_square):
    C = build_configuration(unit_square, 1)
    with pytest.raises(InvalidInputError):
        enumerate_fiber(C, (2, 1))  # wrong dimension
    with pytest.raises(InvalidInputError):
        enumerate_fiber(C, (1, 1, 0))  # degree below 2


def test_probe_unit_square(unit_square):
    rep = n1_probe(unit_square, 1, 4)
    assert rep.verdict == CONNECTED
    assert rep.connected
    assert [s.fibers for s in rep.per_degree] == [9, 16, 25]
    assert all(s.connected for s in rep.per_degree)


def test_probe_simplex_all_singletons():
    tri = build_polytope([(0, 0), (1, 0), (0, 1)])
    rep = n1_probe(tri, 1, 3)
    assert rep.verdict == CONNECTED
    # simplex points are affinely independent: a multiset is determined
    # by its sum, so no explicit checks are ever needed
    assert all(s.bfs_checked == 0 for s in rep.per_degree)


def test_probe_t2_regression_baseline(t2):
    rep = n1_probe(t2, 2, 3)
    assert rep.verdict == CONNECTED
    assert [(s.degree, s.fibers, s.bfs_checked) for s in rep.per_degree] == [
        (2, 45, 0),
        (3, 119, 0),
    ]


def test_probe_disconnection_witness(skew_triangle):
    rep = n1_probe(skew_triangle, 1, 3)
    assert rep.verdict == "disconnected"
    assert not rep.connected
    assert rep.witness_degree == 3
    assert rep.witness_fiber == (3, 3, 3)
    # the two halves: the vertex triple and the tripled interior point
    C = build_configuration(skew_triangle, 1)
    fib = enumerate_fiber(C, rep.witness_fiber)
    assert fib.elements == (
        ((1, 0, 0), (1, 1, 2), (1, 2, 1)),
        ((1, 1, 1), (1, 1, 1), (1, 1, 1)),
    )


def test_probe_stops_at_first_disconnection(skew_triangle):
    # a witness at cap c stays the witness at any higher cap
    low = n1_probe(skew_triangle, 1, 3)
    high = n1_probe(skew_triangle, 1, 6)
    assert high.witness_degree == low.witness_degree == 3
    assert high.witness_fiber == low.witness_fiber
    assert [s.degree for s in high.per_degree] == [2, 3]


def test_probe_degree_two_always_connected():
    rng = random.Random(4)
    for _ in range(10):
        P = random_polytope(rng, 2, spread=2)
        rep = n1_probe(P, 1, 2)
        assert rep.per_degree[0].connected
        assert rep.per_degree[0].bfs_checked == 0


def test_probe_rejects_bad_cap(unit_square):
    with pytest.raises(InvalidInputError):
        n1_probe(unit_square, 1, 1)


def test_probe_refuses_codes_past_2_62():
    # conv{0, e1, e2, (1,1,q)} at ell 1 spans 1, 1 and q, so its cap-3
    # radix product is 4 * 4 * (3q + 1): exactly 2^62 at q = (2^58 - 1) / 3
    q = (2**58 - 1) // 3
    with pytest.raises(InvalidInputError, match="spread too large"):
        n1_probe(reeve_simplex(q), 1, 3)
    assert n1_probe(reeve_simplex(q - 1), 1, 3).connected
    assert n1_probe(reeve_simplex(q), 1, 2).connected


def translated(P, t):
    return build_polytope([tuple(a + b for a, b in zip(v, t)) for v in P.vertices])


@pytest.mark.parametrize("t", [(2**64, -(2**64), 2**63), (-1, 2**63 + 2, 0)])
def test_far_translate_moves_witness_by_degree_times_shift(t):
    # the witness is its sum's code decoded in exact ints: for P + t it is
    # P's witness (d, b) moved to (d, b + d t). The digits are taken from
    # the corner ell * lo of ell*(P + t), so the codes of the far dilate
    # stay those of P's. The second shift puts the corner at
    # (-2, 2^63, -2) at ell 1, which numpy alone would widen to float64
    P = build_polytope([(-1, 1, -1), (0, -2, -1), (0, 0, 0), (2, -1, -1), (2, 1, -2)])
    far = translated(P, t)
    rep, rep_far = n1_probe(P, 1, 4), n1_probe(far, 1, 4)
    d, *b = rep.witness_fiber
    assert rep_far.witness_fiber == (d, *(x + d * s for x, s in zip(b, t)))
    assert rep_far.per_degree == rep.per_degree
    assert n1_probe(far, 2, 3).per_degree == n1_probe(P, 2, 3).per_degree


@pytest.mark.parametrize("ell", [1, 2])
def test_corner_past_int64_beside_negative_axis_stays_exact(unit_square, ell):
    # the corner ell * lo of ell*(square + t) is (-ell, 2^63): one axis
    # fits only uint64 and one only int64, so the digits stay Python ints
    far = translated(unit_square, (-1, 2**63 // ell))
    assert n1_probe(far, ell, 4).per_degree == n1_probe(unit_square, ell, 4).per_degree


def test_probe_refuses_spread_before_listing_points(monkeypatch):
    # the unit square at ell = 3e9 has about 9e18 lattice points; the radix
    # check reads the box of ell*P off P's vertices and refuses it first
    listed = []
    monkeypatch.setattr(syzygy, "_code_scales", lambda *args: listed.append(args))
    square = build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(InvalidInputError, match="spread too large"):
        n1_probe(square, 3_000_000_000)
    assert listed == []


def test_probe_refuses_too_many_points_before_listing(monkeypatch):
    # the unit square at ell = 10^5 passes the radix check (radix 4 * 10^5 + 1
    # per axis) with about 10^10 points; the probe reads N off the point
    # count and refuses the N(N+1)/2 pairs before any point is listed
    listed = []
    monkeypatch.setattr(syzygy, "_code_scales", lambda *args: listed.append(args))
    square = build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    start = time.perf_counter()
    with pytest.raises(InvalidInputError, match="configuration too large to probe"):
        n1_probe(square, 10**5)
    assert time.perf_counter() - start < 1
    assert listed == []


def test_sparse_code_sets_are_sorted(monkeypatch):
    # conv{0, e1, e2, (1,1,q)} at q = 10485, ell 1 and cap 4 has 4 points
    # in a box of 1,048,525 codes, within _DENSE_CODES, but its sets hold
    # 3 * 10^4 codes a member or more, past _DENSE_SPREAD: none is a dense
    # table, and the report is the one on forced sorted arrays
    P = reeve_simplex(10485)
    [calls] = _spied(monkeypatch, "_code_set", [(P, 1, 4)])
    assert {box for (_, box), _ in calls} == {1_048_525} and 1_048_525 <= syzygy._DENSE_CODES
    assert calls and all(type(out) is syzygy._SortedCodes for _, out in calls)
    report = n1_probe(P, 1, 4).to_jsonable()
    _bound(monkeypatch, 0)
    assert n1_probe(P, 1, 4).to_jsonable() == report


def test_probe_pair_limit_admits_exactly_its_pairs(monkeypatch, unit_square):
    # the square at ell 2 has 9 points and so 45 pairs
    monkeypatch.setattr(syzygy, "_MAX_PAIRS", 45)
    assert n1_probe(unit_square, 2, 3).connected
    monkeypatch.setattr(syzygy, "_MAX_PAIRS", 44)
    with pytest.raises(InvalidInputError, match="too large to probe: 9 points"):
        n1_probe(unit_square, 2, 3)


def test_probe_at_the_pair_limit_builds_no_pair_arrays():
    # the unit cube at ell = 13 has N = 14^3 = 2,744 points, whose 3,766,140
    # pairs _MAX_PAIRS admits; its degree-2 fibers are the 27^3 points of
    # 26 * cube. Its N^2 = 7.5 million ordered pair sums alone would take
    # 60 MB, and an N x N matrix 7.5 MB: streamed in blocks into a table over
    # the box, the whole probe peaks under 8 MB traced
    cube = build_polytope(list(itertools.product((0, 1), repeat=3)))
    N = scaled_count(cube, 13)
    assert N == 14**3 and N * (N + 1) // 2 <= syzygy._MAX_PAIRS
    tracemalloc.start()
    try:
        report = n1_probe(cube, 13, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.per_degree == (DegreeSummary(2, 27**3, 0, True),)
    assert peak <= 8 << 20, peak


def test_probe_report_json(unit_square):
    data = n1_probe(unit_square, 2, 3).to_jsonable()
    assert data["ell"] == 2
    assert data["cap"] == 3
    assert data["verdict"] == CONNECTED
    assert data["witness_fiber"] is None
    assert [row["degree"] for row in data["per_degree"]] == [2, 3]


def test_probe_reports_ell_as_int(unit_square):
    data = n1_probe(unit_square, np.int64(2), 3).to_jsonable()
    assert type(data["ell"]) is int and data["ell"] == 2
    assert json.loads(json.dumps(data)) == data
    with pytest.raises(InvalidInputError, match="ell"):
        n1_probe(unit_square, True, 3)


def test_move_soundness(t2):
    # every quadratic exchange offered by the pair table preserves sums
    C = build_configuration(t2, 2)
    table = PairTable(C)
    pts = C.points
    for u, v in itertools.combinations_with_replacement(pts[:6], 2):
        s = tuple(a + b for a, b in zip(u, v))
        for x, y in table.pairs_with_sum(u, v):
            assert tuple(a + b for a, b in zip(x, y)) == s


def test_probe_matches_brute_force():
    rng = random.Random(20260815)
    checked = disconnections = 0
    while checked < 10:
        n = rng.choice([2, 2, 3])
        P = random_polytope(rng, n, spread=2)
        for ell in (1, 2) if n == 2 else (1,):
            cap = 3
            rep = n1_probe(P, ell, cap)
            per, bad = brute_probe(P, ell, cap)
            assert [(s.degree, s.fibers, s.connected) for s in rep.per_degree] == per
            assert (rep.witness_fiber is None) == (bad is None)
            if bad is not None:
                assert rep.witness_fiber == bad
                disconnections += 1
            checked += 1
    # the sample is seeded to include genuine disconnections
    assert disconnections >= 1


@pytest.mark.parametrize("bound", BOUNDS)
@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.integers(0, 10**6), st.integers(1, 3), st.integers(2, 4))
def test_probe_matches_reference(bound, n, seed, ell, cap):
    # the whole report, bfs_checked and the witness included; dim-3
    # dilates stay small enough for the recursive reference
    spread = 2 if n == 2 or ell == 1 else 1
    P = random_polytope(random.Random(seed), n, spread=spread)
    with pytest.MonkeyPatch.context() as mp:
        _bound(mp, bound)
        rep = n1_probe(P, ell, cap)
    assert rep.to_jsonable() == reference_probe(P, ell, cap).to_jsonable()


def random_polygon(rng):
    """conv of 3 to 6 points drawn from [-s, s]^2 by `rng`, s from 3 to 10
    (the default corpus draws from [0, 4]^2), drawn again until they span
    the plane."""
    spread = rng.randint(3, 10)
    while True:
        pts = [(rng.randint(-spread, spread), rng.randint(-spread, spread))
               for _ in range(rng.randint(3, 6))]
        try:
            return build_polytope(pts)
        except (InvalidInputError, NotFullDimensionalError):
            continue


@pytest.mark.parametrize("bound", BOUNDS)
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_probe_agrees_with_koelman_on_polygons(bound, seed):
    # Koelman (Beitraege Algebra Geom. 34, 1993): the toric ideal of a lattice
    # polygon P is generated by quadrics iff P has at least 4 boundary lattice
    # points or is the unimodular triangle. P is normal and its regularity
    # cap is 3 with an interior point and 2 without, so the probe at ell = 1
    # and cap 3 decides it: disconnected, at degree 3, iff P has B = 3
    # boundary points and an interior point. 2P has at least 6 boundary
    # points, so it is connected. The image of P under a unimodular map and
    # a translation (tests/test_metamorphic.py) has the same verdict and
    # fibers
    rng = random.Random(seed)
    P = random_polygon(rng)
    U = unimodular(rng, 2)
    t = [rng.randint(-50, 50) for _ in range(2)]
    image = build_polytope([apply(U, t, v) for v in P.vertices])
    interior = scaled_count(P, 1, interior=True)
    needs_cubic = scaled_count(P, 1) - interior == 3 and interior > 0
    with pytest.MonkeyPatch.context() as mp:
        _bound(mp, bound)
        reports = [n1_probe(P, 1, 3), n1_probe(image, 1, 3)]
        assert n1_probe(P, 2, 3).connected, P.vertices
    for rep in reports:
        assert rep.connected is not needs_cubic, P.vertices
        assert rep.witness_degree == (3 if needs_cubic else None)
    fibers = [[s.fibers for s in rep.per_degree] for rep in reports]
    assert fibers[0] == fibers[1], (P.vertices, U, t)


@pytest.mark.parametrize("bound", BOUNDS)
def test_probe_matches_reference_on_disconnections(monkeypatch, bound):
    # bfs_checked and the witness depend on the order in which colliding
    # sums are searched only when a fiber is disconnected; at ell = 1 a
    # seeded dim-3 sample has many, several after other searched sums
    _bound(monkeypatch, bound)
    rng = random.Random(20261018)
    ordered = 0
    for _ in range(40):
        P = random_polytope(rng, 3, spread=2)
        rep = n1_probe(P, 1, 4)
        assert rep.to_jsonable() == reference_probe(P, 1, 4).to_jsonable()
        ordered += rep.witness_fiber is not None and rep.per_degree[-1].bfs_checked > 1
    assert ordered >= 5


@pytest.mark.parametrize("q", REEVE_RANGE)
def test_probe_matches_reference_on_reeve(q):
    P = reeve_simplex(q)
    for ell in (1, 2, 3):
        assert n1_probe(P, ell, 4).to_jsonable() == reference_probe(P, ell, 4).to_jsonable()


def _spied(monkeypatch, name, cases):
    """Run n1_probe(P, ell, cap) for each case with syzygy.<name> spied on;
    per case, the (arguments, result) of every call."""
    calls = []
    real = getattr(syzygy, name)

    def spy(*args):
        out = real(*args)
        calls[-1].append((args, out))
        return out

    monkeypatch.setattr(syzygy, name, spy)
    for P, ell, cap in cases:
        calls.append([])
        n1_probe(P, ell, cap)
    return calls


def test_bridged_groups_are_connected(monkeypatch):
    # the region merge must confirm every group the batched search settles
    # as connected, point-linked or not; every fiber of lower degree passed,
    # which both of them assume. At ell = 1 many dim-3 fibers are
    # disconnected, so a search that settles too much shows here
    rng = random.Random(9001)
    cases = [(random_polytope(rng, 3, spread=2), ell, 4) for ell in (1, 3) for _ in range(10)]
    cases += [(reeve_simplex(q), ell, 4) for q in REEVE_RANGE for ell in (1, 2, 3)]
    total = 0
    for (P, ell, cap), calls in zip(cases, _spied(monkeypatch, "_sinks_connected", cases)):
        table = PairTable(build_configuration(P, ell))
        for (sinks, group, *_), (connected, _) in calls:
            for g in np.flatnonzero(connected).tolist():
                group_sinks = [tuple(s) for s in sinks[group == g].tolist()]
                assert reference_sinks_connected(group_sinks, table), (P.vertices, ell)
                total += 1
    assert total >= 1000


@pytest.fixture(scope="module")
def region_merge():
    """The region merge's verdict on a group's sinks, kept per (P, ell,
    sinks) with P's pair table, so that the parametrizations of
    test_point_graph_search_matches_region_merge, which see the same
    groups, run the reference once per group."""
    tables, verdicts = {}, {}

    def verdict(P, ell, group_sinks):
        key = (P.vertices, ell, tuple(group_sinks))
        if key not in verdicts:
            if (P.vertices, ell) not in tables:
                tables[P.vertices, ell] = PairTable(build_configuration(P, ell))
            verdicts[key] = reference_sinks_connected(group_sinks, tables[P.vertices, ell])
        return verdicts[key]

    return verdict


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("chunk", [None, 1 << 10])
def test_point_graph_search_matches_region_merge(monkeypatch, chunk, bound, region_merge):
    # every verdict of the batched search, connected or not, is the region
    # merge's, and its first layer finds the groups that point-link. The spy
    # sees the batches that were searched, so it compares the groups up to
    # the end of the first batch holding a disconnected one; the groups
    # after it are never searched. At chunk 2^10 the groups are split into
    # many batches and their lookups into chunks of 16
    if chunk is not None:
        monkeypatch.setattr(syzygy, "_CHUNK_BYTES", chunk)
    _bound(monkeypatch, bound)
    rng = random.Random(20261018)
    cases = [(random_polytope(rng, 3, spread=2), 1, 4) for _ in range(40)]
    rng = random.Random(9001)
    cases += [(random_polytope(rng, 3, spread=2), 3, 4) for _ in range(10)]
    cases += [(reeve_simplex(q), ell, 4) for q in REEVE_RANGE for ell in (1, 2, 3)]
    # its disconnected fiber has three sinks, and the first reaches the second
    # but not the third
    split = build_polytope([(-1, 1, -1), (0, -2, -1), (0, 0, 0), (2, -1, -1), (2, 1, -2)])
    cases.append((split, 1, 4))
    verdicts = set()
    spied = _spied(monkeypatch, "_sinks_connected", cases)
    for (P, ell, cap), calls in zip(cases, spied):
        for (sinks, group, *_), (connected, linked) in calls:
            for g, (verdict, link) in enumerate(zip(connected.tolist(), linked.tolist())):
                group_sinks = [tuple(s) for s in sinks[group == g].tolist()]
                assert verdict == region_merge(P, ell, group_sinks), (
                    P.vertices, ell, group_sinks)
                assert link == _sinks_point_linked(group_sinks), (P.vertices, ell)
                verdicts.add((verdict, len(group_sinks) > 2))
    assert {(True, False), (False, False), (False, True)} <= verdicts


def _wide_phases(monkeypatch, cases):
    """Run n1_probe(P, ell, cap) for each case with syzygy._grow_by_masks
    spied on; per case, the (degree, arguments, result) of every call, the
    degree read off the keys of the `_search` that called it."""
    degree, calls = [], []
    search, grow = syzygy._search, syzygy._grow_by_masks

    def search_spy(seen, keys, *rest):
        degree.append(keys.shape[1])
        return search(seen, keys, *rest)

    def grow_spy(*args):
        out = grow(*args)
        calls[-1].append((degree[-1], args, out))
        return out

    monkeypatch.setattr(syzygy, "_search", search_spy)
    monkeypatch.setattr(syzygy, "_grow_by_masks", grow_spy)
    for P, ell, cap in cases:
        calls.append([])
        n1_probe(P, ell, cap)
    return calls


def test_one_hop_leaves_sums_to_the_wide_phase(monkeypatch):
    # one hop settles most colliding sums before the search, and the
    # reference comparisons above exercise the search only on the sums it
    # leaves: degree 3 on the default corpus's dim-3 polytopes at ell 3,
    # degree 4 and above on the seeded ell = 1 sample of
    # test_probe_matches_reference_on_disconnections, must each still
    # reach the wide phase, the one at every degree
    spec = replace(DEFAULT_CORPUS_SPEC, dims=(2, 3))
    dim3 = [(P, 3, 4) for P in generate_corpus(spec) if P.dim == 3][:10]
    rng = random.Random(20261018)
    sample = [(random_polytope(rng, 3, spread=2), 1, 4) for _ in range(40)]
    masks = _wide_phases(monkeypatch, dim3 + sample)
    # (seen, frontier, ...) of each wide phase, and the keys it reached
    assert sum(d == 3 and len(args[1]) > 0 and len(new) > 0
               for calls in masks[: len(dim3)] for d, args, new in calls) >= 5
    assert sum(d >= 4 and len(args[1]) > 0
               for calls in masks[len(dim3) :] for d, args, _ in calls) >= 1


def test_wide_phase_reads_sums_of_one_point_less(monkeypatch):
    # each value b - p the wide phase builds a mask row for is a sum of d - 1
    # points, so its row marks the points of a nonempty fiber one degree
    # down: a point of a sink is b less the rest of its sink, and a point q
    # reached from p has b - q = p + (b - p - q). The (d-1)-point sums are
    # listed by brute force from the point codes, which add as the points
    # do; the ell = 1 polytopes have 4 to 13 points, and their searches
    # widen at degrees 3, 4 and 5
    cases = [(P, 1, 5) for P in generate_corpus(CorpusSpec(7, (3,), 3, 40, 5))]
    degrees = set()
    for calls in _wide_phases(monkeypatch, cases):
        for d, (seen, frontier, sums, codes, lookup), _ in calls:
            below = {sum(c) for c in itertools.combinations_with_replacement(codes.tolist(), d - 1)}
            g, p = np.divmod(frontier, len(codes))
            assert set((sums[g] - codes[p]).tolist()) <= below
            degrees.add(d)
    assert {3, 4, 5} <= degrees, degrees


@pytest.mark.parametrize("cap", [3, 4, 5])
def test_each_degree_reads_one_code_set(monkeypatch, cap):
    # the search at degree d reads the code set of the (d-2)-point sums and
    # no other, and the last degree's search runs with only the sets of 1 to
    # cap - 2 points alive: the code set of each degree is dropped once no
    # later degree reads it. The ell = 1 polytopes reach every degree
    sets, searched = [], []  # weak references, by number of points from 1
    code_set, first = syzygy._code_set, syzygy._first_disconnected

    def code_set_spy(*args):
        out = code_set(*args)
        sets.append(weakref.ref(out))
        return out

    def first_spy(sinks, group, sums, codes, lookup):
        d = sinks.shape[1]
        assert d == 2 or lookup is sets[d - 3](), d
        alive = [k for k, ref in enumerate(sets, 1) if ref() is not None]
        searched.append((d, alive))
        return first(sinks, group, sums, codes, lookup)

    monkeypatch.setattr(syzygy, "_code_set", code_set_spy)
    monkeypatch.setattr(syzygy, "_first_disconnected", first_spy)
    for P in generate_corpus(CorpusSpec(7, (3,), 3, 40, 5))[:10]:
        sets.clear()
        n1_probe(P, 1, cap)
    last = [alive for d, alive in searched if d == cap]
    assert last and all(alive == list(range(1, cap - 1)) for alive in last), searched


@pytest.mark.parametrize("bound", BOUNDS)
def test_probe_matches_reference_at_degree_five(monkeypatch, bound):
    # the whole report at ell = 1 and cap 5, where these polytopes' searches
    # run at degrees 4 and 5; a spy on _search shows that degree 5 was
    # searched, so the comparison keeps covering it
    _bound(monkeypatch, bound)
    corpus = generate_corpus(CorpusSpec(7, (3,), 3, 40, 5))
    cases = [(corpus[i], 1, 5) for i in (2, 20, 29, 31, 33)]
    searched = set()
    search = syzygy._search
    monkeypatch.setattr(syzygy, "_search", lambda seen, keys, *rest: searched.add(
        keys.shape[1]) or search(seen, keys, *rest))
    for P, ell, cap in cases:
        assert n1_probe(P, ell, cap).to_jsonable() == reference_probe(P, ell, cap).to_jsonable()
    assert 5 in searched, searched


def test_search_stops_after_first_disconnected_batch(monkeypatch):
    # at chunk 2^8 a batch of the point-graph search holds a few colliding
    # sums of an ell = 1 dim-3 probe. Only the first disconnected group
    # reaches the report, so no batch after the one that holds it may be
    # searched
    monkeypatch.setattr(syzygy, "_CHUNK_BYTES", 1 << 8)
    real_first, real_search = syzygy._first_disconnected, syzygy._sinks_connected
    degrees = []  # per degree: (colliding sums, verdicts of each batch)

    def first(sinks, group, sums, *rest):
        degrees.append((len(sums), []))
        return real_first(sinks, group, sums, *rest)

    def search(*args):
        out = real_search(*args)
        degrees[-1][1].append(out[0])
        return out

    monkeypatch.setattr(syzygy, "_first_disconnected", first)
    monkeypatch.setattr(syzygy, "_sinks_connected", search)
    rng = random.Random(20261018)
    skipped = split = 0
    for _ in range(40):
        P = random_polytope(rng, 3, spread=2)
        degrees.clear()
        rep = n1_probe(P, 1, 4)
        batches = [out for _, outs in degrees for out in outs]
        assert all(out.all() for out in batches[:-1]), P.vertices
        assert rep.connected == all(out.all() for out in batches[-1:])
        open_groups, outs = degrees[-1]
        searched = sum(len(out) for out in outs)
        assert searched == open_groups or not rep.connected
        skipped += open_groups - searched
        split += max(len(outs) for _, outs in degrees) > 1
    assert skipped >= 50 and split >= 5


@pytest.mark.parametrize("chunk", [None, 1 << 8])
def test_search_batches_hold_every_colliding_sum(monkeypatch, chunk):
    # point-linking is the search's first layer, so every colliding sum of a
    # degree reaches _sinks_connected, point-linked or not: in sum order, in
    # batches of at most _CHUNK_BYTES // (8N) sums, up to the end of the
    # batch that holds the first disconnected one. The colliding sums are
    # counted from the recursive cliques of the reference probe
    if chunk is not None:
        monkeypatch.setattr(syzygy, "_CHUNK_BYTES", chunk)
    real_first, real_search = syzygy._first_disconnected, syzygy._sinks_connected
    degrees = []  # per degree: the sums of each batch

    def first(*args):
        degrees.append([])
        return real_first(*args)

    def search(sinks, group, sums, *rest):
        degrees[-1].append(sums.tolist())
        return real_search(sinks, group, sums, *rest)

    monkeypatch.setattr(syzygy, "_first_disconnected", first)
    monkeypatch.setattr(syzygy, "_sinks_connected", search)
    rng = random.Random(20261018)
    cases = [(random_polytope(rng, 3, spread=2), 1) for _ in range(40)]
    cases += [(reeve_simplex(q), ell) for q in REEVE_RANGE for ell in (1, 2)]
    split = disconnected = 0
    for P, ell in cases:
        degrees.clear()
        rep = n1_probe(P, ell, 4)
        C = build_configuration(P, ell)
        code = encode(C, 4)
        codes = list(map(code, C.points))
        adj = [0] * len(C)
        for i, j in PairTable(C).irreducible:
            adj[i] |= 1 << j
        limit = max(1, syzygy._CHUNK_BYTES // (8 * len(C)))
        assert len(degrees) == len(rep.per_degree)
        for summary, batches in zip(rep.per_degree, degrees):
            d = summary.degree
            cliques = Counter(sum(codes[i] for i in idx) for idx in _multiset_cliques(adj, d))
            colliding = sorted(b for b, k in cliques.items() if k > 1)
            end = len(colliding)
            if not summary.connected:
                bad = colliding.index(code(rep.witness_fiber))
                end = min(end, (bad // limit + 1) * limit)
                disconnected += 1
            assert all(len(sums) <= limit for sums in batches), P.vertices
            assert [b for sums in batches for b in sums] == colliding[:end], P.vertices
            split += len(batches) > 1
    assert disconnected >= 5
    assert chunk is None or split >= 5


@pytest.fixture(scope="module")
def chunk_cases():
    """The cases of test_chunk_bytes_do_not_change_reports, each with its
    report at the default chunk size: those for every chunk, and the dim-3
    polytopes at ell = 3 that only chunks above 1 take."""
    rng = random.Random(20261018)
    cases = [(random_polytope(rng, 3, spread=2), 1) for _ in range(40)]
    cases += [(reeve_simplex(q), ell) for q in REEVE_RANGE for ell in (1, 2, 3)]
    rng = random.Random(31415)
    large = [(random_polytope(rng, 3, spread=2), 3) for _ in range(4)]
    return tuple([(P, ell, n1_probe(P, ell, 4).to_jsonable()) for P, ell in group]
                 for group in (cases, large))


@pytest.mark.parametrize("chunk", [1, 1 << 10, 1 << 13])
def test_chunk_bytes_do_not_change_reports(monkeypatch, chunk, chunk_cases):
    # at 1 every batch of the search is one group, every chunk one lookup,
    # every block of pair sums one row and every chunk of candidate rows
    # one row; at 2^10 a batch holds several groups and a chunk 3 edge
    # lookups. The dim-3 polytopes at ell = 3 have 82 to 253 configuration
    # points, so at 2^10 and 2^13 their packed candidate rows and pair sums
    # span many chunks while a search batch holds one group (2^10) or
    # several (2^13); at 1 they would take seconds, and one-row chunks of
    # candidate rows are checked against the oracle below. Each chunked
    # loop below must see inputs of more than one chunk
    every, large = chunk_cases
    cases = every + large if chunk > 1 else every
    default = [report for _, _, report in cases]
    monkeypatch.setattr(syzygy, "_CHUNK_BYTES", chunk)
    split = Counter()

    def spy(name, splits):
        real = getattr(syzygy, name)

        def wrapped(*args):
            split[name] += splits(*args)
            return real(*args)

        monkeypatch.setattr(syzygy, name, wrapped)

    def join_lookups(seen, frontier, pool, sums, codes, lower):
        start = np.searchsorted(pool, np.arange(len(sums) + 1) * len(codes))
        g = frontier // len(codes)
        return (start[g + 1] - start[g]).sum()

    spy("_candidate_bits", lambda cand: cand.size > chunk)
    spy("_pair_fibers", lambda codes, box: syzygy._dense(box, len(codes) ** 2)
        and len(codes) > max(1, chunk // (64 * len(codes))))
    spy("_join", lambda *args: join_lookups(*args) > max(1, chunk // 320))
    assert [n1_probe(P, ell, 4).to_jsonable() for P, ell, _ in cases] == default
    assert min(split[name] for name in ("_candidate_bits", "_pair_fibers", "_join")) >= 5, split


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 70), st.integers(0, 12),
       st.sampled_from([0.0, 0.03, 0.5, 1.0]), st.integers(0, 2**32 - 1))
def test_candidate_bits_match_unpacking_every_row(n, rows, density, seed):
    # n % 8 != 0 leaves padding bits in the last byte of a row; density 0
    # and 1 give no bits and all bits, and about a third of the rows are zero
    rng = np.random.default_rng(seed)
    bits = rng.random((rows, n)) < density
    bits[rng.random(rows) < 1 / 3] = False
    cand = np.packbits(bits, axis=1)
    want = reference_candidate_bits(cand, n)
    for chunk in (syzygy._CHUNK_BYTES, 1, 5):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(syzygy, "_CHUNK_BYTES", chunk)
            got = syzygy._candidate_bits(cand)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == np.intp and np.array_equal(g, w)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, "reeve"]), st.integers(0, 10**6), st.integers(1, 2))
def test_pair_fiber_masks_match_pair_table(kind, seed, ell):
    # the probe's pair fibers against the pair table, on both code sets:
    # the irreducible pairs are the table's, one pair per distinct sum; the
    # pair sums' code set holds exactly the table's sums; and per distinct
    # pair sum, in sum order, the mask row marks exactly the points of its
    # pairs (both sides), at the default chunk size and at chunks of a few
    # mask rows (and of one row of pair sums on the dense table). At degree
    # 3 the sinks of every colliding sum share no point (the lemma in the
    # syzygy docstring)
    rng = random.Random(seed)
    if kind == "reeve":
        P = reeve_simplex(rng.choice(REEVE_RANGE))
    else:
        P = random_polytope(rng, kind, spread=2 if kind == 2 or ell == 1 else 1)
    C = build_configuration(P, ell)
    table = PairTable(C)
    with pytest.MonkeyPatch.context() as mp:
        [[((codes, box), _)]] = _spied(mp, "_pair_fibers", [(P, ell, 3)])
    want = [sorted({q for pair in pairs for q in pair})
            for _, pairs in sorted(table.by_sum.items())]
    every = (codes[:, None] + codes).reshape(-1)
    sums = np.unique(every)
    for bound, chunk in itertools.product(BOUNDS, (syzygy._CHUNK_BYTES, 1 << 8)):
        with pytest.MonkeyPatch.context() as mp:
            _bound(mp, bound)
            mp.setattr(syzygy, "_CHUNK_BYTES", chunk)
            irreducible = syzygy._pair_fibers(codes, box)
            pair_sums = syzygy._code_set(every, box)
            masks = syzygy._masks(sums, codes, syzygy._code_set(codes, box))
        assert irreducible[0].dtype == irreducible[1].dtype == np.int32
        assert sorted(zip(*(side.tolist() for side in irreducible))) == sorted(table.irreducible)
        assert len(sums) == len(want) and pair_sums.holds(sums).all()
        assert sorted((codes[irreducible[0]] + codes[irreducible[1]]).tolist()) == sums.tolist()
        assert not pair_sums.holds(np.setdiff1d(np.r_[sums - 1, sums + 1, -1, box], sums)).any()
        points = np.unpackbits(masks.view(np.uint8), axis=1, count=len(C))
        assert [np.flatnonzero(row).tolist() for row in points] == want, P.vertices
    adj = [0] * len(C)
    for i, j in table.irreducible:
        adj[i] |= 1 << j
    sinks = {}
    for idx in _multiset_cliques(adj, 3):
        b = tuple(map(sum, zip(*(C.points[i] for i in idx))))
        sinks.setdefault(b, []).append(set(idx))
    for group in sinks.values():
        for one, other in itertools.combinations(group, 2):
            assert not one & other, (P.vertices, ell, group)
