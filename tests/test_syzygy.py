"""Fiber enumeration and the degree-capped quadratic-generation probe.

The probe's shortcut machinery (descent sinks, point-share merging) is
cross-validated here against a plain reference: enumerate every fiber
exhaustively and BFS its move graph.
"""

import itertools
import random
from collections import deque

import pytest

from polynorm import (
    InvalidInputError,
    NotFullDimensionalError,
    build_configuration,
    build_polytope,
    enumerate_fiber,
    n1_probe,
)
from polynorm.syzygy import Fiber, _PairTable

CONNECTED = "quadratically connected up to cap"


class PairTable(_PairTable):
    """The probe's pair table plus the sum lookup the reference BFS needs."""

    def __init__(self, C):
        super().__init__(C)
        self._pos = {q: t for t, q in enumerate(C.points)}

    def pairs_with_sum(self, u, v):
        """All point pairs (p <= q) whose sum equals u + v."""
        pts = self.C.points
        s = self.enc_by_index[self._pos[u]] + self.enc_by_index[self._pos[v]]
        return [(pts[i], pts[j]) for i, j in self.pairs_by_sum().get(s, ())]


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


def random_polytope(rng, n, spread=2):
    while True:
        pts = [tuple(rng.randrange(-spread, spread + 1) for _ in range(n))
               for _ in range(n + 2)]
        try:
            return build_polytope(pts)
        except (InvalidInputError, NotFullDimensionalError):
            continue


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


def test_build_configuration_rejects_bad_ell(unit_square):
    with pytest.raises(InvalidInputError):
        build_configuration(unit_square, 0)


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
        P = random_polytope(rng, 2)
        rep = n1_probe(P, 1, 2)
        assert rep.per_degree[0].connected
        assert rep.per_degree[0].bfs_checked == 0


def test_probe_rejects_bad_cap(unit_square):
    with pytest.raises(InvalidInputError):
        n1_probe(unit_square, 1, 1)


def test_probe_report_json(unit_square):
    data = n1_probe(unit_square, 2, 3).to_jsonable()
    assert data["ell"] == 2
    assert data["cap"] == 3
    assert data["verdict"] == CONNECTED
    assert data["witness_fiber"] is None
    assert [row["degree"] for row in data["per_degree"]] == [2, 3]


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
        P = random_polytope(rng, n)
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
