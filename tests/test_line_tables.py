"""The level checker's line tables, against the facet solver.

A line table holds the last-coordinate range of every line of sP, keyed by
the line coordinates z = U (x' - s o) of P's LLL-reduced prefix frame (U
from normality._line_frame, o the prefix of P's first vertex). The oracle
maps each z back to its prefix x' = s o + U^-1 z and solves the facets of
sP there with geometry._last_range, in exact Python ints. The tables
checked are the ones the line ladder of is_normal (normality._line_ladder)
fills: P's from its own scan, and sP's during the scan at level s, for level
s + 1 to read. The ladders here are called directly, as is_normal sends the
small ones among them to point sums.
"""

import itertools
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polynorm.geometry as geometry
import polynorm.normality as normality
from polynorm import (
    build_polytope,
    reeve_simplex,
    scaled_count,
)
from exact_linalg import det
from conftest import random_polytope
from test_large_coordinates import CASES as LARGE_CASES


def inverse(U):
    """Integer inverse of a unimodular matrix, by cofactors."""
    d = det(U)
    assert d in (1, -1)

    def minor(i, j):
        return [row[:j] + row[j + 1:] for r, row in enumerate(U) if r != i]

    return [[(-1) ** (i + j) * d * det(minor(j, i)) for j in range(len(U))]
            for i in range(len(U))]


def oracle_ranges(P, s, Z):
    """(lo, hi) of the line of sP at each row of Z, by its facets; lo > hi off sP."""
    k = P.dim - 1
    V = inverse(normality._line_frame(P))
    o = P.vertices[0][:-1]
    X = np.array([[s * o[i] + sum(V[i][j] * z[j] for j in range(k)) for i in range(k)]
                  for z in Z.tolist()], dtype=object).reshape(len(Z), k)
    A = np.array([h.normal for h in P.facets], dtype=object)
    b = np.array([s * h.offset for h in P.facets], dtype=object)
    r = b[:, None] - (A[:, :-1] @ X.T if k else np.zeros((len(A), len(Z)), dtype=object))
    return geometry._last_range(r, A[:, -1])


def box_grid(lo, hi):
    """Every integer point of the box [lo, hi], as int64 rows."""
    rows = list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(lo))


def assert_table_matches(P, s, table):
    """Rows in the box, on its pad and one step outside it match the oracle.

    Only P's table keeps its lines; for the tables of sP, s > 1, the row
    check over the box and past it stands in for the check of the lines.
    """
    corner, top = table.corner.tolist(), (table.corner + table.shape - 1).tolist()
    Z = box_grid([c - 1 for c in corner], [t + 1 for t in top])
    lo, hi = oracle_ranges(P, s, Z)
    t_lo, t_hi = table.ranges(Z)
    feasible = (lo <= hi).astype(bool)
    assert (t_lo <= t_hi).tolist() == feasible.tolist(), (P.vertices, s)
    assert t_lo[feasible].tolist() == lo[feasible].tolist()
    assert t_hi[feasible].tolist() == hi[feasible].tolist()
    if s == 1:
        # every row of the scan of P lands at its z, and nothing else is a line
        rows = [(tuple(z), a, b) for z, a, b in zip(*(a.tolist() for a in table.lines))]
        expected = [(tuple(z), a, b) for z, a, b, f
                    in zip(Z.tolist(), lo.tolist(), hi.tolist(), feasible) if f]
        assert sorted(rows) == sorted(expected)


def ladder_tables(P, cap):
    """(m, table_p, table_m, deltas) for each level m = 2..cap of the line
    ladder of is_normal(P, cap), normality._line_ladder(P, 1, cap - 1).

    These are the arguments the checker passes to _first_missing: P's
    table, the table of (m-1)P filled during the scan at level m - 1, and
    the probe offsets. _line_gap is stubbed to cover every line, so the
    ladder climbs to the cap even where P fails a level, and every table
    it fills is complete. The tables stay alive in the returned list.
    """
    with mock.patch.object(normality, "_line_gap", return_value=None), \
            mock.patch.object(normality, "_first_missing",
                              wraps=normality._first_missing) as spy:
        gap = normality._line_ladder(P, 1, cap - 1)
    assert gap is None and [call.args[1] for call in spy.call_args_list] == list(range(2, cap + 1))
    return [call.args[1:5] for call in spy.call_args_list]


def scanned_table(P, U, s, dtype, empty, chunk_rows):
    """The table of sP in P's line frame U, filled by a scan of sP alone, in
    chunks of chunk_rows prefixes."""
    table = normality._LineTable(P, U, s, dtype, empty)
    with mock.patch.object(geometry, "_CHUNK_ROWS", chunk_rows):
        for X, lo, counts in geometry._slabs(P, s):
            table.fill(normality._line_coords(P, U, s, X), lo, lo + counts - 1)
    return table


def twins(P, rng):
    """P translated, and P under a map that sends lines to lines: a unimodular
    shear of the prefix and the last coordinate plus a multiple of it."""
    n = P.dim
    t = [rng.randrange(-50, 51) for _ in range(n)]
    S = [[int(i == j) for j in range(n - 1)] for i in range(n - 1)]
    for _ in range(3 * (n - 1)):
        i, j = rng.sample(range(n - 1), 2) if n > 2 else (0, 0)
        f = rng.choice((-3, -2, 2, 3))
        if i != j:
            S[i] = [a + f * b for a, b in zip(S[i], S[j])]
    c = [rng.randrange(-4, 5) for _ in range(n - 1)]

    def shear(v):
        x = v[:-1]
        return tuple(sum(a * y for a, y in zip(row, x)) for row in S) + (
            v[-1] + sum(a * y for a, y in zip(c, x)),)

    return (build_polytope([tuple(a + b for a, b in zip(v, t)) for v in P.vertices]),
            build_polytope([shear(v) for v in P.vertices]))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6), st.integers(1, 3))
def test_tables_match_facet_solver(n, seed, s):
    rng = random.Random(seed)
    P = random_polytope(rng, n, spread=2 if n == 4 else 3)
    for Q in (P, *twins(P, rng)):
        # at level m = s + 1 the ladder reads the tables of P and sP
        _, table_p, table_s, _ = ladder_tables(Q, s + 1)[-1]
        assert_table_matches(Q, 1, table_p)
        assert_table_matches(Q, s, table_s)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6), st.integers(2, 4))
def test_filled_tables_match_tables_scanned_alone(n, seed, cap):
    # the table of sP that the ladder fills during the level-s scan, in that
    # scan's chunks, equals the table built by a scan of sP alone in chunks
    # of 7 prefixes; every table takes its row type and sentinel from the cap
    rng = random.Random(seed)
    P = random_polytope(rng, n, spread=2 if n == 4 else 3)
    for Q in (P, *twins(P, rng)):
        lo, hi = Q.bounding_box()
        far = cap * max(abs(lo[-1]), abs(hi[-1]))
        dtype, empty = geometry._narrowest(4 * (far + 1)), 2 * far + 1
        U = normality._line_frame(Q)
        for m, table_p, table_m, _ in ladder_tables(Q, cap):
            s = m - 1
            alone = scanned_table(Q, U, s, dtype, empty, 7)
            assert (table_m is table_p) == (s == 1)
            assert table_m.rows.dtype == alone.rows.dtype == np.dtype(dtype)
            assert table_m.corner.tolist() == alone.corner.tolist()
            assert table_m.shape.tolist() == alone.shape.tolist()
            assert np.array_equal(table_m.rows, alone.rows), (Q.vertices, cap, s)


def pad_cases():
    rng = random.Random(2718)
    # dim 5 has four prefix coordinates
    cases = [reeve_simplex(3), build_polytope([(0,), (5,)]),
             build_polytope([(0,) * 5, *((0,) * i + (1,) + (0,) * (4 - i) for i in range(4)),
                             (1, 1, 1, 1, 3)])]
    for n in (2, 3, 4):
        P = random_polytope(rng, n, spread=2)
        cases += [P, *twins(P, rng)]
    return cases


@pytest.mark.parametrize("P", pad_cases(), ids=repr)
def test_probes_stay_inside_their_tables(P):
    # every probe the checker makes reads a row inside its table's box: a
    # flat index past a pad would silently read another line's range. The
    # extremes are reached at the vertices of mP, so every pad is tight over
    # all the reads of its table across levels: P's table is read at every
    # level, and its pad (2, 2) is reached at -2 only by the reads at m = 2.
    reads = {}
    for m, table_p, table_m, deltas in ladder_tables(P, 4):
        Z = np.concatenate([normality._line_coords(P, table_p.U, m, X)
                            for X, _, _ in geometry._slabs(P, m)])
        Q = Z // m
        for table, probes in ((table_p, Q[:, None, :] + deltas),
                              (table_m, (Z - Q)[:, None, :] - deltas)):
            assert (probes >= table.corner).all(), (P.vertices, m)
            assert (probes < table.corner + table.shape).all(), (P.vertices, m)
            reads.setdefault(id(table), (table, []))[1].append(
                probes.reshape(len(Z) * len(deltas), P.dim - 1))
    assert len(reads) == 3  # the tables of P, 2P and 3P
    for table, probes in reads.values():
        probes = np.concatenate(probes)
        assert probes.min(axis=0).tolist() == table.corner.tolist()
        assert probes.max(axis=0).tolist() == (table.corner + table.shape - 1).tolist()


THIN_N = 10**5


@pytest.mark.parametrize("apex", [(THIN_N, THIN_N, THIN_N, 1),
                                  (THIN_N, 2 * THIN_N + 1, 3 * THIN_N - 1, 1)],
                         ids=["thin", "skewed"])
def test_thin_simplex_tables_stay_small(apex):
    # conv{0, e1, e2, e3, apex}: pi_3(P) is a needle of about N lattice
    # points in a box of N^3, so tables over the input-frame box would need
    # petabytes. In the reduced frame every table holds at most 64 rows per
    # lattice point of pi_3(sP) (the prefix lines of sP, with or without
    # lattice points): two axes of width 2, each padded by 4 rows, give
    # (2 + 4 + 1)^2 = 49 rows per point of the long axis.
    P = build_polytope([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), apex])
    with mock.patch.object(normality, "_first_missing",
                           wraps=normality._first_missing) as spy:
        gap = normality._line_ladder(P, 1, 2)
    assert gap is None  # normal up to the cap 3
    shadow = build_polytope([v[:-1] for v in P.vertices])
    for call in spy.call_args_list:
        _, m, table_p, table_m = call.args[:4]
        for s, table in ((1, table_p), (m - 1, table_m)):
            assert len(table.rows) <= 64 * scaled_count(shadow, s), (m, s)
    assert [call.args[1] for call in spy.call_args_list] == [2, 3]


@pytest.mark.parametrize("name", sorted(LARGE_CASES))
def test_tables_of_large_twins_match_facet_solver(name):
    # coordinates past int64: line coordinates and, where the last
    # coordinate is large, the rows themselves run in Python ints
    P = build_polytope(LARGE_CASES[name][0])
    (_, table_p, _, _), (_, _, table_2p, _) = ladder_tables(P, 3)
    assert_table_matches(P, 1, table_p)
    assert_table_matches(P, 2, table_2p)


@pytest.mark.parametrize("start, high, gap", [(2, 9, None), (2, 10, 10), (5, 9, 4)])
def test_line_gap_sweeps_the_union_of_every_pair(start, high, gap):
    # stand-ins for P's kept lines at z = 0, 1 and for (m-1)P's ranges at
    # z - z_a: the sums [0, 3] and [start, 9] in start order, so the line
    # [0, high] is covered only where the last sum, which reaches furthest,
    # joins the first
    table_p = SimpleNamespace(lines=(np.array([[0], [1]]), np.array([0, start]),
                                     np.array([3, 5])))
    table_m = SimpleNamespace(ranges=lambda Z: (np.zeros(len(Z), dtype=int), np.array([0, 4])))
    assert normality._line_gap(table_p, table_m, np.array([1]), 0, high) == gap
