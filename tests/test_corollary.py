"""verify_corollary against the dilate sweep it replaced.

verify_corollary decides the corollary from the multiplication statement
S_c. The oracle is the sweep that checks each dilate ell*P with is_normal,
in a frame whose axes are permuted so that 2P has the fewest lines along
the last one. Lattice point counts, normality verdicts and witnesses do
not see a permutation of coordinates; that invariance, tried over every
permutation, and the sweep as it runs in the input frame,
reference_verify_corollary, are the oracle's own oracles.
"""

import itertools
import operator
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polynorm import (
    DEFAULT_CORPUS_SPEC,
    REEVE_RANGE,
    BoundReport,
    CorollaryRecord,
    CorpusSpec,
    InvalidInputError,
    build_polytope,
    generate_corpus,
    is_normal,
    normality_bound,
    reeve_simplex,
    run_verification,
    scaled_count,
    verify_corollary,
    verify_witness,
)
from polynorm.geometry import HalfSpace, Polytope
import polynorm.geometry as geometry
import polynorm.harness as harness
import polynorm.normality as normality
from conftest import random_polytope
from test_normality import _sumset_verdict


def reference_verify_corollary(P, bounds, extra_levels=0, cap=None):
    """The sweep in the input frame: is_normal on each dilate ell*P of P itself."""
    lo = bounds.corollary_bound
    levels = tuple((ell, is_normal(P.dilate(ell), cap).witness)
                   for ell in range(lo, lo + extra_levels + 1))
    return CorollaryRecord(
        polytope_id=P.polytope_id, n=bounds.n, d=bounds.d, corollary_bound=lo,
        extra_levels=extra_levels, levels=levels)


def fewest_lines_frame(P):
    """P with its axes permuted so that 2P has the fewest lines along the last.

    Lines along axis i < n - 1 are keyed by the other coordinates, so
    grouping an input-frame scan of 2P by its prefix rows with column i
    dropped bounds their count by the sum of max hi - min lo + 1 over the
    groups; ranked columns group object scans exactly. The axis with the
    fewest moves last, a tie keeps P. A permutation maps facets to facets
    and keeps normals primitive, so no hull is needed.
    """
    slabs = list(normality._slabs(P, 2))
    X, lo, counts = (np.concatenate(a) for a in zip(*slabs))
    hi = lo + counts - 1
    ranks = np.empty(X.shape, dtype=np.int64)
    for j, column in enumerate(X.T):
        ranks[:, j] = np.unique(column, return_inverse=True)[1]
    lines = [len(X)]
    for i in range(P.dim - 1):
        _, first, group = np.unique(np.delete(ranks, i, axis=1), axis=0,
                                    return_index=True, return_inverse=True)
        top, bottom = hi[first], lo[first]
        np.maximum.at(top, group, hi)
        np.minimum.at(bottom, group, lo)
        lines.append(int((top - bottom + 1).sum()))
    axis = lines.index(min(lines)) - 1
    if axis < 0:
        return P
    move = operator.itemgetter(*[j for j in range(P.dim) if j != axis], axis)
    return Polytope(P.dim, tuple(sorted(map(move, P.vertices))),
                    tuple(sorted(HalfSpace(move(h.normal), h.offset) for h in P.facets)))


def oracle_verify_corollary(P, bounds, extra_levels=0, cap=None):
    """The dilate sweep: is_normal on each ell*P in the frame of
    fewest_lines_frame(P). A non-normal dilate is checked again in the
    input frame, so its witness is the input frame's lex-first.
    """
    lo = bounds.corollary_bound
    R = fewest_lines_frame(P)
    levels = []
    for ell in range(lo, lo + extra_levels + 1):
        rep = normality.is_normal(R.dilate(ell), cap)
        if not rep.is_normal:
            rep = normality.is_normal(P.dilate(ell), cap)
        levels.append((ell, rep.witness))
    return CorollaryRecord(
        polytope_id=P.polytope_id, n=bounds.n, d=bounds.d, corollary_bound=lo,
        extra_levels=extra_levels, levels=tuple(levels))


def permuted(P, perm):
    """The hull of P's vertices with coordinate perm[k] moved to place k."""
    return build_polytope([tuple(v[j] for j in perm) for v in P.vertices])


def rotated_reeve(q):
    """conv{0, e2, e3, (q,1,1)}: for q >= 5, 2P has the fewest lines along axis 0."""
    return build_polytope([(0, 0, 0), (0, 1, 0), (0, 0, 1), (q, 1, 1)])


def frame_is_permuted(P):
    """Whether fewest_lines_frame(P) is not P; if not, check it is P permuted.

    A permuted frame must equal the hull of P's vertices under some
    permutation of coordinates, facets included.
    """
    R = fewest_lines_frame(P)
    if R is P:
        return False
    assert any(R.vertices == Q.vertices and R.facets == Q.facets
               for Q in (permuted(P, perm)
                         for perm in itertools.permutations(range(P.dim))))
    return True


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10**6),
       st.sampled_from([None] + list(REEVE_RANGE)))
def test_permutations_keep_counts_verdicts_and_witnesses(n, seed, q):
    P = reeve_simplex(q) if q else random_polytope(random.Random(seed), n, spread=2)
    rep = is_normal(P)
    for perm in itertools.permutations(range(P.dim)):
        Q = permuted(P, perm)
        assert [scaled_count(Q, k) for k in (1, 2, 3)] == [
            scaled_count(P, k) for k in (1, 2, 3)]
        rep_q = is_normal(Q)
        assert (rep_q.verdict, rep_q.levels_checked) == (rep.verdict, rep.levels_checked)
        if rep_q.witness is not None:
            # map the witness back: place k of Q holds coordinate perm[k] of P
            point = [None] * P.dim
            for k, j in enumerate(perm):
                point[j] = rep_q.witness.point[k]
            assert verify_witness(P, rep_q.witness.level, point)


def test_sweep_matches_input_frame_sweep():
    rng = random.Random(1618)
    taken = 0
    for n in (2, 3, 4):
        for _ in range(5):
            P = random_polytope(rng, n, spread=2)
            bounds = normality_bound(P)
            rec = oracle_verify_corollary(P, bounds, 2)
            ref = reference_verify_corollary(P, bounds, 2)
            assert rec.to_jsonable() == ref.to_jsonable()
            assert rec == ref
            assert verify_corollary(P, bounds, 2) == rec
            taken += frame_is_permuted(P)
    assert taken > 0  # some dilates were checked in a permuted frame


def test_proved_levels_build_no_dilate():
    # a proved bound neither builds ell*P nor hashes its vertices: each
    # level holds no witness, and the records match the dilate sweep's.
    # Every vertices_id call, by any name, hashes with geometry.sha256. P's
    # own id is hashed first, as the record names P by it
    corpus = generate_corpus(DEFAULT_CORPUS_SPEC)
    polytopes = [reeve_simplex(q) for q in REEVE_RANGE] + corpus[::30]
    assert len(polytopes) == 4 + 10
    ids = [P.polytope_id for P in polytopes]
    bounds = [normality_bound(P) for P in polytopes]
    with mock.patch.object(Polytope, "dilate", side_effect=AssertionError("dilate built")), \
            mock.patch.object(geometry, "sha256", side_effect=AssertionError("id hashed")):
        records = [verify_corollary(P, b, 2) for P, b in zip(polytopes, bounds)]
    for P, b, rec, id_ in zip(polytopes, bounds, records, ids):
        assert rec.passed and rec.polytope_id == id_
        assert [witness for _, witness in rec.levels] == [None] * 3
        assert rec == oracle_verify_corollary(P, b, 2)


@pytest.mark.parametrize("q", [5, 6])
def test_violation_reports_the_input_frames_witness(q):
    # a forged bound of 1 puts the non-normal P itself into the sweep
    P = rotated_reeve(q)
    assert frame_is_permuted(P)
    bounds = BoundReport(3, 2)
    with mock.patch.object(normality, "is_normal", wraps=normality.is_normal) as spy:
        rec = oracle_verify_corollary(P, bounds, 1)
    checked = [call.args[0] for call in spy.call_args_list]
    # ell = 1 in the permuted frame, again in the input frame; then ell = 2
    assert checked[0] != P and checked[1] == P and len(checked) == 3
    assert rec == reference_verify_corollary(P, bounds, 1)
    assert rec.violations == (1,)
    witness = rec.levels[0][1]
    assert (witness.level, witness.point) == _sumset_verdict(P, 2)
    assert verify_witness(P, witness.level, witness.point)
    assert verify_corollary(P, bounds, 1) == rec


@pytest.mark.parametrize("q", REEVE_RANGE)
@pytest.mark.parametrize("make", [reeve_simplex, rotated_reeve])
def test_forged_bound_falls_back_to_the_input_frame(make, q):
    # BoundReport(3, 2) claims d = 2, so the bound is 1 and S_1, which the
    # non-normal P breaks at the lex-first witness of 2P, is computed; every
    # dilate is then checked by is_normal in the input frame
    P = make(q)
    bounds = BoundReport(3, 2)
    assert normality._first_gap(P, 1, 1) == (1, _sumset_verdict(P, 2)[1])
    rec = verify_corollary(P, bounds, 2)
    assert rec == reference_verify_corollary(P, bounds, 2)
    assert rec.violations == (1,)
    witness = rec.levels[0][1]
    assert (witness.level, witness.point) == _sumset_verdict(P, 2)


@pytest.mark.parametrize("forged", [False, True], ids=["proved", "violated"])
def test_sweep_checks_the_bound_alone_by_default(forged):
    # extra_levels defaults to 0: one record, at the bound, whether the
    # bound is proved or a forged one puts the non-normal P into the sweep
    P = reeve_simplex(2)
    bounds = BoundReport(3, 2) if forged else normality_bound(P)
    rec = verify_corollary(P, bounds)
    assert rec.extra_levels == 0
    assert [ell for ell, _ in rec.levels] == [bounds.corollary_bound]
    assert rec.passed != forged


@pytest.mark.parametrize("bounds", [
    BoundReport(5, 0), BoundReport(2, 1), BoundReport(3, -4), BoundReport(3, -1),
    BoundReport(3, 4),
])
def test_foreign_bound_report_is_refused(bounds):
    # a report for another dimension, or with d outside 0..n, cannot be P's:
    # relint((n+1)P) always holds a lattice point
    with pytest.raises(InvalidInputError):
        verify_corollary(reeve_simplex(2), bounds, 0)


def test_every_possible_d_is_accepted():
    # d = n is possible (the unimodular simplex has d = n), so 0..n all pass
    P = reeve_simplex(2)
    for d in range(4):
        rec = verify_corollary(P, BoundReport(3, d), 0)
        assert (rec.n, rec.d, rec.corollary_bound) == (3, d, max(3 - d, 1))


def test_thin_triangle_matches_input_frame_sweep():
    P = build_polytope([(0, 0), (100, 0), (0, 2)])
    assert frame_is_permuted(P)
    bounds = normality_bound(P)
    rec = oracle_verify_corollary(P, bounds, 2)
    assert rec == reference_verify_corollary(P, bounds, 2)
    assert verify_corollary(P, bounds, 2) == rec


def test_long_thin_triangle_scans_few_prefixes():
    # the input frame would scan about 27 N prefix rows and spend most of
    # its time in _line_gap; the frame choice itself scans 2P's 2 N + 1
    N = 10**4
    P = build_polytope([(0, 0), (N, 0), (0, 2)])
    rows = []
    scan = normality._slabs

    def counted(*args, **kwargs):
        for X, lo, counts in scan(*args, **kwargs):
            rows.append(len(X))
            yield X, lo, counts

    with mock.patch.object(normality, "_slabs", counted):
        rec = oracle_verify_corollary(P, normality_bound(P), 2)
    assert rec.passed
    assert sum(rows) <= 2 * N + 100
    assert verify_corollary(P, normality_bound(P), 2) == rec


@pytest.mark.parametrize("dims, candidates, computed", [((3,), 4, 64), ((4,), 5, 70)])
def test_corpus_where_the_paper_says_more_than_the_lemma(dims, candidates, computed):
    # the corollary makes ell*P normal from max(n - d, 1) up; below n - 1
    # that is the paper's own claim, which the sweep computes as S_c for c
    # in [max(n - d, 1), n - 2], a range that is nonempty iff d >= 2. The
    # default corpus computes it on 4 of its 304 polytopes; these specs, on
    # 64 of 104 in dim 3 (the Reeve fixtures ride along) and 70 of 100 in
    # dim 4. The counts are pinned, so that a generator change cannot drop
    # the coverage unseen
    n = dims[0]
    spec = CorpusSpec(seed=271828, dims=dims, coord_bound=2, count_per_dim=100,
                      vertex_candidates=candidates)
    ladders, sweeping = [], []
    sweep = harness.verify_corollary

    def spied_sweep(*args, **kwargs):
        sweeping.append(True)
        try:
            return sweep(*args, **kwargs)
        finally:
            sweeping.pop()

    def spied(ladder):
        def run(P, c_lo, c_hi):
            if sweeping:
                ladders.append((c_lo, c_hi))
            return ladder(P, c_lo, c_hi)
        return run

    with mock.patch.object(harness, "verify_corollary", spied_sweep), \
            mock.patch.object(normality, "_sum_ladder", spied(normality._sum_ladder)), \
            mock.patch.object(normality, "_line_ladder", spied(normality._line_ladder)):
        report = run_verification(spec, threads=1)
    assert report["summary"]["all_passed"]
    assert len(ladders) == computed
    assert all(1 <= c_lo <= c_hi == n - 2 for c_lo, c_hi in ladders)
    bounds = [p["corollary"]["corollary_bound"] for p in report["polytopes"]]
    assert sum(bound <= n - 2 for bound in bounds) == computed
