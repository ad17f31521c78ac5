"""End-to-end acceptance battery over the default corpus.

Each test verifies one headline guarantee of the toolkit against the
default corpus (seed 271828; dimensions 2, 3, 4; coordinate bound 4;
100 polytopes per dimension) plus the Reeve fixtures, and records a
single CRITERION line in the terminal summary.  The whole battery is
meant to run in well under five minutes, single-threaded but for the
two processes criterion 1 forks.
"""

import json
import multiprocessing
import subprocess
import sys
import time

import pytest

from polynorm import (
    DEFAULT_CORPUS_SPEC,
    REEVE_RANGE,
    autoregularity_from_definition,
    d_of_p,
    ehrhart_polynomial,
    extrapolation_check,
    generate_corpus,
    h_table,
    is_normal,
    n1_probe,
    normality_bound,
    np_bound_from_regularity,
    reciprocity_check,
    reeve_simplex,
    verify_corollary,
)
from test_corollary import oracle_verify_corollary

NORMAL = "normal-up-to-cap"


@pytest.fixture(scope="session")
def corpus():
    return generate_corpus(DEFAULT_CORPUS_SPEC)


@pytest.fixture(scope="session")
def reeve_fixtures():
    return [reeve_simplex(q) for q in REEVE_RANGE]


def _higher_cohomology_vanishes(P, m):
    """True when h^i(X, L^(m+1-i)) = 0 for every i >= 1."""
    n = P.dim
    tab = h_table(P, m + 1 - n, m)
    rows = {row["k"]: row["h"] for row in tab.to_jsonable()["rows"]}
    return all(rows[m + 1 - i][i] == 0 for i in range(1, n + 1))


def _oracle_sweep(P):
    bounds = normality_bound(P)
    return bounds, oracle_verify_corollary(P, bounds, extra_levels=2)


def test_criterion_1_corollary_sweep(corpus, reeve_fixtures, criterion_report):
    """Zero corollary violations at extra_levels=2, within the time budget.

    The dilate sweep, the oracle of verify_corollary, runs on 2 forked
    processes; its records, in corpus order, must equal verify_corollary's.
    """
    start = time.monotonic()
    polytopes = corpus + reeve_fixtures
    with multiprocessing.get_context("fork").Pool(2) as pool:
        oracle = pool.map(_oracle_sweep, polytopes, chunksize=1)
    violations = []
    mismatches = []
    for P, (bounds, expected) in zip(polytopes, oracle):
        record = verify_corollary(P, bounds, extra_levels=2)
        if record != expected:
            mismatches.append(P.polytope_id)
        if not expected.passed:
            violations.append((expected.polytope_id, expected.violations))
    elapsed = time.monotonic() - start
    ok = not violations and not mismatches and elapsed < 300.0
    criterion_report(f"CRITERION 1 (corollary sweep, extra_levels=2): "
                     f"{'PASS' if ok else 'FAIL'}")
    assert not mismatches, f"verify_corollary differs from the oracle: {mismatches[:5]}"
    assert not violations, f"corollary violations: {violations[:5]}"
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s, budget is 300s"


def test_criterion_2_autoregularity(corpus, criterion_report):
    """m(X) equals n-1-d(P) everywhere, and m-1 never satisfies the definition."""
    formula_bad = []
    minimality_bad = []
    for P in corpus:
        m = autoregularity_from_definition(P)
        if m != P.dim - 1 - d_of_p(P):
            formula_bad.append(P.polytope_id)
        if _higher_cohomology_vanishes(P, m - 1):
            minimality_bad.append(P.polytope_id)
    ok = not formula_bad and not minimality_bad
    criterion_report(f"CRITERION 2 (autoregularity formula + minimality): "
                     f"{'PASS' if ok else 'FAIL'}")
    assert not formula_bad, f"formula mismatches: {formula_bad[:5]}"
    assert not minimality_bad, f"m-1 wrongly regular: {minimality_bad[:5]}"


def test_criterion_3_ehrhart_reciprocity(corpus, criterion_report):
    """Exact reciprocity for t = 1..n+1 and exact extrapolation at n+1, n+2."""
    bad = []
    for P in corpus:
        poly = ehrhart_polynomial(P)
        if not (reciprocity_check(P, poly) and extrapolation_check(P, poly)):
            bad.append(P.polytope_id)
    ok = not bad
    criterion_report(f"CRITERION 3 (Ehrhart reciprocity + extrapolation): "
                     f"{'PASS' if ok else 'FAIL'}")
    assert not bad, f"reciprocity or extrapolation failures: {bad[:5]}"


def test_criterion_4_reeve_regression(reeve_fixtures, criterion_report):
    """The Reeve family behaves identically for q = 2..5."""
    bad = []
    for q, T in zip(REEVE_RANGE, reeve_fixtures):
        report = is_normal(T)
        witness = report.witness
        checks = {
            "non-normal": report.verdict == "non-normal",
            "witness": witness is not None
                       and witness.level == 2
                       and witness.point == (1, 1, 1),
            "d": d_of_p(T) == 1,
            "corollary_bound": normality_bound(T).corollary_bound == 2,
            "2T normal": is_normal(T.dilate(2), cap=4).verdict == NORMAL,
            "3T normal": is_normal(T.dilate(3), cap=4).verdict == NORMAL,
        }
        bad.extend(f"q={q}: {name}" for name, hit in checks.items() if not hit)
    ok = not bad
    criterion_report(f"CRITERION 4 (Reeve regression q=2..5): "
                     f"{'PASS' if ok else 'FAIL'}")
    assert not bad, f"Reeve regression failures: {bad}"


def test_criterion_5_dimension_2_totality(corpus, criterion_report):
    """Every 2-dimensional corpus polytope is normal and has connected fibers."""
    twos = [P for P in corpus if P.dim == 2]
    assert len(twos) == DEFAULT_CORPUS_SPEC.count_per_dim
    not_normal = [P.polytope_id for P in twos
                  if is_normal(P, cap=4).verdict != NORMAL]
    disconnected = [P.polytope_id for P in twos
                    if not n1_probe(P, 2, degree_cap=4).connected]
    ok = not not_normal and not disconnected
    criterion_report(f"CRITERION 5 (dimension-2 totality): "
                     f"{'PASS' if ok else 'FAIL'}")
    assert not not_normal, f"non-normal in dimension 2: {not_normal}"
    assert not disconnected, f"disconnected fibers in dimension 2: {disconnected}"


def test_criterion_6_cap_robustness(corpus, criterion_report):
    """Normality verdicts on the dimension-3 corpus agree at cap 2 and cap 6."""
    threes = [P for P in corpus if P.dim == 3]
    assert len(threes) == DEFAULT_CORPUS_SPEC.count_per_dim
    disagree = [P.polytope_id for P in threes
                if is_normal(P, cap=2).verdict != is_normal(P, cap=6).verdict]
    ok = not disagree
    criterion_report(f"CRITERION 6 (cap robustness, dim 3): "
                     f"{'PASS' if ok else 'FAIL'}")
    assert not disagree, f"cap-dependent verdicts: {disagree}"


def test_criterion_7_bound_dominance(corpus, criterion_report,
                                     np_dominance_failure):
    """np_bound_from_regularity(m, p) <= n-1+p for the autoregularity m of
    P, strictly when d(P) >= 2, except at p = 0 with d(P) = 0, where it
    equals n exactly.

    N_0 is normality of the dilate, and at p = 0 the regularity level is
    the corollary bound max(n-d, 1).  For d = 0 that is n, one above the
    paper's n-1, which is the classical normality bound and not a
    consequence of regularity.  Strictness fails only where the level
    clamps at 1 (p = 0, n = d = 2), which the corpus does not reach; the
    whole rule lives in the np_dominance_failure fixture.
    """
    bad = []
    not_corollary = []
    for P in corpus:
        bounds = normality_bound(P)
        n, d = bounds.n, bounds.d
        levels = [np_bound_from_regularity(autoregularity_from_definition(P), p)
                  for p in range(4)]
        for p, level in enumerate(levels):
            why = np_dominance_failure(n, d, p, level)
            if why:
                bad.append((P.polytope_id, n, d, p, level, why))
        if levels[0] != bounds.corollary_bound:
            not_corollary.append((P.polytope_id, n, d, levels[0],
                                  bounds.corollary_bound))
    ok = not bad and not not_corollary
    criterion_report(f"CRITERION 7 (bound dominance): {'PASS' if ok else 'FAIL'}")
    assert not bad, (
        f"{len(bad)} levels break the dominance rule "
        f"(id, n, d, p, level, why): {bad[:5]}")
    assert not not_corollary, (
        f"{len(not_corollary)} p = 0 levels differ from the corollary bound "
        f"(id, n, d, level, corollary_bound): {not_corollary[:5]}")


def test_criterion_8_determinism(tmp_path_factory, criterion_report):
    """Two verify-corpus invocations on one spec emit byte-identical JSON."""
    spec = {"seed": 11, "dims": [2, 3], "coord_bound": 3,
            "count_per_dim": 5, "vertex_candidates": 5}
    path = tmp_path_factory.mktemp("determinism") / "spec.json"
    path.write_text(json.dumps(spec))
    cmd = [sys.executable, "-m", "polynorm.cli",
           "verify-corpus", str(path), "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    criterion_report(f"CRITERION 8 (verify-corpus determinism): "
                     f"{'PASS' if ok else 'FAIL'}")
    assert first.stdout, "verify-corpus produced no output"
    assert first.stdout == second.stdout, "reports differ between invocations"
