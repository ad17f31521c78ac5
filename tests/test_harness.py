"""Corpus generation, single-polytope analysis, batch verification."""

import itertools
import json
import os
import pickle
import signal
import time
from collections import Counter

import pytest

from polynorm import (
    REEVE_RANGE,
    BoundReport,
    CorpusGenerationError,
    CorpusSpec,
    DEFAULT_CORPUS_SPEC,
    InvalidInputError,
    analyze,
    build_polytope,
    generate_corpus,
    h_table,
    is_normal,
    n1_probe,
    normality_bound,
    reeve_simplex,
    run_verification,
    scaled_count,
    verify_corollary,
)
import polynorm.counting as counting
import polynorm.errors as errors
import polynorm.geometry as geometry
import polynorm.harness as harness
import polynorm.normality as normality
import polynorm.syzygy as syzygy
from conftest import assert_no_child_left
from test_cli import TALL_SIMPLEX


def small_spec(**overrides):
    base = dict(seed=7, dims=(2,), coord_bound=3, count_per_dim=4,
                vertex_candidates=5)
    base.update(overrides)
    return CorpusSpec(**base)


def test_default_spec_frozen():
    assert DEFAULT_CORPUS_SPEC == CorpusSpec(
        seed=271828, dims=(2, 3, 4), coord_bound=4, count_per_dim=100,
        vertex_candidates=6)


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        small_spec(seed=-1)
    with pytest.raises(InvalidInputError):
        small_spec(seed=2**64)
    # enough candidates for dimension 5, so that only the dimension is refused
    with pytest.raises(InvalidInputError, match=r"^dims must lie in 1\.\.4, got \(5,\)$"):
        small_spec(dims=(5,), vertex_candidates=6)
    with pytest.raises(InvalidInputError):
        small_spec(dims=())
    with pytest.raises(InvalidInputError):
        small_spec(coord_bound=9)
    with pytest.raises(InvalidInputError):
        small_spec(coord_bound=0)
    with pytest.raises(InvalidInputError):
        small_spec(count_per_dim=-1)
    with pytest.raises(InvalidInputError):
        small_spec(dims=(3,), vertex_candidates=3)


@pytest.mark.parametrize("field, value, error", [
    ("seed", True, InvalidInputError),
    ("dims", (True, 2), InvalidInputError),
    ("count_per_dim", True, InvalidInputError),
    ("seed", 1.5, TypeError),
    ("coord_bound", 2.5, TypeError),
])
def test_spec_fields_are_integers(field, value, error):
    # built directly, as from_jsonable builds it: a boolean is not an
    # integer, and a float is not one either
    with pytest.raises(error):
        small_spec(**{field: value})


def test_spec_jsonable_round_trip():
    spec = small_spec(dims=(2, 3))
    assert CorpusSpec.from_jsonable(spec.to_jsonable()) == spec
    with pytest.raises(InvalidInputError):
        CorpusSpec.from_jsonable({**spec.to_jsonable(), "extra": 1})
    with pytest.raises(InvalidInputError):
        CorpusSpec.from_jsonable({"seed": 1})
    # JSON booleans are not integers, in scalar fields or in dims
    for field, value in (("seed", True), ("dims", [True, 2]), ("coord_bound", False)):
        with pytest.raises(InvalidInputError):
            CorpusSpec.from_jsonable({**spec.to_jsonable(), field: value})


def test_spec_vertex_candidates_have_a_ceiling():
    # coord_bound <= 8 and dims <= 4 leave at most 9^4 distinct candidates;
    # a spec asking for more is refused, not left to run for minutes a polytope
    spec = small_spec(vertex_candidates=2**16).to_jsonable()
    assert CorpusSpec.from_jsonable(spec).vertex_candidates == 2**16
    for value in (2**16 + 1, 10**8):
        with pytest.raises(InvalidInputError,
                           match=f"^vertex_candidates must be at most 65536, got {value}$"):
            CorpusSpec.from_jsonable({**spec, "vertex_candidates": value})


def test_corpus_deterministic():
    a = generate_corpus(small_spec())
    b = generate_corpus(small_spec())
    assert [P.polytope_id for P in a] == [P.polytope_id for P in b]
    assert len(a) == 4
    assert all(P.dim == 2 for P in a)


def test_corpus_seed_changes_output():
    a = generate_corpus(small_spec())
    b = generate_corpus(small_spec(seed=8))
    assert [P.polytope_id for P in a] != [P.polytope_id for P in b]


def test_corpus_minimal_support():
    # k = n+1 candidate points with B = 1 can only make triangles or squares
    spec = small_spec(coord_bound=1, count_per_dim=6, vertex_candidates=3)
    for P in generate_corpus(spec):
        assert len(P.vertices) in (3, 4)


def test_corpus_generation_error(monkeypatch):
    class Stuck:
        def __init__(self, seed):
            pass

        def randrange(self, *a):
            return 0

    monkeypatch.setattr(harness.random, "Random", Stuck)
    with pytest.raises(CorpusGenerationError):
        generate_corpus(small_spec())


def test_reeve_fixture_family():
    assert REEVE_RANGE == (2, 3, 4, 5)
    for q in REEVE_RANGE:
        T = reeve_simplex(q)
        assert T.vertices == ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, q))
    # q = 1 is a legitimate (normal) member; the parameter just has to be positive
    from polynorm import is_normal
    assert is_normal(reeve_simplex(1)).is_normal
    with pytest.raises(InvalidInputError):
        reeve_simplex(0)


def test_analyze_t2(t2):
    rec = analyze(t2)
    assert rec.n == 3
    assert rec.d == 1
    assert rec.codegree == 2
    assert rec.corollary_bound == 2
    assert rec.autoregularity == 1
    assert rec.normality.verdict == "non-normal"
    assert rec.normality.witness.point == (1, 1, 1)
    assert rec.consistent
    assert all(rec.checks.values())


def test_analyze_unit_square(unit_square):
    rec = analyze(unit_square)
    assert (rec.n, rec.d, rec.corollary_bound, rec.autoregularity) == (2, 1, 1, 0)
    assert rec.normality.verdict == "normal-up-to-cap"
    assert rec.consistent


def test_analyze_delta3(delta3):
    rec = analyze(delta3)
    assert (rec.n, rec.d, rec.corollary_bound, rec.autoregularity) == (3, 3, 1, -1)
    assert rec.normality.verdict == "normal-up-to-cap"


def test_analyze_np_bounds(t2):
    assert analyze(t2).np_bounds == ((0, 2), (1, 2), (2, 3), (3, 4))


def test_single_polytope_path_takes_dim_5():
    # the corpus stops at dim 4, but analyze and n1_probe take any dimension:
    # the 5-simplex and the 5-cube are normal, and their degree-k fibers at
    # ell 1 are the C(5 + k, k) and (k + 1)^5 points of their k-th dilates
    simplex = build_polytope([(0,) * 5] + [tuple(int(i == j) for j in range(5))
                                           for i in range(5)])
    cube = build_polytope(list(itertools.product((0, 1), repeat=5)))
    for P, fibers in ((simplex, [21, 56]), (cube, [243, 1024])):
        start = time.perf_counter()
        record = analyze(P)
        probe = n1_probe(P, 1, 3)
        assert time.perf_counter() - start < 1
        assert record.consistent and record.normality.is_normal
        assert probe.connected and [s.fibers for s in probe.per_degree] == fibers


INVARIANTS = ("d_of_p", "autoregularity_from_definition", "ehrhart_polynomial")


def count_invariant_calls(monkeypatch, names=INVARIANTS,
                          modules=(harness, normality, counting)) -> Counter:
    """Count calls of each named function, by default each invariant,
    wherever one of the modules looks it up."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in modules:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_analyze_computes_each_invariant_once(monkeypatch, t2):
    calls = count_invariant_calls(monkeypatch)
    rec = analyze(t2)
    assert calls == dict.fromkeys(INVARIANTS, 1)
    assert rec.np_bounds == ((0, 2), (1, 2), (2, 3), (3, 4))


def test_run_verification_computes_each_invariant_once(monkeypatch):
    # the Ehrhart checks and the corollary sweep reuse what analyze holds
    calls = count_invariant_calls(monkeypatch)
    rep = run_verification(small_spec(count_per_dim=2), extra_levels=1, n1_cap=3)
    assert rep["summary"]["all_passed"] is True
    assert calls == dict.fromkeys(INVARIANTS, 2)


def test_probe_lists_no_configuration(monkeypatch):
    # n1_probe codes the points of ell*P from one walk, without listing them
    calls = count_invariant_calls(monkeypatch, ("scaled_points_array",), (geometry,))
    for P in (reeve_simplex(2), build_polytope([(0, 0), (2, 0), (0, 3)])):
        assert n1_probe(P, 2, 4).per_degree
    assert calls == {}


def spy_counting(monkeypatch):
    """Record each walk of geometry._walk by its scales, and each
    scaled_count read of counting and syzygy as (module, scale, interior,
    whether P's memo held it)."""
    walks, reads = [], []
    walk = geometry._walk

    def walked(P, scales):
        walks.append(tuple(scales))
        return walk(P, scales)

    def recorder(module):
        read = module.scaled_count

        def recorded(P, scale=1, interior=False):
            hit = (scale, bool(interior)) in P._count_cache
            reads.append((module.__name__, scale, interior, hit))
            return read(P, scale, interior)
        return recorded

    monkeypatch.setattr(geometry, "_walk", walked)
    for module in (counting, syzygy):
        monkeypatch.setattr(module, "scaled_count", recorder(module))
    return walks, reads


@pytest.mark.parametrize("make", [
    lambda: reeve_simplex(2),
    lambda: generate_corpus(DEFAULT_CORPUS_SPEC)[200],
], ids=["reeve-2", "default-corpus-dim-4"])
def test_check_one_counts_in_one_walk(monkeypatch, make):
    # d(P), the Ehrhart polynomial, its checks, the autoregularity and
    # n1_probe's N all read the memo one walk over 1..n+2 fills
    P = make()
    n = P.dim
    walks, reads = spy_counting(monkeypatch)
    harness._check_one(P, extra_levels=2, n1_cap=4, cap=None)
    assert walks == [tuple(range(1, n + 3))]
    assert reads and all(hit and scale <= n + 2 for _, scale, _, hit in reads)
    assert (("polynorm.syzygy", n, False, True) in reads) == (n <= 3)
    lone = reeve_simplex(2)
    assert scaled_count(lone, 7) == 176  # L(t) = 1 + 5t/3 + t^2 + t^3/3
    assert walks[1:] == [(7,)]
    # alone, d(P) walks its scales one by one and stops at d + 1
    fresh = reeve_simplex(2)
    d = counting.d_of_p(fresh)
    assert walks[2:] == [(k,) for k in range(1, d + 2)]


def spy_walks(monkeypatch):
    """Record the polytope of each walk of geometry._walk."""
    walks, walk = [], geometry._walk

    def walked(P, *args):
        walks.append(P)
        return walk(P, *args)

    monkeypatch.setattr(geometry, "_walk", walked)
    return walks


def test_check_one_walks_each_polytope_once(monkeypatch):
    # the counting walk keeps the lines of P, 2P and 3P: the ladder, the
    # witness check, the sweep and the probe at ell = n read them, and the
    # check drops them when it ends
    corpus = generate_corpus(DEFAULT_CORPUS_SPEC)
    sample = corpus[::10] + [reeve_simplex(q) for q in REEVE_RANGE]
    assert Counter(P.dim for P in sample) == {2: 10, 3: 14, 4: 10}
    walks = spy_walks(monkeypatch)
    witnesses = 0
    for P in sample:
        record, _, _, probe = harness._check_one(P, extra_levels=2, n1_cap=4, cap=None)
        witnesses += record.normality.witness is not None
        assert (probe is not None) == (P.dim <= 3)
        assert P._lines == {}
    assert walks == sample
    assert witnesses >= 10


def test_reports_match_when_no_lines_are_kept(monkeypatch):
    # at _CHUNK_ROWS 3 no dilate past a triangle's own points is kept, so
    # the readers walk as they did before any line was kept, and the report
    # is the same
    spec = small_spec(dims=(2, 3, 4), count_per_dim=4)
    report = run_verification(spec, threads=1)
    walks = spy_walks(monkeypatch)
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", 3)
    assert run_verification(spec, threads=1) == report
    assert len(walks) > 3 * report["summary"]["polytope_count"]


def spy_line_frames(monkeypatch):
    """Record each LLL reduction, wherever a polynorm module looks up
    lll_reduce, each S_c ladder, a call of normality._first_gap, and the
    scale of each line table built."""
    reductions, ladders, tables = [], [], []
    for module in (geometry, normality, counting, syzygy, harness):
        if hasattr(module, "lll_reduce"):
            real = module.lll_reduce
            monkeypatch.setattr(module, "lll_reduce",
                                lambda gram, real=real: reductions.append(gram) or real(gram))
    climb = normality._first_gap
    monkeypatch.setattr(normality, "_first_gap",
                        lambda *args: ladders.append(args[1:]) or climb(*args))
    build = normality._LineTable.__init__
    monkeypatch.setattr(normality._LineTable, "__init__",
                        lambda self, *args: tables.append(args[2]) or build(self, *args))
    return reductions, ladders, tables


def test_only_the_ladder_builds_a_line_frame(monkeypatch):
    # the line frame is read by the line tables of the S_c ladder alone, so
    # counting, listing and the fiber probe build none; a ladder small
    # enough to sum lattice points builds none either, and one on line
    # tables builds one for all its tables
    reductions, ladders, tables = spy_line_frames(monkeypatch)
    corpus = generate_corpus(small_spec(dims=(2, 4), count_per_dim=1))
    for P in (reeve_simplex(2), *corpus):  # dims 3, 2 and 4
        fresh = lambda: build_polytope(P.vertices)
        h_table(fresh(), -3, 3)
        normality_bound(fresh())
        geometry.scaled_points_array(fresh(), 2)
        if P.dim <= 3:
            n1_probe(fresh(), P.dim, 4)
        assert reductions == [], P.vertices
    # every ladder of the default corpus's dims 3 and 4 sums points
    default = [P for P in generate_corpus(DEFAULT_CORPUS_SPEC) if P.dim >= 3]
    for P in default:
        is_normal(P)
    assert len(ladders) == len(default) and reductions == tables == []
    ladders.clear()
    # fat: more pair sums than probe gathers; tall: codes past int64; the
    # thin triangle conv{0, 2 e1, N e2}, N = 10^4: about N^2 pair sums
    cube = build_polytope(list(itertools.product((0, 4), repeat=3)))
    thin = build_polytope([(0, 0), (2, 0), (0, 10**4)])
    for P in (cube, build_polytope(TALL_SIMPLEX), thin):
        is_normal(P)
        assert len(reductions) == len(ladders) == 1, P.vertices
        assert tables == [1], P.vertices  # P's table: at the cap 2 S_1 fills none
        reductions.clear()
        ladders.clear()
        tables.clear()
    # 2 Delta_4 has d = 2, so its sweep climbs S_2 alone; the forged d of a
    # Reeve simplex makes its sweep fail S_1 and check each dilate apart.
    # Each of these ladders sums points
    double_simplex = build_polytope([(0,) * 4] + [tuple(2 * (i == j) for j in range(4))
                                                  for i in range(4)])
    bounds = normality_bound(double_simplex)
    assert (bounds.n, bounds.d) == (4, 2)
    assert verify_corollary(double_simplex, bounds, 2).passed
    assert ladders == [(2, 2)] and reductions == tables == []
    assert not verify_corollary(reeve_simplex(2), BoundReport(3, 2), 2).passed
    assert len(ladders) == 5 and reductions == tables == []


def test_corollary_bound_check_compares_the_regularity_path(monkeypatch, t2):
    # the corollary bound comes from d(P); the check recomputes it from the
    # autoregularity, so an autoregularity off by one must fail it
    assert analyze(t2).checks["corollary_bound_consistent"]
    real = harness.autoregularity_from_definition
    monkeypatch.setattr(harness, "autoregularity_from_definition",
                        lambda P: real(P) + 1)
    assert not analyze(t2).checks["corollary_bound_consistent"]


def test_codegree_check_reads_the_ehrhart_polynomial(monkeypatch, t2):
    # the codegree comes from L_P(-k), not from the interior counts behind
    # d_of_p, so a d(P) off by one must fail the check
    assert analyze(t2).checks["codegree_consistent"]
    real = harness.d_of_p
    monkeypatch.setattr(harness, "d_of_p", lambda P: real(P) + 1)
    assert not analyze(t2).checks["codegree_consistent"]


def test_run_verification_structure():
    rep = run_verification(small_spec(), extra_levels=1, n1_cap=3)
    assert sorted(rep) == ["parameters", "polytopes", "spec", "summary"]
    assert rep["summary"]["polytope_count"] == 4
    assert rep["summary"]["all_passed"] is True
    assert rep["summary"]["corollary_violations"] == []
    for entry in rep["polytopes"]:
        assert entry["kind"] == "corpus"
        assert entry["ehrhart_ok"] is True
        assert entry["analysis"]["checks"]
        assert entry["n1"]["verdict"] == "quadratically connected up to cap"


def test_run_verification_includes_reeve_fixtures():
    spec = small_spec(dims=(3,), count_per_dim=1, vertex_candidates=6)
    rep = run_verification(spec, extra_levels=0, n1_cap=2)
    labels = [e["label"] for e in rep["polytopes"] if e["kind"] == "fixture"]
    assert labels == ["reeve-2", "reeve-3", "reeve-4", "reeve-5"]
    assert rep["summary"]["polytope_count"] == 5
    no_fix = run_verification(spec, extra_levels=0, n1_cap=2,
                              include_fixtures=False)
    assert all(e["kind"] == "corpus" for e in no_fix["polytopes"])


def test_run_verification_deterministic():
    a = run_verification(small_spec(), extra_levels=1, n1_cap=3)
    b = run_verification(small_spec(), extra_levels=1, n1_cap=3)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_thread_count(monkeypatch):
    monkeypatch.delenv("POLYNORM_THREADS", raising=False)
    assert harness.thread_count() == 1
    monkeypatch.setenv("POLYNORM_THREADS", "3")
    assert harness.thread_count() == 3
    monkeypatch.setenv("POLYNORM_THREADS", "0")
    assert 1 <= harness.thread_count() <= 32
    assert harness.thread_count(2) == 2
    assert harness.thread_count(32) == 32


def test_thread_count_has_a_ceiling(monkeypatch):
    # each worker is a forked process of about 30 MB
    with pytest.raises(InvalidInputError, match="^thread count must be at most 32, got 33$"):
        harness.thread_count(33)
    monkeypatch.setenv("POLYNORM_THREADS", "100000")
    with pytest.raises(InvalidInputError,
                       match="^thread count must be at most 32, got 100000$"):
        harness.thread_count()


def fork_spy(monkeypatch):
    """The pids os.fork returns to this process, with forking left to the real call."""
    pids = []
    real = os.fork

    def spy():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def test_too_many_threads_are_refused_before_any_fork(monkeypatch):
    forks = fork_spy(monkeypatch)
    with pytest.raises(InvalidInputError, match="^thread count must be at most 32"):
        run_verification(small_spec(), extra_levels=0, n1_cap=2, threads=10**6)
    assert forks == []


@pytest.mark.parametrize("threads", [2, 3, 7])
def test_run_verification_threaded_matches_serial(threads):
    # dims 2, 3, 4 and the Reeve fixtures in strides of 2, 3 and 7 (uneven
    # shares): the workers finish in any order, and the report must still
    # come out in index order
    spec = small_spec(dims=(2, 3, 4), count_per_dim=2)
    serial = run_verification(spec, extra_levels=1, n1_cap=3, threads=1)
    threaded = run_verification(spec, extra_levels=1, n1_cap=3, threads=threads)
    assert [e["dim"] for e in serial["polytopes"]] == [2, 2, 3, 3, 4, 4, 3, 3, 3, 3]
    assert json.dumps(serial, sort_keys=True) == json.dumps(threaded, sort_keys=True)


ERROR_SAMPLES = (
    errors.PolynormError("base"),
    errors.InvalidInputError("bad input"),
    errors.NotFullDimensionalError(1, 2),
    errors.CorpusGenerationError("stuck"),
    errors.InternalInvariantError("bug"),
)


def test_every_error_survives_pickling():
    # a worker process's exception reaches run_verification's caller pickled
    classes = {obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert {type(exc) for exc in ERROR_SAMPLES} == classes
    for exc in ERROR_SAMPLES:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert back.args == exc.args
        assert vars(back) == vars(exc)
        assert str(back) == str(exc)


@pytest.mark.parametrize("exc", ERROR_SAMPLES, ids=lambda e: type(e).__name__)
def test_worker_exception_keeps_its_type(monkeypatch, exc):
    def fail(*args):
        raise exc

    # fork hands the patched module to the workers
    monkeypatch.setattr(harness, "verify_corollary", fail)
    spec = small_spec(count_per_dim=3)
    for threads in (1, 2):
        with pytest.raises(type(exc)) as caught:
            run_verification(spec, extra_levels=0, n1_cap=2, threads=threads)
        assert type(caught.value) is type(exc)
        assert str(caught.value) == str(exc)
        assert_no_child_left()


def test_forks_no_more_workers_than_items(monkeypatch):
    forks = fork_spy(monkeypatch)
    rep = run_verification(small_spec(count_per_dim=2), extra_levels=0, n1_cap=2,
                           threads=8)
    assert rep["summary"]["polytope_count"] == 2
    assert len(forks) == 2
    assert_no_child_left()
    run_verification(small_spec(count_per_dim=2), extra_levels=0, n1_cap=2, threads=1)
    assert len(forks) == 2


def fail_at(monkeypatch, spec, action):
    """Make the corollary sweep call action(i) on corpus polytope i of spec."""
    ids = [P.polytope_id for P in generate_corpus(spec)]
    assert len(set(ids)) == len(ids)
    real = harness.verify_corollary

    def sweep(P, *args):
        action(ids.index(P.polytope_id))
        return real(P, *args)

    # fork hands the patched module to the workers
    monkeypatch.setattr(harness, "verify_corollary", sweep)


@pytest.mark.parametrize("failing", [(3, 4), (2, 3)])
def test_the_lowest_failing_index_wins(monkeypatch, failing):
    # at 2 and 3 workers the two failing polytopes belong to different
    # workers, and in one of the two cases the lower index is the later
    # worker's: whichever worker is read first, the caller sees the error
    # one worker would have met first
    def action(i):
        if i in failing:
            kind = InvalidInputError if i == failing[0] else errors.InternalInvariantError
            raise kind(f"polytope {i}")

    spec = small_spec(count_per_dim=6)
    fail_at(monkeypatch, spec, action)
    for threads in (1, 2, 3):
        if threads > 1:
            assert failing[0] % threads != failing[1] % threads
        with pytest.raises(InvalidInputError, match=f"^polytope {failing[0]}$"):
            run_verification(spec, extra_levels=0, n1_cap=2, threads=threads)
        assert_no_child_left()


def test_a_worker_that_dies_is_an_internal_error(monkeypatch):
    def action(i):
        if i == 1:
            os._exit(3)

    def expire(signum, frame):
        raise TimeoutError("the run did not return")

    spec = small_spec(count_per_dim=3)
    fail_at(monkeypatch, spec, action)
    # a write end the dead worker left open would hang the read: fail instead
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        with pytest.raises(errors.InternalInvariantError,
                           match="^worker 1 exited with status 3, no results$"):
            run_verification(spec, extra_levels=0, n1_cap=2, threads=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()
