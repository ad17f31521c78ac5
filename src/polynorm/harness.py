"""Seeded corpus generation, single-polytope analysis, batch verification.

Corpus generation must be bit-reproducible: it uses random.Random with
randrange only (stable across CPython versions) and consumes draws in a
fixed order, including for rejected samples. Batch reports carry no
timestamps and sort all set-like data, so identical inputs give identical
bytes at any worker count.
"""

from __future__ import annotations

import os
import pickle
import random
from dataclasses import dataclass
from functools import partial

from .counting import (
    BoundReport,
    EhrhartPolynomial,
    autoregularity_from_definition,
    d_of_p,
    ehrhart_polynomial,
    extrapolation_check,
    np_bound_from_regularity,
    reciprocity_check,
)
from .errors import (CorpusGenerationError, InternalInvariantError, InvalidInputError,
                     NotFullDimensionalError)
from .geometry import (_MAX_ROWS, LatticePoint, Polytope, _as_int, build_polytope, count_scales,
                       forget_lines)
from .normality import NormalityReport, _cap, is_normal, verify_corollary, verify_witness
from .syzygy import n1_probe

_RESAMPLE_LIMIT = 1000
_MAX_THREADS = 32


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic recipe for a random polytope corpus."""

    seed: int
    dims: tuple[int, ...]
    coord_bound: int
    count_per_dim: int
    vertex_candidates: int

    def __post_init__(self):
        if _as_int(self.seed, "seed", 0) >= 2**64:
            raise InvalidInputError(f"seed must fit in 64 bits, got {self.seed}")
        if not self.dims:
            raise InvalidInputError("dims must be nonempty")
        if any(_as_int(n, "dims entry", 1) > 4 for n in self.dims):
            raise InvalidInputError(f"dims must lie in 1..4, got {self.dims}")
        if _as_int(self.coord_bound, "coord_bound", 1) > 8:
            raise InvalidInputError(
                f"coord_bound must lie in 1..8, got {self.coord_bound}"
            )
        _as_int(self.count_per_dim, "count_per_dim", 0)
        # at most 9^4 distinct points fit coord_bound <= 8 and dims <= 4
        _as_int(self.vertex_candidates, "vertex_candidates", max(self.dims) + 1, 2**16)

    @classmethod
    def from_jsonable(cls, obj) -> "CorpusSpec":
        if not isinstance(obj, dict):
            raise InvalidInputError("corpus spec must be a JSON object")
        known = {"seed", "dims", "coord_bound", "count_per_dim", "vertex_candidates"}
        extra = set(obj) - known
        if extra:
            raise InvalidInputError(f"unknown corpus spec fields: {sorted(extra)}")
        missing = known - set(obj)
        if missing:
            raise InvalidInputError(f"corpus spec missing fields: {sorted(missing)}")
        try:
            return cls(
                seed=obj["seed"],
                dims=tuple(obj["dims"]),
                coord_bound=obj["coord_bound"],
                count_per_dim=obj["count_per_dim"],
                vertex_candidates=obj["vertex_candidates"],
            )
        except TypeError:
            raise InvalidInputError("corpus spec fields must be integers") from None

    def to_jsonable(self) -> dict:
        return {
            "seed": self.seed,
            "dims": list(self.dims),
            "coord_bound": self.coord_bound,
            "count_per_dim": self.count_per_dim,
            "vertex_candidates": self.vertex_candidates,
        }


DEFAULT_CORPUS_SPEC = CorpusSpec(
    seed=271828,
    dims=(2, 3, 4),
    coord_bound=4,
    count_per_dim=100,
    vertex_candidates=6,
)


def generate_corpus(spec: CorpusSpec) -> list[Polytope]:
    """Sampled full-dimensional polytopes, in a fixed deterministic order."""
    rng = random.Random(spec.seed)
    out = []
    for n in spec.dims:
        for _ in range(spec.count_per_dim):
            for _attempt in range(_RESAMPLE_LIMIT):
                pts = [
                    tuple(rng.randrange(spec.coord_bound + 1) for _ in range(n))
                    for _ in range(spec.vertex_candidates)
                ]
                try:
                    out.append(build_polytope(pts))
                except NotFullDimensionalError:
                    continue
                break
            else:
                raise CorpusGenerationError(
                    f"no full-dimensional polytope in {_RESAMPLE_LIMIT} tries "
                    f"(dim {n}, bound {spec.coord_bound}, "
                    f"{spec.vertex_candidates} candidates)"
                )
    return out


REEVE_RANGE = (2, 3, 4, 5)


def reeve_simplex(q: int) -> Polytope:
    """conv{0, e1, e2, (1,1,q)}; non-normal for every q >= 2."""
    q = _as_int(q, "Reeve parameter q", 1)
    return build_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, q)])


@dataclass(frozen=True)
class AnalysisRecord:
    """Everything the toolkit knows about one polytope, plus self-checks."""

    polytope_id: str
    vertices: tuple[LatticePoint, ...]
    n: int
    ehrhart: EhrhartPolynomial
    d: int
    codegree: int
    corollary_bound: int
    classical_n0_bound: int
    autoregularity: int
    np_bounds: tuple[tuple[int, int], ...]  # (p, level) for p = 0..3
    normality: NormalityReport
    checks: dict

    @property
    def consistent(self) -> bool:
        return all(self.checks.values())

    def to_jsonable(self) -> dict:
        return {
            "polytope_id": self.polytope_id,
            "vertices": [list(v) for v in self.vertices],
            "n": self.n,
            "ehrhart": self.ehrhart.to_jsonable(),
            "d": self.d,
            "codegree": self.codegree,
            "corollary_bound": self.corollary_bound,
            "classical_n0_bound": self.classical_n0_bound,
            "autoregularity": self.autoregularity,
            "np_bounds": [[p, lvl] for p, lvl in self.np_bounds],
            "normality": self.normality.to_jsonable(),
            "checks": dict(sorted(self.checks.items())),
        }


def analyze(P: Polytope, cap: int | None = None) -> AnalysisRecord:
    """Run counting, normality, and regularity on P and cross-check them."""
    cap = _cap(P, cap)  # refused before any walk
    count_scales(P, range(1, P.dim + 3))  # every count read here and in _check_one
    d = d_of_p(P)
    bounds = BoundReport(P.dim, d)
    auto_def = autoregularity_from_definition(P)
    report = is_normal(P, cap)
    ehrhart = ehrhart_polynomial(P)
    # L_P has degree n, so it is nonzero at some -k, k <= n + 1
    codegree = next(k for k in range(1, P.dim + 2) if ehrhart.evaluate(-k) != 0)
    checks = {
        "codegree_consistent": codegree == d + 1,
        "autoregularity_consistent": auto_def == P.dim - 1 - d,
        "corollary_bound_consistent":
            bounds.corollary_bound == np_bound_from_regularity(auto_def, 0),
        "witness_verified":
            verify_witness(P, report.witness.level, report.witness.point)
            if report.witness else True,
    }
    return AnalysisRecord(
        polytope_id=P.polytope_id,
        vertices=P.vertices,
        n=P.dim,
        ehrhart=ehrhart,
        d=d,
        codegree=codegree,
        corollary_bound=bounds.corollary_bound,
        classical_n0_bound=bounds.classical_n0_bound,
        autoregularity=auto_def,
        np_bounds=tuple((p, np_bound_from_regularity(auto_def, p)) for p in range(4)),
        normality=report,
        checks=checks,
    )


def thread_count(requested: int | None = None) -> int:
    """Resolve the worker process count: argument, else POLYNORM_THREADS, else 1.

    0 means auto (one per CPU); at most 32 either way, each a process of ~30 MB.
    """
    if requested is None:
        raw = os.environ.get("POLYNORM_THREADS")
        if raw is None or raw.strip() == "":
            return 1
        try:
            requested = int(raw)
        except ValueError:
            raise InvalidInputError(
                f"POLYNORM_THREADS must be an integer, got {raw!r}"
            ) from None
    requested = _as_int(requested, "thread count", 0, _MAX_THREADS)
    return requested or min(_MAX_THREADS, os.cpu_count() or 1)


def _check_one(P: Polytope, extra_levels: int, n1_cap: int, cap: int | None):
    """The records the report holds on P. Not P itself: a worker would send
    back its filled count memo and scan frame, which the report never reads.
    The lines analyze's counting walk keeps on P for the ladder, the witness
    check and the probe go when the check ends.
    """
    try:
        record = analyze(P, cap)
        sweep = verify_corollary(P, BoundReport(record.n, record.d), extra_levels, cap)
        ehrhart_ok = (reciprocity_check(P, record.ehrhart)
                      and extrapolation_check(P, record.ehrhart))
        probe = n1_probe(P, P.dim, n1_cap) if P.dim <= 3 else None
    finally:
        forget_lines(P)
    # ell = n >= n - 1 makes nP normal (the lemma verify_corollary rests on),
    # so every lattice point of its degree-k dilate is a fiber
    for s in probe.per_degree if probe else ():
        points = record.ehrhart.evaluate(P.dim * s.degree)
        if s.fibers != points:
            raise InternalInvariantError(
                f"{P.polytope_id}: {s.fibers} fibers of degree {s.degree} at ell = "
                f"{P.dim}, but L_P({P.dim * s.degree}) = {points}")
    return record, sweep, ehrhart_ok, probe


def _in_workers(check, polytopes: list, workers: int) -> list:
    """[check(P) for P in polytopes] on forked children, child w taking polytopes[w::workers]."""
    pids, pipes = [], []
    try:
        for w in range(workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as sink:  # closed before the next fork: EOF = w is gone
                if (pid := os.fork()) == 0:
                    try:
                        share = []
                        try:
                            for P in polytopes[w::workers]:
                                share.append(check(P))
                        except Exception as exc:  # the first error ends the share
                            share.append(exc)
                        sink.write(pickle.dumps(share))
                        sink.flush()
                        os._exit(0)
                    finally:  # never back into the caller's stack
                        os._exit(1)
                pids.append(pid)
        payloads = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    results = [None] * len(polytopes)
    for w, (payload, status) in enumerate(zip(payloads, statuses)):
        if status:  # a worker exits 0 only once its whole payload is out
            raise InternalInvariantError(f"worker {w} exited with status {status}, no results")
        share = pickle.loads(payload)
        results[w:w + len(share) * workers:workers] = share
    # each share runs in index order, so the first error here is one worker's first
    if error := next((r for r in results if isinstance(r, Exception)), None):
        raise error
    return results


def run_verification(spec: CorpusSpec, extra_levels: int = 2, n1_cap: int = 4,
                     cap: int | None = None, include_fixtures: bool = True,
                     threads: int | None = None) -> dict:
    """Analyze and verify a whole corpus; returns a JSON-ready report.

    Per polytope: analyze (with its internal consistency checks), the
    guaranteed-normality sweep, Ehrhart reciprocity and extrapolation, and
    for dims <= 3 the quadratic-generation probe at ell = n. Reeve
    simplices ride along as fixtures whenever dimension 3 is requested.
    Violations are report content, never exceptions.

    One worker (see `thread_count`) runs in-process; k > 1 forks at most k
    workers, which inherit this process's module state (fork is unsafe while
    other threads run). Worker w checks polytopes w, w + k, ... in order and stops
    at its first error while the others finish; the report and error match one worker's.
    """
    extra_levels = _as_int(extra_levels, "extra_levels", 0, _MAX_ROWS)
    n1_cap = _as_int(n1_cap, "n1_cap", 2)
    workers = thread_count(threads)
    cap = None if cap is None else _as_int(cap, "normality cap", 2, _MAX_ROWS)
    corpus = generate_corpus(spec)
    items: list[tuple[str, str | None, Polytope]] = [
        ("corpus", None, P) for P in corpus
    ]
    if include_fixtures and 3 in spec.dims:
        for q in REEVE_RANGE:
            items.append(("fixture", f"reeve-{q}", reeve_simplex(q)))

    check = partial(_check_one, extra_levels=extra_levels, n1_cap=n1_cap, cap=cap)
    workers = min(workers, len(items))
    if workers > 1:
        results = _in_workers(check, [P for _, _, P in items], workers)
    else:
        results = [check(P) for _, _, P in items]

    polytopes = []
    violations = []
    reciprocity_failures = []
    consistency_failures = []
    n1_disconnected = []
    for index, ((kind, label, P), (record, sweep, ehrhart_ok, probe)) in enumerate(
            zip(items, results)):
        polytopes.append({
            "index": index,
            "kind": kind,
            "label": label,
            "dim": P.dim,
            "analysis": record.to_jsonable(),
            "corollary": sweep.to_jsonable(),
            "ehrhart_ok": ehrhart_ok,
            "n1": probe.to_jsonable() if probe else None,
        })
        if not sweep.passed:
            violations.append(sweep.to_jsonable())
        if not ehrhart_ok:
            reciprocity_failures.append(P.polytope_id)
        if not record.consistent:
            consistency_failures.append(P.polytope_id)
        if probe is not None and not probe.connected:
            n1_disconnected.append(P.polytope_id)

    summary = {
        "polytope_count": len(polytopes),
        "corollary_violations": violations,
        "reciprocity_failures": reciprocity_failures,
        "consistency_failures": consistency_failures,
        "n1_disconnected": n1_disconnected,
        # a disconnection at ell = n contradicts the ell >= n-1+1 guarantee,
        # so it fails the batch just like a sweep violation
        "all_passed": not (violations or reciprocity_failures
                           or consistency_failures or n1_disconnected),
    }
    return {
        "spec": spec.to_jsonable(),
        "parameters": {
            "extra_levels": extra_levels,
            "n1_cap": n1_cap,
            "normality_cap": cap,
            "fixtures_included": bool(include_fixtures and 3 in spec.dims),
        },
        "polytopes": polytopes,
        "summary": summary,
    }
