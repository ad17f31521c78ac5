"""Spans and counters recorded at polynorm's module boundaries, from outside.

The program has no tracing of its own, so the traced worker wraps public
functions at the places the program looks them up: in every module that
imports the name, and in the defining module when it calls the name itself
(that is how `np_bound_from_regularity` reaches `autoregularity_from_definition`).
A span records its name, start, end, parent span and polytope id; each thread
keeps its own parent stack, and a pool thread with an empty stack hangs its
spans under the main thread's open span. Counters come from arguments and
return values. Spans stay in memory until the worker ends.

A target that a later refactor removes or renames is listed in
`Recorder.missing` and skipped; the metrics that depend on it read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict


def _points(args, kwargs, result):
    return {"points": int(result)}


def _slab_points(args, kwargs, slab):
    return {"points": len(slab), "level_points": len(slab)}


def _array_points(args, kwargs, array):
    return {"points": len(array)}


def _verdict(args, kwargs, report):
    return {"levels": len(report.levels_checked), "nonnormal": int(not report.is_normal)}


def _fibers(args, kwargs, report):
    return {
        "fibers": sum(s.fibers for s in report.per_degree),
        "bfs_checked": sum(s.bfs_checked for s in report.per_degree),
    }


def _config_points(args, kwargs, config):
    return {"config_points": len(config)}


# (module, attribute, span name, counter)
TARGETS = (
    ("harness", "build_polytope", "geometry.hull", None),
    ("counting", "scaled_count", "geometry.count", _points),
    ("cohomology", "scaled_count", "geometry.count", _points),
    ("normality", "iter_scaled_slabs", "geometry.enum", _slab_points),
    ("normality", "scaled_points_array", "geometry.enum", _array_points),
    ("harness", "d_of_p", "counting.d_of_p", None),
    ("normality", "d_of_p", "counting.d_of_p", None),
    ("harness", "ehrhart_polynomial", "counting.ehrhart", None),
    ("counting", "ehrhart_polynomial", "counting.ehrhart", None),
    ("harness", "reciprocity_check", "counting.reciprocity", None),
    ("harness", "extrapolation_check", "counting.extrapolation", None),
    ("harness", "autoregularity_from_definition", "cohomology.autoreg", None),
    ("cohomology", "autoregularity_from_definition", "cohomology.autoreg", None),
    ("harness", "np_bound_from_regularity", "cohomology.np_bound", None),
    ("harness", "normality_bound", "normality.bound", None),
    ("normality", "normality_bound", "normality.bound", None),
    ("harness", "is_normal", "normality.is_normal", _verdict),
    ("normality", "is_normal", "normality.is_normal", _verdict),
    ("harness", "verify_corollary", "normality.corollary", None),
    ("harness", "verify_witness", "normality.witness", None),
    ("harness", "n1_probe", "syzygy.n1", _fibers),
    ("syzygy", "build_configuration", "syzygy.n1.config", _config_points),
    ("harness", "analyze", "harness.analyze", None),
    ("harness", "run_verification", "harness.run_verification", None),
)


class Recorder:
    """In-memory span store; create it on the main thread."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []  # (id, name, parent, pid, start, end, counts)
        self.missing: list[str] = []
        self.counter_errors: set[str] = set()
        self._next_id = itertools.count(1).__next__
        self._local = threading.local()
        self._main = self._stack()
        self._pids: dict = {}
        self._counted: set = set()
        self._lock = threading.Lock()
        self._polytope_type = None

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _pid(self, P) -> str:
        pid = self._pids.get(P)
        if pid is None:
            pid = self._pids[P] = P.polytope_id
        return pid

    def begin(self, name: str, args) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        pid = parent[3] if parent else None
        if pid is None and args and self._polytope_type is not None \
                and isinstance(args[0], self._polytope_type):
            pid = self._pid(args[0])
        entry = (self._next_id(), name, parent[0] if parent else None, pid,
                 time.perf_counter())
        stack.append(entry)
        return entry

    def finish(self, entry: tuple, stop: float, counts) -> None:
        self._stack().pop()
        self.spans.append(entry + (stop, counts))

    def _counts(self, name, count, args, kwargs, result):
        if count is None:
            return None
        try:
            counts = count(args, kwargs, result)
        except Exception:  # a changed return type must not end the run
            self.counter_errors.add(name)
            return None
        if name == "geometry.count":
            P = args[0]
            scale = args[1] if len(args) > 1 else kwargs.get("scale", 1)
            interior = args[2] if len(args) > 2 else kwargs.get("interior", False)
            key = (P, scale, bool(interior))
            with self._lock:
                counts["repeat"] = int(key in self._counted)
                self._counted.add(key)
        return counts

    def _wrap(self, fn, name, count):
        rec = self
        if inspect.isgeneratorfunction(fn):
            # one span per slab, covering only the time spent producing it
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    entry = rec.begin(name, args)
                    try:
                        item = next(it)
                    except StopIteration:
                        rec.finish(entry, time.perf_counter(), None)
                        return
                    except BaseException:
                        rec.finish(entry, time.perf_counter(), None)
                        raise
                    stop = time.perf_counter()
                    rec.finish(entry, stop, rec._counts(name, count, args, kwargs, item))
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = rec.begin(name, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.finish(entry, time.perf_counter(), None)
                raise
            stop = time.perf_counter()
            rec.finish(entry, stop, rec._counts(name, count, args, kwargs, result))
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        geometry = importlib.import_module("polynorm.geometry")
        self._polytope_type = getattr(geometry, "Polytope", None)
        for module_name, attr, name, count in self.targets:
            try:
                module = importlib.import_module(f"polynorm.{module_name}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, count))


# -- per-layer metrics ----------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, reach), min(stop, hi)
        if stop > start:
            total += stop - start
            reach = stop
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover.

    Children on other threads may overlap each other, so their union counts.
    """
    children = defaultdict(list)
    for sid, _name, parent, _pid, start, stop, _counts in spans:
        children[parent].append((start, stop))
    return {
        sid: (stop - start) - _covered(children[sid], start, stop)
        for sid, _name, _parent, _pid, start, stop, _counts in spans
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, untraced_work_s: float, traced_work_s: float) -> dict[str, float]:
    """Every per-layer metric of the benchmark, from one traced worker's spans."""
    own = self_times(spans)
    calls = defaultdict(int)
    totals = defaultdict(float)
    self_s = defaultdict(float)
    for sid, name, _parent, _pid, _start, _stop, counts in spans:
        calls[name] += 1
        for key, value in (counts or {}).items():
            totals[f"{name}.{key}"] += value
        # a span's self time counts toward its name and every dotted prefix
        parts = name.split(".")
        for k in range(1, len(parts) + 1):
            self_s[".".join(parts[:k])] += own[sid]

    # per-polytope time: the top-level calls that run_verification makes for
    # one polytope, summed by polytope id
    roots = {s[0]: s[5] - s[4] for s in spans if s[1] == "harness.run_verification"}
    per_polytope = defaultdict(float)
    for _sid, _name, parent, pid, start, stop, _counts in spans:
        if parent in roots and pid is not None:
            per_polytope[pid] += stop - start
    polytope_s = list(per_polytope.values())

    return {
        "geometry.hull.calls": calls["geometry.hull"],
        "geometry.hull.self_s": self_s["geometry.hull"],
        "geometry.count.calls": calls["geometry.count"],
        "geometry.count.repeat_frac":
            _ratio(totals["geometry.count.repeat"], calls["geometry.count"]),
        "geometry.count.points": totals["geometry.count.points"],
        "geometry.count.self_s": self_s["geometry.count"],
        "geometry.enum.points": totals["geometry.enum.points"],
        "geometry.enum.self_s": self_s["geometry.enum"],
        "geometry.enum.points_per_s":
            _ratio(totals["geometry.enum.points"], self_s["geometry.enum"]),
        "counting.ehrhart.calls": calls["counting.ehrhart"],
        "counting.d_of_p.calls": calls["counting.d_of_p"],
        "counting.self_s": self_s["counting"],
        "cohomology.autoreg.calls": calls["cohomology.autoreg"],
        "cohomology.self_s": self_s["cohomology"],
        "normality.is_normal.calls": calls["normality.is_normal"],
        "normality.levels": totals["normality.is_normal.levels"],
        "normality.level_points": totals["geometry.enum.level_points"],
        "normality.nonnormal": totals["normality.is_normal.nonnormal"],
        "normality.self_s": self_s["normality"],
        "normality.witness.self_s": self_s["normality.witness"],
        "syzygy.n1.calls": calls["syzygy.n1"],
        "syzygy.n1.config_points": totals["syzygy.n1.config.config_points"],
        "syzygy.n1.fibers": totals["syzygy.n1.fibers"],
        "syzygy.n1.bfs_checked": totals["syzygy.n1.bfs_checked"],
        "syzygy.n1.bfs_frac":
            _ratio(totals["syzygy.n1.bfs_checked"], totals["syzygy.n1.fibers"]),
        "syzygy.n1.self_s": self_s["syzygy.n1"],
        "harness.polytope_s.p50": statistics.median(polytope_s) if polytope_s else 0.0,
        "harness.polytope_s.max": max(polytope_s, default=0.0),
        "harness.speedup": _ratio(sum(polytope_s), sum(roots.values())),
        "harness.self_s": self_s["harness"],
        "trace.overhead_frac": _ratio(traced_work_s, untraced_work_s) - 1.0,
    }
