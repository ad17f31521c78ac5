"""Degree-capped probe of quadratic generation via fiber connectivity.

The embedding by ell*P gives the point configuration {(1, u)} over the
lattice points u of ell*P. For each degree d, the fiber of a target vector
b collects all size-d multisets of configuration points summing to b; the
toric ideal is quadratically generated iff every fiber is connected under
quadratic moves (swap a pair {u, v} for another pair {u', v'} with the
same sum). The probe checks degrees 2..cap and never claims more.

Checking every fiber by explicit enumeration is wasteful. Call a pair
(u, v), u <= v, irreducible when it is the lex-smallest pair with its sum.
Replacing a reducible pair inside a multiset by the lex-smallest pair with
the same sum strictly decreases the sorted multiset lexicographically, so
the descent always terminates at a multiset all of whose pairs are
irreducible: a clique of the irreducible-pair graph (with loops for
repeatable points). The lex-min element of every nonempty fiber is such a
clique, so clique sums enumerate exactly the nonempty fibers, and a fiber
whose sum matches a single clique is connected outright (every element
descends to that unique sink). Only fibers whose sum several cliques share
need an explicit breadth-first connectivity check.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import LatticePoint, Polytope, _as_point

_CONNECTED = "quadratically connected up to cap"
_DISCONNECTED = "disconnected"


@dataclass(frozen=True)
class PointConfiguration:
    """Homogenized lattice points (1, u) of a dilate, lex ordered."""

    points: tuple[LatticePoint, ...]
    n_plus_1: int

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class Fiber:
    target: tuple[int, ...]
    elements: tuple[tuple[LatticePoint, ...], ...]  # sorted multisets, lex order


def build_configuration(P: Polytope, ell: int) -> PointConfiguration:
    """Configuration of the embedding by ell*P."""
    ell = operator.index(ell)
    if ell < 1:
        raise InvalidInputError(f"ell must be >= 1, got {ell}")
    pts = tuple((1,) + u for u in P.dilate(ell).lattice_points())
    return PointConfiguration(points=pts, n_plus_1=P.dim + 1)


def enumerate_fiber(C: PointConfiguration, b) -> Fiber:
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
    out: list[tuple[LatticePoint, ...]] = []
    chosen: list[LatticePoint] = []

    def rec(start: int, k: int, rest: tuple[int, ...]):
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


# -- pair table ----------------------------------------------------------------

class _PairTable:
    """All unordered point pairs of a configuration, grouped by sum.

    The irreducible pair of a sum is the first in index-lex order, which
    matches pair-lex order on the (lex sorted) points. Built with numpy on
    an exact mixed-radix integer encoding of the sum vector.
    """

    def __init__(self, C: PointConfiguration):
        self.C = C
        pts = C.points
        n1 = C.n_plus_1
        N = len(pts)
        lo = [min(p[j] for p in pts) for j in range(1, n1)]
        hi = [max(p[j] for p in pts) for j in range(1, n1)]
        # digits of a pair sum along axis j range over [0, 2*span_j]
        radix = [2 * (h - l) + 1 for l, h in zip(lo, hi)]
        weights = [1] * len(radix)
        for j in range(len(radix) - 2, -1, -1):
            weights[j] = weights[j + 1] * radix[j + 1]
        total = 1
        for r in radix:
            total *= r
        if total >= 2**62:
            raise InvalidInputError("configuration spread too large to probe")
        self._lo = lo
        enc = np.array(
            [sum((p[j + 1] - lo[j]) * weights[j] for j in range(len(lo)))
             for p in pts],
            dtype=np.int64,
        )
        self._enc = enc
        self.enc_by_index = [int(e) for e in enc]
        sums = []
        ii = []
        jj = []
        for i in range(N):
            s = enc[i] + enc[i:]
            sums.append(s)
            ii.append(np.full(N - i, i, dtype=np.int32))
            jj.append(np.arange(i, N, dtype=np.int32))
        self._sums = np.concatenate(sums) if sums else np.empty(0, np.int64)
        self._i = np.concatenate(ii) if ii else np.empty(0, np.int32)
        self._j = np.concatenate(jj) if jj else np.empty(0, np.int32)
        # first occurrence in generation order = lex-min pair for that sum
        _, first = np.unique(self._sums, return_index=True)
        self.irreducible = [(int(self._i[t]), int(self._j[t])) for t in first]
        self._by_sum: dict[int, tuple[tuple[int, int], ...]] | None = None

    def pairs_by_sum(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Map from encoded pair sum to every index pair (i <= j) with that sum."""
        if self._by_sum is None:
            order = np.argsort(self._sums, kind="stable")
            svals = self._sums[order]
            si = self._i[order].tolist()
            sj = self._j[order].tolist()
            cuts = np.flatnonzero(svals[1:] != svals[:-1]) + 1
            starts = [0, *cuts.tolist(), len(svals)]
            table = {}
            for t in range(len(starts) - 1):
                a, b = starts[t], starts[t + 1]
                table[int(svals[a])] = tuple(zip(si[a:b], sj[a:b]))
            self._by_sum = table
        return self._by_sum


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _sinks_connected(sinks: list[tuple[int, ...]], table: _PairTable) -> bool:
    """Grow quadratic-move regions from every descent sink until they merge.

    Every fiber element reaches a sink by lex-min pair replacement, so the
    fiber is connected iff its sinks share one component. Elements are
    sorted index tuples; neighbors come from the precomputed pair table
    instead of a fiber enumeration. Regions grow from all sinks at once
    and unite when they touch, or as soon as a new element shares a point
    with another region: same-fiber elements with a common point have
    same-sum residues one degree down, and lower-degree fibers are already
    known connected when this runs, so the residue path lifts pointwise.
    The walk stops once a single region remains; exhausting the regions
    without a full merge proves disconnection (the move closure of every
    sink was then explored in full).
    """
    k = len(sinks)
    if k <= 1:
        return True
    by_sum = table.pairs_by_sum()
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


# -- the probe -----------------------------------------------------------------

@dataclass(frozen=True)
class DegreeSummary:
    degree: int
    fibers: int           # nonempty fibers at this degree
    bfs_checked: int      # fibers that needed the explicit connectivity check
    connected: bool


@dataclass(frozen=True)
class N1ProbeReport:
    polytope_id: str
    ell: int
    degree_cap: int
    verdict: str
    witness_degree: int | None
    witness_fiber: tuple[int, ...] | None
    per_degree: tuple[DegreeSummary, ...]

    @property
    def connected(self) -> bool:
        return self.verdict == _CONNECTED

    def to_jsonable(self) -> dict:
        return {
            "polytope_id": self.polytope_id,
            "ell": self.ell,
            "cap": self.degree_cap,
            "verdict": self.verdict,
            "witness_degree": self.witness_degree,
            "witness_fiber": list(self.witness_fiber) if self.witness_fiber else None,
            "per_degree": [
                {
                    "degree": s.degree,
                    "fibers": s.fibers,
                    "bfs_checked": s.bfs_checked,
                    "connected": s.connected,
                }
                for s in self.per_degree
            ],
        }


def _multiset_cliques(adj: list[int], size: int):
    """All size-`size` multisets {i_1 <= ... <= i_size} with every pair adjacent.

    adj[i] holds bits j >= i for admissible pairs; bit i itself marks an
    admissible repeat (loop). Yields index tuples.
    """
    n = len(adj)
    full = (1 << n) - 1
    chosen: list[int] = []

    def rec(cand: int, need: int):
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

    yield from rec(full, size)


def _sinks_point_linked(sinks: list[tuple[int, ...]]) -> bool:
    """True when the sinks chain together through shared points.

    Only valid once every lower-degree fiber is known to be connected: two
    sinks sharing a point p split as {p}+A and {p}+B with A, B same-sum
    multisets one degree down, and a connecting path down there lifts
    pointwise by p. Union-find over shared points settles such groups
    without a graph walk; a False return is inconclusive, not a
    disconnection proof.
    """
    k = len(sinks)
    if k <= 1:
        return True
    parent = list(range(k))

    ncomp = k
    first_with: dict[int, int] = {}
    for t, idx in enumerate(sinks):
        for i in set(idx):
            o = first_with.setdefault(i, t)
            if o != t:
                ra, rb = _find(parent, t), _find(parent, o)
                if ra != rb:
                    parent[ra] = rb
                    ncomp -= 1
                    if ncomp == 1:
                        return True
    return ncomp == 1


def n1_probe(P: Polytope, ell: int, degree_cap: int = 4) -> N1ProbeReport:
    """Check fiber connectivity for degrees 2..degree_cap.

    A unique descent sink proves a fiber connected without enumerating it,
    and sinks chained through shared points reduce to connectivity one
    degree down, so only sums whose sinks stay apart under both shortcuts
    get the breadth-first region merge. Stops at the first disconnected
    fiber and reports it as the witness.
    """
    degree_cap = operator.index(degree_cap)
    if degree_cap < 2:
        raise InvalidInputError(f"degree cap must be >= 2, got {degree_cap}")
    C = build_configuration(P, ell)
    table = _PairTable(C)
    pts = C.points
    N = len(pts)
    adj = [0] * N
    for i, j in table.irreducible:
        adj[i] |= 1 << j
    summaries = []
    witness_degree = None
    witness_fiber = None
    for d in range(2, degree_cap + 1):
        sums: dict[tuple[int, ...], list] = {}
        for idx in _multiset_cliques(adj, d):
            s = tuple(sum(pts[i][j] for i in idx) for j in range(C.n_plus_1))
            sums.setdefault(s, []).append(idx)
        collide = sorted(s for s, lst in sums.items() if len(lst) > 1)
        bad = None
        bfs_runs = 0
        for s in collide:
            sinks = sums[s]
            # all fibers of degree < d are connected at this point, which
            # _sinks_point_linked relies on
            if _sinks_point_linked(sinks):
                continue
            bfs_runs += 1
            if not _sinks_connected(sinks, table):
                bad = s
                break
        summaries.append(DegreeSummary(
            degree=d,
            fibers=len(sums),
            bfs_checked=bfs_runs,
            connected=bad is None,
        ))
        if bad is not None:
            witness_degree = d
            witness_fiber = bad
            break
    verdict = _CONNECTED if witness_fiber is None else _DISCONNECTED
    return N1ProbeReport(
        polytope_id=P.polytope_id,
        ell=ell,
        degree_cap=degree_cap,
        verdict=verdict,
        witness_degree=witness_degree,
        witness_fiber=witness_fiber,
        per_degree=tuple(summaries),
    )
