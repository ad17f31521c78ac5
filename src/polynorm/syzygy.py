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
descends to that unique sink).

A fiber of degree d >= 3 whose sum b several sinks share is decided on
points. Suppose every fiber of degree d-1 is connected; this holds because
the probe goes degree by degree and stops at the first disconnected fiber.
Let G_b join points p and q when b - p - q is a sum R of d-2 points, that
is, when some element {p, q} + R of the fiber holds both. Then the fiber
of b is connected iff G_b connects the points of its sinks: elements
{p}+A and {p}+B that share a point p are joined by a path from A to B in
their degree-(d-1) fiber, lifted by p; conversely a quadratic move keeps
d-2 >= 1 points, and the points of any one element form a clique of G_b.
One layered search on the graphs G_b of a batch of colliding sums
(`_sinks_connected`) decides them; it stops after the first batch that
holds a disconnected fiber. At degree >= 4 its first layer,
point-linking (the sinks chain through shared points), needs no lookup and
on the corpora settles most sums of degree 4. Degree 3 skips it, as it
could settle none: two sinks {p}+A and {p}+B of one sum share no point,
since A and B are irreducible pairs with the same sum and so are equal.
Degree 3 needs no lookup either: G_b joins p and q iff b - p - q is a
point r, that is iff q lies in a pair {q, r} of the pair fiber of b - p.
So the neighbours of p are the points of one pair fiber, and the one sort
of all pair sums that finds the irreducible pairs also gives, per pair
sum, a bit mask of the points of its pairs.

Sums are int64 codes in one mixed radix, so one stable sort lists the
fibers in lex order, each with its sinks in lex order. The lattice points
of ell*P span the box [lo, hi] of its vertices, so the radix comes from
P's box before any point is listed: digit j of a point is u_j - lo_j, in
[0, span_j], and radix cap*span_j + 1 keeps the code of every sum of at
most cap points injective, its first axis the most significant digit. A
configuration whose radix product reaches 2^62, where int64 sums could
overflow, is refused up front. An edge of G_b is looked up by
code(b) - code(p) - code(q) among the codes of (d-2)-point sums, with no
digit check: on each axis the digit of b - p - q lies in [-2*span, d*span]
and that of a (d-2)-sum in [0, (d-2)*span], so the two differ by at most
d*span < radix, and equal codes mean equal vectors; the same bound holds
for code(b) - code(p) among the pair sums at d = 3. The cliques grow
breadth-wise, one degree at a time: the set bits of the packed candidate
rows, nonzero bytes first and then their bits, extend all degree-(d-1)
cliques at once. A disconnected fiber's sum, the witness, is the sum of
the points of its first sink.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import LatticePoint, Polytope, _as_int, scaled_count, scaled_points_array

_CONNECTED = "quadratically connected up to cap"
_DISCONNECTED = "disconnected"

# bytes of one chunk of array work: the packed candidate rows scanned for
# nonzero bytes at once, the keys of a batch of colliding sums' points (8
# bytes each), the boolean blocks the pair masks are packed from and the
# edge lookups tried at once (about 64 bytes each); the mask rows gathered
# at once take an eighth of it (larger gathers ran no faster, and left the
# process holding more memory after the probe)
_CHUNK_BYTES = 1 << 22
# point pairs N(N+1)/2 of the largest configuration probed (N = 2895): its
# pair sums, their sort order and the pair indices take about 32 bytes a pair
_MAX_PAIRS = 1 << 22


@dataclass(frozen=True)
class PointConfiguration:
    """Homogenized lattice points (1, u) of a dilate, lex ordered."""

    points: tuple[LatticePoint, ...]
    n_plus_1: int

    def __len__(self):
        return len(self.points)


def build_configuration(P: Polytope, ell: int) -> PointConfiguration:
    """Configuration of the embedding by ell*P."""
    ell = _as_int(ell, "ell", 1)
    pts = tuple((1, *u) for u in scaled_points_array(P, ell).tolist())
    return PointConfiguration(points=pts, n_plus_1=P.dim + 1)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Indices where a run of equal values begins in a nonempty sorted array."""
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def _pair_fibers(codes: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray],
                                              tuple[np.ndarray, np.ndarray]]:
    """The pair fibers of the point codes, from one stable sort of every
    pair sum: (i, j), the irreducible pair (i <= j) of every pair sum, and
    (sums, masks), the sorted distinct pair sums and per sum a mask row of
    ceil(N/64) 64-bit words whose bytes, in np.packbits order, mark the
    points of its pairs (both sides). Word rows let the search OR masks 8
    bytes at a time.

    The irreducible pair is the first pair with its sum in index-lex order,
    which matches pair-lex order on the (lex sorted) points. Pair indices
    stay int32; the mask rows are packed from boolean blocks of at most
    _CHUNK_BYTES.
    """
    n = len(codes)
    # every pair i <= j in index-lex order
    i = np.repeat(np.arange(n, dtype=np.int32), np.arange(n, 0, -1))
    j = np.arange(len(i), dtype=np.int32) + i - i * (2 * n + 1 - i) // 2
    sums = codes[i] + codes[j]
    order = np.argsort(sums, kind="stable")
    sums = sums[order]
    i, j = i[order], j[order]
    del order
    starts = _run_starts(sums)
    # row[t]: the index of pair t's sum among the distinct sums
    row = np.zeros(len(sums), dtype=np.int32)
    row[starts[1:]] = 1
    np.cumsum(row, out=row)
    masks = np.empty((len(starts), -(-n // 64)), dtype=np.uint64)
    width = 64 * masks.shape[1]
    step = max(1, _CHUNK_BYTES // width)
    ends = np.append(starts, len(sums))
    for r0 in range(0, len(starts), step):
        r1 = min(r0 + step, len(starts))
        pairs = slice(ends[r0], ends[r1])
        at = (row[pairs] - r0) * width
        block = np.zeros((r1 - r0) * width, dtype=bool)
        block[at + i[pairs]] = True
        block[at + j[pairs]] = True
        masks[r0:r1] = np.packbits(block).view(np.uint64).reshape(r1 - r0, -1)
    return (i[starts], j[starts]), (sums[starts], masks)


# -- the probe -----------------------------------------------------------------

@dataclass(frozen=True)
class DegreeSummary:
    degree: int
    fibers: int           # nonempty fibers at this degree
    bfs_checked: int      # sums left open by point-linking, to the first disconnected one
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
            "per_degree": [asdict(s) for s in self.per_degree],
        }


def _candidate_bits(cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of every set bit of the bit-packed rows, row-major: per
    chunk of rows, only the nonzero bytes are unpacked, to bits in column order."""
    step = max(1, _CHUNK_BYTES // cand.shape[1])
    rows, cols = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for r in range(0, len(cand), step):
        nz = np.flatnonzero(cand[r : r + step]) + r * cand.shape[1]
        bit = np.flatnonzero(np.unpackbits(cand.reshape(-1)[nz]))
        k, b = np.divmod(nz[bit >> 3], cand.shape[1])
        rows.append(k)
        cols.append(8 * b + (bit & 7))
    return np.concatenate(rows), np.concatenate(cols)


def _held(seen: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Per row of keys: does it hold a seen key? An OR over the columns; a
    row-wise .any(axis=1) costs several times more on these narrow rows."""
    hit = seen[keys]
    out = hit[:, 0].copy()
    for c in range(1, hit.shape[1]):
        out |= hit[:, c]
    return out


def _first_disconnected(sinks: np.ndarray, group: np.ndarray, sums: np.ndarray,
                        codes: np.ndarray, near) -> tuple[int | None, int]:
    """The first group `_sinks_connected` (same arguments) finds disconnected,
    or None, and how many groups the point-linking layer left open up to
    and including it (all of them when None). Searched in batches of sums
    whose keys (8 bytes each) fit _CHUNK_BYTES."""
    batch = max(1, _CHUNK_BYTES // (8 * len(codes)))
    checked = 0
    for g0 in range(0, len(sums), batch):
        rows = slice(*np.searchsorted(group, [g0, g0 + batch]))
        ok, linked = _sinks_connected(sinks[rows], group[rows] - g0,
                                      sums[g0 : g0 + batch], codes, near)
        if not ok.all():
            bad = int(np.argmin(ok))
            return g0 + bad, checked + int(np.count_nonzero(~linked[: bad + 1]))
        checked += int(np.count_nonzero(~linked))
    return None, checked


def _sinks_connected(sinks: np.ndarray, group: np.ndarray, sums: np.ndarray,
                     codes: np.ndarray, near) -> tuple[np.ndarray, np.ndarray]:
    """For each group of degree-d sink rows: is the fiber of its sum b
    connected, and are its sinks point-linked?

    `sinks` holds one clique per row, `group` its group number, ascending
    from 0 without gaps, `sums` the groups' codes b, `codes` the point codes,
    and `near` the source of neighbours in G_b: at d = 3 the sorted distinct
    pair sums with their point masks (`_pair_fibers`), at d >= 4 the sorted
    distinct codes of the (d-2)-point sums. Exact once every fiber of
    degree d-1 is connected: by the lemma in the module docstring, the
    fiber is connected iff G_b joins the points of all its sinks.

    The search runs on every G_b at once, over keys group * N + point,
    from each group's first sink, until every sink of a group holds a
    reached point or its frontier is empty. At d = 3 no two sinks share a
    point, so none is point-linked; the neighbours of p in G_b are the
    points of the pair fiber of b - p, so a frontier point costs one
    search among the pair sums and an OR of its mask into its group's row,
    _CHUNK_BYTES // 8 bytes of mask rows at a time. At d >= 4 the first
    layer needs no lookup: the points of one sink form a clique of G_b, so
    a sink that holds a reached point lends all its points, until no sink
    is added. A group whose sinks this layer all reaches is point-linked.
    The other groups go on, in arrays cut down to them, in breadth-first
    layers on G_b that look up b - p - q among `near`: a layer tries the
    frontier (first every point reached so far, then the points the layer
    before reached) against the unseen points of the unreached sinks, then,
    where a sink is still unreached, against every unseen point,
    _CHUNK_BYTES // 64 lookups at a time; a phase with no live group is
    skipped.
    """
    n, m = len(codes), len(sums)
    keys = group.astype(np.int64)[:, None] * n + sinks
    first = _run_starts(group)
    seen = np.zeros(m * n, dtype=bool)
    seen[keys[first]] = True
    if sinks.shape[1] == 3:
        _grow_by_masks(seen, keys, first, sums, codes, *near)
        return np.logical_and.reduceat(_held(seen, keys), first), np.zeros(m, dtype=bool)
    lent = np.zeros(len(keys), dtype=bool)
    lent[first] = True
    new = lent
    while new.any():
        seen[keys[new]] = True
        new = _held(seen, keys) & ~lent
        lent |= new
    linked = np.logical_and.reduceat(lent, first)
    connected = linked.copy()
    # the later layers run on the groups the first one left open
    left = np.flatnonzero(~linked)
    if not len(left):
        return connected, linked
    rows = ~linked[group]
    group = np.searchsorted(left, group[rows])
    keys = group.astype(np.int64)[:, None] * n + sinks[rows]
    first, sums = _run_starts(group), sums[left]
    seen = seen.reshape(-1, n)[left].reshape(-1)
    _grow_by_lookups(seen, keys, group, first, sums, codes, near)
    connected[left] = np.logical_and.reduceat(_held(seen, keys), first)
    return connected, linked


def _grow_by_masks(seen, keys, first, sums, codes, pair_sums, masks):
    """The degree-3 search of `_sinks_connected`, on `seen` in place."""
    n, m = len(codes), len(sums)
    step = max(1, _CHUNK_BYTES // (64 * masks.shape[1]))
    frontier = np.flatnonzero(seen)
    while len(frontier):
        g = frontier // n
        live = ~np.logical_and.reduceat(_held(seen, keys), first)
        keep = live[g]
        frontier, g = frontier[keep], g[keep]
        rest = sums[g] - codes[frontier - g * n]
        at = np.minimum(np.searchsorted(pair_sums, rest), len(pair_sums) - 1)
        hit = pair_sums[at] == rest
        g, at = g[hit], at[hit]
        # row g ORs the masks of group g's frontier points
        grown = np.zeros((m, masks.shape[1]), dtype=np.uint64)
        for t0 in range(0, len(g), step):
            k = _run_starts(g[t0 : t0 + step])
            grown[g[t0 + k]] |= np.bitwise_or.reduceat(
                np.take(masks, at[t0 : t0 + step], axis=0), k)
        reached = np.unpackbits(grown.view(np.uint8), axis=1, count=n).reshape(-1).view(bool)
        frontier = np.flatnonzero(reached & ~seen)
        seen |= reached


def _grow_by_lookups(seen, keys, group, first, sums, codes, lower):
    """The degree >= 4 search of `_sinks_connected`, on `seen` in place."""
    n, m = len(codes), len(sums)
    step = max(1, _CHUNK_BYTES // 64)
    frontier = np.flatnonzero(seen)
    while len(frontier):
        layer = [frontier[:0]]
        for wide in (False, True):
            reached = _held(seen, keys)
            live = np.bincount(frontier // n, minlength=m) > 0
            live &= ~np.logical_and.reduceat(reached, first)
            frontier = frontier[live[frontier // n]]
            if not len(frontier):
                break
            if wide:
                pool = ~seen.reshape(-1, n) & live[:, None]
            else:
                pool = np.zeros(len(seen), dtype=bool)
                pool[keys[~reached & live[group]]] = True
            pool = np.flatnonzero(pool)
            # group g's pool keys are pool[start[g]:start[g + 1]]; pair t
            # joins frontier key i to pool key stop[i] + t - ends[i]
            start = np.searchsorted(pool, np.arange(m + 1) * n)
            g = frontier // n
            stop = start[g + 1]
            count = stop - start[g]
            ends = np.cumsum(count)
            base = sums[g] - codes[frontier % n]
            for t0 in range(0, int(count.sum()), step):
                t = np.arange(t0, min(t0 + step, ends[-1]))
                i = np.searchsorted(ends, t, side="right")
                j = stop[i] + t - ends[i]
                rest = base[i] - codes[pool[j] % n]
                at = np.minimum(np.searchsorted(lower, rest), len(lower) - 1)
                seen[pool[j[lower[at] == rest]]] = True
            layer.append(pool[seen[pool]])
        frontier = np.concatenate(layer)


def n1_probe(P: Polytope, ell: int, degree_cap: int = 4) -> N1ProbeReport:
    """Check fiber connectivity for degrees 2..degree_cap.

    Degree d extends every degree-(d-1) clique k at once: the set bits of
    the packed candidate rows (the points adjacent to all of k's), found
    as the nonzero bytes and then their bits, pair k with each candidate
    j; the new clique appends j, its code is code[k] + code[j] and its
    candidate row cand[k] & adj[j]. The bits come out row-major, which
    keeps the cliques in index-lex order, and a stable sort by code lists
    the fibers in lex order of their sums, each with its sinks in
    index-lex order. The codes are injective up to degree_cap; a
    configuration whose radix product reaches 2^62, or whose N(N+1)/2 point
    pairs pass _MAX_PAIRS (N read off the memoized `scaled_count`), is
    refused with InvalidInputError before any point is listed.

    Stops at the first disconnected fiber in sum order, decided as the
    module docstring describes, and reports it as the witness.
    """
    ell = _as_int(ell, "ell", 1)
    degree_cap = _as_int(degree_cap, "degree cap", 2)
    lo, hi = P.bounding_box()
    radix = [degree_cap * ell * (h - l) + 1 for l, h in zip(lo, hi)]
    if math.prod(radix) >= 2**62:
        raise InvalidInputError("configuration spread too large to probe")
    N = scaled_count(P, ell)
    if N * (N + 1) // 2 > _MAX_PAIRS:
        raise InvalidInputError(f"configuration too large to probe: {N} points")
    C = build_configuration(P, ell)
    weights = [math.prod(radix[j + 1 :]) for j in range(P.dim)]
    # an object corner: a list mixing ints past 2^63 and below 0 would be float64
    corner = np.array([ell * l for l in lo], dtype=object)
    digits = np.array(C.points, dtype=object)[:, 1:] - corner
    point_codes = (digits @ weights).astype(np.int64)
    irreducible, pairs = _pair_fibers(point_codes)
    adj = np.zeros((N, N), dtype=bool)
    adj[irreducible] = True
    adj = np.packbits(adj, axis=1)
    cliques = np.arange(N, dtype=np.int32)[:, None]
    codes = point_codes
    # distinct[k]: sorted distinct codes of k-point sums (points are lex sorted)
    distinct = [np.zeros(1, np.int64), point_codes]
    cand = adj
    summaries = []
    witness_fiber = None
    for d in range(2, degree_cap + 1):
        k, j = _candidate_bits(cand)
        cliques = np.column_stack((cliques[k], j.astype(np.int32)))
        codes = codes[k] + point_codes[j]
        # the last degree frees the candidate rows before its sort and search
        cand = cand[k] & adj[j] if d < degree_cap else None
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        starts = _run_starts(sorted_codes)
        distinct.append(sorted_codes[starts])
        sizes = np.diff(np.r_[starts, len(codes)])
        collide = np.flatnonzero(sizes > 1)
        # the cliques of every colliding sum, in sum order; all fibers of degree
        # < d are connected here, which _sinks_connected needs
        sinks = cliques[order[np.repeat(sizes > 1, sizes)]]
        group = np.repeat(np.arange(len(collide)), sizes[collide])
        sums = sorted_codes[starts[collide]]
        bad, checked = _first_disconnected(sinks, group, sums, point_codes,
                                            pairs if d == 3 else distinct[d - 2])
        if d == 3:
            pairs = None  # only degree 3 reads the pair masks
        summaries.append(DegreeSummary(d, len(starts), checked, bad is None))
        if bad is not None:
            sink = sinks[np.searchsorted(group, bad)].tolist()
            witness_fiber = tuple(map(sum, zip(*(C.points[i] for i in sink))))
            break
    verdict = _CONNECTED if witness_fiber is None else _DISCONNECTED
    return N1ProbeReport(
        polytope_id=P.polytope_id,
        ell=ell,
        degree_cap=degree_cap,
        verdict=verdict,
        witness_degree=witness_fiber[0] if witness_fiber else None,
        witness_fiber=witness_fiber,
        per_degree=tuple(summaries),
    )
