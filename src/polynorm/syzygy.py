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

The next layer rests on one hop. If b - p - q is a (d-2)-point sum R for
a point p of one sink and q of another, the fiber holds the element
{p, q} + R, so G_b joins p and q; the points of each sink form a clique
of G_b, so the two sinks lie in one component. A group all of whose sinks
reach its first sink in one hop is connected, after d * d lookups a sink.
On the benchmark's probe3 corpus this settles 91 % of the colliding sums
of degree 3 and every sum of degree 4 that point-linking leaves open. The
groups left go on to breadth-first layers on G_b. They widen at every
degree by one mask row per value b - p of the frontier: the points q with
b - p - q a (d-2)-point sum, so each layer reads that one code set. A row
holds the points of the degree-(d-1) fiber of b - p, never empty: it holds
p's sink less p, or r + (b - p - r) for p reached from r.

Points and sums are int64 codes up to the top cap*ell
(geometry._code_scales). An edge of G_b is looked up by
code(b) - code(p) - code(q) among the codes of (d-2)-point sums, with no
digit check: on each axis the digit of b - p - q lies in [-2*span, d*span]
and that of a (d-2)-sum in [0, (d-2)*span] (span the width of ell*P's
box), so the two differ by at most d*span, below the radix, and equal codes
mean equal vectors.

Each set of codes (the sums of each degree) is kept in one of two forms,
chosen by the number of codes M of the box and the set's size (`_dense`).
Up to _DENSE_CODES, and _DENSE_SPREAD a member, it is a table of a byte a
code over [0, M) (0 absent, 1 once, 2 more): only the rows of colliding
sums are sorted, and a lookup is one gather, clipped onto an empty slot
outside the box. On such a box the N^2 ordered pair sums stream, a block
of rows at a time, into one int32 table of the least pair index per code,
which gives the irreducible pairs. Above either bound (a long edge spreads
few points over a large box), the codes are sorted arrays: one stable sort
lists the fibers (for the pair sums, their first pairs), and a lookup is a
binary search. The cliques grow breadth-wise, one degree at a time
(n1_probe). A disconnected fiber's sum, the witness, is its decoded code.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import Polytope, _as_int, _code_box, _code_scales, _decode_point, scaled_count

_CONNECTED = "quadratically connected up to cap"
_DISCONNECTED = "disconnected"

# bytes of one chunk of array work: the packed candidate rows scanned for
# nonzero bytes at once, the keys of a batch of colliding sums' points (8
# bytes each), and the mask lookups made at once (about 64 bytes each).
# The pair sums streamed at once (12 bytes each with their indices) take a
# fifth of it, and the edge lookups of `_join` (about 80 bytes each) a
# quarter; the mask rows gathered at once take an eighth of it (larger
# gathers ran no faster, and left the process holding more memory after
# the probe)
_CHUNK_BYTES = 1 << 22
# a code set is a dense table over the box [0, M) (`_DenseCodes`) when M is
# at most _DENSE_CODES and _DENSE_SPREAD per code of the set, else a sorted
# array: a table costs a pass over M whatever the set's size, and a byte a
# code (built through a transient 8-byte count); at cap 4 the probe holds
# three. At 2^20 a pass takes about a millisecond and three tables about 3
# MB. The default corpus's probes at ell = n hold at most 1,200 codes a
# member; reeve_simplex(10485)'s at ell = 1, 3 * 10^4 and more, where
# sorting the few codes costs less than a pass
_DENSE_CODES, _DENSE_SPREAD = 1 << 20, 1 << 12
# point pairs N(N+1)/2 of the largest configuration probed (N = 2895): on
# a dense box the pair stage holds a 4-byte first-pair table over the box
# and N^2 / 8 bytes of adjacency rows; on sorted arrays the N^2 ordered pair
# sums with their sort order take about 48 bytes a pair
_MAX_PAIRS = 1 << 22


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Indices where a run of equal values begins in a sorted array."""
    head = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=head[1:])
    return np.flatnonzero(head)


class _DenseCodes:
    """Sum codes in a box of at most _DENSE_CODES codes, looked up in one
    table of a byte a code: 0 for a code not in the set, 1 for a code held
    once, 2 for one held more often. Code c sits at c + 1, with an empty
    slot at either end, so a query clipped into the table lands on an
    empty slot when it lies outside the box."""

    def __init__(self, codes: np.ndarray, box: int):
        self.codes = codes
        self.table = np.empty(box + 2, dtype=np.uint8)
        np.minimum(np.bincount(codes + 1, minlength=box + 2), 2, out=self.table,
                   casting="unsafe")

    def repeated(self) -> np.ndarray:
        """The rows of the codes that repeat, in stable code order. Only
        they are sorted, as keys code * 2^k + row: all distinct, so any
        sort keeps rows of one code in order, and np.sort orders them
        faster than a stable argsort of the codes."""
        rows = np.flatnonzero(self.table[1:][self.codes] > 1)
        k = len(self.codes).bit_length()
        return np.sort(self.codes[rows] << k | rows) & ((1 << k) - 1)

    def holds(self, q: np.ndarray) -> np.ndarray:
        """Per int64 query code: is it one of the codes?"""
        return np.take(self.table, q + 1, mode="clip") != 0


class _SortedCodes:
    """Sum codes in a box past _DENSE_CODES: one stable sort of every row,
    and a binary search among the sorted distinct codes."""

    def __init__(self, codes: np.ndarray, box: int):
        self.order = np.argsort(codes, kind="stable")
        ordered = codes[self.order]
        self.starts = _run_starts(ordered)
        self.values = ordered[self.starts]

    def first(self) -> np.ndarray:
        """The first row of every distinct code, in code order."""
        return self.order[self.starts]

    def repeated(self) -> np.ndarray:
        sizes = np.diff(np.append(self.starts, len(self.order)))
        return self.order[np.repeat(sizes > 1, sizes)]

    def holds(self, q: np.ndarray) -> np.ndarray:
        at = np.minimum(np.searchsorted(self.values, q), len(self.values) - 1)
        return self.values[at] == q


def _dense(box: int, size: int) -> bool:
    """Do `size` codes in [0, box) take a dense table over the box? Yes
    when it holds at most _DENSE_CODES codes and _DENSE_SPREAD per code."""
    return box <= min(_DENSE_CODES, _DENSE_SPREAD * size)


def _code_set(codes: np.ndarray, box: int):
    """The codes, each in [0, box), grouped by value: `_DenseCodes` when
    `_dense`, else `_SortedCodes`; both answer repeated() and holds()
    alike."""
    return (_DenseCodes if _dense(box, len(codes)) else _SortedCodes)(codes, box)


def _pair_fibers(codes: np.ndarray, box: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j), the irreducible pair (i <= j) of every pair sum of the point
    codes: the first pair with its sum in index-lex order, which matches
    pair-lex order on the (lex sorted) points. It is read off the N^2
    ordered pairs in row-major order: a pair (i, j) with i > j comes after
    (j, i), which has the same sum, so the first pair with a sum has i <= j.
    On a dense box (`_dense` for N^2 codes) the sums stream, _CHUNK_BYTES //
    64 at a time, into an int32 table of the least pair index per code;
    else one stable sort of all N^2 sums finds the first pairs. Pair
    indices are int32."""
    n = len(codes)
    if _dense(box, n * n):
        first = np.full(box, n * n, dtype=np.int32)
        step = max(1, _CHUNK_BYTES // (64 * n))
        for r0 in range(0, n, step):
            sums = (codes[r0 : r0 + step, None] + codes).reshape(-1)
            np.minimum.at(first, sums, np.arange(r0 * n, r0 * n + len(sums), dtype=np.int32))
        first = first[first < n * n]
    else:
        first = _SortedCodes((codes[:, None] + codes).reshape(-1), box).first().astype(np.int32)
    return np.divmod(first, np.int32(n))


def _masks(values: np.ndarray, codes: np.ndarray, lookup) -> np.ndarray:
    """Mask rows of ceil(N/64) 64-bit words, one per value: row r marks, in
    np.packbits order, the points q for which values[r] - q is in the code
    set `lookup` (`codes` holds the point codes). Word rows let the search
    OR masks 8 bytes at a time; the rows are looked up _CHUNK_BYTES // 64
    points at a time."""
    n = len(codes)
    masks = np.zeros((len(values), -(-n // 64)), dtype=np.uint64)
    step = max(1, _CHUNK_BYTES // (64 * n))
    for r0 in range(0, len(values), step):
        held = lookup.holds(values[r0 : r0 + step, None] - codes)
        masks[r0 : r0 + step].view(np.uint8)[:, : -(-n // 8)] = np.packbits(held, axis=1)
    return masks


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
    chunk of rows, only the nonzero bytes are unpacked, to bits in column
    order. Both scans read booleans, which np.flatnonzero scans several
    times faster than bytes."""
    step = max(1, _CHUNK_BYTES // cand.shape[1])
    rows, cols = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for r in range(0, len(cand), step):
        nz = np.flatnonzero(cand[r : r + step] != 0) + r * cand.shape[1]
        bit = np.flatnonzero(np.unpackbits(cand.reshape(-1)[nz]).view(bool))
        k, b = np.divmod(nz, cand.shape[1])
        rows.append(k[bit >> 3])
        cols.append(8 * b[bit >> 3] + (bit & 7))
    return np.concatenate(rows), np.concatenate(cols)


def _any(hit: np.ndarray) -> np.ndarray:
    """Per row of a 2-d boolean array: is any entry set? An OR over the
    columns; a row-wise .any(axis=1) costs several times more on these
    narrow rows."""
    out = hit[:, 0].copy()
    for c in range(1, hit.shape[1]):
        out |= hit[:, c]
    return out


def _first_disconnected(sinks: np.ndarray, group: np.ndarray, sums: np.ndarray,
                        codes: np.ndarray, lookup) -> tuple[int | None, int]:
    """The first group `_sinks_connected` (same arguments) finds disconnected,
    or None, and how many groups the point-linking layer left open up to
    and including it (all of them when None). Searched in batches of sums
    whose keys (8 bytes each) fit _CHUNK_BYTES."""
    batch = max(1, _CHUNK_BYTES // (8 * len(codes)))
    checked = 0
    for g0 in range(0, len(sums), batch):
        rows = slice(*np.searchsorted(group, [g0, g0 + batch]))
        ok, linked = _sinks_connected(sinks[rows], group[rows] - g0,
                                      sums[g0 : g0 + batch], codes, lookup)
        if not ok.all():
            bad = int(np.argmin(ok))
            return g0 + bad, checked + int(np.count_nonzero(~linked[: bad + 1]))
        checked += int(np.count_nonzero(~linked))
    return None, checked


def _sinks_connected(sinks: np.ndarray, group: np.ndarray, sums: np.ndarray,
                     codes: np.ndarray, lookup) -> tuple[np.ndarray, np.ndarray]:
    """For each group of degree-d sink rows: is the fiber of its sum b
    connected, and are its sinks point-linked?

    `sinks` holds one clique per row, `group` its group number, ascending
    from 0 without gaps, `sums` the groups' codes b, `codes` the point codes,
    and `lookup` the code set (`_code_set`) of the (d-2)-point sums, the one
    set every layer reads. Exact once every fiber of degree d-1 is
    connected: by the lemma in the module docstring, the fiber is connected
    iff G_b joins the points of all its sinks. The layers, each on the
    groups the layers before left open:

    1. Point-linking, at d >= 4 only (at d = 3 no two sinks share a point,
       so none is point-linked): the points of one sink form a clique of
       G_b, so a sink that holds a reached point lends all its points,
       from each group's first sink until no sink is added. A group whose
       sinks this layer all reaches is point-linked.
    2. One hop: a sink that this layer finds an edge p q of G_b for, p
       from the group's first sink and q from its own, joins the first
       sink; the d * d lookups of b - p - q per sink run at once. A group
       all of whose sinks are joined is connected.
    3. The search (`_search`), over keys group * N + point, from the
       points of the joined sinks, until every sink of a group holds a
       reached point or its frontier is empty.
    """
    n, m, d = len(codes), len(sums), sinks.shape[1]
    keys = group.astype(np.int64)[:, None] * n + sinks
    first = _run_starts(group)
    seen = np.zeros(m * n, dtype=bool)
    lent = np.zeros(len(keys), dtype=bool)
    lent[first] = True
    seen[keys[first]] = True
    new = lent
    while d > 3 and new.any():
        seen[keys[new]] = True
        new = _any(seen[keys]) & ~lent
        lent |= new
    linked = np.logical_and.reduceat(lent, first)
    if linked.all():
        return linked, linked
    hop = np.flatnonzero(~lent & ~linked[group])
    hop = hop[_one_hop(sinks, group, first, sums, codes, lookup, hop)]
    lent[hop] = True
    connected = np.logical_and.reduceat(lent, first)
    # the search runs on the groups the first layers left open
    left = np.flatnonzero(~connected)
    if not len(left):
        return connected, linked
    seen[keys[hop]] = True
    rows = ~connected[group]
    group = np.searchsorted(left, group[rows])
    keys = group.astype(np.int64)[:, None] * n + sinks[rows]
    first, sums = _run_starts(group), sums[left]
    seen = seen.reshape(-1, n)[left].reshape(-1)
    _search(seen, keys, group, first, sums, codes, lookup)
    connected[left] = np.logical_and.reduceat(_any(seen[keys]), first)
    return connected, linked


def _one_hop(sinks, group, first, sums, codes, lookup, rows) -> np.ndarray:
    """Per sink row of `rows`: is b - p - q in `lookup` for some point p of
    its group's first sink and q of its own?"""
    head = codes[sinks[first[group[rows]]]]
    own = codes[sinks[rows]]
    pq = (head[:, :, None] + own[:, None, :]).reshape(len(rows), sinks.shape[1] ** 2)
    return _any(lookup.holds(sums[group[rows], None] - pq))


def _search(seen, keys, group, first, sums, codes, lookup):
    """The search of `_sinks_connected`, on `seen` in place: breadth-first
    layers on G_b. A layer tries the frontier (first every point reached so
    far, then the points the layer before reached) against the unseen
    points of the unreached sinks (`_join`), then, where a sink is still
    unreached, widens the frontier to all its neighbours (`_grow_by_masks`).
    A phase with no live group is skipped."""
    n, m = len(codes), len(sums)
    frontier = np.flatnonzero(seen)
    while len(frontier):
        layer = [frontier[:0]]
        for wide in (False, True):
            reached = _any(seen[keys])
            live = np.bincount(frontier // n, minlength=m) > 0
            live &= ~np.logical_and.reduceat(reached, first)
            frontier = frontier[live[frontier // n]]
            if not len(frontier):
                break
            if not wide:
                pool = np.zeros(len(seen), dtype=bool)
                pool[keys[~reached & live[group]]] = True
                pool = np.flatnonzero(pool)
                _join(seen, frontier, pool, sums, codes, lookup)
                layer.append(pool[seen[pool]])
            else:
                layer.append(_grow_by_masks(seen, frontier, sums, codes, lookup))
        frontier = np.concatenate(layer)


def _join(seen, frontier, pool, sums, codes, lookup):
    """Mark in `seen` each key of `pool` (ascending) that G_b joins to a
    frontier key of its group: b - p - q in `lookup`, _CHUNK_BYTES // 320
    lookups at a time (about ten 8-byte temporaries each)."""
    n, m = len(codes), len(sums)
    step = max(1, _CHUNK_BYTES // 320)
    # group g's pool keys are pool[start[g]:start[g + 1]]; pair t joins
    # frontier key i to pool key stop[i] + t - ends[i]
    start = np.searchsorted(pool, np.arange(m + 1) * n)
    g = frontier // n
    stop = start[g + 1]
    count = stop - start[g]
    ends = np.cumsum(count)
    base = sums[g] - codes[frontier % n]
    for t0 in range(0, int(ends[-1]), step):
        t = np.arange(t0, min(t0 + step, ends[-1]))
        i = np.searchsorted(ends, t, side="right")
        j = stop[i] + t - ends[i]
        seen[pool[j[lookup.holds(base[i] - codes[pool[j] % n])]]] = True


def _grow_by_masks(seen, frontier, sums, codes, lookup) -> np.ndarray:
    """The wide phase of `_search`, on `seen` in place; returns the keys it
    reached first. The neighbours of p in G_b are the points q with
    b - p - q in `lookup`: one mask row (`_masks`) per distinct value
    b - p of the frontier, ORed into the row of each group that reads it,
    _CHUNK_BYTES // 8 bytes of mask rows at a time."""
    n, m = len(codes), len(sums)
    frontier = np.sort(frontier)
    g = frontier // n
    wanted, at = np.unique(sums[g] - codes[frontier - g * n], return_inverse=True)
    masks = _masks(wanted, codes, lookup)
    step = max(1, _CHUNK_BYTES // (64 * masks.shape[1]))
    # row g ORs the masks of group g's frontier points
    grown = np.zeros((m, masks.shape[1]), dtype=np.uint64)
    for t0 in range(0, len(g), step):
        k = _run_starts(g[t0 : t0 + step])
        grown[g[t0 + k]] |= np.bitwise_or.reduceat(
            np.take(masks, at[t0 : t0 + step], axis=0), k)
    reached = np.unpackbits(grown.view(np.uint8), axis=1, count=n).reshape(-1).view(bool)
    new = np.flatnonzero(reached & ~seen)
    seen[new] = True
    return new


def n1_probe(P: Polytope, ell: int, degree_cap: int = 4) -> N1ProbeReport:
    """Check fiber connectivity for degrees 2..degree_cap.

    Degree d extends every degree-(d-1) clique k at once: the set bits of
    the packed candidate rows (the points adjacent to all of k's), found
    as the nonzero bytes and then their bits, pair k with each candidate
    j; the new clique appends j, its code is code[k] + code[j] and its
    candidate row cand[k] & adj[j]. The bits come out row-major, which
    keeps the cliques in index-lex order, so the code set of each degree
    lists the colliding sums in lex order, each with its sinks in
    index-lex order. A clique is kept as its parent k and its last point
    j, and only the sinks of colliding sums are spelled out. The codes are
    injective up to degree_cap; a configuration whose codes do not fit
    int64 (`_code_box`), or whose N(N+1)/2 point pairs pass _MAX_PAIRS (N
    read off the memoized `scaled_count`), is refused with
    InvalidInputError before any point is listed.

    Stops at the first disconnected fiber in sum order, decided as the
    module docstring describes, and reports it as the witness.
    """
    ell = _as_int(ell, "ell", 1)
    degree_cap = _as_int(degree_cap, "degree cap", 2)
    top = degree_cap * ell
    box = _code_box(P, top)
    if box is None:
        raise InvalidInputError("configuration spread too large to probe")
    N = scaled_count(P, ell)
    if N * (N + 1) // 2 > _MAX_PAIRS:
        raise InvalidInputError(f"configuration too large to probe: {N} points")
    _, point_codes = _code_scales(P, (ell,), top)
    # the packed adjacency rows: bit j of row i for each irreducible pair (i, j)
    i, j = _pair_fibers(point_codes, box)
    adj = np.zeros((N, -(-N // 8)), dtype=np.uint8)
    np.bitwise_or.at(adj, (i, j >> 3), (128 >> (j & 7)).astype(np.uint8))
    # lower[k]: the code set of the k-point sums
    lower = [None, _code_set(point_codes, box)]
    # per degree: each clique's parent clique of one degree less and last point
    parents, ends = [], []
    codes = point_codes
    cand = adj
    summaries = []
    witness_fiber = None
    for d in range(2, degree_cap + 1):
        k, j = _candidate_bits(cand)
        codes = codes[k] + point_codes[j]
        # the last degree frees the candidate rows before its fibers and search
        cand = cand[k] & adj[j] if d < degree_cap else None
        parents.append(k)
        ends.append(j)
        fibers = _code_set(codes, box)
        order = fibers.repeated()
        # each layer of the search at degree d reads the (d-2)-point sums
        lower.append(fibers if d + 2 <= degree_cap else None)
        sums = codes[order]
        starts = _run_starts(sums)
        group = np.zeros(len(order), dtype=np.intp)
        group[starts[1:]] = 1
        np.cumsum(group, out=group)
        # the cliques of every colliding sum, in sum order; all fibers of degree
        # < d are connected here, which _sinks_connected needs
        sinks = np.empty((len(order), d), dtype=np.int32)
        row = order
        for c in range(d - 1, 0, -1):
            sinks[:, c] = ends[c - 1][row]
            row = parents[c - 1][row]
        sinks[:, 0] = row
        # the distinct codes: one per run of repeated rows, and every other row
        count = len(codes) - len(order) + len(starts)
        if d == degree_cap:
            # the last degree's cliques live on in its sinks alone
            del codes, parents, ends, fibers, order, row, k, j
        bad, checked = _first_disconnected(sinks, group, sums[starts], point_codes,
                                            lower[d - 2])
        summaries.append(DegreeSummary(d, count, checked, bad is None))
        if bad is not None:
            witness_fiber = (d, *_decode_point(P, top, d * ell, sums[starts[bad]]))
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
