"""Normality testing with witnesses, and the corollary sweep over dilates.

A polytope P is normal when every lattice point of mP splits into a sum of
m lattice points of P, for every m >= 1. Checking levels in ascending order
buys a large shortcut: write T_1 = P cap Z^n and T_m = {z in mP cap Z^n :
z - a in T_{m-1} for some a in P cap Z^n}. By induction T_m is exactly the
m-fold sumset of P cap Z^n, and whenever levels 2..m-1 all passed, T_{m-1}
is all of (m-1)P cap Z^n. Level m thus checks S_{m-1}, where S_c is the
multiplication statement (cP cap Z^n) + (P cap Z^n) = (c+1)P cap Z^n. One
ladder (_first_gap) checks S_c for a run of c, exactly as the sumset
definition does, and computes c <= n - 2 alone: S_c for c >= n - 1 is the
lemma of Ewald-Wessels and Bruns-Gubeladze-Trung, so no cost grows with a
cap. is_normal climbs it from c = 1; the corollary sweep from max(n - d, 1).

The ladder runs one of two ways, picked by the sizes of P's dilates alone.
A small ladder sums points (_sum_ladder): P and each dilate it reaches are
coded, one at a time, as int64 codes that add as the points do, and the
pair sums of cP x P mark the codes of (c+1)P. A ladder whose codes would
pass int64 or _MAX_LIST_BYTES, or whose pair sums outnumber the gathers of
the probe loop (_first_missing, 4^(n-1) per line of (c+1)P), sums intervals
(_line_ladder): on lines (fixed prefixes of the first n-1 coordinates) the
lattice points of P and of cP are integer intervals, and so are their
sums. The intervals of P and cP are read from line tables: dense arrays of
each line's last-coordinate range, keyed by line coordinates in a
unimodular, LLL-reduced frame of the prefixes, so a thin or sheared P gets
a small table. (c+1)P is walked in the input frame, which keeps lex order
and the witnesses, one scan per scale: the walk of (c+1)P that checks S_c
fills the table that S_{c+1} reads, and the line ladder alone builds the
frame of its tables.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .counting import BoundReport
from .errors import InvalidInputError
from .geometry import (_MAX_LIST_BYTES, _MAX_ROWS, LatticePoint, Polytope, _as_int, _as_point,
                       _code_box, _codes, _decode_point, _inside, _narrowest, _slabs,
                       scaled_count)
from .linalg import lll_reduce


def default_cap(n: int) -> int:
    """Default highest sumset level checked: n-1, but never below 2."""
    return max(n - 1, 2)


@dataclass(frozen=True)
class NormalityWitness:
    """A lattice point of level*P that is not a sum of `level` points of P."""

    level: int
    point: LatticePoint

    def to_jsonable(self) -> dict:
        return {"level": self.level, "point": list(self.point)}


@dataclass(frozen=True)
class NormalityReport:
    """is_normal's verdict; of levels_checked, those up to n - 1 are computed."""

    polytope_id: str
    cap_used: int
    levels_checked: tuple[int, ...]
    verdict: str  # "normal-up-to-cap" | "non-normal"
    witness: NormalityWitness | None

    @property
    def is_normal(self) -> bool:
        return self.verdict == "normal-up-to-cap"

    def to_jsonable(self) -> dict:
        return {
            "polytope_id": self.polytope_id,
            "cap_used": self.cap_used,
            "levels_checked": list(self.levels_checked),
            "verdict": self.verdict,
            "witness": self.witness.to_jsonable() if self.witness else None,
        }


# -- level checks -------------------------------------------------------------

_PAIR_CHUNK = 1 << 20  # pair sums _sum_ladder holds at once, but at least one row of cP


def _probe_deltas(k: int) -> np.ndarray:
    """Candidate offsets in Z^k around z // m, nearest first: a (4^k, k) array.

    {0, 1}^k comes first, then the rest of {-1..2}^k by max |x|, then by
    sum |x|; ties go in lex order.
    """
    d = np.indices((4,) * k, dtype=np.int64).reshape(k, 4**k).T - 1
    ring = ((d < 0) | (d > 1)).any(axis=1)
    size = np.abs(d)
    return d[np.lexsort((*d.T[::-1], ring * size.sum(axis=1),
                         ring * size.max(axis=1, initial=0), ring))]


def _line_frame(P: Polytope) -> list[list[int]]:
    """Rows of a unimodular U on Z^{n-1}, LLL-reduced under pi_{n-1}(P)'s covariance."""
    X = np.array([v[:-1] for v in P.vertices], dtype=object)
    S = X.sum(axis=0)
    return lll_reduce((len(X) * (X.T @ X) - np.outer(S, S)).tolist())


def _line_coords(P: Polytope, U, s: int, X) -> np.ndarray:
    """z = U (x' - s o) for the prefix rows X of s*P, as int64 rows.

    U is P's line frame (_line_frame) and o the prefix of P's first vertex.
    The products run in int64 when X fits it and n - 1 times |U| times
    s*P's box stays below 2^63, else in Python ints; z itself lies in the
    box of a _LineTable, so it fits.
    """
    lo, hi = P.bounding_box()
    k = P.dim - 1
    size = (k * s * max((h - l for l, h in zip(lo[:k], hi[:k])), default=0)
            * max((abs(u) for row in U for u in row), default=0))
    dtype = np.int64 if X.dtype != object and size < 2**63 else object
    U = np.array(U, dtype=dtype).reshape(k, k)
    origin = np.array([s * x for x in P.vertices[0][:k]], dtype=dtype)
    return ((X.astype(dtype) - origin) @ U.T).astype(np.int64)


class _LineTable:
    """[lo, hi] of every line of s*P, dense over a padded box of line coordinates.

    The line at prefix x' sits at z = _line_coords(P, U, s, x'). The table's
    U, _line_frame(P), is unimodular, so z runs over Z^{n-1} as x' does, and
    its rows are short under the covariance of pi_{n-1}(P)'s vertices, so
    the box of z over s*P is small even where P is thin and sheared in the
    input frame. The box is s times that of the z of P's vertices, so rows,
    (lo, hi) per point of the box widened by a pad (below, above) on every
    axis in C order, starts as (empty, -empty) and fill writes the lines of
    a scan of s*P. A table built by scan also keeps lines: the z, lo and hi
    of the lines of s*P in scan order; _line_gap reads P's.

    Every z of mP lies in m times P's box [K0, K1] of z (P's vertices have
    integer z), so per axis z // m lies in [K0, K1] and z - z // m in
    (m-1)[K0, K1]. The probes z // m + delta, delta in {-1..2}^(n-1), thus
    stay in P's box padded by (1, 2), and z - z // m - delta in (m-1)P's
    padded by (2, 1); at m = 2 P's table serves both, so it is padded by
    (2, 2). A smaller pad would read another line's row.

    Row values are last coordinates of sP, s < top = c_hi + 1 (_line_ladder),
    at most far = top times P's largest in absolute value: from the top,
    not from m, as a table filled at level m is read at level m + 1. A
    missing line reads (2 far + 1, -2 far - 1): added to any row, it gives
    a range that starts above and ends below every last coordinate of mP,
    so it covers nothing.
    The rows take the narrowest type that holds 4 (far + 1): int32 even
    where the scan of mP needs int64 for its facet values or point count,
    as on thin simplices.
    """

    def __init__(self, P: Polytope, U, s: int, dtype, empty: int):
        self.U = U
        corners = _line_coords(P, U, 1, np.array([v[:-1] for v in P.vertices], dtype=object))
        self.corner = s * corners.min(axis=0) - 2
        self.shape = s * corners.max(axis=0) + (2 if s == 1 else 1) - self.corner + 1
        self.strides = np.array([self.shape[i + 1:].prod() for i in range(P.dim - 1)],
                                dtype=np.int64)
        self.rows = np.empty((int(np.prod(self.shape)), 2), dtype=dtype)
        self.rows[:] = (empty, -empty)

    def scan(self, P: Polytope, s: int):
        """Fill the lines of a scan of s*P and keep their z, lo and hi; self."""
        lines = []
        for X, lo, counts in _slabs(P, s):
            Z = _line_coords(P, self.U, s, X)
            lines.append((Z, *self.fill(Z, lo, lo + counts - 1)))
        self.lines = tuple(np.concatenate(a) for a in zip(*lines))
        return self

    def fill(self, Z, lo, hi):
        """Write [lo, hi] at the lines at Z; return lo and hi in the row type."""
        lo, hi = lo.astype(self.rows.dtype), hi.astype(self.rows.dtype)
        self.rows[self.index(Z)] = np.stack((lo, hi), axis=1)
        return lo, hi

    def index(self, Z):
        """Flat row index of each row of Z, all inside the box."""
        flat = np.zeros(len(Z), dtype=np.int64)
        for j, stride in enumerate(self.strides.tolist()):
            flat += Z[:, j] * stride  # column by column: integer @ is slow
        return flat - int(self.corner @ self.strides)

    def ranges(self, Z):
        """(lo, hi) at each row of Z; (empty, -empty) outside the box.

        Row 0 lies on the pad below s*P on every axis, so it is empty and
        stands in for each z outside the box.
        """
        inside = ((Z >= self.corner) & (Z < self.corner + self.shape)).all(axis=1)
        return self.rows.take(np.where(inside, self.index(Z), 0), axis=0).T


def _first_missing(P: Polytope, m: int, table_p: _LineTable, table_m: _LineTable,
                   deltas: np.ndarray, table_next: _LineTable | None) -> LatticePoint | None:
    """Lex-first point of mP missing from T_m, given T_{m-1} = (m-1)P cap Z^n.

    mP is walked by lines: a prefix x' of the first n-1 coordinates with
    its last-coordinate interval [L, H]. The lattice points of P on line a'
    plus those of (m-1)P on line x' - a' fill the interval
    [loP(a') + loM(x'-a'), hiP(a') + hiM(x'-a')], and a point of line x'
    is in T_m iff one of these covers it. loP, hiP, loM and hiM are read
    from table_p and table_m, the line tables of P and (m-1)P, keyed by
    line coordinates z (see _LineTable). With z the coordinates of x', the
    lines z // m + delta of P, delta a row of deltas, nearest first, and
    z - z // m - delta of (m-1)P shrink each line's uncovered part from
    both ends; each probe is one row gather per table at a fixed offset
    from the line's base rows. A line left uncovered gets the union over
    every line of P (_line_gap). Before a chunk of lines is probed, its
    rows go into table_next, mP's table for level m + 1, unless it is None.
    mP itself is scanned in the input frame, so lines come in lex order. L
    and H keep the element type of that scan; the tables take their own.
    """
    steps = list(zip((deltas @ table_p.strides).tolist(),
                     (-(deltas @ table_m.strides)).tolist()))
    for X, L, counts in _slabs(P, m):
        H = L + counts - 1
        Z = _line_coords(P, table_p.U, m, X)
        if table_next is not None:
            table_next.fill(Z, L, H)
        Q = Z // m
        at_p, at_m = table_p.index(Q), table_m.index(Z - Q)
        alive = np.arange(len(X))
        for step_p, step_m in steps:
            p_lo, p_hi = table_p.rows.take(at_p + step_p, axis=0).T
            m_lo, m_hi = table_m.rows.take(at_m + step_m, axis=0).T
            s_lo, s_hi = p_lo + m_lo, p_hi + m_hi
            L = np.where((s_lo <= L) & (L <= s_hi), s_hi + 1, L)
            H = np.where((s_lo <= H) & (H <= s_hi), s_lo - 1, H)
            open_ = L <= H
            if not open_.all():
                alive, L, H = alive[open_], L[open_], H[open_]
                at_p, at_m = at_p[open_], at_m[open_]
                if not len(alive):
                    break
        for i, low, high in zip(alive.tolist(), L.tolist(), H.tolist()):
            gap = _line_gap(table_p, table_m, Z[i], low, high)
            if gap is not None:
                return tuple(int(x) for x in X[i]) + (gap,)
    return None


def _line_gap(table_p: _LineTable, table_m: _LineTable, z, low: int,
              high: int) -> int | None:
    """First point of [low, high] (low <= high) on the line at z of mP left uncovered.

    Each line of P, at z_a in table_p.lines, pairs with the line at z - z_a
    of (m-1)P, read from table_m. Swept by start, the intervals
    [loP + loM, hiP + hiM] cover a run from low to one past the largest end
    so far; a start beyond the run leaves a gap.
    """
    z_p, p_lo, p_hi = table_p.lines
    m_lo, m_hi = table_m.ranges(z - z_p)
    ok = m_lo <= m_hi
    if not ok.any():
        return low
    starts, ends = (p_lo + m_lo)[ok], (p_hi + m_hi)[ok]
    order = np.argsort(starts, kind="stable")
    reach = np.maximum(np.maximum.accumulate(ends[order]) + 1, low)
    run = np.concatenate(([low], reach[:-1]))
    gaps = np.flatnonzero(starts[order] > run)
    gap = run[gaps[0]] if len(gaps) else reach[-1]
    return int(gap) if gap <= high else None


def _cap(P: Polytope, cap) -> int:
    return _as_int(default_cap(P.dim) if cap is None else cap, "normality cap", 2, _MAX_ROWS)


def _line_ladder(P: Polytope, c_lo: int, c_hi: int) -> tuple[int, LatticePoint] | None:
    """_first_gap on line tables: one scan per scale, in P's line frame.

    Scans P, and c_lo P when c_lo > 1, into tables; the scan of (c+1)P
    that checks S_c (_first_missing) fills the table S_{c+1} reads.
    """
    far = (c_hi + 1) * max(abs(corner[-1]) for corner in P.bounding_box())
    dtype, empty = _narrowest(4 * (far + 1)), 2 * far + 1
    U = _line_frame(P)
    table_p = _LineTable(P, U, 1, dtype, empty).scan(P, 1)
    table_c = table_p if c_lo == 1 else _LineTable(P, U, c_lo, dtype, empty).scan(P, c_lo)
    deltas = _probe_deltas(P.dim - 1)
    for c in range(c_lo, c_hi + 1):
        table_next = _LineTable(P, U, c + 1, dtype, empty) if c < c_hi else None
        point = _first_missing(P, c + 1, table_p, table_c, deltas, table_next)
        if point is not None:
            return c, point
        table_c = table_next
    return None


def _sum_ladder(P: Polytope, c_lo: int, c_hi: int) -> tuple[int, LatticePoint] | None:
    """_first_gap on lattice points, for the ladders its rule admits: P,
    c_lo P and each (c+1)P the climb reaches are coded (_codes), and the
    first code of (c+1)P that no sum of cP x P marks is the witness."""
    top = c_hi + 1
    code_p = _codes(P, 1, top)
    code_c = code_p if c_lo == 1 else _codes(P, c_lo, top)
    step = max(1, _PAIR_CHUNK // len(code_p))
    for c in range(c_lo, top):
        code_next = _codes(P, c + 1, top)
        hit = np.zeros(len(code_next), dtype=bool)
        for i in range(0, len(code_c), step):
            # every sum lies in (c+1)P, so searchsorted lands on its code
            hit[np.searchsorted(code_next, (code_c[i:i + step, None] + code_p).ravel())] = True
        if not hit.all():
            return c, _decode_point(P, top, c + 1, code_next[hit.argmin()])
        code_c = code_next
    return None


def _first_gap(P: Polytope, c_lo: int, c_hi: int) -> tuple[int, LatticePoint] | None:
    """The first c in [c_lo, c_hi] where S_c, (cP cap Z^n) + (P cap Z^n) =
    (c+1)P cap Z^n, fails, with the lex-first point of (c+1)P it misses; None
    when every S_c in the range holds.

    S_c for c >= n - 1 is the lemma of Ewald and Wessels (Results Math. 19,
    1991) and of Bruns, Gubeladze and Trung (J. reine angew. Math. 485,
    1997), so c_hi is clamped to n - 2, and an empty range (every range in
    dims 1 and 2) is None before any dilate is walked or counted.

    A ladder sums points (_sum_ladder) where its codes fit int64 and take at
    most _MAX_LIST_BYTES, and |P| |cP| pair sums are at most the 4^(n-1)
    |(c+1)P| gathers of the probe loop, each c; the counts come from P's
    memo, which analyze fills first. Others run the line tables (_line_ladder).
    """
    c_hi = min(c_hi, P.dim - 2)
    if c_lo > c_hi:
        return None
    top = c_hi + 1
    if _code_box(P, top) is not None and all(
            scaled_count(P, 1) * scaled_count(P, c) <= 4 ** (P.dim - 1) * scaled_count(P, c + 1)
            for c in range(c_lo, top)) and 8 * scaled_count(P, top) <= _MAX_LIST_BYTES:
        return _sum_ladder(P, c_lo, c_hi)
    return _line_ladder(P, c_lo, c_hi)


def is_normal(P: Polytope, cap: int | None = None) -> NormalityReport:
    """Check levels m = 2..cap in order; stop at the first failure.

    cap defaults to max(dim-1, 2). Level m is S_{m-1} (_first_gap), which
    computes m <= n - 1 and leaves the rest to the lemma, so the cost does
    not grow with cap. The verdict keeps its capped name, normal-up-to-cap.
    """
    cap = _cap(P, cap)
    gap = _first_gap(P, 1, cap - 1)
    witness = NormalityWitness(gap[0] + 1, gap[1]) if gap else None
    return NormalityReport(
        polytope_id=P.polytope_id,
        cap_used=cap,
        levels_checked=tuple(range(2, witness.level + 1 if witness else cap + 1)),
        verdict="non-normal" if witness else "normal-up-to-cap",
        witness=witness,
    )


def verify_witness(P: Polytope, level: int, point) -> bool:
    """Independently re-verify a non-normality witness.

    True iff point lies in level*P and is not a sum of `level` lattice
    points of P: searches depth first, each once, through the rests w in kP
    (the point less level - k points of P), and stops at the first k = 1.
    """
    level = _as_int(level, "witness level", 2)
    z = _as_point(point, P.dim)
    if not _inside(P, z, level):
        return False
    points, stack, seen = P.lattice_points(), [(level, z)], set()
    while stack and stack[-1][0] > 1:
        k, w = stack.pop()
        for a in points:
            rest = (k - 1, tuple(map(operator.sub, w, a)))
            if rest not in seen and _inside(P, rest[1], k - 1):
                seen.add(rest)
                stack.append(rest)
    return not stack


@dataclass(frozen=True)
class CorollaryRecord:
    """Outcome of the guaranteed-normality sweep over dilates of P.

    Every dilate ell*P with ell >= corollary_bound = max(n - d(P), 1) must
    be normal; a non-normal verdict in that range signals a bug, not a
    mathematical discovery, and lands in `violations`. levels pairs each
    ell with ell*P's witness, None when ell*P is normal up to the cap.
    """

    polytope_id: str
    n: int
    d: int
    corollary_bound: int
    extra_levels: int
    levels: tuple[tuple[int, NormalityWitness | None], ...]

    @property
    def violations(self) -> tuple[int, ...]:
        return tuple(ell for ell, witness in self.levels if witness)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_jsonable(self) -> dict:
        return {
            "polytope_id": self.polytope_id,
            "n": self.n,
            "d": self.d,
            "corollary_bound": self.corollary_bound,
            "extra_levels": self.extra_levels,
            "levels": [
                {
                    "ell": ell,
                    "verdict": "non-normal" if witness else "normal-up-to-cap",
                    "witness": witness.to_jsonable() if witness else None,
                }
                for ell, witness in self.levels
            ],
            "violations": list(self.violations),
            "passed": self.passed,
        }


def verify_corollary(P: Polytope, bounds: BoundReport, extra_levels: int = 0,
                     cap: int | None = None) -> CorollaryRecord:
    """Check normality of ell*P for ell = bound .. bound + extra_levels.

    bounds is P's BoundReport, as `normality_bound(P)` gives it; one with
    another n, or with d outside 0..n, is refused (relint((n+1)P) always
    holds a lattice point). If S_c (_first_gap) holds for every c >= bound,
    every ell*P with ell >= bound is normal: a lattice point of k*ell*P
    sheds lattice points of P down to ell*P, and they sum, ell at a time,
    to lattice points of ell*P. S_c for c >= n - 1 is the lemma, so only c
    in [bound, n - 2], which the paper's regularity argument gives, is
    computed (_first_gap). When those hold, every level's witness is None,
    and no dilate is built; else, which breaks the theorem, is_normal checks
    each ell*P in the input frame, so a violation carries its lex-first
    witness.
    """
    if bounds.n != P.dim or not 0 <= bounds.d <= P.dim:
        raise InvalidInputError(f"{bounds} cannot be the bounds of a {P.dim}-polytope")
    extra_levels = _as_int(extra_levels, "extra_levels", 0, _MAX_ROWS)
    cap = _cap(P, cap)
    lo = bounds.corollary_bound
    proved = _first_gap(P, lo, P.dim - 2) is None
    return CorollaryRecord(
        polytope_id=P.polytope_id,
        n=bounds.n,
        d=bounds.d,
        corollary_bound=lo,
        extra_levels=extra_levels,
        levels=tuple((ell, None if proved else is_normal(P.dilate(ell), cap).witness)
                     for ell in range(lo, lo + extra_levels + 1)),
    )
