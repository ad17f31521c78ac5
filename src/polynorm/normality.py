"""Normality testing with witnesses, plus dilation and N_p bound arithmetic.

A polytope P is normal when every lattice point of mP splits into a sum of
m lattice points of P, for every m >= 1. Checking levels in ascending order
buys a large shortcut: write T_1 = P cap Z^n and T_m = {z in mP cap Z^n :
z - a in T_{m-1} for some a in P cap Z^n}. By induction T_m is exactly the
m-fold sumset of P cap Z^n, and whenever levels 2..m-1 all passed, T_{m-1}
is all of (m-1)P cap Z^n, so the level-m test sums intervals: on lines
(fixed prefixes of the first n-1 coordinates) the lattice points of P and
of (m-1)P are integer intervals, and so are their sums. The checks below
exploit that identity; semantics match the sumset definition exactly.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .counting import d_of_p
from .errors import InvalidInputError
from .geometry import (
    LatticePoint,
    Polytope,
    _as_point,
    _last_range,
    _np_slabs,
    _scan_dtype,
    scaled_points_array,  # unused here; bench/tracing.py traces this name
)


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

def _probe_deltas(n: int):
    """Candidate offsets around x' // m, nearest first."""
    near = list(itertools.product((0, 1), repeat=n))
    ring = sorted(
        (d for d in itertools.product((-1, 0, 1, 2), repeat=n)
         if not all(x in (0, 1) for x in d)),
        key=lambda d: (max(abs(x) for x in d), sum(abs(x) for x in d), d),
    )
    return near + ring


def _first_missing(P: Polytope, m: int) -> LatticePoint | None:
    """Lex-first point of mP missing from T_m, given T_{m-1} = (m-1)P cap Z^n.

    mP is walked by lines: a prefix x' of the first n-1 coordinates with
    its last-coordinate interval [L, H]. The lattice points of P on line a'
    plus those of (m-1)P on line x' - a' fill the interval
    [loP(a') + loM(x'-a'), hiP(a') + hiM(x'-a')], and a point of line x'
    is in T_m iff one of these covers it. The prefixes a' = x' // m + delta,
    nearest first, shrink each line's uncovered part from both ends; a line
    left uncovered gets the union over every line of P (_line_gap). Arrays
    take the element type of the scan of mP, int32 whenever it fits: that
    leaves room for 16 times the scan's facet values, and the values here
    stay below 6 times them, so the arithmetic is exact.
    """
    dtype = _scan_dtype(P, m)
    A = np.array([h.normal for h in P.facets], dtype=dtype)
    b = np.array([h.offset for h in P.facets], dtype=dtype)[:, None]
    A_pre, a_last = A[:, :-1], A[:, -1]
    dA = (np.array(_probe_deltas(P.dim - 1), dtype=dtype) @ A_pre.T)[:, :, None]
    pre, lo, c = (np.concatenate(a).astype(dtype) for a in zip(*_np_slabs(P, 1, False)))
    lines_p = (A_pre @ pre.T, lo, lo + c - 1)
    for X, L, counts in _np_slabs(P, m, False, chunk_rows=1 << 18):
        H = L + counts - 1
        # facet rows, line columns: P at X//m + delta is rP - dA[t] and
        # (m-1)P at X - X//m - delta is rM + dA[t]
        XA = A_pre @ X.T
        QA = A_pre @ (X // m).T
        rP, rM = b - QA, (m - 1) * b - XA + QA
        alive = np.arange(len(X))
        for dA_t in dA:
            p_lo, p_hi = _last_range(rP - dA_t, a_last)
            m_lo, m_hi = _last_range(rM + dA_t, a_last)
            ok = (p_lo <= p_hi) & (m_lo <= m_hi)
            s_lo, s_hi = p_lo + m_lo, p_hi + m_hi
            L = np.where(ok & (s_lo <= L) & (L <= s_hi), s_hi + 1, L)
            H = np.where(ok & (s_lo <= H) & (H <= s_hi), s_lo - 1, H)
            open_ = L <= H
            if not open_.all():
                alive, L, H = alive[open_], L[open_], H[open_]
                rP, rM = rP[:, open_], rM[:, open_]
                if not len(alive):
                    break
        for i, low, high in zip(alive.tolist(), L.tolist(), H.tolist()):
            r_line = (m - 1) * b - XA[:, i : i + 1]
            gap = _line_gap(lines_p, r_line, a_last, low, high)
            if gap is not None:
                return tuple(int(x) for x in X[i]) + (gap,)
    return None


def _line_gap(lines_p, r_line, a_last, low: int, high: int) -> int | None:
    """First point of [low, high] (low <= high) on line x' of mP left uncovered.

    lines_p holds, per line a' of P, its prefix terms A_pre a' and bounds
    loP, hiP; r_line is (m-1)b minus the prefix terms of x'. Swept by start,
    the intervals [loP + loM(x'-a'), hiP + hiM(x'-a')] cover a run from low
    to one past the largest end so far; a start beyond the run leaves a gap.
    """
    pre, p_lo, p_hi = lines_p
    m_lo, m_hi = _last_range(r_line + pre, a_last)
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


def _contains_scaled(P: Polytope, scale: int, pt) -> bool:
    return all(
        sum(a * x for a, x in zip(h.normal, pt)) >= scale * h.offset
        for h in P.facets
    )


def is_normal(P: Polytope, cap: int | None = None) -> NormalityReport:
    """Check levels m = 2..cap in order; stop at the first failure.

    cap defaults to max(dim-1, 2). The verdict is explicitly capped:
    "normal-up-to-cap" never claims normality at uncapped levels.
    """
    if cap is None:
        cap = default_cap(P.dim)
    cap = operator.index(cap)
    if cap < 2:
        raise InvalidInputError(f"normality cap must be >= 2, got {cap}")
    checked = []
    witness = None
    for m in range(2, cap + 1):
        checked.append(m)
        # Levels below m all passed, so T_{m-1} is all of (m-1)P.
        point = _first_missing(P, m)
        if point is not None:
            witness = NormalityWitness(m, point)
            break
    return NormalityReport(
        polytope_id=P.polytope_id,
        cap_used=cap,
        levels_checked=tuple(checked),
        verdict="non-normal" if witness else "normal-up-to-cap",
        witness=witness,
    )


def verify_witness(P: Polytope, level: int, point) -> bool:
    """Independently re-verify a non-normality witness.

    True iff point lies in level*P and is not a sum of `level` lattice
    points of P, decided by exhaustive search with memoization.
    """
    level = operator.index(level)
    if level < 2:
        raise InvalidInputError(f"witness level must be >= 2, got {level}")
    z = _as_point(point, P.dim)
    if not _contains_scaled(P, level, z):
        return False
    A_list = P.lattice_points()
    memo: dict = {}

    def decomposable(w, k):
        if k == 1:
            return _contains_scaled(P, 1, w)
        key = (w, k)
        if key in memo:
            return memo[key]
        res = False
        for a in A_list:
            rest = tuple(x - y for x, y in zip(w, a))
            # sums of k-1 points of P always lie in (k-1)P; prune by that
            if _contains_scaled(P, k - 1, rest) and decomposable(rest, k - 1):
                res = True
                break
        memo[key] = res
        return res

    return not decomposable(z, level)


# -- bound arithmetic ----------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """The dilation thresholds attached to P: d(P)-based and classical."""

    n: int
    d: int

    @property
    def corollary_bound(self) -> int:
        """max(n - d, 1): every dilate at or above it is normal."""
        return max(self.n - self.d, 1)

    @property
    def classical_n0_bound(self) -> int:
        """n - 1 for n >= 2, else 1."""
        return self.n - 1 if self.n >= 2 else 1

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "corollary_bound": self.corollary_bound,
            "classical_n0_bound": self.classical_n0_bound,
        }


def normality_bound(P: Polytope) -> BoundReport:
    """Compute d(P) and attach the dilation bounds to it."""
    return BoundReport(P.dim, d_of_p(P).d)


@dataclass(frozen=True)
class CorollaryRecord:
    """Outcome of the guaranteed-normality sweep over dilates of P.

    Every dilate ell*P with ell >= corollary_bound = max(n - d(P), 1) must
    be normal; a non-normal verdict in that range signals a bug, not a
    mathematical discovery, and lands in `violations`.
    """

    polytope_id: str
    n: int
    d: int
    corollary_bound: int
    extra_levels: int
    levels: tuple[tuple[int, NormalityReport], ...]
    violations: tuple[int, ...]

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
                    "verdict": rep.verdict,
                    "witness": rep.witness.to_jsonable() if rep.witness else None,
                }
                for ell, rep in self.levels
            ],
            "violations": list(self.violations),
            "passed": self.passed,
        }


def verify_corollary(P: Polytope, bounds: BoundReport, extra_levels: int = 0,
                     cap: int | None = None) -> CorollaryRecord:
    """Check normality of ell*P for ell = bound .. bound + extra_levels.

    bounds is P's BoundReport, as `normality_bound(P)` gives it.
    """
    extra_levels = operator.index(extra_levels)
    if extra_levels < 0:
        raise InvalidInputError(f"extra_levels must be >= 0, got {extra_levels}")
    lo = bounds.corollary_bound
    levels = []
    violations = []
    for ell in range(lo, lo + extra_levels + 1):
        rep = is_normal(P.dilate(ell), cap)
        levels.append((ell, rep))
        if not rep.is_normal:
            violations.append(ell)
    return CorollaryRecord(
        polytope_id=P.polytope_id,
        n=bounds.n,
        d=bounds.d,
        corollary_bound=lo,
        extra_levels=extra_levels,
        levels=tuple(levels),
        violations=tuple(violations),
    )
