"""Cohomology of toric twists by pure lattice-point counting.

For the polarized toric variety attached to a full-dimensional lattice
polytope P, the twist by k has completely combinatorial cohomology:

  k >= 1:  h^0 = #(kP cap Z^n), h^i = 0 for i >= 1
  k == 0:  h^0 = 1, higher vanishing (trivial bundle)
  k <  0:  h^i = 0 for i != n, h^n = #(relint(|k|P) cap Z^n)

No fan or sheaf ever materializes; every entry is an exact count. The
autoregularity of the polarization is the least m making h^i vanish at
twist m+1-i for all i >= 1, which the rules reduce to an interior-point
condition, so the downward scan below terminates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError, InvalidInputError
from .geometry import Polytope, _as_int, scaled_count


@dataclass(frozen=True)
class CohomologyTable:
    base_polytope_id: str
    rows: tuple[tuple[int, tuple[int, ...]], ...]  # (twist k, (h^0..h^n))

    def to_jsonable(self) -> dict:
        return {
            "polytope": self.base_polytope_id,
            "rows": [{"k": k, "h": list(h)} for k, h in self.rows],
        }


def _h_row(P: Polytope, k: int) -> tuple[int, ...]:
    n = P.dim
    h = [0] * (n + 1)
    if k > 0:
        h[0] = scaled_count(P, k)
    elif k == 0:
        h[0] = 1
    else:
        h[n] = scaled_count(P, -k, interior=True)
    return tuple(h)


def h_table(P: Polytope, k_min: int, k_max: int) -> CohomologyTable:
    """One row of h^0..h^n per twist k in [k_min, k_max]."""
    k_min = _as_int(k_min, "k_min")
    k_max = _as_int(k_max, "k_max")
    if k_min > k_max:
        raise InvalidInputError(f"empty twist range [{k_min}, {k_max}]")
    rows = tuple((k, _h_row(P, k)) for k in range(k_min, k_max + 1))
    return CohomologyTable(P.polytope_id, rows)


def _vanishes_at(P: Polytope, m: int) -> bool:
    """h^i at twist m+1-i zero for every i = 1..n, per the counting rules."""
    n = P.dim
    for i in range(1, n + 1):
        if _h_row(P, m + 1 - i)[i] != 0:
            return False
    return True


def autoregularity_from_definition(P: Polytope) -> int:
    """Smallest m passing the vanishing check; found by downward scan.

    m = n-1 always passes (all twists involved are nonnegative), and the
    check at some m >= -1 must fail because a high enough dilate has an
    interior lattice point, so the scan is finite.
    """
    n = P.dim
    m = n - 1
    if not _vanishes_at(P, m):
        raise InternalInvariantError(
            f"vanishing fails at m = n-1 = {m}; counting rules are broken"
        )
    while _vanishes_at(P, m - 1):
        m -= 1
        if m < -(n + 2):
            raise InternalInvariantError(
                "autoregularity scan ran past every possible value"
            )
    return m


def np_bound_from_regularity(m: int, p: int) -> int:
    """Dilation level guaranteeing property N_p, from the autoregularity m.

    p >= 1 gives max(m+p, 1); p = 0 also rests on the twist m+1, hence
    max(m+1, 1).  With m = n-1-d(P) the p = 0 level is max(n-d, 1), the
    corollary bound of `normality_bound`.  It exceeds the paper's N_0
    level n-1 exactly when d(P) = 0 or n = 1: for d(P) = 0 that n-1 is
    the classical normality bound, which regularity alone does not reach.
    """
    m = _as_int(m, "m")
    p = _as_int(p, "p", 0)
    if p == 0:
        return max(m + 1, 1)
    return max(m + p, 1)
