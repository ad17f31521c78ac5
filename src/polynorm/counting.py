"""Lattice-point counts of dilates, and everything they decide.

Counting is exact: the counts are read from P's memo (`scaled_count`), which
`count_scales` fills for many scales in one walk of the geometry engine, and
Newton interpolation in integers, over n!, recovers the Ehrhart polynomial
with exact rational coefficients.

d(P) is the largest d >= 0 with relint(dP) lattice-point free. For the
polarized toric variety attached to a full-dimensional lattice polytope P,
the twist by k has completely combinatorial cohomology:

  k >= 1:  h^0 = #(kP cap Z^n), h^i = 0 for i >= 1
  k == 0:  h^0 = 1, higher vanishing (trivial bundle)
  k <  0:  h^i = 0 for i != n, h^n = #(relint(|k|P) cap Z^n)

No fan or sheaf ever materializes; every entry is an exact count. The
autoregularity of the polarization is the least m making h^i vanish at
twist m+1-i for all i >= 1, which the rules reduce to an interior-point
condition: it is n-1-d(P). The dilation levels for normality and property
N_p follow from d(P) and the autoregularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInvariantError, InvalidInputError
from .geometry import _MAX_ROWS, Polytope, _as_int, scaled_count


@dataclass(frozen=True)
class EhrhartPolynomial:
    """L_P(t) = sum coefficients[i] * t^i, exact rational coefficients."""

    coefficients: tuple[Fraction, ...]

    def evaluate(self, t) -> int | Fraction:
        """L_P(t) at an integer t: an int when integral, else a Fraction.

        Horner's rule runs on the numerators over the coefficients' common
        denominator, in integers, with one exact division at the end.
        """
        den = math.lcm(*(c.denominator for c in self.coefficients))
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * t + c.numerator * (den // c.denominator)
        return acc // den if acc % den == 0 else Fraction(acc, den)

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            parts.append(f"{c} t^{i}" if i else f"{c}")
        return " + ".join(parts) if parts else "0"

    def to_jsonable(self) -> list[str]:
        return [str(c) for c in self.coefficients]


def ehrhart_polynomial(P: Polytope) -> EhrhartPolynomial:
    """Interpolate L_P from the exact counts at t = 0..dim.

    L_P has degree dim with L_P(0) = 1, so dim+1 values pin it down. The
    forward differences D_j of the counts at 0 are integers, so the Newton
    form n! L_P(t) = sum D_j (n!/j!) t(t-1)...(t-j+1) expands by Horner from
    the top in integers, and each coefficient divides by n! once.
    """
    n = P.dim
    d = [1] + [scaled_count(P, k) for k in range(1, n + 1)]
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            d[i] -= d[i - 1]
    den, coeffs = 1, [d[n]]
    for k in range(n - 1, -1, -1):
        den *= k + 1  # n!/k!
        # coeffs * (t - k) + D_k n!/k!
        coeffs = [d[k] * den - k * coeffs[0]] + [
            lower - k * c for lower, c in zip(coeffs, coeffs[1:] + [0])]
    poly = EhrhartPolynomial(tuple(Fraction(c, den) for c in coeffs))
    if poly.coefficients[0] != 1:
        raise InternalInvariantError(
            f"Ehrhart constant term is {poly.coefficients[0]}, expected 1")
    if poly.coefficients[n] <= 0:
        raise InternalInvariantError(
            f"Ehrhart leading coefficient {poly.coefficients[n]} is not positive")
    return poly


def d_of_p(P: Polytope) -> int:
    """Largest d >= 0 with relint(dP) lattice-point free.

    Convention: d = 0 when P itself has an interior lattice point. Some
    dilate kP with k <= dim+1 always has one, so the scan below terminates.
    """
    n = P.dim
    for k in range(1, n + 2):
        if scaled_count(P, k, interior=True) > 0:
            return k - 1
    raise InternalInvariantError(f"relint({n + 1}P) has no lattice point; counting is broken")


def reciprocity_check(P: Polytope, poly: EhrhartPolynomial) -> bool:
    """Verify L_P(-t) == (-1)^dim * #relint(tP) for t = 1..dim+1.

    poly is P's Ehrhart polynomial. A sharp cross-check of the interpolation
    and of the two enumeration modes, which share a walk but not its solves.
    """
    sign = (-1) ** P.dim
    return all(poly.evaluate(-t) == sign * scaled_count(P, t, interior=True)
               for t in range(1, P.dim + 2))


def extrapolation_check(P: Polytope, poly: EhrhartPolynomial) -> bool:
    """Values of P's Ehrhart polynomial must match direct counts beyond the
    sample nodes: at k = dim+1 and dim+2, the first two uninterpolated levels.
    """
    return all(poly.evaluate(k) == scaled_count(P, k) for k in (P.dim + 1, P.dim + 2))


# -- twist cohomology ------------------------------------------------------------

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
    """h^0..h^n at twist k, of which only h^i, i = 0 for k > 0 and n for
    k < 0, can be nonzero. Up to |k| = n + 2 it is counted in |k|P; past
    that it is (-1)^i L_P(k), read off the Ehrhart polynomial (for k < 0 by
    reciprocity, L_P(k) = (-1)^n #relint(|k|P))."""
    n = P.dim
    h = [0] * (n + 1)
    i = 0 if k > 0 else n
    if k == 0:
        h[0] = 1
    elif abs(k) <= n + 2:
        h[i] = scaled_count(P, abs(k), interior=k < 0)
    else:
        h[i] = (-1) ** i * ehrhart_polynomial(P).evaluate(k)
    return tuple(h)


def h_table(P: Polytope, k_min: int, k_max: int) -> CohomologyTable:
    """One row of h^0..h^n per twist k in [k_min, k_max], at most _MAX_ROWS rows."""
    k_min = _as_int(k_min, "k_min")
    k_max = _as_int(k_max, "k_max")
    if k_min > k_max:
        raise InvalidInputError(f"empty twist range [{k_min}, {k_max}]")
    if k_max - k_min >= _MAX_ROWS:
        raise InvalidInputError(f"twist range [{k_min}, {k_max}] holds over {_MAX_ROWS} twists")
    rows = tuple((k, _h_row(P, k)) for k in range(k_min, k_max + 1))
    return CohomologyTable(P.polytope_id, rows)


def _vanishes_at(P: Polytope, m: int) -> bool:
    """h^i at twist m+1-i zero for every i = 1..n, per the counting rules."""
    return all(_h_row(P, m + 1 - i)[i] == 0 for i in range(1, P.dim + 1))


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


# -- dilation levels -------------------------------------------------------------

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


def normality_bound(P: Polytope) -> BoundReport:
    """Compute d(P) and attach the dilation bounds to it."""
    return BoundReport(P.dim, d_of_p(P))


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
