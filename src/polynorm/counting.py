"""Ehrhart polynomials and the interior-emptiness threshold d(P).

Counting is exact: lattice points of dilates are counted by the geometry
engine and the Ehrhart polynomial is recovered by Lagrange interpolation
over Fraction arithmetic, so coefficients are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInvariantError
from .geometry import Polytope, scaled_count


@dataclass(frozen=True)
class EhrhartPolynomial:
    """L_P(t) = sum coefficients[i] * t^i, exact rational coefficients."""

    coefficients: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, t) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            parts.append(f"{c} t^{i}" if i else f"{c}")
        return " + ".join(parts) if parts else "0"

    def to_jsonable(self) -> list[str]:
        return [str(c) for c in self.coefficients]


@dataclass(frozen=True)
class DilationProfile:
    """d(P) and the interior counts that witnessed it."""

    d: int
    codegree: int
    interior_counts: tuple[tuple[int, int], ...]  # (k, #relint(kP) cap Z^n)


def ehrhart_polynomial(P: Polytope) -> EhrhartPolynomial:
    """Interpolate L_P from the exact counts at t = 0..dim.

    L_P has degree dim with L_P(0) = 1, so dim+1 values pin it down.
    """
    n = P.dim
    values = [1] + [scaled_count(P, k) for k in range(1, n + 1)]
    coeffs = [Fraction(0)] * (n + 1)
    for k, val in enumerate(values):
        # Lagrange basis polynomial for node k over nodes 0..n.
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n + 1):
            if j == k:
                continue
            # multiply basis by (t - j)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for i, c in enumerate(basis):
                nxt[i] -= c * j
                nxt[i + 1] += c
            basis = nxt
            denom *= k - j
        for i, c in enumerate(basis):
            coeffs[i] += val * c / denom
    poly = EhrhartPolynomial(tuple(coeffs))
    if poly.coefficients[0] != 1:
        raise InternalInvariantError(
            f"Ehrhart constant term is {poly.coefficients[0]}, expected 1"
        )
    if poly.coefficients[n] <= 0:
        raise InternalInvariantError(
            f"Ehrhart leading coefficient {poly.coefficients[n]} is not positive"
        )
    return poly


def d_of_p(P: Polytope) -> DilationProfile:
    """Largest d >= 0 with relint(dP) lattice-point free.

    Convention: d = 0 when P itself has an interior lattice point. Some
    dilate kP with k <= dim+1 always has one, so the scan below terminates.
    """
    n = P.dim
    counts = []
    for k in range(1, n + 2):
        c = scaled_count(P, k, interior=True)
        counts.append((k, c))
        if c > 0:
            return DilationProfile(k - 1, k, tuple(counts))
    raise InternalInvariantError(
        f"relint({n + 1}P) has no lattice point; counting is broken"
    )


def reciprocity_check(P: Polytope, poly: EhrhartPolynomial) -> bool:
    """Verify L_P(-t) == (-1)^dim * #relint(tP) for t = 1..dim+1.

    poly is P's Ehrhart polynomial. A sharp cross-check of both the
    interpolation and the two enumeration modes.
    """
    n = P.dim
    sign = (-1) ** n
    for t in range(1, n + 2):
        if poly.evaluate(-t) != sign * scaled_count(P, t, interior=True):
            return False
    return True


def extrapolation_check(P: Polytope, poly: EhrhartPolynomial) -> bool:
    """Values of P's Ehrhart polynomial must match direct counts beyond the
    sample nodes: at k = dim+1 and dim+2, the first two uninterpolated levels.
    """
    n = P.dim
    for k in (n + 1, n + 2):
        if poly.evaluate(k) != scaled_count(P, k):
            return False
    return True
