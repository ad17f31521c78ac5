"""Exact LLL reduction of an integer Gram matrix.

Everything here works on Python ints and Fractions, so there is no
precision ceiling. Sizes are tiny (matrices up to ~6x6); clarity beats
asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor


def lll_reduce(gram: list[list[int]]) -> list[list[int]]:
    """Rows of a unimodular U that form an LLL-reduced basis of Z^k under gram.

    gram is a symmetric positive definite integer matrix; <u, v> = u gram v^T.
    Starting from the standard basis, size reduction and swaps (Lovasz
    constant 3/4; Lenstra, Lenstra, Lovasz, Math. Ann. 1982) keep the rows a
    basis of Z^k, so det U = +-1. The Gram-Schmidt coefficients mu (with a
    unit diagonal) and squared lengths are exact Fractions, recomputed from
    the basis' integer Gram matrix after a swap and updated in place by a
    size reduction.
    """
    k = len(gram)
    basis = [[int(i == j) for j in range(k)] for i in range(k)]

    def orthogonalize():
        g = [[sum(x * gram[r][c] * y for r, x in enumerate(b) for c, y in enumerate(b2))
              for b2 in basis] for b in basis]
        mu = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
        norms = []
        for i in range(k):
            for j in range(i):
                mu[i][j] = (g[i][j] - sum(mu[j][l] * mu[i][l] * norms[l]
                                          for l in range(j))) / norms[j]
            norms.append(Fraction(g[i][i]) - sum(mu[i][l] ** 2 * norms[l] for l in range(i)))
        return mu, norms

    mu, norms = orthogonalize()
    i = 1
    while i < k:
        for j in range(i - 1, -1, -1):
            q = floor(mu[i][j] + Fraction(1, 2))
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[j])]
                mu[i] = [a - q * b for a, b in zip(mu[i], mu[j])]
        if norms[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * norms[i - 1]:
            i += 1
        else:
            basis[i - 1], basis[i] = basis[i], basis[i - 1]
            mu, norms = orthogonalize()
            i = max(i - 1, 1)
    return basis
