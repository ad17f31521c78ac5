"""Exact integer linear algebra helpers.

Everything here works on Python ints and Fractions, so there is no
precision ceiling. Sizes are tiny (matrices up to ~6x6); clarity beats
asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd


def det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix (any shape)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, nrows):
            if m[i][col] != 0:
                a, b = m[r][col], m[i][col]
                m[i] = [a * x - b * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def primitive(vec: tuple[int, ...]) -> tuple[int, ...]:
    """Divide out the gcd of the entries; the zero vector stays zero."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def hyperplane_normal(points: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """Integer normal of the hyperplane through n points in Z^n.

    Uses the generalized cross product: entry j is the signed minor of the
    difference matrix with column j deleted. Returns None when the points are
    affinely dependent (the normal would be zero). The sign is arbitrary;
    callers orient it.
    """
    n = len(points[0])
    base = points[0]
    diffs = [[p[j] - base[j] for j in range(n)] for p in points[1:]]
    normal = []
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in diffs]
        normal.append((-1) ** j * det(minor))
    if all(x == 0 for x in normal):
        return None
    return primitive(tuple(normal))


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
