"""Exact integer linear algebra for the test oracles.

Determinants, ranks and hyperplane normals by textbook elimination on
Python ints, so there is no precision ceiling. The hull oracle in
test_hull.py is built on these alone, independent of the double
description in polynorm.geometry. Sizes are tiny (matrices up to ~6x6);
clarity beats asymptotics.
"""

from math import gcd


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
