"""The oracles' exact linear algebra (exact_linalg) and the package's LLL
reduction, checked against slow reference code."""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from exact_linalg import det, hyperplane_normal, primitive, rank
from polynorm.linalg import lll_reduce


def det_by_permutations(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the signature
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def rank_by_gauss(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_det_small_cases():
    assert det([]) == 1
    assert det([[5]]) == 5
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


@given(st.integers(2, 4), st.integers(0, 10**6))
def test_det_matches_permutation_expansion(n, seed):
    rng = random.Random(seed)
    rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
    assert det(rows) == det_by_permutations(rows)


@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 10**6))
def test_rank_matches_gauss(n, m, seed):
    rng = random.Random(seed)
    rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
    assert rank(rows) == rank_by_gauss(rows)


def test_primitive():
    assert primitive((2, 4, 6)) == (1, 2, 3)
    assert primitive((0, 0, 5)) == (0, 0, 1)
    assert primitive((-3, 6)) == (-1, 2)
    assert primitive((7,)) == (1,)


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=4))
def test_primitive_gcd_is_one(v):
    if all(x == 0 for x in v):
        return
    p = primitive(tuple(v))
    assert math.gcd(*p) == 1 if len(p) > 1 else abs(p[0]) == 1
    # same direction: v = g * p for positive integer g
    g = next(abs(a) // abs(b) for a, b in zip(v, p) if b != 0)
    assert tuple(g * x for x in p) == tuple(v)


def test_hyperplane_normal_orthogonality():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    nrm = hyperplane_normal(pts)
    assert nrm is not None
    for p in pts[1:]:
        diff = tuple(a - b for a, b in zip(p, pts[0]))
        assert sum(a * b for a, b in zip(nrm, diff)) == 0


def test_hyperplane_normal_degenerate():
    # affinely dependent points span no hyperplane
    assert hyperplane_normal([(0, 0, 0), (1, 1, 1), (2, 2, 2)]) is None


def gram_schmidt(vectors):
    """mu and squared lengths of the Gram-Schmidt vectors, in Fractions."""
    stars, norms, mu = [], [], {}
    for i, v in enumerate(vectors):
        star = [Fraction(x) for x in v]
        for j in range(i):
            mu[i, j] = sum(Fraction(a) * b for a, b in zip(v, stars[j])) / norms[j]
            star = [a - mu[i, j] * b for a, b in zip(star, stars[j])]
        stars.append(star)
        norms.append(sum(a * a for a in star))
    return mu, norms


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6), st.sampled_from([5, 2**70]))
def test_lll_reduce_is_unimodular_and_reduced(k, seed, big):
    # the form is |S u|^2 with S = D T: T unimodular, sheared by up to `big`,
    # D a small diagonal, so the lattice S Z^k is D Z^k, whose successive
    # minima are the sorted diagonal
    rng = random.Random(seed)
    T = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(2 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        f = rng.randint(-big, big)
        if i != j:
            T[i] = [a + f * b for a, b in zip(T[i], T[j])]
    D = [rng.randint(1, 6) for _ in range(k)]
    S = [[d * x for x in row] for d, row in zip(D, T)]
    gram = [[sum(S[r][i] * S[r][j] for r in range(k)) for j in range(k)] for i in range(k)]
    U = lll_reduce(gram)
    assert det(U) in (1, -1)
    vectors = [[sum(a * b for a, b in zip(row, u)) for row in S] for u in U]
    mu, norms = gram_schmidt(vectors)
    assert all(abs(x) <= Fraction(1, 2) for x in mu.values())
    assert all(norms[i] >= (Fraction(3, 4) - mu[i, i - 1] ** 2) * norms[i - 1]
               for i in range(1, k))
    for v, minimum in zip(vectors, sorted(D)):
        assert sum(x * x for x in v) <= 2 ** (k - 1) * minimum**2


def test_lll_reduce_edge_cases():
    assert lll_reduce([]) == []
    assert lll_reduce([[7]]) == [[1]]
    # the unit square's covariance is already reduced; a needle's is not
    assert lll_reduce([[2, 0], [0, 2]]) == [[1, 0], [0, 1]]
    # S^T S for S = [[2^70, 1], [1, 0]], a basis of Z^2: reduced, both have length 1
    needle = [[1 + 2**140, 2**70], [2**70, 1]]
    U = lll_reduce(needle)
    assert det(U) in (1, -1)
    assert sorted(sum(u[i] * needle[i][j] * u[j] for i in range(2) for j in range(2))
                  for u in U) == [1, 1]
