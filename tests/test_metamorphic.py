"""A metamorphic oracle: every invariant is unchanged by x -> Ux + t.

For U in GL_n(Z) and t in Z^n the map sends the lattice points of kP onto
those of k(UP + t), and sums of points to sums of points, so counts,
d(P), the Ehrhart polynomial, the autoregularity, the first level where
normality fails and every N_1 fiber count are the same on both sides. Only
ids, vertices, witness points and search orders depend on the frame; a
normality witness w of level m maps to Uw + mt, which must be a witness
of the image. A translation past 2^62 sends the scans, listings and codes
of the image through Python ints while P's run in int32.
"""

import random

from hypothesis import given, settings, strategies as st

from polynorm import (
    autoregularity_from_definition,
    build_polytope,
    d_of_p,
    ehrhart_polynomial,
    is_normal,
    n1_probe,
    normality_bound,
    scaled_count,
    verify_corollary,
    verify_witness,
)
from conftest import random_polytope


def unimodular(rng, n):
    """A product of 1..6 elementary moves on Z^n: a row plus up to 3 times
    another, a row swap or a row negated; its rows as tuples."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, 6)):
        i, j = rng.sample(range(n), 2)
        move = rng.randrange(3)
        if move == 0:
            k = rng.choice([-3, -2, -1, 1, 2, 3])
            U[i] = [a + k * b for a, b in zip(U[i], U[j])]
        elif move == 1:
            U[i], U[j] = U[j], U[i]
        else:
            U[i] = [-a for a in U[i]]
    return [tuple(row) for row in U]


def apply(U, t, x, k=1):
    """U x + k t: the image of a point of kP."""
    return tuple(sum(a * y for a, y in zip(row, x)) + k * s for row, s in zip(U, t))


def invariants(P):
    """What the map must keep, each computed on a fresh polytope."""
    P = build_polytope(P.vertices)
    n = P.dim
    report = is_normal(P)
    sweep = verify_corollary(P, normality_bound(P), 1)
    values = {
        "counts": [scaled_count(P, k) for k in range(1, n + 2)],
        "d": d_of_p(P),
        "ehrhart": ehrhart_polynomial(P).coefficients,
        "autoregularity": autoregularity_from_definition(P),
        "normal": (report.verdict, report.witness and report.witness.level),
        "sweep": [(ell, witness is None) for ell, witness in sweep.levels],
    }
    if n <= 3:
        probe = n1_probe(P, 1, 3)
        values["probe"] = (probe.verdict, probe.witness_degree,
                           [s.fibers for s in probe.per_degree])
    witnesses = [report.witness] + [witness for _, witness in sweep.levels]
    return values, [w for w in witnesses if w is not None]


def check_image(n, seed, far):
    rng = random.Random(seed)
    P = random_polytope(rng, n, spread=2 if n < 4 else 1)
    U = unimodular(rng, n)
    t = [rng.randint(-50, 50) + far * rng.choice([-1, 1]) for _ in range(n)]
    Q = build_polytope([apply(U, t, v) for v in P.vertices])
    values, witnesses = invariants(P)
    image_values, _ = invariants(Q)
    assert image_values == values, (P.vertices, U, t)
    for w in witnesses:
        assert verify_witness(Q, w.level, apply(U, t, w.point, w.level)), (P.vertices, U, t)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10**6))
def test_invariants_survive_unimodular_maps(n, seed):
    check_image(n, seed, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10**6), st.integers(62, 70))
def test_invariants_survive_translations_past_int64(n, seed, bits):
    # the image's scans run in Python ints, and its codes, digits above the
    # corner of its box, stay int64
    check_image(n, seed, 2**bits)
