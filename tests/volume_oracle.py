"""The top two Ehrhart coefficients of a lattice polytope from its hull alone.

For a full-dimensional lattice polytope P in R^n, the leading coefficient
c_n of L_P is the volume of P, and c_{n-1} is half the volume of its
boundary, each facet measured in its own lattice, the lattice points of
its affine hull (Beck and Robins, *Computing the Continuous Discretely*,
ch. 5). No lattice point is counted here: both come from a pulling
triangulation of P and of each facet, in exact integers through
exact_linalg.det, so they check the counting walk from outside it.
"""

from fractions import Fraction
from math import factorial

from exact_linalg import det


def pulling_triangulation(face, d, facet_sets):
    """Simplices, as sorted tuples of vertex indices, of a pulling
    triangulation of the d-dimensional face whose vertex indices are face.

    The facets of a face are the inclusion-maximal proper nonempty
    intersections of it with P's facets, given as the vertex index sets
    facet_sets. The least vertex v is pulled: the simplices are v joined
    to those of each facet of the face that misses v.
    """
    if len(face) == d + 1:
        return [tuple(sorted(face))]
    v = min(face)
    cuts = {face & F for F in facet_sets} - {face, frozenset()}
    facets = [G for G in cuts if not any(G < H for H in cuts)]
    return [(v,) + simplex for G in facets if v not in G
            for simplex in pulling_triangulation(G, d - 1, facet_sets)]


def edges(vertices, simplex):
    """The edge vectors of a simplex from its first vertex."""
    first = vertices[simplex[0]]
    return [[x - y for x, y in zip(vertices[i], first)] for i in simplex[1:]]


def relative_volume(rows, normal):
    """Normalized volume of the parallelotope of n - 1 vectors in Z^n that
    span the hyperplane of the primitive normal, in the hyperplane's lattice.

    The cofactor vector c of the rows (c_i the minor without column i, up
    to sign) is that volume times the normal, so it is |c_i / a_i| at any
    i with a_i != 0.
    """
    i = next(i for i, a in enumerate(normal) if a)
    minor = abs(det([row[:i] + row[i + 1:] for row in rows]))
    assert minor % abs(normal[i]) == 0
    return minor // abs(normal[i])


def facet_sets(P):
    """Per facet of P, in P.facets' order, the indices of the vertices on it."""
    return [frozenset(i for i, v in enumerate(P.vertices)
                      if sum(a * x for a, x in zip(h.normal, v)) == h.offset) for h in P.facets]


def top_coefficients(P):
    """(c_n, c_{n-1}) of P's Ehrhart polynomial: P's volume and half its
    boundary's lattice volume, from pulling triangulations."""
    n, vertices, on = P.dim, P.vertices, facet_sets(P)
    volume = sum(abs(det(edges(vertices, s)))
                 for s in pulling_triangulation(frozenset(range(len(vertices))), n, on))
    boundary = sum(relative_volume(edges(vertices, s), h.normal)
                   for h, F in zip(P.facets, on)
                   for s in pulling_triangulation(F, n - 1, on))
    return Fraction(volume, factorial(n)), Fraction(boundary, 2 * factorial(n - 1))
