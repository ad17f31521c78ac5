"""Lattice polytopes in Z^n with exact facet descriptions.

A polytope is built from an explicit list of integer points and is required
to be full-dimensional in its ambient space. Facets are found by exhaustive
hyperplane enumeration over n-point subsets, which is entirely adequate at
the intended scale (dimension <= 4, a few dozen points) and has no numerical
failure modes.

Lattice point enumeration is one numpy scan: it walks a grid over the
first n-1 coordinates and solves the last coordinate range per facet with
exact integer ceil/floor division. A computed overflow bound picks the
element type of its arrays: int64 when every intermediate fits, otherwise
object arrays of Python ints, so results are exact for any coordinates.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotFullDimensionalError
from .linalg import hyperplane_normal, rank

LatticePoint = tuple[int, ...]

# int64 is safe while every intermediate stays below this; checked per scan.
_NP_SAFE_LIMIT = 2**61
_INT64_MAX = int(np.iinfo(np.int64).max)


def _as_point(obj, n: int | None = None) -> LatticePoint:
    if isinstance(obj, (str, bytes)) or not hasattr(obj, "__iter__"):
        raise InvalidInputError(f"not a lattice point: {obj!r}")
    coords = tuple(obj)
    if any(isinstance(x, bool) for x in coords):
        raise InvalidInputError(f"boolean coordinate in {obj!r}")
    try:
        pt = tuple(operator.index(x) for x in coords)
    except TypeError:
        raise InvalidInputError(f"non-integer coordinate in {obj!r}") from None
    if n is not None and len(pt) != n:
        raise InvalidInputError(
            f"expected a point of dimension {n}, got {len(pt)}: {obj!r}"
        )
    return pt


def _as_points(objs) -> list[LatticePoint]:
    pts = [_as_point(p) for p in objs]
    if not pts:
        raise InvalidInputError("need at least one point")
    n = len(pts[0])
    if n == 0:
        raise InvalidInputError("points must have at least one coordinate")
    for p in pts:
        if len(p) != n:
            raise InvalidInputError("points have mixed dimensions")
    return pts


def affine_dim(points) -> int:
    """Dimension of the affine hull of a nonempty set of integer points."""
    pts = _as_points(points)
    base = pts[0]
    diffs = [[p[j] - base[j] for j in range(len(base))] for p in pts[1:]]
    if not diffs:
        return 0
    return rank(diffs)


@dataclass(frozen=True, order=True)
class HalfSpace:
    """Closed half-space {x : <normal, x> >= offset} with primitive normal."""

    normal: LatticePoint
    offset: int

    def evaluate(self, point) -> int:
        """Slack at the point; >= 0 inside, == 0 on the hyperplane."""
        return sum(a * x for a, x in zip(self.normal, point)) - self.offset


class Polytope:
    """Full-dimensional lattice polytope, immutable once built.

    Use build_polytope(); the constructor trusts its arguments.
    """

    __slots__ = ("dim", "vertices", "facets", "_hash", "_lp_cache", "_count_cache")

    def __init__(self, dim: int, vertices: tuple[LatticePoint, ...],
                 facets: tuple[HalfSpace, ...]):
        self.dim = dim
        self.vertices = vertices
        self.facets = facets
        self._hash = hash((dim, vertices))
        self._lp_cache = {}
        self._count_cache = {}

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        return self.dim == other.dim and self.vertices == other.vertices

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)})"

    @property
    def polytope_id(self) -> str:
        """Hex digest of the canonical vertex list; stable across runs."""
        blob = json.dumps([list(v) for v in self.vertices], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def bounding_box(self) -> tuple[LatticePoint, LatticePoint]:
        n = self.dim
        lo = tuple(min(v[j] for v in self.vertices) for j in range(n))
        hi = tuple(max(v[j] for v in self.vertices) for j in range(n))
        return lo, hi

    def contains(self, point, interior: bool = False) -> bool:
        """Exact membership test; interior=True uses strict inequalities."""
        pt = _as_point(point, self.dim)
        if interior:
            return all(h.evaluate(pt) > 0 for h in self.facets)
        return all(h.evaluate(pt) >= 0 for h in self.facets)

    def dilate(self, k: int) -> "Polytope":
        """The dilate kP. Facet normals carry over; offsets scale by k."""
        k = operator.index(k)
        if k < 1:
            raise InvalidInputError(f"dilation factor must be >= 1, got {k}")
        if k == 1:
            return self
        verts = tuple(tuple(k * x for x in v) for v in self.vertices)
        facets = tuple(HalfSpace(h.normal, k * h.offset) for h in self.facets)
        return Polytope(self.dim, verts, facets)

    def lattice_points(self, interior: bool = False) -> list[LatticePoint]:
        """All lattice points of the polytope (or its interior), lex sorted."""
        key = bool(interior)
        if key not in self._lp_cache:
            pts = [tuple(int(x) for x in row)
                   for row in scaled_points_array(self, 1, interior)]
            self._lp_cache[key] = tuple(pts)
        return list(self._lp_cache[key])


def build_polytope(points) -> Polytope:
    """Construct the convex hull of integer points as a Polytope.

    Raises NotFullDimensionalError when the points do not span the ambient
    space, InvalidInputError on malformed input.
    """
    pts = sorted(set(_as_points(points)))
    n = len(pts[0])
    adim = affine_dim(pts)
    if adim != n:
        raise NotFullDimensionalError(adim, n)

    # Every facet hyperplane passes through n affinely independent input
    # points, so scanning all n-subsets finds each of them at least once.
    seen: dict[tuple[LatticePoint, int], None] = {}
    for subset in itertools.combinations(pts, n):
        normal = hyperplane_normal(list(subset))
        if normal is None:
            continue
        offset = sum(a * x for a, x in zip(normal, subset[0]))
        lower = upper = False
        for p in pts:
            val = sum(a * x for a, x in zip(normal, p)) - offset
            if val > 0:
                lower = True
            elif val < 0:
                upper = True
            if lower and upper:
                break
        if lower and upper:
            continue  # points on both sides: not a supporting hyperplane
        if upper:
            normal = tuple(-a for a in normal)
            offset = -offset
        seen[(normal, offset)] = None

    facets = tuple(sorted(HalfSpace(nrm, off) for (nrm, off) in seen),)

    vertices = []
    for p in pts:
        tight = [list(h.normal) for h in facets if h.evaluate(p) == 0]
        if tight and rank(tight) == n:
            vertices.append(p)
    return Polytope(n, tuple(vertices), facets)


# -- lattice point enumeration ------------------------------------------------

def _scan_params(P: Polytope, scale: int, interior: bool):
    """Shared setup: box, facet rows, and effective offsets (strict via +1)."""
    n = P.dim
    lo, hi = P.bounding_box()
    lo = [scale * x for x in lo]
    hi = [scale * x for x in hi]
    rows = [(h.normal, scale * h.offset + (1 if interior else 0)) for h in P.facets]
    return n, lo, hi, rows


def _scan_dtype(P: Polytope, scale: int, interior: bool):
    """Element type of the scan of scale*P: np.int64 or object (Python ints).

    int64 is chosen when every intermediate fits. Point totals never exceed
    the box's point count. Facet values over the box stay 4 times below the
    2^61 limit, leaving int64 room for 16 times them: enough for the level-m
    checker's facet values at shifted prefixes (x' // m + delta, x' - a'),
    below 6 times, and its interval ends, sums of two last-coordinate bounds.
    """
    n, lo, hi, rows = _scan_params(P, scale, interior)
    worst = 0
    for normal, beff in rows:
        reach = sum(abs(a) * max(abs(l), abs(h)) for a, l, h in zip(normal, lo, hi))
        worst = max(worst, reach + abs(beff))
    box_points = 1
    for l, h in zip(lo, hi):
        box_points *= h - l + 1
    if 4 * worst < _NP_SAFE_LIMIT and box_points < _NP_SAFE_LIMIT:
        return np.int64
    return object


def _prefix_grid(lo, hi, start0, stop0, dtype):
    """Lex-ordered integer grid over the box, axis 0 restricted to [start0, stop0)."""
    axes = [np.arange(start0, stop0, dtype=dtype)]
    axes += [np.arange(l, h + 1, dtype=dtype) for l, h in zip(lo[1:], hi[1:])]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


def _last_range(r, a_last):
    """Solve a_last[j] * x >= r[j, i] over facets j: a range [lo_i, hi_i] per line i.

    r holds facet offsets minus prefix terms, a row per facet and a column
    per line. Each row divides exactly by one scalar. A bounded polytope has
    a_last entries of both signs; lo > hi where the line misses it.
    """
    pos, neg = a_last > 0, a_last < 0
    a = a_last[pos][:, None]
    lo = ((r[pos] + (a - 1)) // a).max(axis=0)
    hi = (r[neg] // a_last[neg][:, None]).min(axis=0)
    zero = ~(pos | neg)
    if zero.any():
        hi = np.where((r[zero] <= 0).all(axis=0), hi, lo - 1)
    return lo, hi


def _np_slabs(P: Polytope, scale: int, interior: bool, chunk_rows: int = 1 << 20):
    """Yield lex-ordered (prefixes, lo_last, counts) triples, feasible rows only.

    All three arrays have the element type _scan_dtype picks for scale*P.
    """
    n, lo, hi, rows = _scan_params(P, scale, interior)
    dtype = _scan_dtype(P, scale, interior)
    A = np.array([r[0] for r in rows], dtype=dtype)
    beff = np.array([r[1] for r in rows], dtype=dtype)
    A_pre, a_last = A[:, :-1], A[:, -1]
    plo, phi = lo[:-1], hi[:-1]
    if n == 1:
        grids = [np.zeros((1, 0), dtype=dtype)]
    else:
        inner = math.prod(h - l + 1 for l, h in zip(plo[1:], phi[1:]))
        step = max(1, chunk_rows // inner)
        grids = (_prefix_grid(plo, phi, s, min(s + step, phi[0] + 1), dtype)
                 for s in range(plo[0], phi[0] + 1, step))
    for prefixes in grids:
        r = beff[:, None] - A_pre @ prefixes.T
        lo_last, hi_last = _last_range(r, a_last)
        counts = hi_last - lo_last + 1
        feas = counts > 0
        if feas.any():
            yield prefixes[feas], lo_last[feas], counts[feas]


def scaled_count(P: Polytope, scale: int = 1, interior: bool = False) -> int:
    """#(scale * P intersect Z^n), or the interior count. Exact; memoized on P."""
    scale = operator.index(scale)
    if scale < 1:
        raise InvalidInputError(f"scale must be >= 1, got {scale}")
    key = (scale, bool(interior))
    if key not in P._count_cache:
        P._count_cache[key] = sum(
            int(counts.sum()) for _, _, counts in _np_slabs(P, scale, interior)
        )
    return P._count_cache[key]


def scaled_points_array(P: Polytope, scale: int = 1, interior: bool = False):
    """All lattice points of scale*P as one lex-ordered (k, n) array.

    Its element type is int64 when every scan intermediate fits and object
    (exact Python ints) otherwise. A slab of the scan with more points than
    int64 can count cannot be materialized and raises InvalidInputError.
    """
    scale = operator.index(scale)
    if scale < 1:
        raise InvalidInputError(f"scale must be >= 1, got {scale}")
    n = P.dim
    slabs = []
    for prefixes, lo_last, counts in _np_slabs(P, scale, interior):
        total = int(counts.sum())
        if total > _INT64_MAX:
            raise InvalidInputError(
                f"too many lattice points to enumerate: one slab of {scale}P "
                f"holds {total}"
            )
        counts = counts.astype(np.int64, copy=False)
        out = np.empty((total, n), dtype=prefixes.dtype)
        out[:, : n - 1] = np.repeat(prefixes, counts, axis=0)
        ends = np.cumsum(counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
        out[:, n - 1] = np.repeat(lo_last, counts) + within
        slabs.append(out)
    if not slabs:
        return np.empty((0, n), dtype=np.int64)
    return np.concatenate(slabs, axis=0)
