"""Lattice polytopes in Z^n with exact facet descriptions.

A polytope is built from an explicit list of integer points and is required
to be full-dimensional in its ambient space. Facets are found by the double
description method in exact integers, started from the whole space, so
there are no numerical failure modes and no separate start: the points
that raise the affine dimension split the lineality space, and the others
cut the rays. The cost grows with the facets met on the way, not with the
C(N, n) point subsets. The split runs first, so a flat input has no ray.

Lattice point enumeration is one numpy scan: it walks the lattice points of
P's projection onto the first n-1 coordinates, axis by axis, and solves each
coordinate's range by the facets of a projection, found at P's first walk,
with exact integer ceil/floor division. One walk takes a tuple of scales,
so the counts of dilates that counting reads cost one (count_scales, which
solves each line closed and strict); every other reader reads one dilate's
closed lines (_slabs). The counting walk keeps the lines of P, 2P and 3P
on P, up to one expansion's worth of points, for the readers of those
dilates. A computed overflow bound picks the narrowest of three element
types: int32 or int64 while 4 times every facet value stays below 2^29 or
2^61, which leaves room for 16 times them, else object arrays of Python
ints, so results are exact for any coordinates.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

try:  # the interpreter's own SHA-256 module; the fallback loads OpenSSL's libcrypto
    from _sha256 import sha256  # Python 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        from hashlib import sha256

from .errors import InvalidInputError, NotFullDimensionalError

LatticePoint = tuple[int, ...]

_NP32_SAFE_LIMIT, _NP_SAFE_LIMIT = 2**29, 2**61  # see _scan_dtype
_CHUNK_ROWS = 1 << 18  # prefixes one expansion of _walk takes at most
_KEPT_TOP = 3  # count_scales keeps the lines of kP for k up to this scale
_MAX_LIST_BYTES = 1 << 27  # bytes of coordinates scaled_points_array lists at most
_MAX_ROWS = 1 << 16  # dilates a sweep, or twists an h table, reports at most


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


def _as_int(value, what: str, least: int | None = None, most: int | None = None) -> int:
    """operator.index of an integer argument, >= least and <= most unless
    they are None; a boolean is not one."""
    if isinstance(value, bool) or (least is not None and operator.index(value) < least):
        bound = "" if least is None else f" >= {least}"
        raise InvalidInputError(f"{what} must be an integer{bound}, got {value!r}")
    if most is not None and operator.index(value) > most:
        raise InvalidInputError(f"{what} must be at most {most}, got {value!r}")
    return operator.index(value)


def _as_points(objs) -> list[LatticePoint]:
    pts = [_as_point(p) for p in objs]
    if not pts:
        raise InvalidInputError("need at least one point")
    n = len(pts[0])
    if n == 0:
        raise InvalidInputError("points must have at least one coordinate")
    if any(len(p) != n for p in pts):
        raise InvalidInputError("points have mixed dimensions")
    return pts


def _dot(a, x) -> int:
    return sum(map(operator.mul, a, x))


def _combine(f, sf, g, sg) -> tuple[int, ...]:
    """sg f - sf g, primitive: the combination of f and g that vanishes at the
    point where f takes the value sf and g the value sg."""
    y = [sg * x - sf * w for x, w in zip(f, g)]
    k = math.gcd(*y)
    return tuple(y) if k == 1 else tuple([x // k for x in y])


def _cut(lineality, q):
    """Cut a lineality basis by the hyperplane <q, y> = 0.

    Returns None when every basis vector lies on it. Else it takes the first
    vector y off it, signed so that <q, y> > 0, and returns y, <q, y> and the
    other vectors moved onto the hyperplane along y.
    """
    for k, y in enumerate(lineality):
        t = _dot(q, y)
        if t:
            if t < 0:
                y, t = tuple(-x for x in y), -t
            rest = ((x, _dot(q, x)) for x in lineality[k + 1:])
            return y, t, lineality[:k] + [_combine(x, s, y, t) if s else x for x, s in rest]
    return None


def _identity(k: int) -> list[tuple[int, ...]]:
    """The unit vectors of Z^k, the last first: every point (p, -1) takes
    -1 on it, so the first point cuts along it, leaving the (e_j, p_j)."""
    return [tuple(int(i == j) for j in range(k)) for i in reversed(range(k))]


def _split(pts):
    """Cut the lineality basis of Z^{n+1} by each (p, -1), p in pts, in turn:
    what is left of it, and (p, y, t) for each p that cut it (see _cut)."""
    lineality, splits = _identity(len(pts[0]) + 1), []
    for p in pts:
        cut = _cut(lineality, p + (-1,)) if lineality else None
        if cut:
            y, t, lineality = cut
            splits.append((p, y, t))
    return lineality, splits


def affine_dim(points) -> int:
    """Dimension of the affine hull of a nonempty set of integer points.

    n minus the dimension of the (a, b) with <a, p> = b at every point p,
    cut one point at a time from Z^{n+1}.
    """
    pts = _as_points(points)
    return len(pts[0]) - len(_split(pts)[0])


@dataclass(frozen=True, order=True)
class HalfSpace:
    """Closed half-space {x : <normal, x> >= offset} with primitive normal."""

    normal: LatticePoint
    offset: int


def vertices_id(vertices) -> str:
    """polytope_id of the polytope whose sorted vertex list this is."""
    blob = json.dumps([list(v) for v in vertices], separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()[:16]


class Polytope:
    """Full-dimensional lattice polytope, immutable once built.

    Use build_polytope(); the constructor trusts its arguments.
    """

    __slots__ = ("dim", "vertices", "facets", "_hash", "_count_cache", "_lines", "_frame",
                 "_box", "_id")

    def __init__(self, dim: int, vertices: tuple[LatticePoint, ...],
                 facets: tuple[HalfSpace, ...]):
        self.dim = dim
        self.vertices = vertices
        self.facets = facets
        self._hash = hash((dim, vertices))
        self._count_cache, self._lines = {}, {}
        self._frame = self._box = self._id = None

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
        """Hex digest of the canonical vertex list; stable across runs, hashed once."""
        if self._id is None:
            self._id = vertices_id(self.vertices)
        return self._id

    def bounding_box(self) -> tuple[LatticePoint, LatticePoint]:
        """(lo, hi): each axis's least and greatest vertex coordinate, found once."""
        if self._box is None:
            axes = list(zip(*self.vertices))
            self._box = tuple(map(min, axes)), tuple(map(max, axes))
        return self._box

    def contains(self, point, scale: int = 1) -> bool:
        """Exact membership test in scale*P: validates point and scale, then _inside."""
        return _inside(self, _as_point(point, self.dim), _as_int(scale, "scale", 1))

    def dilate(self, k: int) -> "Polytope":
        """The dilate kP, without a scan frame: normals carry over, offsets times k."""
        k = _as_int(k, "dilation factor", 1)
        if k == 1:
            return self
        verts = tuple(tuple(k * x for x in v) for v in self.vertices)
        facets = tuple(HalfSpace(h.normal, k * h.offset) for h in self.facets)
        return Polytope(self.dim, verts, facets)

    def lattice_points(self) -> list[LatticePoint]:
        """All lattice points of the polytope, lex sorted."""
        rows = scaled_points_array(self).tolist()  # Python ints
        return list(map(tuple, rows))


def _inside(P: Polytope, point: LatticePoint, scale: int) -> bool:
    """<a, point> >= scale*b on every facet of P, for ints already validated."""
    return all(_dot(h.normal, point) >= scale * h.offset for h in P.facets)


def build_polytope(points) -> Polytope:
    """Construct the convex hull of integer points as a Polytope.

    The facets (a, b), <a, x> >= b, are the extreme rays of the cone
    {(a, b) : <a, p> >= b for every input point p}, found by the double
    description method (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda
    and Prodon 1996), which adds the points one by one as constraints,
    starting from the whole space Z^{n+1}. First the points cut a basis of
    the cone's lineality space, the (a, b) tight at every point so far
    (_split, as in affine_dim): a point off the affine hull of the points
    before it tilts a basis vector. A basis left over means a flat input,
    refused before any ray exists. Else the n + 1 points that tilted one
    go first: each tilted vector becomes a ray tight at the points before,
    and one elimination step moves the rays onto the point's hyperplane.
    Every other point cuts the rays. A ray carries the bitset of the points
    so far on its hyperplane; two rays are adjacent iff those share at
    least n - 1 points and no third ray's contains the shared ones. A point
    is a vertex iff the facets through it have no other point in common.

    Raises NotFullDimensionalError when the points do not span the ambient
    space, InvalidInputError on malformed input.
    """
    pts = sorted(set(_as_points(points)))
    n = len(pts[0])
    lineality, splits = _split(pts)
    if lineality:
        raise NotFullDimensionalError(n - len(lineality), n)
    basis = [p for p, _, _ in splits]
    pts = basis + sorted(set(pts) - set(basis))
    rays = []  # (normal + (offset,), tight bitset)
    for i, (p, y, t) in enumerate(splits):
        q = p + (-1,)
        rays = [(_combine(r, s, y, t) if s else r, z | 1 << i)
                for r, z in rays for s in [_dot(q, r)]] + [(y, (1 << i) - 1)]
    for i, p in enumerate(pts[n + 1:], n + 1):
        q = p + (-1,)
        slacks = [_dot(q, y) for y, _ in rays]
        plus = [(r, s) for r, s in zip(rays, slacks) if s > 0]
        new = []
        for f, sf in zip(rays, slacks):
            if sf >= 0:
                continue
            for g, sg in plus:
                shared = f[1] & g[1]
                if shared.bit_count() < n - 1 or any(
                        r[1] & shared == shared for r in rays if r is not f and r is not g):
                    continue
                # f violated, g satisfied, adjacent: sg f - sf g is tight at p
                new.append((_combine(f[0], sf, g[0], sg), shared | 1 << i))
        rays = [(y, z | (1 << i if s == 0 else 0))
                for (y, z), s in zip(rays, slacks) if s >= 0] + new

    vertices = []
    for i, p in enumerate(pts):
        meet = -1
        for _, z in rays:
            if z >> i & 1:
                meet &= z
        if meet == 1 << i:
            vertices.append(p)
    facets = tuple(sorted(HalfSpace(y[:-1], y[-1]) for y, _ in rays))
    return Polytope(n, tuple(sorted(vertices)), facets)


# -- lattice point enumeration ------------------------------------------------

def _scan_frame(P: Polytope):
    """(groups, reach): facet rows (normal, offset) bounding each coordinate,
    and their reach.

    Group k holds the facets of pi_{k+1}(P), the projection onto the first
    k + 1 coordinates (pi_n(P) = P; pi_1(P) spans the box). reach bounds
    |<a, x>| + |b| over rows (a, b), x in P's box. Built at P's first walk.
    """
    if P._frame is None:
        lo, hi = P.bounding_box()
        facets = ([(HalfSpace((1,), lo[0]), HalfSpace((-1,), -hi[0]))]
                  + [build_polytope([v[:k] for v in P.vertices]).facets
                     for k in range(2, P.dim)] + [P.facets])[-P.dim:]  # dim 1: P's own
        far = [max(abs(l), abs(h)) for l, h in zip(lo, hi)]
        reach = max(sum(abs(a) * x for a, x in zip(h.normal, far)) + abs(h.offset)
                    for group in facets for h in group)
        P._frame = (tuple(np.array([h.normal + (h.offset,) for h in g], dtype=object)
                          for g in facets), reach)
    return P._frame


def _scan_dtype(P: Polytope, scale: int):
    """Element type of the scans of scale*P: np.int32, np.int64 or object.

    The narrowest rung where facet values of P and its projections over the
    box, even at strict offsets, stay 4 times below the limit, 2^29 or 2^61,
    and so does the box's point count; else exact Python ints. Sums of int32
    counts run in int64. 16 times the facet values fit, and so do the
    level-m checker's interval ends, sums of two last-coordinate bounds.
    """
    reach, (lo, hi) = _scan_frame(P)[1], P.bounding_box()
    box_points = math.prod(scale * (h - l) + 1 for l, h in zip(lo, hi))
    return _narrowest(max(4 * (scale * reach + 1), box_points))


def _narrowest(bound: int):
    """np.int32 or np.int64 when bound is below its limit, 2^29 or 2^61, else object."""
    for dtype, limit in ((np.int32, _NP32_SAFE_LIMIT), (np.int64, _NP_SAFE_LIMIT)):
        if bound < limit:
            return dtype
    return object


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


def _expand(prefixes, lo, counts):
    """Rows prefixes[i] + (lo[i] + j,) for 0 <= j < counts[i], in lex order."""
    counts = counts.astype(np.int64, copy=False)
    within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    last = (np.repeat(lo, counts) + within)[:, None]
    return np.concatenate((np.repeat(prefixes, counts, axis=0), last), axis=1,
                          dtype=prefixes.dtype)


def _walk(P: Polytope, scales: tuple[int, ...]):
    """Yield (K, X, r, a_last) per chunk of lines: the scale k and prefix of
    the first n-1 coordinates of each line that meets the projection of kP,
    and the residuals r of k*P's facets there, whose _last_range(r, a_last)
    is the line's range.

    One walk serves all the scales, ascending: a stack row carries its scale
    k, the facet offsets times k give its residuals, and rows come out in
    (scale, lex) order. Coordinate j solves k*pi_{j+1}(P)'s facets by
    _last_range; a stack holds the ranges not yet expanded, deepest on top;
    an expansion takes at most _CHUNK_ROWS of them, splitting a long range.
    Arrays take the top scale's _scan_dtype.
    """
    dtype = _scan_dtype(P, max(scales))
    groups = [(M[:, :-2].astype(dtype), M[:, -2].astype(dtype), M[:, -1:].astype(dtype))
              for M in _scan_frame(P)[0]]
    K, X, stack = np.array(scales, dtype=dtype), np.zeros((len(scales), 0), dtype), []
    while True:
        A, a_last, b = groups[X.shape[1]]
        r = b * K - A @ X.T
        if X.shape[1] == P.dim - 1:
            yield K, X, r, a_last
        else:
            lo, hi = _last_range(r, a_last)
            keep = lo <= hi
            if keep.any():
                stack.append((K[keep], X[keep], lo[keep], hi[keep]))
        if not stack:
            return
        K, X, lo, hi = stack.pop()
        ends = np.cumsum(hi - lo + 1)
        t = len(X) if ends[-1] <= _CHUNK_ROWS else int((ends <= _CHUNK_ROWS).sum())
        if t == 0:  # the first range alone is longer than a chunk: split it
            rest = lo.copy()
            rest[0] += _CHUNK_ROWS
            stack.append((K, X, rest, hi))
            t, hi = 1, lo + (_CHUNK_ROWS - 1)
        elif t < len(X):
            stack.append((K[t:], X[t:], lo[t:], hi[t:]))
        counts = (hi - lo + 1)[:t].astype(np.int64)
        K, X = np.repeat(K[:t], counts), _expand(X[:t], lo[:t], counts)


def _code_radix(P: Polytope, top: int) -> list[int]:
    """Per axis, top times P's box width plus one: the digits of a point of
    kP, k <= top, less k times P's low corner, lie below it."""
    lo, hi = P.bounding_box()
    return [top * (h - l) + 1 for l, h in zip(lo, hi)]


def _code_box(P: Polytope, top: int) -> int | None:
    """The number of codes up to top (_codes), the radix product, or None
    when it reaches 2^62, where int64 sums of two codes could overflow."""
    box = math.prod(_code_radix(P, top))
    return box if box < 2**62 else None


def _codes(P: Polytope, k: int, top: int):
    """The int64 codes of kP's lattice points in lex order, for k <= top and
    _code_box(P, top) not None, from the digits of one slab (_slabs) at a
    time: no listing of kP's coordinates is held, so none is refused.

    The code of u in kP is its digits u - k lo (lo P's low corner) in the
    mixed radix _code_radix(P, top), the first axis the most significant;
    the radix comes from P's box, so no point is listed to choose it. Codes
    ascend in lex order, a code determines its point (_decode_point), and
    the code of a point of jP plus that of a point of kP, j + k <= top, is
    the code of their sum.
    """
    radix, codes = _code_radix(P, top), []
    for X, L, counts in _slabs(P, k):
        corner = k * np.array(P.bounding_box()[0], dtype=X.dtype)
        digits = _expand(X - corner[:-1], L - corner[-1], counts).astype(np.int64)
        codes.append(np.ravel_multi_index(tuple(digits.T), radix))
    return np.concatenate(codes)


def _decode_point(P: Polytope, top: int, k: int, code) -> LatticePoint:
    """The point of kP whose code up to top (_codes) is code, in Python ints."""
    digits = np.unravel_index(int(code), _code_radix(P, top))
    return tuple(int(d) + k * l for d, l in zip(digits, P.bounding_box()[0]))


def count_scales(P: Polytope, scales) -> None:
    """Memoize on P the counts of k*P and relint(k*P) for the scales k not
    counted yet: one walk, exact sums (int64 or Python ints).

    The lines that meet k*P are solved again with k*P's offsets + 1, for
    relint(k*P) (no projection is strict). The walk also keeps on P the
    lines (prefixes, first last coordinates and counts) of each kP it walks
    with k <= _KEPT_TOP, for _slabs, while they hold at most _CHUNK_ROWS
    points in all: the scale that passes it and those above are not kept.
    forget_lines drops them.
    """
    scales = sorted({k for k in scales if (k, False) not in P._count_cache})
    counts = dict.fromkeys([(k, s) for k in scales for s in (False, True)], 0)
    kept, room = {k: [] for k in scales if k <= _KEPT_TOP}, _CHUNK_ROWS
    for K, X, r, a_last in _walk(P, scales) if scales else ():
        lo, hi = _last_range(r, a_last)
        keep = lo <= hi
        K, X, lo, closed = K[keep], X[keep], lo[keep], (hi - lo + 1)[keep]
        lo_in, hi_in = _last_range(r[:, keep] + 1, a_last)
        inside = np.maximum(hi_in - lo_in + 1, 0)
        ends = np.searchsorted(K, scales, side="right").tolist()
        for k, start, end in zip(scales, [0] + ends, ends):
            points = int(closed[start:end].sum())
            counts[k, False] += points
            counts[k, True] += int(inside[start:end].sum())
            if k in kept and start < end:
                room -= points
                if room < 0:
                    kept = {j: lines for j, lines in kept.items() if j < k}
                else:
                    kept[k].append((X[start:end], lo[start:end], closed[start:end]))
    P._count_cache.update(counts)
    for k, lines in kept.items():
        # one block a scale, so few small allocations outlive the walk
        blocks = [np.column_stack(line) for line in lines]
        rows = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        rows.flags.writeable = False  # the readers share it
        P._lines[k] = (rows[:, :-2], rows[:, -2], rows[:, -1])


def forget_lines(P: Polytope) -> None:
    """Drop the lines count_scales kept on P; its counts stay."""
    P._lines.clear()


def _slabs(P: Polytope, k: int):
    """Yield (X, lo, counts) per chunk: the prefixes, first last coordinates
    and point counts of the lines of _walk that meet k*P, or in one chunk
    the lines count_scales kept on P, read-only, as a copy only adds to peak
    memory. Either way the lines, their lex order and type are the walk's."""
    if k in P._lines:
        yield tuple(a.astype(_scan_dtype(P, k), copy=False) for a in P._lines[k])
        return
    for _, X, r, a_last in _walk(P, (k,)):
        lo, hi = _last_range(r, a_last)
        keep = lo <= hi
        if keep.any():
            yield X[keep], lo[keep], (hi - lo + 1)[keep]


def scaled_count(P: Polytope, scale: int = 1, interior: bool = False) -> int:
    """#(scale * P intersect Z^n), or the interior count. Exact; memoized on P:
    a miss walks this scale alone and counts both modes (count_scales)."""
    scale = _as_int(scale, "scale", 1)
    key = (scale, bool(interior))
    if key not in P._count_cache:
        count_scales(P, (scale,))
    return P._count_cache[key]


def scaled_points_array(P: Polytope, scale: int = 1):
    """All lattice points of scale*P as one lex-ordered (k, n) array.

    Its element type is the scan's: int32, int64 or object (exact Python
    ints). A listing whose coordinates would pass _MAX_LIST_BYTES, each at
    its item size plus, if object, the size of an int as large as the
    largest |coordinate| of scale*P's box, is refused with InvalidInputError
    before the slab that would take it there is expanded.
    """
    scale = _as_int(scale, "scale", 1)
    dtype = _scan_dtype(P, scale)
    item = np.dtype(dtype).itemsize
    if dtype is object:
        item += sys.getsizeof(scale * max(map(abs, sum(P.bounding_box(), ()))))
    slabs, listed = [], 0
    for prefixes, lo_last, counts in _slabs(P, scale):
        listed += int(counts.sum())
        if listed * P.dim * item > _MAX_LIST_BYTES:
            raise InvalidInputError(
                f"too many lattice points to enumerate: {scale}P holds at least "
                f"{listed}, past {_MAX_LIST_BYTES} bytes of coordinates"
            )
        slabs.append(_expand(prefixes, lo_last, counts))
    return np.concatenate(slabs, axis=0)
