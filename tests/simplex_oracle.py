"""An exact oracle for lattice simplices: their box points.

The cone over a simplex P = conv{v_0, ..., v_n} in Z^n is spanned by
w_i = (1, v_i). Its half-open fundamental parallelepiped, the points
sum lambda_i w_i with 0 <= lambda_i < 1, holds one lattice point per
element of Z^{n+1} / W Z^{n+1}, W the matrix with columns w_i: the box
points, |det W| of them. A box point's first coordinate is its height h,
and the rest is a lattice point of hP.

- h*_k is the number of box points of height k (Stanley, Ann. Discrete
  Math. 6, 1980). So L_P(t) = sum_k h*_k C(t + n - k, n), and d(P), the
  last t with no interior lattice point in tP, is n - deg h*.
- Every lattice point of the cone is a box point plus a nonnegative
  integer combination of the w_i. So P is normal iff every box point of
  height h >= 2 is a sum of h lattice points of P, and h <= n. At the
  first level that fails, every point of that level that is no such sum
  is a box point, so the lex-first such box point of least height is
  is_normal's witness.

The box points and h* come from exact integer linear algebra alone: no
dilate is walked and no facet read. Only whether a box point is a sum of
lattice points of P is asked of the package, of verify_witness's
depth-first search.
"""

from math import comb

from exact_linalg import det
from polynorm import verify_witness


def box_points(vertices):
    """The box points of the simplex conv(vertices) as (height, point), in
    (height, lex) order.

    lambda = W^-1 z = adj(W) z / det(W), so D lambda mod D, D = |det W|,
    names the box point of z's coset. The images of the unit vectors
    generate the D cosets; a box point is W (D lambda mod D) / D.
    """
    n = len(vertices) - 1
    W = [[1] * (n + 1)] + [[v[i] for v in vertices] for i in range(n)]
    D = det(W)
    sign, D = (1, D) if D > 0 else (-1, -D)
    # adj(W)[i][j] is the signed minor of W without row j and column i
    adj = [[(-1) ** (i + j) * det([row[:i] + row[i + 1:] for k, row in enumerate(W) if k != j])
            for j in range(n + 1)] for i in range(n + 1)]
    units = [tuple(sign * adj[i][j] % D for i in range(n + 1)) for j in range(n + 1)]
    seen, todo = {(0,) * (n + 1)}, [(0,) * (n + 1)]
    while todo:
        r = todo.pop()
        for u in units:
            s = tuple((a + b) % D for a, b in zip(r, u))
            if s not in seen:
                seen.add(s)
                todo.append(s)
    assert len(seen) == D
    points = []
    for r in seen:
        z = [divmod(sum(a * x for a, x in zip(r, row)), D) for row in W]
        assert all(rest == 0 for _, rest in z)
        points.append((z[0][0], tuple(q for q, _ in z[1:])))
    return sorted(points)


def h_star(vertices):
    """(h*_0, ..., h*_n): the box points of the simplex counted by height."""
    h = [0] * len(vertices)
    for height, _ in box_points(vertices):
        h[height] += 1
    return tuple(h)


def ehrhart_from_h_star(h, t):
    """L_P(t) = sum_k h*_k C(t + n - k, n), for t >= 0."""
    n = len(h) - 1
    return sum(h_k * comb(t + n - k, n) for k, h_k in enumerate(h))


def first_box_witness(P):
    """(height, point) of the first box point of the simplex P, in (height,
    lex) order, that is no sum of height lattice points of P
    (verify_witness); None when there is none, that is, when P is normal."""
    return next(((h, z) for h, z in box_points(P.vertices)
                 if h >= 2 and verify_witness(P, h, z)), None)
