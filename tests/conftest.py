"""Shared fixtures: a handful of small polytopes with known invariants,
`random_polytope`, the seeded generator the test modules import,
`box_scan`, their reference enumeration, and `build_configuration`, the
point configuration that the fiber oracles of test_syzygy.py enumerate."""

import itertools
import operator
import os
from dataclasses import dataclass

import pytest

from polynorm import (
    InvalidInputError,
    NotFullDimensionalError,
    build_polytope,
    reeve_simplex,
    scaled_count,
)
from polynorm.geometry import scaled_points_array

_acceptance_lines: list[str] = []


def random_polytope(rng, n, spread=3):
    """conv of n + 2 points drawn from [-spread, spread]^n by `rng`, drawn
    again until they span the space."""
    while True:
        pts = [tuple(rng.randrange(-spread, spread + 1) for _ in range(n))
               for _ in range(n + 2)]
        try:
            return build_polytope(pts)
        except (InvalidInputError, NotFullDimensionalError):
            continue


def box_scan(P, k=1, strict=False):
    """Reference enumeration of (interior) lattice points of k*P: walk the
    integer box of k*P, lex ordered, and keep the points that satisfy
    every facet inequality."""
    lo, hi = P.bounding_box()
    axes = [range(k * a, k * b + 1) for a, b in zip(lo, hi)]
    out = []
    for p in itertools.product(*axes):
        vals = [sum(n * x for n, x in zip(H.normal, p)) - k * H.offset
                for H in P.facets]
        if all(v > 0 for v in vals) if strict else all(v >= 0 for v in vals):
            out.append(p)
    return out


@dataclass(frozen=True)
class PointConfiguration:
    """Homogenized lattice points (1, u) of a dilate, lex ordered."""

    points: tuple[tuple[int, ...], ...]
    n_plus_1: int

    def __len__(self):
        return len(self.points)


def build_configuration(P, ell):
    """Configuration of the embedding by ell*P."""
    pts = tuple((1, *u) for u in scaled_points_array(P, ell).tolist())
    return PointConfiguration(points=pts, n_plus_1=P.dim + 1)


def pytest_configure(config):
    # pyproject's pythonpath puts src/ on this process's path; the CLI tests
    # start `python -m polynorm.cli` subprocesses, which need it too
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def criterion_report():
    """Record one PASS/FAIL line per acceptance criterion.

    Lines also land in the terminal summary, so the verdicts stay visible
    even when pytest captures the per-test output.
    """

    def record(line: str) -> None:
        _acceptance_lines.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def np_dominance_failure():
    """Check a regularity level against the paper's N_p level n-1+p.

    np_bound_from_regularity(m, p), with m the autoregularity of P, stays
    at or below n-1+p, and strictly below it when d(P) >= 2, with two
    exceptions that the arithmetic fixes exactly:

    - p = 0 with d(P) = 0 or n = 1: the level is max(n-d, 1) = n, one
      above n-1.  For d = 0 the paper's n-1 is the classical normality
      bound, which the regularity route does not reach; for n = 1, n-1 = 0
      is not a dilation level.
    - d(P) >= 2 where the level clamps at 1 = n-1+p: only p = 0 with
      n = d = 2.

    The returned function gives None when `bound` keeps this rule, else
    the reason it does not.
    """

    def failure(n, d, p, bound):
        paper = n - 1 + p
        if p == 0 and (d == 0 or n == 1):
            return None if bound == n else f"p = 0 level must equal n = {n}"
        if bound > paper:
            return f"exceeds n-1+p = {paper}"
        if d >= 2 and bound >= paper and bound != 1:
            return f"not below n-1+p = {paper} although d >= 2"
        return None

    return failure


@pytest.fixture(scope="session")
def interior_count():
    """#(relint(kP) cap Z^n) for k >= 1, the counting oracle several test
    modules share."""

    def count(P, k):
        k = operator.index(k)
        if k < 1:
            raise InvalidInputError(f"dilation factor must be >= 1, got {k}")
        return scaled_count(P, k, interior=True)

    return count


@pytest.fixture
def unit_square():
    return build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.fixture
def t2():
    # Reeve simplex with q=2; only lattice points are the four vertices
    return reeve_simplex(2)


@pytest.fixture
def delta3():
    return build_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture
def big_triangle():
    # 3 * (standard 2-simplex): has (1, 1) in its interior, so d = 0
    return build_polytope([(0, 0), (3, 0), (0, 3)])


@pytest.fixture
def skew_triangle():
    # conv{(0,0),(1,2),(2,1)}: four lattice points, the classic example whose
    # degree-3 fiber at (3,3,3) splits into the vertex triple and the
    # tripled centroid with no quadratic move between them
    return build_polytope([(0, 0), (1, 2), (2, 1)])
