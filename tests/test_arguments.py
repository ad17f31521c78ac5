"""Integer arguments: every one goes through geometry._as_int.

A boolean is not an integer argument, and a value below the bound is
refused; both raise InvalidInputError with the message
"<name> must be an integer >= <bound>, got <value>", or
"<name> must be an integer, got <value>" where there is no bound. The
bound itself is accepted, and a float raises TypeError. Arguments that
size the output, a sweep's extra_levels, a normality cap (levels_checked
lists its levels) and an h table's twist range, also have a ceiling, 2^16,
checked before any polytope is walked.
"""

import re

import pytest

from polynorm import (
    CorpusSpec,
    InvalidInputError,
    analyze,
    build_polytope,
    h_table,
    is_normal,
    n1_probe,
    normality_bound,
    np_bound_from_regularity,
    reeve_simplex,
    run_verification,
    scaled_count,
    verify_corollary,
    verify_witness,
)
from polynorm import geometry, harness
from polynorm.counting import BoundReport
from polynorm.geometry import scaled_points_array

SQUARE = build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
SPEC = CorpusSpec(seed=1, dims=(2,), coord_bound=2, count_per_dim=1,
                  vertex_candidates=4)
# no dim-4 polytope is probed, so only run_verification itself checks n1_cap
SPEC4 = CorpusSpec(seed=1, dims=(4,), coord_bound=1, count_per_dim=1,
                   vertex_candidates=5)

# (id, name in the message, least accepted value or None where there is no
# bound, the call taking the value)
SITES = [
    ("dilate", "dilation factor", 1, lambda v: SQUARE.dilate(v)),
    ("scaled_count", "scale", 1, lambda v: scaled_count(SQUARE, v)),
    ("scaled_points_array", "scale", 1, lambda v: scaled_points_array(SQUARE, v)),
    ("contains", "scale", 1, lambda v: SQUARE.contains((0, 0), v)),
    ("n1_probe_ell", "ell", 1, lambda v: n1_probe(SQUARE, v)),
    ("n1_probe_degree_cap", "degree cap", 2, lambda v: n1_probe(SQUARE, 1, v)),
    ("is_normal", "normality cap", 2, lambda v: is_normal(SQUARE, v)),
    ("verify_witness", "witness level", 2, lambda v: verify_witness(SQUARE, v, (0, 0))),
    ("verify_corollary", "extra_levels", 0,
     lambda v: verify_corollary(SQUARE, normality_bound(SQUARE), v)),
    # the square's dilates are normal by the lemma: no is_normal sees the cap
    ("verify_corollary_cap", "normality cap", 2,
     lambda v: verify_corollary(SQUARE, normality_bound(SQUARE), 0, v)),
    ("run_verification", "extra_levels", 0,
     lambda v: run_verification(SPEC, extra_levels=v, include_fixtures=False)),
    ("reeve_simplex", "Reeve parameter q", 1, reeve_simplex),
    ("np_bound_from_regularity", "p", 0, lambda v: np_bound_from_regularity(0, v)),
    ("np_bound_from_regularity_m", "m", None, lambda v: np_bound_from_regularity(v, 1)),
    ("h_table_k_min", "k_min", None, lambda v: h_table(SQUARE, v, 1)),
    ("h_table_k_max", "k_max", None, lambda v: h_table(SQUARE, -1, v)),
    ("thread_count", "thread count", 0, harness.thread_count),
    ("run_verification_n1_cap", "n1_cap", 2,
     lambda v: run_verification(SPEC4, n1_cap=v, include_fixtures=False)),
    ("run_verification_cap", "normality cap", 2,
     lambda v: run_verification(SPEC4, cap=v, include_fixtures=False)),
]
PARAMS = [pytest.param(name, least, call, id=site) for site, name, least, call in SITES]
REFUSED = [pytest.param(name, least, call, least - 1 if bad == "below" else bad,
                        id=f"{bad}-{site}")
           for bad in (True, False, "below") for site, name, least, call in SITES
           if bad != "below" or least is not None]


@pytest.mark.parametrize("name, least, call, value", REFUSED)
def test_integer_argument_refuses_booleans_and_values_below_its_bound(
        name, least, call, value):
    bound = "" if least is None else f" >= {least}"
    message = f"^{re.escape(name)} must be an integer{bound}, got {value!r}$"
    with pytest.raises(InvalidInputError, match=message):
        call(value)


@pytest.mark.parametrize("name, least, call", PARAMS)
def test_integer_argument_accepts_its_bound(name, least, call):
    call(0 if least is None else least)


@pytest.mark.parametrize("name, least, call", PARAMS)
def test_integer_argument_refuses_floats(name, least, call):
    with pytest.raises(TypeError):
        call(2.5)


# -- ceilings on arguments that size the output --------------------------------

# (id, message for a value v past the ceiling, the call taking v); h_table
# lists the v twists 1..v
CEILINGS = [
    ("verify_corollary", "extra_levels must be at most 65536, got {}",
     lambda v: verify_corollary(SQUARE, normality_bound(SQUARE), v)),
    ("run_verification", "extra_levels must be at most 65536, got {}",
     lambda v: run_verification(SPEC, extra_levels=v, include_fixtures=False)),
    ("h_table", "twist range [1, {}] holds over 65536 twists", lambda v: h_table(SQUARE, 1, v)),
    ("is_normal_cap", "normality cap must be at most 65536, got {}",
     lambda v: is_normal(SQUARE, v)),
    ("analyze_cap", "normality cap must be at most 65536, got {}", lambda v: analyze(SQUARE, v)),
    ("verify_corollary_cap", "normality cap must be at most 65536, got {}",
     lambda v: verify_corollary(SQUARE, normality_bound(SQUARE), 0, v)),
    ("run_verification_cap", "normality cap must be at most 65536, got {}",
     lambda v: run_verification(SPEC, cap=v, include_fixtures=False)),
]


@pytest.mark.parametrize("message, call", [pytest.param(m, c, id=i) for i, m, c in CEILINGS])
def test_output_sized_argument_has_a_ceiling(message, call):
    assert geometry._MAX_ROWS == 2**16
    call(2**16)
    for value in (2**16 + 1, 10**9):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message.format(value))}$"):
            call(value)


def test_ceilings_are_checked_before_any_walk(monkeypatch):
    # a forged d = 2 makes the sweep of a Reeve simplex climb S_1, which walks
    walks, walk = [], geometry._walk
    monkeypatch.setattr(geometry, "_walk",
                        lambda P, scales: walks.append(scales) or walk(P, scales))
    with pytest.raises(InvalidInputError, match="^extra_levels must be at most"):
        verify_corollary(reeve_simplex(2), BoundReport(3, 2), 10**9)
    with pytest.raises(InvalidInputError, match="^extra_levels must be at most"):
        run_verification(SPEC, extra_levels=10**9)
    with pytest.raises(InvalidInputError, match="^twist range"):
        h_table(reeve_simplex(2), 1, 10**9)
    with pytest.raises(InvalidInputError, match="^normality cap must be at most"):
        analyze(reeve_simplex(2), 10**9)
    with pytest.raises(InvalidInputError, match="^normality cap must be at most"):
        run_verification(SPEC, cap=10**9)
    assert walks == []
    verify_corollary(reeve_simplex(2), BoundReport(3, 2), 0)
    assert walks


@pytest.mark.parametrize("k", [-10**9, 10**9])
def test_far_single_twists_still_answer(k):
    # one twist far out is read off the Ehrhart polynomial: L(t) = (t + 1)^2
    h = (0, 0, (k + 1)**2) if k < 0 else ((k + 1)**2, 0, 0)
    assert h_table(SQUARE, k, k).rows == ((k, h),)
