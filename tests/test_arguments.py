"""Bounded integer arguments: every one goes through geometry._as_int.

A boolean is not an integer argument, and a value below the bound is
refused; both raise InvalidInputError with the message
"<name> must be an integer >= <bound>, got <value>". The bound itself is
accepted.
"""

import re

import pytest

from polynorm import (
    CorpusSpec,
    InvalidInputError,
    build_configuration,
    build_polytope,
    ehrhart_polynomial,
    extrapolation_check,
    is_normal,
    n1_probe,
    normality_bound,
    np_bound_from_regularity,
    reciprocity_check,
    reeve_simplex,
    run_verification,
    scaled_count,
    verify_corollary,
    verify_witness,
)
from polynorm.geometry import scaled_points_array

SQUARE = build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
SPEC = CorpusSpec(seed=1, dims=(2,), coord_bound=2, count_per_dim=1,
                  vertex_candidates=4)

# (id, name in the message, least accepted value, the call taking the value)
SITES = [
    ("dilate", "dilation factor", 1, lambda v: SQUARE.dilate(v)),
    ("scaled_count", "scale", 1, lambda v: scaled_count(SQUARE, v)),
    ("scaled_points_array", "scale", 1, lambda v: scaled_points_array(SQUARE, v)),
    ("build_configuration", "ell", 1, lambda v: build_configuration(SQUARE, v)),
    ("n1_probe_ell", "ell", 1, lambda v: n1_probe(SQUARE, v)),
    ("n1_probe_degree_cap", "degree cap", 2, lambda v: n1_probe(SQUARE, 1, v)),
    ("is_normal", "normality cap", 2, lambda v: is_normal(SQUARE, v)),
    ("verify_witness", "witness level", 2, lambda v: verify_witness(SQUARE, v, (0, 0))),
    ("verify_corollary", "extra_levels", 0,
     lambda v: verify_corollary(SQUARE, normality_bound(SQUARE), v)),
    ("run_verification", "extra_levels", 0,
     lambda v: run_verification(SPEC, extra_levels=v, include_fixtures=False)),
    ("reeve_simplex", "Reeve parameter q", 1, reeve_simplex),
    ("reciprocity_check", "t_max", 1,
     lambda v: reciprocity_check(SQUARE, ehrhart_polynomial(SQUARE), v)),
    ("extrapolation_check", "extrapolation level", 1,
     lambda v: extrapolation_check(SQUARE, ehrhart_polynomial(SQUARE), [v])),
    ("np_bound_from_regularity", "p", 0, lambda v: np_bound_from_regularity(0, v)),
]
PARAMS = [pytest.param(name, least, call, id=site) for site, name, least, call in SITES]


@pytest.mark.parametrize("name, least, call", PARAMS)
@pytest.mark.parametrize("bad", [True, False, "below"])
def test_integer_argument_refuses_booleans_and_values_below_its_bound(
        name, least, call, bad):
    value = least - 1 if bad == "below" else bad
    message = f"^{re.escape(name)} must be an integer >= {least}, got {value!r}$"
    with pytest.raises(InvalidInputError, match=message):
        call(value)


@pytest.mark.parametrize("name, least, call", PARAMS)
def test_integer_argument_accepts_its_bound(name, least, call):
    call(least)
