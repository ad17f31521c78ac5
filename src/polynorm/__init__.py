"""Exact-arithmetic toolkit for lattice polytope invariants.

Everything is computed over exact integers and rationals: Ehrhart
polynomials, the interior-emptiness threshold d(P), normality with
witnesses, twist cohomology by counting rules, dilation bounds for
projective normality and property N_p, and a degree-capped probe of
quadratic generation. A seeded corpus harness verifies the guaranteed
bounds in bulk.
"""

from .counting import (
    BoundReport,
    CohomologyTable,
    EhrhartPolynomial,
    autoregularity_from_definition,
    d_of_p,
    ehrhart_polynomial,
    extrapolation_check,
    h_table,
    normality_bound,
    np_bound_from_regularity,
    reciprocity_check,
)
from .errors import (
    CorpusGenerationError,
    InternalInvariantError,
    InvalidInputError,
    NotFullDimensionalError,
    PolynormError,
)
from .geometry import (
    HalfSpace,
    LatticePoint,
    Polytope,
    affine_dim,
    build_polytope,
    scaled_count,
)
from .harness import (
    DEFAULT_CORPUS_SPEC,
    REEVE_RANGE,
    AnalysisRecord,
    CorpusSpec,
    analyze,
    generate_corpus,
    reeve_simplex,
    run_verification,
)
from .normality import (
    CorollaryRecord,
    NormalityReport,
    NormalityWitness,
    default_cap,
    is_normal,
    verify_corollary,
    verify_witness,
)
from .syzygy import N1ProbeReport, n1_probe

__version__ = "0.1.0"

__all__ = [
    "AnalysisRecord", "BoundReport", "CohomologyTable", "CorollaryRecord",
    "CorpusGenerationError", "CorpusSpec", "DEFAULT_CORPUS_SPEC",
    "EhrhartPolynomial", "HalfSpace",
    "InternalInvariantError", "InvalidInputError", "LatticePoint",
    "N1ProbeReport", "NormalityReport", "NormalityWitness",
    "NotFullDimensionalError", "Polytope",
    "PolynormError", "REEVE_RANGE", "affine_dim", "analyze",
    "autoregularity_from_definition",
    "build_polytope", "d_of_p", "default_cap",
    "ehrhart_polynomial", "extrapolation_check",
    "generate_corpus", "h_table", "is_normal", "n1_probe", "normality_bound",
    "np_bound_from_regularity", "reciprocity_check", "reeve_simplex",
    "run_verification", "scaled_count", "verify_corollary",
    "verify_witness",
]
