"""Numerics for cusp excursions of diagonal flows on spaces of lattices.

Four labs: shortest vectors and weighted cusp functions on unimodular
lattices, one-parameter diagonal flows with badly-approximable
classification, Haar-random measure estimates near the cusp, and
survivor covers with box-counting dimension fits.
"""

from .covering import (
    CoverLevel,
    CoverResult,
    DimensionEstimate,
    Tessellation,
    box_dimension_fit,
    calibrate_K3,
    cf_digit_oracle,
    count_S_rt,
    count_S_rt_brute,
    lemma61_bound,
    survivor_cover,
    tessellation_new,
)
from .errors import (
    BudgetExceeded,
    CuspDimError,
    DegenerateFit,
    InvariantViolation,
    ValidationError,
)
from .flows import (
    BadVerdict,
    OrbitProfile,
    classify_from_profile,
    direct_bad_constant,
    g_t,
    orbit_profile,
    u_A,
)
from .haar import (
    InclusionReport,
    MeasureEstimate,
    ScalingFit,
    admissible_radius,
    core_inclusion_check,
    estimate_mu_U,
    nondivergence_profile,
    sampler_calibration,
    siegel_prediction,
)
from .lattices import (
    EQUAL_WEIGHTS_2D,
    Lattice,
    ShortVec,
    WeightVector,
    delta,
    delta_weighted,
    make_lattice,
    quasinorm,
    shortest_vector,
    shortest_vector_weighted,
)

__version__ = "0.1.0"

__all__ = [
    "BadVerdict",
    "BudgetExceeded",
    "CoverLevel",
    "CoverResult",
    "CuspDimError",
    "DegenerateFit",
    "DimensionEstimate",
    "EQUAL_WEIGHTS_2D",
    "InclusionReport",
    "InvariantViolation",
    "Lattice",
    "MeasureEstimate",
    "OrbitProfile",
    "ScalingFit",
    "ShortVec",
    "Tessellation",
    "ValidationError",
    "WeightVector",
    "admissible_radius",
    "box_dimension_fit",
    "calibrate_K3",
    "cf_digit_oracle",
    "classify_from_profile",
    "core_inclusion_check",
    "count_S_rt",
    "count_S_rt_brute",
    "delta",
    "delta_weighted",
    "direct_bad_constant",
    "estimate_mu_U",
    "g_t",
    "lemma61_bound",
    "make_lattice",
    "nondivergence_profile",
    "orbit_profile",
    "quasinorm",
    "sampler_calibration",
    "shortest_vector",
    "shortest_vector_weighted",
    "siegel_prediction",
    "survivor_cover",
    "tessellation_new",
    "u_A",
]
