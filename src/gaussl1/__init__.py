"""L1 low-degree polynomial approximation of Boolean concepts under the
standard Gaussian measure, with an agnostic polynomial-regression learner.

The package is organized around the orthonormal Hermite basis:

- ``hermite``: basis evaluation, expansions, tensorized Gauss-Hermite rules
- ``noise``: the Gaussian smoothing operator and its eigenvalue checks
- ``concepts``: Boolean concepts, noise sensitivity, Gaussian surface area
- ``approx``: the smoothing + truncation construction and its error bounds
- ``sign_series``: exact and asymptotic study of the Hermite series of sign
- ``learner``: L1 polynomial regression with threshold selection
- ``cli``: reproducible command-line experiments
"""

__version__ = "0.1.0"

from .errors import (
    GaussL1Error,
    ValidationError,
    DimensionMismatchError,
    NodeBudgetError,
    EvaluationError,
    ToleranceError,
    CapabilityError,
)
from .mc import EstimateWithError, derive_seed
from .hermite import (
    HermiteExpansion,
    QuadratureRule,
    hermite_eval,
    hermite_upto,
    hermite_zero,
    hermite_multi_eval,
    gauss_hermite_rule,
    expectation,
    expansion_eval,
    truncate,
    l2_norm,
    coeff_via_derivatives,
    multi_indices_upto,
)
from .noise import apply_to_expansion, apply_pointwise_mc, eigen_check, tail_bound_check
from .concepts import (
    Concept,
    halfspace,
    ball,
    intersection,
    constant_concept,
    ptf,
    gns_mc,
    gns_halfspace_closed_form,
    gns_ball_closed_form,
    gsa_mc,
    noise_distance_check,
    gns_gsa_bound_check,
    load_concept,
)
from .approx import (
    ApproximationPlan,
    plan,
    estimate_coefficients,
    halfspace_expansion,
    profile_coefficients,
    build,
    l1_error,
    l1_error_quad_1d,
    bound_check,
)
from .sign_series import (
    sign_coefficient,
    truncation,
    truncation_eval_direct,
    truncation_eval_integral,
    truncation_l1_error,
    parseval_residual,
    plancherel_rotach_remainder,
    christoffel_darboux_residual,
    sine_integral,
    truncation_integral_envelopes,
)
from .learner import (
    FitConfig,
    Hypothesis,
    LearnResult,
    generate_agnostic_data,
    fit_l1,
    choose_threshold,
    evaluate,
    learn,
)

__all__ = [name for name in dir() if not name.startswith("_")]
