"""Joint detection probabilities of photon pairs in Hermite-Gaussian modes
after propagation through vacuum or weak atmospheric turbulence.

The closed-form engine evaluates per-axis overlap factors and joint
probabilities over mode grids; a quadrature oracle validates the vacuum
limit independently; the CLI exposes matrices, sweeps, rankings and a
validation suite.
"""

from .channel import (
    DEFAULT_STRENGTH_COEFF,
    DEFAULT_W_VARIANT,
    STRENGTH_COEFF_CALIBRATED,
    STRENGTH_COEFF_TEXTBOOK,
    DerivedConstants,
    OpticalConfig,
    TurbulenceSpec,
    derive_constants,
    rytov_to_cn2,
    rytov_variance,
    turbulence_strength,
)
from .engine import (
    DEFAULT_MAX_ORDER,
    DEFAULT_ORDERING,
    ModeIndex,
    ModePair,
    ProbabilityMatrix,
    build_matrix,
    expand_modes,
    f_kernel,
    joint_probability,
    k_kernel,
    parse_mode,
    pi_factor,
    probability_matrix,
    rytov_sweep,
    selection_rule_allowed,
    sigma,
)
from .errors import (
    CalibrationError,
    DomainError,
    NumericalError,
    PoleError,
    QuadratureResolutionError,
    RegimeError,
)
from .oracle import QuadratureSpec, vacuum_overlap_1d, vacuum_probability_oracle
from .specfun import HalfInteger, gamma_half, hyp2f1_real, hyp2f1_terminating

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "DEFAULT_MAX_ORDER",
    "DEFAULT_ORDERING",
    "DEFAULT_STRENGTH_COEFF",
    "DEFAULT_W_VARIANT",
    "DerivedConstants",
    "DomainError",
    "HalfInteger",
    "ModeIndex",
    "ModePair",
    "NumericalError",
    "OpticalConfig",
    "PoleError",
    "ProbabilityMatrix",
    "QuadratureResolutionError",
    "QuadratureSpec",
    "RegimeError",
    "STRENGTH_COEFF_CALIBRATED",
    "STRENGTH_COEFF_TEXTBOOK",
    "TurbulenceSpec",
    "build_matrix",
    "derive_constants",
    "expand_modes",
    "f_kernel",
    "gamma_half",
    "hyp2f1_real",
    "hyp2f1_terminating",
    "joint_probability",
    "k_kernel",
    "parse_mode",
    "pi_factor",
    "probability_matrix",
    "rytov_sweep",
    "rytov_to_cn2",
    "rytov_variance",
    "selection_rule_allowed",
    "sigma",
    "turbulence_strength",
    "vacuum_overlap_1d",
    "vacuum_probability_oracle",
]
