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
    joint_probability,
    parse_mode,
    pi_factor,
    pi_seeds,
    probability_matrix,
    rytov_sweep,
    selection_rule_allowed,
)
from .errors import (
    CalibrationError,
    DomainError,
    NumericalError,
    PoleError,
    QuadratureResolutionError,
)

__version__ = "0.1.0"

# the oracle and the per-term references load on first use, so importing
# the package compiles neither
_LAZY = {"QuadratureSpec": "oracle", "vacuum_overlap_1d": "oracle",
         "vacuum_probability_oracle": "oracle",
         "f_kernel": "perterm", "k_kernel": "perterm", "sigma": "perterm"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)

__all__ = [
    "CalibrationError",
    "DEFAULT_MAX_ORDER",
    "DEFAULT_ORDERING",
    "DEFAULT_STRENGTH_COEFF",
    "DEFAULT_W_VARIANT",
    "DerivedConstants",
    "DomainError",
    "ModeIndex",
    "ModePair",
    "NumericalError",
    "OpticalConfig",
    "PoleError",
    "ProbabilityMatrix",
    "QuadratureResolutionError",
    "QuadratureSpec",
    "STRENGTH_COEFF_CALIBRATED",
    "STRENGTH_COEFF_TEXTBOOK",
    "TurbulenceSpec",
    "build_matrix",
    "derive_constants",
    "expand_modes",
    "f_kernel",
    "joint_probability",
    "k_kernel",
    "parse_mode",
    "pi_factor",
    "pi_seeds",
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
