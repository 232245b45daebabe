"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: invalid parameters -> 2,
numerical failures -> 3 (validation failures -> 1 are reported,
not raised).
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(ArithmeticError):
    """A hypergeometric series hit a Pochhammer zero in a denominator.

    Nothing in hgspdc raises it any more; it stays because
    perfbench/worker.py counts it among the typed failures it catches.
    """


class NumericalError(RuntimeError):
    """A computation failed to meet its accuracy or sanity contract."""


class QuadratureResolutionError(NumericalError):
    """Node doubling moved a quadrature result by more than the tolerance."""


class CalibrationError(NumericalError):
    """The calibration reference entry is unusable (zero or negative)."""
