"""Special-function kernel: half-integer Gamma and the two Gauss
hypergeometric variants the closed-form mode-overlap engine needs.

All functions here are pure and reentrant; they keep no shared state and are
safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NumericalError, PoleError

SQRT_PI = math.sqrt(math.pi)

# cap for the infinite 2F1 series; the Pfaff-mapped argument lies in [0, 1)
# so convergence is geometric and the cap only trips on misuse
_SERIES_MAX_TERMS = 10_000
_SERIES_RTOL = 1e-16


@dataclass(frozen=True)
class HalfInteger:
    """An exact integer or half-odd-integer, stored as twice its value.

    Avoids any rounding in the Gamma arguments and third hypergeometric
    parameters, which are always of the form (integer)/2.
    """

    twice_value: int

    def __post_init__(self):
        if not isinstance(self.twice_value, int):
            raise DomainError(f"twice_value must be int, got {type(self.twice_value).__name__}")

    @classmethod
    def from_int(cls, n: int) -> "HalfInteger":
        return cls(2 * n)

    @property
    def value(self) -> float:
        return self.twice_value / 2

    @property
    def is_integer(self) -> bool:
        return self.twice_value % 2 == 0

    def __float__(self) -> float:
        return self.twice_value / 2

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"


def gamma_half(x: HalfInteger | int) -> float:
    """Gamma(x) for positive integer or half-odd-integer x.

    Exact recursion Gamma(x+1) = x*Gamma(x) anchored at Gamma(1) = 1 and
    Gamma(1/2) = sqrt(pi); no general-purpose approximation involved.
    """
    if isinstance(x, int):
        x = HalfInteger.from_int(x)
    if x.twice_value <= 0:
        raise DomainError(f"gamma_half requires x > 0, got {x}")
    if x.is_integer:
        acc = 1.0
        k = 1
        while k < x.twice_value // 2:
            acc *= k
            k += 1
        return acc
    acc = SQRT_PI
    # climb from 1/2 to x in unit steps
    t = 1
    while t < x.twice_value:
        acc *= t / 2
        t += 2
    return acc


def hyp2f1_terminating(k: int, l: int, c: HalfInteger | float, x: complex) -> complex:
    """2F1(-k, -l; c; x) as the exact finite sum over n = 0..min(k, l).

    The two negative-integer upper parameters terminate the series, so there
    are no convergence concerns; the terms are built by the recurrence
    term_{n+1} = term_n * (-k+n)(-l+n) / ((c+n)(n+1)) * x.
    """
    if k < 0 or l < 0:
        raise DomainError(f"k, l must be nonnegative, got ({k}, {l})")
    cval = float(c)
    nmax = min(k, l)
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for n in range(nmax):
        denom = cval + n
        if denom == 0.0:
            raise PoleError(
                f"Pochhammer zero in denominator at n={n + 1} before termination "
                f"(c={cval}, k={k}, l={l})"
            )
        term *= (-k + n) * (-l + n) / (denom * (n + 1)) * x
        total += term
    return total


def _hyp2f1_series(a: float, b: float, c: float, x: float) -> float:
    # direct power series, valid for |x| < 1; c checked by the caller
    total = 1.0
    term = 1.0
    for n in range(_SERIES_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
        total += term
        if abs(term) <= _SERIES_RTOL * abs(total):
            return total
    raise NumericalError(
        f"2F1 series did not converge within {_SERIES_MAX_TERMS} terms "
        f"(a={a}, b={b}, c={c}, x={x})"
    )


def hyp2f1_real(a: float, b: float, c: float, x: float) -> float:
    """Gauss 2F1(a, b; c; x) for real parameters and x <= 0 or 0 <= x < 1.

    Positive arguments below 1 use the direct series; negative arguments are
    mapped into [0, 1) with the Pfaff transformation
    2F1(a,b;c;x) = (1-x)^(-a) * 2F1(a, c-b; c; x/(x-1)),
    which keeps the prefactor base positive. Relative error <= 1e-12 in the
    supported region.
    """
    if c <= 0 and float(c).is_integer():
        raise PoleError(f"2F1 pole: c is a nonpositive integer ({c})")
    if x >= 1.0:
        raise DomainError(f"2F1 argument must satisfy x < 1, got {x}")
    if x == 0.0:
        return 1.0
    if x > 0.0:
        return _hyp2f1_series(a, b, c, x)
    return (1.0 - x) ** (-a) * _hyp2f1_series(a, c - b, c, x / (x - 1.0))
