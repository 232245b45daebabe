"""Physical channel parameters and the derived constant cascade.

Turns wavelength / distance / pump waist plus a turbulence strength into the
full set of constants consumed by the overlap engine: the Fresnel ratio, the
complex squeeze factor zeta, and the quadratic-form coefficients A*, B*, C*.

Everything here is a pure function over immutable inputs; DerivedConstants is
a frozen value object safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, RegimeError

RYTOV_COEFF = 1.23  # plane-wave Rytov variance prefactor

# Strength-law coefficient gamma = coeff * (rytov)^(6/5).
#
# TEXTBOOK is the standard weak-turbulence scaling constant. CALIBRATED is
# the value arbitrated by the reference turbulence matrix: the reference data
# is reproduced (all 100 entries, within publication rounding) with sqrt(pi)
# and is off by ~9% in gamma with 1.63. The calibrated value is the default;
# the choice is recorded in all output metadata.
STRENGTH_COEFF_TEXTBOOK = 1.63
STRENGTH_COEFF_CALIBRATED = math.sqrt(math.pi)
DEFAULT_STRENGTH_COEFF = STRENGTH_COEFF_CALIBRATED

# Receiver-plane mode scale W entering the overlap kernels. The closed form
# never defines it; "propagated" (the beam radius W0*sqrt(1+Lambda0^2) at the
# detection plane) reproduces the reference vacuum matrix and is frozen as
# the default, "waist" (W = W0) is retained for comparison.
W_VARIANT_PROPAGATED = "propagated"
W_VARIANT_WAIST = "waist"
DEFAULT_W_VARIANT = W_VARIANT_PROPAGATED


@dataclass(frozen=True)
class OpticalConfig:
    """Geometry of the link: wavelength, propagation distance, pump waist.

    pump_waist is the amplitude spot size of the pump at the crystal; the
    effective width W0 entering the constant cascade is sqrt(2) * pump_waist.
    The wavenumber is always derived from the wavelength, never stored.
    """

    wavelength: float  # [m]
    distance: float    # [m]
    pump_waist: float  # [m]

    def __post_init__(self):
        if self.wavelength <= 0 or self.distance <= 0 or self.pump_waist <= 0:
            raise DomainError(
                "wavelength, distance and pump_waist must all be positive, got "
                f"({self.wavelength}, {self.distance}, {self.pump_waist})"
            )

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def w0(self) -> float:
        """Effective pump width sqrt(2) * pump_waist."""
        return math.sqrt(2.0) * self.pump_waist

    @property
    def fresnel_ratio(self) -> float:
        """Lambda0 = 2 z / (k W0^2)."""
        return 2.0 * self.distance / (self.wavenumber * self.w0 ** 2)

    @classmethod
    def from_w0(cls, wavelength: float, distance: float, w0: float) -> "OpticalConfig":
        """Build from the effective width W0 instead of the pump spot."""
        return cls(wavelength, distance, w0 / math.sqrt(2.0))


def rytov_variance(cn2: float, wavelength: float, distance: float) -> float:
    """Plane-wave Rytov variance 1.23 * Cn^2 * k^(7/6) * z^(11/6)."""
    if cn2 < 0:
        raise DomainError(f"cn2 must be >= 0, got {cn2}")
    if wavelength <= 0 or distance <= 0:
        raise DomainError("wavelength and distance must be positive")
    k = 2.0 * math.pi / wavelength
    return RYTOV_COEFF * cn2 * k ** (7.0 / 6.0) * distance ** (11.0 / 6.0)


def rytov_to_cn2(rytov: float, wavelength: float, distance: float) -> float:
    """Algebraic inverse of rytov_variance."""
    if rytov < 0:
        raise DomainError(f"rytov must be >= 0, got {rytov}")
    k = 2.0 * math.pi / wavelength
    return rytov / (RYTOV_COEFF * k ** (7.0 / 6.0) * distance ** (11.0 / 6.0))


def turbulence_strength(rytov: float, coefficient: float = DEFAULT_STRENGTH_COEFF) -> float:
    """Dimensionless strength gamma = coefficient * rytov^(6/5)."""
    if rytov < 0:
        raise DomainError(f"rytov must be >= 0, got {rytov}")
    return coefficient * rytov ** 1.2


@dataclass(frozen=True)
class TurbulenceSpec:
    """Turbulence input, given either as Cn^2 or as a Rytov variance.

    After resolve() both representations plus the strength gamma are
    populated; cn2 == 0 <=> rytov == 0 <=> gamma == 0 is the vacuum case.
    """

    cn2: float | None = None
    rytov: float | None = None
    strength_coeff: float = DEFAULT_STRENGTH_COEFF

    def __post_init__(self):
        if self.cn2 is not None and self.rytov is not None:
            raise DomainError("give either cn2 or rytov, not both")
        if self.cn2 is not None and self.cn2 < 0:
            raise DomainError(f"cn2 must be >= 0, got {self.cn2}")
        if self.rytov is not None and self.rytov < 0:
            raise DomainError(f"rytov must be >= 0, got {self.rytov}")

    @classmethod
    def vacuum(cls) -> "TurbulenceSpec":
        return cls(rytov=0.0)

    @classmethod
    def from_rytov(cls, rytov: float, **kw) -> "TurbulenceSpec":
        return cls(rytov=rytov, **kw)

    @classmethod
    def from_cn2(cls, cn2: float, **kw) -> "TurbulenceSpec":
        return cls(cn2=cn2, **kw)

    def resolve(self, cfg: OpticalConfig) -> "ResolvedTurbulence":
        """Fill in whichever of cn2 / rytov was not given, and gamma."""
        if self.cn2 is None and self.rytov is None:
            cn2, ryt = 0.0, 0.0
        elif self.rytov is None:
            cn2 = self.cn2
            ryt = rytov_variance(cn2, cfg.wavelength, cfg.distance)
        else:
            ryt = self.rytov
            cn2 = rytov_to_cn2(ryt, cfg.wavelength, cfg.distance)
        gamma = turbulence_strength(ryt, self.strength_coeff)
        return ResolvedTurbulence(cn2=cn2, rytov=ryt,
                                  strength_coeff=self.strength_coeff, gamma=gamma)


@dataclass(frozen=True)
class ResolvedTurbulence:
    cn2: float
    rytov: float
    strength_coeff: float
    gamma: float


@dataclass(frozen=True)
class DerivedConstants:
    """The complete constant cascade feeding the overlap kernels.

    Fields:
    - cfg: the link geometry the cascade was derived from; wavelength,
      distance, wavenumber, W0 and the Fresnel ratio are read from it;
    - w [m], w_variant: the receiver-plane mode scale and how it was chosen;
    - zeta: the complex Fresnel squeeze factor;
    - gamma: the dimensionless turbulence strength;
    - a2, a3, b1..b4, c1..c4: the quadratic-form coefficients of the
      ensemble-averaged detection integral (units 1/m^2 except the
      dimensionless c4).
    """

    cfg: OpticalConfig
    w: float
    w_variant: str
    zeta: complex
    gamma: float
    a2: complex
    a3: float
    b1: float
    b2: complex
    b3: complex
    b4: float
    c1: float
    c2: float
    c3: float
    c4: float


def derive_constants(
    cfg: OpticalConfig,
    gamma: float = 0.0,
    w_variant: str = DEFAULT_W_VARIANT,
) -> DerivedConstants:
    """Populate the full cascade from geometry and turbulence strength.

    Raises RegimeError when c1 or c2 is not positive (parameters outside the
    validity region of the closed form) and DomainError for gamma < 0 or a
    vanishing Fresnel ratio.
    """
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    k = cfg.wavenumber
    z = cfg.distance
    w0 = cfg.w0
    lam0 = cfg.fresnel_ratio
    if lam0 == 0.0:
        raise DomainError("Fresnel ratio is zero; the cascade divides by it")

    zeta = (1 + lam0 ** 2) / (1 + lam0 ** 2 + 1j * lam0)
    u = k / z
    b1 = u * (1 / (2 * lam0) + lam0 / 2 + gamma)
    b2 = u * (1 / lam0 - gamma - 1j)
    b3 = u * (1 / (2 * lam0) + gamma - 1j)
    b4 = u * (1 / lam0 + 2 * gamma)
    a2 = -b2 ** 2 / (4 * b1) + b3 + u * lam0 / (1 + lam0 ** 2)
    # -|b2|^2 / (2 b1) + b4 in closed form, free of its cancellation: exactly
    # 0 in vacuum, so there c1 == c2 holds bitwise
    a3 = u * gamma * (6 / lam0 + 2 * lam0 + 3 * gamma) / ((1 + lam0 ** 2) / lam0 + 2 * gamma)
    c1 = a2.real - a3 / 2
    c2 = a2.real + a3 / 2
    c3 = a2.imag
    if c1 <= 0 or c2 <= 0:
        raise RegimeError(
            f"c1={c1:.6g}, c2={c2:.6g}: outside the validity region "
            f"(gamma={gamma}, Lambda0={lam0})"
        )
    c4 = -c3 ** 2 / (4 * c1 * c2)

    if w_variant == W_VARIANT_PROPAGATED:
        w = w0 * math.sqrt(1 + lam0 ** 2)
    elif w_variant == W_VARIANT_WAIST:
        w = w0
    else:
        raise DomainError(f"unknown w_variant {w_variant!r}")

    return DerivedConstants(
        cfg=cfg, w=w, w_variant=w_variant, zeta=zeta, gamma=gamma,
        a2=a2, a3=a3, b1=b1, b2=b2, b3=b3, b4=b4,
        c1=c1, c2=c2, c3=c3, c4=c4,
    )
