"""Physical channel parameters and the constants of the closed form.

Turns wavelength / distance / pump waist plus a turbulence strength into the
constants the overlap kernels read: zeta, w, b1 and c1..c3, each in a closed
form free of cancellation (see DerivedConstants).

Everything here is a pure function over immutable inputs; DerivedConstants is
a frozen value object safe to share between threads, and the table the
engine keeps on it only ever gains rows computed from its own fields.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import lru_cache

from .errors import DomainError

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
    effective width W0 entering the constants is sqrt(2) * pump_waist.
    The wavenumber is always derived from the wavelength, never stored.
    """

    wavelength: float  # [m]
    distance: float    # [m]
    pump_waist: float  # [m]

    def __post_init__(self):
        values = (self.wavelength, self.distance, self.pump_waist)
        if not all(0 < v < math.inf for v in values):
            raise DomainError("wavelength, distance and pump_waist must all be "
                              f"positive and finite, got {values}")

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


def _check_nonnegative(name: str, value: float) -> None:
    if not 0 <= value < math.inf:
        raise DomainError(f"{name} must be finite and >= 0, got {value}")


def _check_path(wavelength: float, distance: float) -> None:
    if not (0 < wavelength < math.inf and 0 < distance < math.inf):
        raise DomainError("wavelength and distance must be positive and finite, "
                          f"got {wavelength} and {distance}")


def _in_float_range(compute: Callable[[], float], law: str, *args: float) -> float:
    """compute(), or DomainError naming the call law(*args) if it overflows,
    divides by an underflowed zero or comes out infinite; the name is
    formatted only then."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{law}({', '.join(map(format, args))}) leaves the float range")
    return value


def rytov_variance(cn2: float, wavelength: float, distance: float) -> float:
    """Plane-wave Rytov variance 1.23 * Cn^2 * k^(7/6) * z^(11/6).

    DomainError if cn2 is negative or not finite, wavelength or distance is
    not positive and finite, or the variance leaves the float range.
    """
    _check_nonnegative("cn2", cn2)
    _check_path(wavelength, distance)
    k = 2.0 * math.pi / wavelength
    return _in_float_range(
        lambda: RYTOV_COEFF * cn2 * k ** (7.0 / 6.0) * distance ** (11.0 / 6.0),
        "rytov_variance", cn2, wavelength, distance)


def rytov_to_cn2(rytov: float, wavelength: float, distance: float) -> float:
    """Algebraic inverse of rytov_variance, with the same DomainErrors."""
    _check_nonnegative("rytov", rytov)
    _check_path(wavelength, distance)
    k = 2.0 * math.pi / wavelength
    return _in_float_range(
        lambda: rytov / (RYTOV_COEFF * k ** (7.0 / 6.0) * distance ** (11.0 / 6.0)),
        "rytov_to_cn2", rytov, wavelength, distance)


def turbulence_strength(rytov: float, coefficient: float = DEFAULT_STRENGTH_COEFF) -> float:
    """Dimensionless strength gamma = coefficient * rytov^(6/5); DomainError
    if an input is negative or not finite, gamma leaves the float range or
    rytov > 1: the closed form holds for weak fluctuations, sigma_R^2 <= 1
    (Andrews & Phillips, Laser Beam Propagation through Random Media, ch. 8)."""
    _check_nonnegative("rytov", rytov)
    _check_nonnegative("coefficient", coefficient)
    gamma = _in_float_range(lambda: coefficient * rytov ** 1.2,
                            "turbulence_strength", rytov, coefficient)
    if rytov > 1.0:
        raise DomainError(f"rytov {rytov} is beyond the weak-fluctuation range, rytov <= 1")
    return gamma


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
        for name in ("cn2", "rytov", "strength_coeff"):
            if (value := getattr(self, name)) is not None:
                _check_nonnegative(name, value)

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
        """Fill in whichever of cn2 / rytov was not given, and gamma;
        DomainError if a power of the input leaves the float range."""
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
    """The constants the overlap kernels read.

    Fields:
    - cfg: the link geometry the constants were derived from; wavelength,
      distance, wavenumber, W0 and the Fresnel ratio are read from it;
    - w [m], w_variant: the receiver-plane mode scale and how it was chosen;
    - zeta: the complex Fresnel squeeze factor;
    - gamma: the dimensionless turbulence strength;
    - b1, a3 = c2 - c1 and c1..c3 [1/m^2]: the quadratic-form coefficients
      of the ensemble-averaged detection integral; K reads the moments of
      its Gaussian exp(-c1 x^2 - c2 y^2 + i c3 x y). With u = k/z,
      L = Lambda0 and d = 1 + L^2 + 2 gamma L: b1 = u d / (2 L),
      c1 = u L (1/d + 1/(1 + L^2)), a3 = u gamma (6 + 2 L^2 + 3 gamma L) / d
      and c3 = -u L (L + 3 gamma) / d. The paper's cascade B1..B4, A2 reaches
      c1,2 = Re A2 -/+ a3/2 and c3 = Im A2 by subtracting nearly equal terms
      at small Lambda0; these forms add terms of one sign, so nothing cancels,
      and in vacuum a3 is exactly 0 and c1 == c2 bitwise.
    - pi: the engine's table of this set (see engine.py), a dict that maps
      order n to the row (Pi(0, n), ..., Pi(n, n)), rows 0..top filled in
      one update. Equality, hashing and repr ignore it, and
      dataclasses.replace, copy and pickle start a copy with an empty table.
    """

    cfg: OpticalConfig
    w: float
    w_variant: str
    zeta: complex
    gamma: float
    a3: float
    b1: float
    c1: float
    c2: float
    c3: float
    pi: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __reduce__(self):
        return DerivedConstants, tuple(getattr(self, f.name) for f in fields(self) if f.init)


def derive_constants(
    cfg: OpticalConfig,
    gamma: float = 0.0,
    w_variant: str = DEFAULT_W_VARIANT,
) -> DerivedConstants:
    """The constants of the closed form for a geometry and turbulence strength.

    One of the DERIVED_SETS most recently derived sets is returned as is,
    tables and all. c1 and c2 are positive by construction. DomainError when
    gamma is negative or not finite, w_variant is unknown or a constant
    leaves the float range.
    """
    # the bound also rejects an int that no float holds
    if not 0 <= gamma <= sys.float_info.max:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    if w_variant not in (W_VARIANT_PROPAGATED, W_VARIANT_WAIST):
        raise DomainError(f"unknown w_variant {w_variant!r}")
    # one float key, -0.0 read as 0.0, for every spelling of one gamma
    return _derived(cfg, float(gamma) + 0.0, w_variant)


DERIVED_SETS = 16


def derive_cache_info(clear: bool = False):
    """Hits, misses, bound and size of the derive_constants cache; with
    clear, the cache is emptied first."""
    if clear:
        _derived.cache_clear()
    return _derived.cache_info()


@lru_cache(maxsize=DERIVED_SETS)
def _derived(cfg: OpticalConfig, gamma: float, w_variant: str) -> DerivedConstants:
    try:
        lam0 = cfg.fresnel_ratio
        zeta = (1 + lam0 ** 2) / (1 + lam0 ** 2 + 1j * lam0)
        u = cfg.wavenumber / cfg.distance
        d = 1 + lam0 ** 2 + 2 * gamma * lam0
        b1 = u * d / (2 * lam0)
        a3 = u * gamma * (6 + 2 * lam0 ** 2 + 3 * gamma * lam0) / d
        c1 = u * lam0 * (1 / d + 1 / (1 + lam0 ** 2))
        c2 = c1 + a3
        c3 = -u * lam0 * (lam0 + 3 * gamma) / d
        w = cfg.w0
        if w_variant == W_VARIANT_PROPAGATED:
            w *= math.sqrt(1 + lam0 ** 2)
        finite = all(map(cmath.isfinite, (zeta, b1, c1, c2, c3, w)))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise DomainError(f"{cfg} at gamma={gamma} gives constants that are zero, "
                          "infinite or beyond the float range")
    return DerivedConstants(cfg=cfg, w=w, w_variant=w_variant, zeta=zeta, gamma=gamma,
                            a3=a3, b1=b1, c1=c1, c2=c2, c3=c3)
