"""Physical channel parameters and the constants of the closed form.

Turns wavelength / distance / pump waist plus a turbulence strength into the
constants the overlap kernels read: zeta, w, b1 and c1..c3, each in a closed
form free of cancellation (see DerivedConstants).

derive_constants keeps the DERIVED_SETS most recent sets, and
derive_cache_info(clear=True) empties them. A set's dimensioned fields feed
the per-term kernels. The matrices read only the two values a set computes
from its link, gamma and w_variant when it is built (_seed_values): the Pi
seeds, dimensionless functions of Lambda0, gamma and w_variant apart from
C's raw scale, and the calibration anchor, the vacuum (00,00) entry of its
link.

Everything here is a pure function over immutable inputs; DerivedConstants is
a frozen value object safe to share between threads, and the table the
engine keeps on it only ever gains rows computed from its own seeds.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from collections.abc import Callable
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

# The value types are namedtuple subclasses that check their fields in
# __new__. A namedtuple's _make, and so its _replace, calls tuple.__new__
# and would skip that check; this _make builds through the class.
_checked_make = classmethod(lambda cls, values: cls(*values))


class OpticalConfig(namedtuple("OpticalConfig", "wavelength distance pump_waist")):
    """Geometry of the link: wavelength, propagation distance and pump waist,
    each in metres.

    pump_waist is the amplitude spot size of the pump at the crystal; the
    effective width W0 entering the constants is sqrt(2) * pump_waist.
    The wavenumber is always derived from the wavelength, never stored.
    """

    __slots__ = ()

    def __new__(cls, wavelength: float, distance: float, pump_waist: float):
        if not (0 < wavelength < math.inf and 0 < distance < math.inf
                and 0 < pump_waist < math.inf):
            raise DomainError("wavelength, distance and pump_waist must all be "
                              f"positive and finite, got {(wavelength, distance, pump_waist)}")
        return super().__new__(cls, wavelength, distance, pump_waist)

    _make = _checked_make

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def w0(self) -> float:
        """Effective pump width sqrt(2) * pump_waist."""
        return math.sqrt(2.0) * self.pump_waist

    @property
    def fresnel_ratio(self) -> float:
        """Lambda0 = 2 z / (k W0^2); DomainError naming the link if it
        leaves the float range."""
        return _in_float_range(lambda: 2.0 * self.distance / (self.wavenumber * self.w0 ** 2),
                               "fresnel_ratio", *self)

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


class TurbulenceSpec(namedtuple("TurbulenceSpec", "cn2 rytov strength_coeff")):
    """Turbulence input, given either as Cn^2 or as a Rytov variance.

    After resolve() both representations plus the strength gamma are
    populated; cn2 == 0 <=> rytov == 0 <=> gamma == 0 is the vacuum case.
    """

    __slots__ = ()

    def __new__(cls, cn2: float | None = None, rytov: float | None = None,
                strength_coeff: float = DEFAULT_STRENGTH_COEFF):
        if cn2 is not None and rytov is not None:
            raise DomainError("give either cn2 or rytov, not both")
        for name, value in zip(cls._fields, (cn2, rytov, strength_coeff)):
            if value is not None:
                _check_nonnegative(name, value)
        return super().__new__(cls, cn2, rytov, strength_coeff)

    _make = _checked_make

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
        # positional: a keyword call of the namedtuple costs twice as much
        return ResolvedTurbulence(cn2, ryt, self.strength_coeff, gamma)


ResolvedTurbulence = namedtuple("ResolvedTurbulence", "cn2 rytov strength_coeff gamma")


class DerivedConstants(namedtuple("DerivedConstants",
                                  "cfg w w_variant zeta gamma a3 b1 c1 c2 c3")):
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

    b1, a3, c1..c3, zeta and w are read by the per-term kernels f_kernel
    and k_kernel. The matrices read none of them: they read three
    attributes, not fields, which the constructor sets, so _replace, _make,
    copy and pickle give every set its own:
    - seeds: the Pi seeds C, alpha, beta and delta, and anchor: the
      unscaled vacuum (00,00) entry of the link, C * C of its vacuum seeds,
      both computed by _seed_values from cfg, gamma and w_variant;
    - pi: the engine's table of the set (see engine.py), a dict that maps
      order n to the row (Pi(0, n), ..., Pi(n, n)), rows 0..top filled in
      one update, empty in a new set.
    Equality, hashing and repr ignore them.
    """

    # the fields spelled out: passing them on through the namedtuple's own
    # __new__ adds a tenth to the set's build
    def __new__(cls, cfg, w, w_variant, zeta, gamma, a3, b1, c1, c2, c3):
        self = tuple.__new__(cls, (cfg, w, w_variant, zeta, gamma, a3, b1, c1, c2, c3))
        seeds, anchor = _seed_values(cfg, gamma, w_variant)
        vars(self).update(pi={}, seeds=seeds, anchor=anchor)
        return self

    def __setattr__(self, name, *value):
        raise AttributeError(f"DerivedConstants is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return DerivedConstants, tuple(self)

    _make = _checked_make


def _check_config(cfg) -> None:
    """DomainError unless cfg is an OpticalConfig: a plain tuple equals, and
    hashes as, the OpticalConfig of its values, so a cache keyed on the link
    would hand it that config's entry."""
    if not isinstance(cfg, OpticalConfig):
        raise DomainError(f"cfg must be an OpticalConfig, got {type(cfg).__name__}")


def derive_constants(
    cfg: OpticalConfig,
    gamma: float = 0.0,
    w_variant: str = DEFAULT_W_VARIANT,
) -> DerivedConstants:
    """The constants of the closed form for a geometry and turbulence strength.

    One of the DERIVED_SETS most recently derived sets is returned as is,
    tables and all. c1 and c2 are positive by construction. DomainError when
    cfg is not an OpticalConfig, gamma is negative or not finite, w_variant
    is unknown or a constant leaves the float range.
    """
    _check_config(cfg)
    # the bound also rejects an int that no float holds
    if not 0 <= gamma <= sys.float_info.max:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    if w_variant not in (W_VARIANT_PROPAGATED, W_VARIANT_WAIST):
        raise DomainError(f"unknown w_variant {w_variant!r}")
    # one float key, -0.0 read as 0.0, for every spelling of one gamma
    return _derived(cfg, float(gamma) + 0.0, w_variant)


DERIVED_SETS = 16


def derive_cache_info(clear: bool = False):
    """Hits, misses, bound and size of the derive_constants cache, emptied
    first with clear."""
    if clear:
        _derived.cache_clear()
    return _derived.cache_info()


Seeds = namedtuple("Seeds", "c alpha beta delta")
_NAN_SEEDS = Seeds(math.nan, math.nan, math.nan, math.nan)


def _seed_values(cfg: OpticalConfig, gamma: float, w_variant: str) -> tuple[Seeds, float]:
    """The seeds C, alpha, beta and delta of the set of cfg at gamma and
    w_variant, and the anchor C_vac * C_vac of its vacuum seeds, in closed
    form free of cancellation; nan for all of them if a value leaves the
    float range.

    The seeds are dimensionless functions of L = Lambda0, gamma and
    w_variant, apart from C's raw scale 1 / sqrt(lambda z). L = (lambda / p)
    (z / p) / (2 pi), p the pump waist, is computed on the mantissas of
    lambda, z and p, their exponents added apart, so that no ratio leaves
    the float range. At u = k / z = 1 the constants of DerivedConstants, c1
    and c3 taken over L, are d = 1 + L^2 + 2 gamma L,
    a3 = gamma (6 + 2 L^2 + 3 gamma L) / d, c1 / L = 1 / d + 1 / (1 + L^2)
    and c3 / L = -(L + 3 gamma) / d, and K's determinant 4 c1 c2 + c3^2 is
    u^2 L e with e = 4 (c1 / L) (L (c1 / L) + a3) + L (c3 / L)^2, a sum of
    terms of one sign. With w^2 u L = 2 (1 + L^2) (propagated) or 2 (waist),
    s = 4 (2 c1 + a3 - i c3) / (w^2 u L e) and 1 - zeta = i L / (1 + L^2 + i L):

        C = 4 |1 - zeta| / (sqrt(e d) sqrt(lambda) sqrt(z)),
        alpha = s - 1 + (1 - zeta),  beta = 2 (s - (1 - zeta)),
        delta = 8 a3 / (w^2 u L e).

    These are P0 4 pi |1 - zeta| K(0, 0), 4 sigma / w^2 - zeta,
    8 sigma / w^2 - 2 (1 - zeta) and 8 tau / w^2 (see engine.k_kernel) with
    every power of u and L cancelled: no w^2, lambda^2 z^2 or determinant is
    formed, and delta reads a3, not the difference c2 - c1. C_vac is C at
    gamma = 0, from the same terms with d = 1 + L^2 and a3 = 0, so the
    anchor is bitwise the square of a vacuum set's C, whatever w_variant."""
    wavelength, distance, _ = cfg
    (m_l, e_l), (m_z, e_z), (m_p, e_p) = map(math.frexp, cfg)
    try:
        lam0 = math.ldexp(m_l / m_p * (m_z / m_p) / (2 * math.pi), e_l + e_z - 2 * e_p)
        l2 = lam0 * lam0
        one_plus_l2 = 1 + l2
        one_minus_zeta = 1j * lam0 / (one_plus_l2 + 1j * lam0)
        scale = 4 * abs(one_minus_zeta)
        root_l, root_z = math.sqrt(wavelength), math.sqrt(distance)
        inverse = 1 / one_plus_l2
        c1 = inverse + inverse
        c3 = -lam0 / one_plus_l2
        e = 4 * c1 * (lam0 * c1) + lam0 * c3 * c3
        c_vac = scale / (math.sqrt(e * one_plus_l2) * root_l * root_z)
        d = one_plus_l2 + 2 * gamma * lam0
        a3 = gamma * ((6 + 2 * l2 + 3 * gamma * lam0) / d)
        c1 = 1 / d + inverse
        c3 = -(lam0 + 3 * gamma) / d
        e = 4 * c1 * (lam0 * c1 + a3) + lam0 * c3 * c3
        w2e = (2 * one_plus_l2 if w_variant == W_VARIANT_PROPAGATED else 2.0) * e
        scaled = 4 * complex(2 * lam0 * c1 + a3, -lam0 * c3) / w2e
        c = scale / (math.sqrt(e * d) * root_l * root_z)
        return (Seeds(c, scaled - 1 + one_minus_zeta, 2 * (scaled - one_minus_zeta),
                      8 * a3 / w2e), c_vac * c_vac)
    except (OverflowError, ZeroDivisionError, ValueError):
        return _NAN_SEEDS, math.nan


def _build_constants(cfg: OpticalConfig, gamma: float, w_variant: str) -> DerivedConstants:
    """The constants of cfg at gamma, one expression per field; DomainError
    when a term raises or a field is not finite."""
    wavelength, distance, pump_waist = cfg
    try:
        wavenumber = 2.0 * math.pi / wavelength
        w = math.sqrt(2.0) * pump_waist
        lam0 = 2.0 * distance / (wavenumber * w ** 2)
        l2 = lam0 ** 2
        one_plus_l2 = 1 + l2
        zeta = one_plus_l2 / (one_plus_l2 + 1j * lam0)
        u = wavenumber / distance
        d = one_plus_l2 + 2 * gamma * lam0
        b1 = u * d / (2 * lam0)
        a3 = u * gamma * (6 + 2 * l2 + 3 * gamma * lam0) / d
        c1 = u * lam0 * (1 / d + 1 / one_plus_l2)
        c2 = c1 + a3
        c3 = -u * lam0 * (lam0 + 3 * gamma) / d
        if w_variant == W_VARIANT_PROPAGATED:
            w *= math.sqrt(one_plus_l2)
        finite = (cmath.isfinite(zeta) and math.isfinite(w) and math.isfinite(b1)
                  and math.isfinite(c1) and math.isfinite(c2) and math.isfinite(c3))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise DomainError(f"{cfg} at gamma={gamma} gives constants that are zero, "
                          "infinite or beyond the float range")
    # positional: a keyword call of the namedtuple costs a third of the build
    return DerivedConstants(cfg, w, w_variant, zeta, gamma, a3, b1, c1, c2, c3)


_derived = lru_cache(maxsize=DERIVED_SETS)(_build_constants)
