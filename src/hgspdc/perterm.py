"""The per-term references of the closed form, which no matrix reads.

Pi(mu, nu) is the quadratic form
P0 / (mu! nu! 2^(mu+nu)) sum F(k1, l1) F(k3, l3)* K(N - k1 - l1, N - k3 - l3)
over the overlap kernels F (f_kernel) and K (k_kernel), N = mu + nu,
P0 = 1 / (lambda^2 z^2 sqrt(pi b1)). The engine sums its generating
function from four seeds instead (see engine.py); the tests compare the
two forms, and the validation suite's special-function check reads F's
_gamma_half and _hyp2f1_terminating.

The kernels read a constant set's dimensioned constants, which constants()
computes from the set's link, gamma and w_variant and keeps for the
DERIVED_SETS most recent sets. K is Wick's recurrence for the moments of
exp(-c1 x^2 - c2 y^2 + i c3 x y), exact zeros in vacuum included, and
K(b, a) is the exact conjugate of K(a, b); it is kept in a bounded
lru_cache keyed on its orders and c1..c3, whose cache_info() and
cache_clear() k_kernel offers as an lru_cache does.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache

from .channel import DERIVED_SETS, W_VARIANT_PROPAGATED, DerivedConstants, OpticalConfig
from .engine import DEFAULT_MAX_ORDER, _orders
from .errors import DomainError

KernelConstants = namedtuple("KernelConstants", "w zeta a3 b1 c1 c2 c3")


@lru_cache(maxsize=DERIVED_SETS)
def constants(cfg: OpticalConfig, gamma: float, w_variant: str) -> KernelConstants:
    """The dimensioned constants the kernels read, of the link cfg at gamma
    and w_variant, one expression per field; DomainError when a term raises
    or a field is not finite.

    - w [m]: the receiver-plane mode scale, W0 sqrt(1 + Lambda0^2)
      (propagated) or W0 (waist);
    - zeta: the complex Fresnel squeeze factor;
    - b1, a3 = c2 - c1 and c1..c3 [1/m^2]: the quadratic-form coefficients
      of the ensemble-averaged detection integral, whose Gaussian
      exp(-c1 x^2 - c2 y^2 + i c3 x y) K takes the moments of. With u = k/z,
      L = Lambda0 and d = 1 + L^2 + 2 gamma L: b1 = u d / (2 L),
      c1 = u L (1/d + 1/(1 + L^2)), a3 = u gamma (6 + 2 L^2 + 3 gamma L) / d
      and c3 = -u L (L + 3 gamma) / d. The paper's cascade B1..B4, A2 reaches
      c1,2 = Re A2 -/+ a3/2 and c3 = Im A2 by subtracting nearly equal terms
      at small Lambda0; these forms add terms of one sign, so nothing
      cancels, and in vacuum a3 is exactly 0 and c1 == c2 bitwise.
    """
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
        finite = all(map(cmath.isfinite, (zeta, w, b1, c1, c2, c3)))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise DomainError(f"{cfg} at gamma={gamma} gives constants that are zero, "
                          "infinite or beyond the float range")
    return KernelConstants(w, zeta, a3, b1, c1, c2, c3)


def sigma(k: int, l: int) -> int:
    """Parity factor (-1)^k + (-1)^l, one of -2, 0, 2."""
    return (-1) ** k + (-1) ** l


def f_kernel(mu: int, nu: int, k: int, l: int, consts: DerivedConstants) -> complex:
    """First overlap kernel; exactly 0 whenever sigma(k, l) vanishes.

    The sigma guard also means Gamma and the terminating hypergeometric are
    only ever evaluated at even k + l. No matrix reads it: the seeds hold
    F of orders <= 2 in closed form.
    """
    if not (0 <= k <= mu and 0 <= l <= nu):
        raise DomainError(f"indices out of range: mu={mu}, nu={nu}, k={k}, l={l}")
    sig = sigma(k, l)
    if sig == 0:
        return 0.0 + 0.0j
    w, zeta = constants(*consts)[:2]
    # k + l is even past the sigma guard, so i^(k+l) is the real sign
    # (-1)^((k+l)/2)
    i_power = -1 if (k + l) % 4 == 2 else 1
    val = math.comb(mu, k) * math.comb(nu, l) * 2 ** (mu + nu) * sig
    val = val * i_power * _gamma_half(k + l + 1)
    val *= (math.sqrt(2.0) / w) ** (mu + nu - k - l)
    val *= cmath.sqrt(1 - zeta) * cmath.sqrt(zeta) ** (k + l)
    val *= _hyp2f1_terminating(k, l, (1 - k - l) / 2, 1 / (2 * zeta))
    return val


def _hyp2f1_terminating(k: int, l: int, c: float, x: complex) -> complex:
    """2F1(-k, -l; c; x), the finite sum over n = 0..min(k, l) by the term
    ratio (-k + n)(-l + n) / ((c + n)(n + 1)) x. f_kernel's c = (1 - k - l)/2
    is a half-odd integer at even k + l, so no denominator vanishes."""
    total = term = 1.0 + 0.0j
    for n in range(min(k, l)):
        term *= (-k + n) * (-l + n) / ((c + n) * (n + 1)) * x
        total += term
    return total


def _gamma_half(twice: int) -> float:
    """Gamma(twice / 2) for twice >= 1 by the exact recursion
    Gamma(x + 1) = x Gamma(x) from Gamma(1) = 1 or Gamma(1/2) = sqrt(pi)."""
    if twice <= 0:
        raise DomainError(f"Gamma(x) needs x > 0, got x = {twice}/2")
    acc = math.sqrt(math.pi) if twice % 2 else 1.0
    for t in range(2 - twice % 2, twice, 2):
        acc *= t / 2
    return acc


# The per-term form of Pi(mu, nu) reads K up to order 2 * DEFAULT_MAX_ORDER:
# the K cache holds that triangle, K(a >= b) with even a + b, for
# DERIVED_SETS sets.
@lru_cache(maxsize=DERIVED_SETS * (DEFAULT_MAX_ORDER + 1) ** 2)
def _k_entry(a: int, b: int, c1: float, c2: float, c3: float) -> complex:
    """K(a, b) for a >= b and even a + b, keyed on the constants it reads,
    by Wick's recurrence (see k_kernel) run bottom-up, rows i = 2..a over
    the entries K(i, j <= min(i, b)) it reads, with no recursion."""
    d = 4 * c1 * c2 + c3 * c3
    sigma, tau = complex(c1 + c2, -c3) / d, (c2 - c1) / d
    k00 = complex(2 * math.pi / math.sqrt(d))
    k = {(0, 0): k00, (1, 1): tau * k00}
    for i in range(2, a + 1):
        for j in range(i % 2, min(i, b) + 1, 2):
            value = (i - 1) * sigma * (k[i - 2, j] if i - 2 >= j else k[j, i - 2].conjugate())
            if j:
                value += j * tau * k[i - 1, j - 1]
            k[i, j] = value if i > j else complex(value.real)
    return k[a, b]


def k_kernel(a: int, b: int, consts: DerivedConstants) -> complex:
    """Second overlap kernel, the moment K(a, b) of the detection-plane
    Gaussian exp(-c1 x^2 - c2 y^2 + i c3 x y). With D = 4 c1 c2 + c3^2,
    sigma = (c1 + c2 - i c3) / D and tau = (c2 - c1) / D, Wick's theorem
    gives

        K(0, 0) = 2 pi / sqrt(D),  K(1, 1) = tau K(0, 0),
        K(a, b) = (a - 1) sigma K(a - 2, b) + b tau K(a - 1, b - 1), a >= 2,

    K(b, a) = conj K(a, b), so the diagonal is real and is stored so, and K
    vanishes for odd a + b. In vacuum c1 == c2, so tau and every
    K(odd, odd) are exactly 0.

    Stores K(max(a, b), min(a, b)) alone, keyed on the orders and c1..c3,
    and returns K(b, a) as its exact conjugate. Any order runs, without
    recursion.
    """
    a, b = _orders(a, b)
    if a < 0 or b < 0:
        raise DomainError(f"kernel orders must be nonnegative, got ({a}, {b})")
    if (a + b) % 2:
        return 0.0 + 0.0j
    dims = constants(*consts)
    c = dims.c1, dims.c2, dims.c3
    return _k_entry(a, b, *c) if a >= b else _k_entry(b, a, *c).conjugate()


# k_kernel.cache_info() and .cache_clear(), as for an lru_cache
k_kernel.cache_info = _k_entry.cache_info
k_kernel.cache_clear = _k_entry.cache_clear
