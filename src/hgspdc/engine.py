"""Closed-form joint detection probabilities for photon-pair transverse modes.

Evaluates the two overlap kernels (f_kernel, k_kernel), the per-axis factor
pi_factor and the joint probability P(signal, idler) = Pi(m_s, m_i) *
Pi(n_s, n_i), and assembles probability matrices over ordered mode grids.
build_matrix and rytov_sweep are the one path from channel inputs
(geometry plus turbulence) to calibrated probabilities; the CLI, the
validation suite and the scripts all go through them.

k_kernel is one sum over s = p + q of integer Krawtchouk weights times a
bracket h(s, a + b - s); pairing s with a + b - s evaluates each bracket
once and makes the vacuum selection-rule zeros exact. Pi is a quadratic
form in the per-order sums of F, since k_kernel reads only total orders,
and a matrix reads its entries from one table of the distinct Pi it needs.
The sums mix signs, so they go through math.fsum, which rounds exactly.
k_kernel and pi_factor values are memoized in two bounded caches that keep
the most recent constant sets; all functions are pure, and cache fills are
idempotent, so concurrent use is safe.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .channel import (
    DEFAULT_W_VARIANT,
    DerivedConstants,
    OpticalConfig,
    ResolvedTurbulence,
    TurbulenceSpec,
    derive_constants,
)
from .errors import CalibrationError, DomainError, NumericalError
from .reference import CALIBRATION_REFERENCE
from .specfun import HalfInteger, gamma_half, hyp2f1_real, hyp2f1_terminating

DEFAULT_MAX_ORDER = 10

# below this the removable 1/c3 singularity in the k_kernel bracket switches
# to its first-order expansion in c3
_SMALL_C3_FACTOR = 1e-6

# One constant set reads at most 221 K(a, b) (a, b <= 2 * DEFAULT_MAX_ORDER,
# a + b even) and 66 Pi(mu <= nu <= DEFAULT_MAX_ORDER); each cache holds 16
# such sets whole, such as 8 channels and their 8 vacuum calibration anchors.
_K_CACHE_SIZE = 16 * 221
_PI_CACHE_SIZE = 16 * 66

_IMAG_RTOL = 1e-10
_NEGATIVE_CLAMP = 1e-12


@dataclass(frozen=True, order=True)
class ModeIndex:
    """Transverse mode orders (m, n) along the two Cartesian axes."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise DomainError(f"mode orders must be nonnegative, got ({self.m}, {self.n})")

    def label(self) -> str:
        if self.m <= 9 and self.n <= 9:
            return f"{self.m}{self.n}"
        return f"{self.m},{self.n}"


@dataclass(frozen=True)
class ModePair:
    signal: ModeIndex
    idler: ModeIndex

    def label(self) -> str:
        return f"({self.signal.label()},{self.idler.label()})"


def parse_mode(token: str) -> ModeIndex:
    """Parse 'mn' two-digit tokens (or 'm,n' for orders above 9)."""
    token = token.strip()
    if "," in token:
        try:
            m, n = map(int, token.split(","))
        except ValueError:
            raise DomainError(f"cannot parse mode token {token!r}") from None
        return ModeIndex(m, n)
    if len(token) != 2 or not token.isdigit():
        raise DomainError(f"cannot parse mode token {token!r} (expected two digits)")
    return ModeIndex(int(token[0]), int(token[1]))


def expand_modes(max_sum: int) -> list[ModeIndex]:
    """All modes with m + n <= max_sum, ordered by total order then by m.

    This matches the reference ordering 00, 01, 10, 02, 11, 20, ...
    """
    if max_sum < 0:
        raise DomainError(f"max_sum must be >= 0, got {max_sum}")
    return [ModeIndex(m, s - m) for s in range(max_sum + 1) for m in range(s + 1)]


#: the 10-mode ordering used by the reference matrices
DEFAULT_ORDERING: tuple[ModeIndex, ...] = tuple(expand_modes(3))

# calibrated normalization pins this pair's vacuum entry to
# reference.CALIBRATION_REFERENCE
_ANCHOR_PAIR = ModePair(ModeIndex(0, 0), ModeIndex(0, 0))


def sigma(k: int, l: int) -> int:
    """Parity factor (-1)^k + (-1)^l, one of -2, 0, 2."""
    return (-1) ** k + (-1) ** l


def _compensated_sum(terms: list[complex]) -> complex:
    return complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms))


def f_kernel(mu: int, nu: int, k: int, l: int, consts: DerivedConstants) -> complex:
    """First overlap kernel; exactly 0 whenever sigma(k, l) vanishes.

    The sigma guard also means Gamma and the terminating hypergeometric are
    only ever evaluated at even k + l.
    """
    if not (0 <= k <= mu and 0 <= l <= nu):
        raise DomainError(f"indices out of range: mu={mu}, nu={nu}, k={k}, l={l}")
    sig = sigma(k, l)
    if sig == 0:
        return 0.0 + 0.0j
    zeta = consts.zeta
    # k + l is even past the sigma guard, so i^(k+l) is the real sign
    # (-1)^((k+l)/2)
    i_power = -1 if (k + l) % 4 == 2 else 1
    val = math.comb(mu, k) * math.comb(nu, l) * 2 ** (mu + nu) * sig
    val = val * i_power * gamma_half(HalfInteger(k + l + 1))
    val *= (math.sqrt(2.0) / consts.w) ** (mu + nu - k - l)
    val *= cmath.sqrt(1 - zeta) * cmath.sqrt(zeta) ** (k + l)
    val *= hyp2f1_terminating(k, l, HalfInteger(1 - k - l), 1 / (2 * zeta))
    return val


def _bracket(s: int, t: int, consts: DerivedConstants) -> complex:
    """The k_kernel bracket h(s, t) for s + t even; symmetric in (s, t).

    The odd bracket carries 1/c3 but is O(c3); below the small-c3 threshold
    it is evaluated through its first-order expansion so the removable
    singularity never amplifies roundoff.
    """
    c1, c2, c3, c4 = consts.c1, consts.c2, consts.c3, consts.c4
    if s % 2 == 0:
        g = gamma_half(HalfInteger(1 + s)) * gamma_half(HalfInteger(1 + t))
        return 4 * math.sqrt(c1 / c2) * g * hyp2f1_real((1 + s) / 2, (1 + t) / 2, 0.5, c4)
    g = gamma_half(HalfInteger(2 + s)) * gamma_half(HalfInteger(2 + t))
    if abs(c3) < _SMALL_C3_FACTOR * (c1 + c2):
        return 4j * g * c3 * ((3 + s + t) - (2 + s) * (2 + t)) / (c2 * (1 + s) * (1 + t))
    hi = hyp2f1_real((2 + s) / 2, (2 + t) / 2, 0.5, c4)
    lo = hyp2f1_real((2 + s) / 2, (2 + t) / 2, -0.5, c4)
    return 4j * g * (
        (4 * c1 * c2 + c3 ** 2 * (4 + s + t)) * hi - (4 * c1 * c2 + c3 ** 2) * lo
    ) / (c2 * c3 * (1 + s) * (1 + t))


@lru_cache(maxsize=_K_CACHE_SIZE)
def k_kernel(a: int, b: int, consts: DerivedConstants) -> complex:
    """Second overlap kernel, one sum over s = p + q with n = a + b, t = n - s:

    K = 1/4 2^(-n/2) c1^(-1) (c1 c2)^(-n/4) sum_s kappa_s rho^(s-t) h(s, t)

    with rho = (c2/c1)^(1/4), h the bracket and kappa_s the integer
    [x^s] (1+x)^a (x-1)^b, a Krawtchouk value (DLMF 18.19). The bracket
    vanishes unless s and t share parity, so K vanishes for odd a + b. Since
    kappa_(n-s) = (-1)^b kappa_s and h is symmetric, the s and n - s terms
    share one bracket; their weights cancel exactly when c1 == c2, as in
    vacuum, so K(odd, odd) is then exactly 0.
    """
    if a < 0 or b < 0:
        raise DomainError(f"kernel orders must be nonnegative, got ({a}, {b})")
    n = a + b
    if n % 2:
        return 0.0 + 0.0j
    c1, c2 = consts.c1, consts.c2
    rho = (c2 / c1) ** 0.25
    sign = (-1) ** b
    terms: list[complex] = []
    # kappa runs through kappa_s by the recurrence read off from
    # (x^2 - 1) f' = (n x + b - a) f for f = (1+x)^a (x-1)^b:
    # (s+1) kappa_(s+1) = (a - b) kappa_s + (s - 1 - n) kappa_(s-1)
    kappa_prev, kappa = 0, sign
    for s in range(n // 2 + 1):
        t = n - s
        weight = kappa * (rho ** (s - t) + sign * rho ** (t - s) if s < t else 1.0)
        if weight:
            terms.append(weight * _bracket(s, t, consts))
        kappa_prev, kappa = kappa, ((a - b) * kappa + (s - 1 - n) * kappa_prev) // (s + 1)
    return 0.25 * 0.5 ** (n / 2) / c1 * (c1 * c2) ** (-n / 4) * _compensated_sum(terms)


@lru_cache(maxsize=_PI_CACHE_SIZE)
def _pi_cached(mu: int, nu: int, consts: DerivedConstants) -> float:
    # F(k, l) vanishes unless k and l share parity, so only even k + l = s
    # occur, and k_kernel reads only the total orders N - s and N - t:
    # Pi = pref * sum_{s,t} g_s g_t* K(N - s, N - t)
    n = mu + nu
    g = [_compensated_sum([f_kernel(mu, nu, k, s - k, consts)
                           for k in range(max(0, s - nu), min(mu, s) + 1)])
         for s in range(0, n + 1, 2)]
    total = _compensated_sum([
        gs * gt.conjugate() * k_kernel(n - 2 * a, n - 2 * b, consts)
        for a, gs in enumerate(g) for b, gt in enumerate(g)
    ])
    pref = 1.0 / (
        consts.cfg.wavelength ** 2 * consts.cfg.distance ** 2
        * math.sqrt(math.pi * consts.b1)
        * math.factorial(mu) * math.factorial(nu) * 2 ** (mu + nu)
    )
    value = pref * total
    if abs(value.imag) > _IMAG_RTOL * abs(value.real) + 1e-300:
        raise NumericalError(
            f"pi_factor({mu}, {nu}) lost realness: {value!r} "
            "(kernel bug or regime violation)"
        )
    result = value.real
    if -_NEGATIVE_CLAMP <= result < 0.0:
        result = 0.0
    return result


def pi_factor(mu: int, nu: int, consts: DerivedConstants) -> float:
    """Per-axis probability factor: the kernel quadratic form with prefactor.

    Symmetric in (mu, nu); the memo key is sorted so the symmetry is exact.
    """
    if mu < 0 or nu < 0:
        raise DomainError(f"orders must be nonnegative, got ({mu}, {nu})")
    if max(mu, nu) > DEFAULT_MAX_ORDER:
        raise DomainError(
            f"order {max(mu, nu)} exceeds max_order={DEFAULT_MAX_ORDER}; the "
            "paraxial closed form degrades for high orders"
        )
    return _pi_cached(min(mu, nu), max(mu, nu), consts)


def joint_probability(pair: ModePair, consts: DerivedConstants) -> float:
    """P(signal, idler) = Pi(m_s, m_i) * Pi(n_s, n_i), unnormalized."""
    s, i = pair.signal, pair.idler
    return pi_factor(s.m, i.m, consts) * pi_factor(s.n, i.n, consts)


def selection_rule_allowed(pair: ModePair, pump: ModeIndex = ModeIndex(0, 0)) -> bool:
    """Vacuum selection rules: per axis, signal+idler order must have the
    pump's parity and be at least the pump order."""
    s, i = pair.signal, pair.idler
    return (
        (s.m + i.m) % 2 == pump.m % 2 and s.m + i.m >= pump.m
        and (s.n + i.n) % 2 == pump.n % 2 and s.n + i.n >= pump.n
    )


NORMALIZATION_RAW = "raw"
NORMALIZATION_CALIBRATED = "calibrated"


@dataclass(frozen=True)
class Normalization:
    """How a matrix was scaled.

    calibrated mode rescales every entry by one global factor chosen so the
    vacuum entry of reference_pair, always (00,00), over the same geometry
    lands on reference_value; raw_reference_value reports the unscaled
    magnitude so the absolute scale stays inspectable.
    """

    mode: str
    reference_pair: ModePair
    reference_value: float | None
    calibration_factor: float
    raw_reference_value: float


@dataclass(frozen=True)
class ProbabilityMatrix:
    """Joint probabilities over an ordered mode grid.

    values[i][j] = P(signal=ordering[i], idler=ordering[j]). turbulence
    carries the resolved channel input when the caller supplies it.
    """

    ordering: tuple[ModeIndex, ...]
    values: tuple[tuple[float, ...], ...]
    consts: DerivedConstants
    normalization: Normalization
    turbulence: "ResolvedTurbulence | None" = None

    @property
    def size(self) -> int:
        return len(self.ordering)

    def value(self, signal: ModeIndex, idler: ModeIndex) -> float:
        return self.values[self.ordering.index(signal)][self.ordering.index(idler)]

    def max_value(self) -> float:
        return max(max(row) for row in self.values)


def _calibration_factor(consts: DerivedConstants,
                        reference_value: float = CALIBRATION_REFERENCE) -> float:
    """The global factor that maps the anchor pair (00,00), evaluated in
    vacuum over the geometry and w_variant of consts, onto reference_value."""
    vac = derive_constants(consts.cfg, 0.0, consts.w_variant)
    anchor = joint_probability(_ANCHOR_PAIR, vac)
    if anchor <= 0.0:
        raise CalibrationError(
            f"calibration reference {_ANCHOR_PAIR.label()} is {anchor}; "
            "cannot normalize"
        )
    return reference_value / anchor


def _clamp_and_scale(rows: list[list[float]], factor: float,
                     entry: Callable[[int, int], str]) -> list[list[float]]:
    """Scale raw probabilities by factor. Entries negative by at most
    _NEGATIVE_CLAMP of the largest magnitude in rows are roundoff and become
    0; a deeper negative entry raises NumericalError, which names it by
    entry(row, column) and gives its scaled value."""
    floor = -_NEGATIVE_CLAMP * max((abs(v) for row in rows for v in row), default=0.0)
    for i, row in enumerate(rows):
        low = min(row)
        if low < floor:
            raise NumericalError(f"P{entry(i, row.index(low))} = {low * factor:.6g} "
                                 "is negative beyond the floor")
    return [[0.0 if v < 0.0 else v * factor for v in row] for row in rows]


def _check_normalization(normalization: str) -> None:
    if normalization not in (NORMALIZATION_RAW, NORMALIZATION_CALIBRATED):
        raise DomainError(f"unknown normalization {normalization!r}")


def probability_matrix(
    modes,
    consts: DerivedConstants,
    normalization: str = NORMALIZATION_CALIBRATED,
    reference_value: float = CALIBRATION_REFERENCE,
    turbulence: ResolvedTurbulence | None = None,
) -> ProbabilityMatrix:
    """Fill the grid of joint probabilities for every ordered mode pair.

    With calibrated normalization all entries are rescaled by the single
    global factor that maps the vacuum (00,00) entry onto reference_value,
    so matrices for different turbulence strengths stay mutually comparable.
    turbulence, when given, must carry the gamma that consts was derived for.
    """
    ordering = tuple(modes)
    if not ordering:
        raise DomainError("mode list must be nonempty")
    _check_normalization(normalization)
    if turbulence is None and consts.gamma == 0.0:
        turbulence = TurbulenceSpec().resolve(consts.cfg)
    if turbulence is not None and turbulence.gamma != consts.gamma:
        raise DomainError(
            f"turbulence metadata has gamma={turbulence.gamma!r} but the "
            f"constants were derived for gamma={consts.gamma!r}"
        )

    # one pi_factor call per distinct sorted (mu, nu) the grid reads: pairs
    # of m orders, pairs of n orders and the (00,00) anchor's (0, 0)
    keys = {(0, 0)}
    for axis in ({s.m for s in ordering}, {s.n for s in ordering}):
        keys.update((min(a, b), max(a, b)) for a in axis for b in axis)
    pi = {}
    for a, b in sorted(keys):
        pi[a, b] = pi[b, a] = pi_factor(a, b, consts)
    raw = [[pi[s.m, i.m] * pi[s.n, i.n] for i in ordering] for s in ordering]
    raw_ref = pi[0, 0] * pi[0, 0]

    if normalization == NORMALIZATION_CALIBRATED:
        factor = _calibration_factor(consts, reference_value)
        norm = Normalization(NORMALIZATION_CALIBRATED, _ANCHOR_PAIR,
                             reference_value, factor, raw_ref)
    else:
        factor = 1.0
        norm = Normalization(NORMALIZATION_RAW, _ANCHOR_PAIR, None, 1.0, raw_ref)

    values = tuple(map(tuple, _clamp_and_scale(
        raw, factor, lambda i, j: ModePair(ordering[i], ordering[j]).label())))
    return ProbabilityMatrix(ordering, values, consts, norm, turbulence)


def build_matrix(
    cfg: OpticalConfig,
    turbulence: TurbulenceSpec,
    modes=DEFAULT_ORDERING,
    normalization: str = NORMALIZATION_CALIBRATED,
    w_variant: str = DEFAULT_W_VARIANT,
) -> ProbabilityMatrix:
    """Probability matrix for one channel: resolve the turbulence input over
    the geometry, derive the constants and assemble the matrix, which carries
    the resolved input as its turbulence metadata."""
    turb = turbulence.resolve(cfg)
    consts = derive_constants(cfg, turb.gamma, w_variant)
    return probability_matrix(modes, consts, normalization=normalization,
                              turbulence=turb)


def rytov_sweep(
    cfg: OpticalConfig,
    grid,
    pairs,
    normalization: str = NORMALIZATION_CALIBRATED,
) -> list[list[float]]:
    """Joint probabilities of each pair over an ascending grid of Rytov
    variances, one series per pair in the order given.

    Only the requested pairs are evaluated at each grid point; calibrated
    series share the factor a calibrated matrix over the same geometry uses.
    """
    grid = list(grid)
    if not grid:
        raise DomainError("sweep grid is empty")
    if grid != sorted(grid):
        raise DomainError("sweep grid must be ascending")
    _check_normalization(normalization)
    pairs = list(pairs)
    points = [derive_constants(cfg, TurbulenceSpec.from_rytov(s2).resolve(cfg).gamma)
              for s2 in grid]
    factor = (_calibration_factor(points[0])
              if normalization == NORMALIZATION_CALIBRATED else 1.0)
    return _clamp_and_scale(
        [[joint_probability(pair, consts) for consts in points] for pair in pairs],
        factor, lambda i, j: f"{pairs[i].label()} at rytov {grid[j]}")
