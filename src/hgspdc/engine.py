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
form in the per-order sums g_s of F, since k_kernel reads only total orders,
and a matrix reads its entries from one table of the distinct Pi it needs.
K(b, a) is the exact conjugate of K(a, b), so the form is real term pair by
term pair and Pi reads one triangle of K. Each g_s is one geometry factor
times a polynomial with exact, geometry-free coefficients. The sums mix
signs, so they go through math.fsum, which rounds the exact sum in any order.
Every Pi is judged once, against its own sum of |terms|: pi_factor returns
a finite value >= 0 or raises NumericalError, so matrices and sweeps only
multiply.

Bounded caches keep each kernel value once. Four lru_caches hold
geometry-free numbers, built on first use: _gamma_half (Gamma(j/2) by
its exact recursion), _f_coefficients (the F-sum polynomials
of one mu <= nu <= DEFAULT_MAX_ORDER, at most 66 rows), _bracket_coefficients
and _kappas (K's bracket polynomials and weights). _f_sums, the g_s of one
(mu, nu), is keyed on (mu, nu, zeta, w), which depend only on the geometry,
so every Rytov value over one geometry and its vacuum anchor share them.
Each DerivedConstants owns the rest. k holds K as two flat, row-major lower
triangles, one per parity p: entry i (i + 1) / 2 + j, j <= i, is
K(2 i + p, 2 j + p), so Pi(mu, nu) reads the leading (mu + nu) // 2 + 1 rows
of parity (mu + nu) % 2 (at most 66 + 55 = 121 entries). A fill extends a
triangle by whole rows in one assignment, so a concurrent reader sees the
old triangle or the new one. pi holds Pi(mu <= nu) (at most 66), and
brackets the h(s, n - s), K weights and K prefactor of each even total
order n (at most 21). derive_constants keeps the 16 most recent sets, so no
lookup here hashes a constant set, and at most 16 sets hold tables: a set's
first K fill past that empties the tables of the set that filled first, even
one a caller still holds. table_info() reports the hits, misses and sizes.
All functions are pure and fills store values computed from the set's own
fields, so concurrent use is safe.
"""

from __future__ import annotations

import cmath
import math
import weakref
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement, compress
from operator import attrgetter, index, mul

from .channel import (
    DEFAULT_W_VARIANT,
    DERIVED_SETS,
    DerivedConstants,
    OpticalConfig,
    ResolvedTurbulence,
    TurbulenceSpec,
    derive_cache_info,
    derive_constants,
)
from .errors import CalibrationError, DomainError, NumericalError
from .reference import CALIBRATION_REFERENCE

DEFAULT_MAX_ORDER = 10

# One constant set reads at most 121 K, 21 bracket rows (even n <= 40) and
# 66 Pi, so 66 rows of F sums; the F-sum cache holds those of the
# DERIVED_SETS = 16 sets that hold tables. The geometry-free tables hold
# every row those orders read, and Gamma(j/2) for odd j <= 41.
_K_TOP = 2 * DEFAULT_MAX_ORDER
_K_ENTRIES = (DEFAULT_MAX_ORDER + 1) ** 2
_F_ROWS = (DEFAULT_MAX_ORDER + 1) * (DEFAULT_MAX_ORDER + 2) // 2
_F_CACHE_SIZE = DERIVED_SETS * _F_ROWS
_GAMMA_CACHE_SIZE = 2 * DEFAULT_MAX_ORDER + 1
# the K triangles' cells in row-major order, (i, j, flat index), whose rows
# 0..r are the first _ENTRIES[r + 1]
_ENTRIES = tuple(r * (r + 1) // 2 for r in range(DEFAULT_MAX_ORDER + 2))
_CELLS = tuple((i, j, _ENTRIES[i] + j) for i in range(DEFAULT_MAX_ORDER + 1) for j in range(i + 1))
_OFF_DIAGONAL = tuple(i != j for i, j, _ in _CELLS)
_real, _imag = attrgetter("real"), attrgetter("imag")

_NEGATIVE_CLAMP = 1e-12


def _orders(*orders) -> tuple[int, ...]:
    """orders as ints by operator.index; DomainError for a non-integer."""
    try:
        return tuple(map(index, orders))
    except TypeError:
        raise DomainError(f"orders must be integers, got {orders}") from None


@dataclass(frozen=True, order=True)
class ModeIndex:
    """Transverse mode orders (m, n) along the two Cartesian axes."""

    m: int
    n: int

    def __post_init__(self):
        if min(_orders(self.m, self.n)) < 0:
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
    max_sum, = _orders(max_sum)
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


def f_kernel(mu: int, nu: int, k: int, l: int, consts: DerivedConstants) -> complex:
    """First overlap kernel; exactly 0 whenever sigma(k, l) vanishes.

    The sigma guard also means Gamma and the terminating hypergeometric are
    only ever evaluated at even k + l. This per-term form is the reference
    that the per-order polynomial sums in _f_sums are tested against.
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
    val = val * i_power * _gamma_half(k + l + 1)
    val *= (math.sqrt(2.0) / consts.w) ** (mu + nu - k - l)
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


@lru_cache(maxsize=_GAMMA_CACHE_SIZE)
def _gamma_half(twice: int) -> float:
    """Gamma(twice / 2) for twice >= 1 by the exact recursion
    Gamma(x + 1) = x Gamma(x) from Gamma(1) = 1 or Gamma(1/2) = sqrt(pi). The
    values F and the brackets read depend on no geometry, so each is
    computed once."""
    if twice <= 0:
        raise DomainError(f"Gamma(x) needs x > 0, got x = {twice}/2")
    acc = math.sqrt(math.pi) if twice % 2 else 1.0
    for t in range(2 - twice % 2, twice, 2):
        acc *= t / 2
    return acc


def _kappa(j: int, m: int, m2: int) -> int:
    """[x^j] (1 - x)^m (1 + x)^m2, a Krawtchouk value (DLMF 18.19)."""
    return sum((-1) ** p * math.comb(m, p) * math.comb(m2, j - p)
               for p in range(max(0, j - m2), min(m, j) + 1))


@lru_cache(maxsize=_K_ENTRIES)
def _kappas(a: int, b: int) -> tuple[int, ...]:
    """The Krawtchouk weights kappa_s of K(a, b) (see k_kernel), s <= (a+b)/2."""
    return tuple((-1) ** b * _kappa(s, b, a) for s in range((a + b) // 2 + 1))


@lru_cache(maxsize=_F_ROWS)
def _f_coefficients(mu: int, nu: int) -> tuple[tuple[float, tuple[float, ...]], ...]:
    """Per even s = 0, 2, ..., mu + nu: Gamma((s+1)/2) and the coefficients
    of the polynomial Q_s(y) that the F sum g_s reduces to, y = (1 - zeta)/zeta.

    Summing F(k, s - k) over k collects the terminating 2F1 series by power
    of x = 1/(2 zeta) into P_s(x) with P_s[n] = 2 (-1)^n n! C(mu, n) C(nu, n)
    kappa_(s-2n)(mu-n, nu-n) / ((1-s)/2)_n. Q_s(y) = P_s((1 + y)/2): for the
    closed-form zeta, y = i Lambda0 / (1 + Lambda0^2) is small in both the near
    and the far field, where P_s cancels heavily at x near 1/2 and Q_s does
    not. Over the common denominator 2^N ((1-s)/2)_N each coefficient is one
    int / int division, which Python rounds correctly.
    """
    rows = []
    for s in range(0, mu + nu + 1, 2):
        top = min(mu, nu, s // 2)
        # P_s[n] 2^(-n) = nums[n] / pochs[n], pochs[n] = prod_(j<n) (1 - s + 2j)
        nums, pochs = [], [1]
        for n in range(top + 1):
            nums.append(2 * (-1) ** n * math.factorial(n) * math.comb(mu, n) * math.comb(nu, n)
                        * _kappa(s - 2 * n, mu - n, nu - n))
            pochs.append(pochs[-1] * (1 - s + 2 * n))
        den = pochs[top]
        rows.append((_gamma_half(s + 1), tuple(
            sum(math.comb(n, j) * nums[n] * (den // pochs[n]) for n in range(j, top + 1)) / den
            for j in range(top + 1))))
    return tuple(rows)


@lru_cache(maxsize=_F_CACHE_SIZE)
def _f_sums(mu: int, nu: int, zeta: complex, w: float) -> tuple[complex, ...]:
    """g_s = sum of F(k, s - k) over k, for even s = 0, 2, ..., mu + nu.

    Every term of g_s shares 2^(mu+nu) i^s Gamma((s+1)/2) (sqrt2/w)^(mu+nu-s)
    sqrt(1 - zeta) sqrt(zeta)^s; the rest is Q_s((1 - zeta)/zeta), by Horner.
    """
    y = (1 - zeta) / zeta
    root = cmath.sqrt(zeta)
    front = 2 ** (mu + nu) * cmath.sqrt(1 - zeta)
    scale = math.sqrt(2.0) / w
    sums = []
    for s, (gamma, coeffs) in zip(range(0, mu + nu + 1, 2), _f_coefficients(mu, nu)):
        poly = 0j
        for c in reversed(coeffs):
            poly = poly * y + c
        # i^s is the real sign (-1)^(s/2) for even s
        sign = -gamma if s % 4 else gamma
        sums.append(sign * scale ** (mu + nu - s) * front * root ** s * poly)
    return tuple(sums)


@lru_cache(maxsize=_K_TOP + 1)
def _bracket_coefficients(n: int) -> tuple[tuple[float, tuple[float, ...], ...], ...]:
    """Per s = 0..n/2: h(s, n - s)'s front factor, exponent b and polynomial P
    in x - x0, x0 = 0, 1/2, 1, highest power first, each coefficient exact over
    one denominator and rounded once. Pfaff on b (DLMF 15.8.1) leaves (1 - c4)^(-b)
    P(x), x = c4 / (c4 - 1): P = 2F1(-s/2, b; 1/2; x), b = (1 + t)/2, for even s
    and, by Gauss's contiguous relations, -2F1(-(s-1)/2, b; 3/2; x), b = (2 + t)/2."""
    rows = []
    for s in range(n // 2 + 1):
        odd = s % 2
        m, twice_b, twice_c = s // 2, 1 + n - s + odd, 1 + 2 * odd
        # (b)_j (-m)_j / ((c)_j j!) = nums[j] / (dens[m] 2^m)
        dens = [math.prod((twice_c + 2 * i) * (i + 1) for i in range(j)) for j in range(m + 1)]
        nums = [math.prod((twice_b + 2 * i) * (i - m) for i in range(j)) * (dens[m] // d) << m
                for j, d in enumerate(dens)]
        # x^j = sum_k C(j, k) x0^(j - k) (x - x0)^k with x0 = r / 2
        centred = (tuple(sum((math.comb(j, k) * r ** (j - k) * nums[j]) >> (j - k)
                             for j in range(k, m + 1)) / (dens[m] << m)
                         for k in reversed(range(m + 1))) for r in (0, 1, 2))
        front = (-1) ** odd * 4 * _gamma_half(1 + s + odd) * _gamma_half(twice_b)
        rows.append((front, twice_b / 2, *centred))
    return tuple(rows)


def _bracket_row(n: int, consts: DerivedConstants) -> tuple[tuple, tuple, tuple, float]:
    """h(s, n - s), s = 0..n/2, read by each K(a, b) with a + b = n, the K
    weights rho^(s-t) +- rho^(t-s) (+ for even b; 1.0 at s = t) and K's
    prefactor 1/4 2^(-n/2) c1^(-1) (c1 c2)^(-n/4) (see k_kernel). The odd h
    is c3 times a factor smooth through c3 = 0. Horner runs about the x0
    nearest x: powers of x cancel past c4 = -1/3, and x nears 1 past -3."""
    c1, c2, c3, c4 = consts.c1, consts.c2, consts.c3, consts.c4
    big = 1 - c4
    # 1 - c4 = big (1 + tail), Knuth's two-sum: big's rounding is not raised to b
    tail = ((1 - (big - (big - 1))) + (-c4 - (big - 1))) / big
    centre = (c4 < -1 / 3) + (c4 < -3)
    v = (-c4, -(1 + c4) / 2, -1.0)[centre] / big
    root = math.sqrt(c1 / c2)
    h = []
    for s, (front, b, *centred) in enumerate(_bracket_coefficients(n)):
        poly = 0.0
        for c in centred[centre]:
            poly = poly * v + c
        value = front * big ** -b * (1 - b * tail) * poly
        h.append(value * root if s % 2 == 0 else 1j * value * c3 / c2)
    rho = (c2 / c1) ** 0.25
    powers = [(rho ** (2 * s - n), rho ** (n - 2 * s)) for s in range(n // 2)]
    return (tuple(h), (*[up + down for up, down in powers], 1.0),
            (*[up - down for up, down in powers], 1.0),
            0.25 * 0.5 ** (n / 2) / c1 * (c1 * c2) ** (-n / 4))


class _Counts:
    """K reads of stored entries and entries filled, Pi lookups and fills, since
    _clear_tables: statistics, which concurrent fills may miscount."""

    __slots__ = ("k_hits", "k_misses", "pi_lookups", "pi_misses")

    def __init__(self):
        self.k_hits = self.k_misses = self.pi_lookups = self.pi_misses = 0


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
TableInfo = namedtuple("TableInfo", "sets k pi")

_counts = _Counts()
# the constant sets with filled tables, by identity and in the order they
# joined, derive_constants held or not; a set not in it joins on a K fill,
# which every Pi fill of an empty set makes
_live: weakref.WeakValueDictionary[int, DerivedConstants] = weakref.WeakValueDictionary()


def _empty(*sets: DerivedConstants) -> None:
    for consts in sets:
        consts.k[:] = ((), ())
        consts.pi.clear()
        consts.brackets.clear()


def _join(consts: DerivedConstants) -> None:
    """Track consts as a table owner; past DERIVED_SETS owners, empty the
    tables of the one that joined first, even if a caller holds it."""
    _live[id(consts)] = consts
    while len(_live) > DERIVED_SETS:
        oldest = _live.pop(next(iter(_live)), None)
        if oldest is not None:  # None if it died after iter found it
            _empty(oldest)


def _clear_tables() -> None:
    """Drop the derived sets, empty every live set's tables, zero the counts."""
    global _counts
    derive_cache_info(clear=True)
    _empty(*_live.values())
    _live.clear()
    _counts = _Counts()


def table_info() -> TableInfo:
    """Hits, misses, current size and bound of the derived constant sets, the
    K tables and the Pi tables. K and Pi count since the last _clear_tables,
    and their sizes sum over the sets alive."""
    live = list(_live.values())
    c = _counts
    return TableInfo(
        derive_cache_info(),
        CacheInfo(c.k_hits, c.k_misses, DERIVED_SETS * _K_ENTRIES,
                  sum(len(t.k[0]) + len(t.k[1]) for t in live)),
        CacheInfo(c.pi_lookups - c.pi_misses, c.pi_misses, DERIVED_SETS * _F_ROWS,
                  sum(len(t.pi) for t in live)),
    )


def _k_values(cells, p: int, consts: DerivedConstants, rows: dict) -> list[complex]:
    """The k_kernel sum K(2 i + p, 2 j + p) of each cell (i, j, _) in cells,
    reading each bracket row from rows by total order, or storing it there."""
    values = []
    for i, j, _ in cells:
        a, b = 2 * i + p, 2 * j + p
        n = a + b
        row = rows.get(n)
        if row is None:
            row = rows[n] = _bracket_row(n, consts)
        terms = [weight * h for weight, h in zip(map(mul, _kappas(a, b), row[1 + b % 2]), row[0])
                 if weight]
        values.append(row[3] * complex(math.fsum(map(_real, terms)),
                                       math.fsum(map(_imag, terms))))
    return values


def _fill(consts: DerivedConstants, p: int, count: int) -> tuple[complex, ...]:
    """consts's parity-p K triangle extended to its first count entries, whole
    rows, and published in one assignment: never part of a row."""
    old = consts.k[p]
    tri = old + tuple(_k_values(_CELLS[len(old):count], p, consts, consts.brackets))
    _counts.k_misses += count - len(old)
    consts.k[p] = tri
    if id(consts) not in _live:
        _join(consts)
    return tri


def k_kernel(a: int, b: int, consts: DerivedConstants) -> complex:
    """Second overlap kernel, one sum over s = p + q with n = a + b, t = n - s:

    K = 1/4 2^(-n/2) c1^(-1) (c1 c2)^(-n/4) sum_s kappa_s rho^(s-t) h(s, t)

    with rho = (c2/c1)^(1/4), h the bracket and kappa_s the integer
    [x^s] (1+x)^a (x-1)^b, a Krawtchouk value (DLMF 18.19). The bracket
    vanishes unless s and t share parity, so K vanishes for odd a + b. Since
    kappa_(n-s) = (-1)^b kappa_s and h is symmetric, the s and n - s terms
    share one bracket; their weights cancel exactly when c1 == c2, as in
    vacuum, so K(odd, odd) is then exactly 0.

    Reads the K triangles of consts, which hold b <= a, K(b, a) being the
    exact conjugate; a miss fills whole rows, and an order above
    2 * DEFAULT_MAX_ORDER is computed without being stored.
    """
    a, b = _orders(a, b)
    if a < 0 or b < 0:
        raise DomainError(f"kernel orders must be nonnegative, got ({a}, {b})")
    if (a + b) % 2:
        return 0.0 + 0.0j
    if max(a, b) > _K_TOP:
        return _k_values([(a // 2, b // 2, None)], a % 2, consts, {})[0]
    i, p = divmod(max(a, b), 2)
    cell = _ENTRIES[i] + min(a, b) // 2
    tri = consts.k[p]
    if cell < len(tri):
        _counts.k_hits += 1
    else:
        tri = _fill(consts, p, _ENTRIES[i + 1])
    return tri[cell] if a >= b else tri[cell].conjugate()


# k_kernel.cache_info() and .cache_clear(), as for an lru_cache, over the K tables
k_kernel.cache_info = lambda: table_info().k
k_kernel.cache_clear = _clear_tables


def _pi_value(mu: int, nu: int, consts: DerivedConstants) -> float:
    # F(k, l) vanishes unless k and l share parity, so only even k + l = s
    # occur, and k_kernel reads only the total orders N - s and N - t:
    # Pi = pref * sum_{s,t} g_s g_t* K(N - s, N - t), which with G_i =
    # g_(N//2 - i) reads K(2 i + p, 2 j + p), rows 0..N//2 of parity p = N % 2.
    # K(b, a) is the exact conjugate of K(a, b), so the form is real: the
    # diagonal once, each pair j < i as its real part twice. fsum adds
    # exactly, so this is the full sum's real part bitwise.
    n = mu + nu
    p, count = n % 2, _ENTRIES[n // 2 + 1]
    tri = consts.k[p]
    _counts.k_hits += min(len(tri), count)
    if len(tri) < count:
        tri = _fill(consts, p, count)
    g = _f_sums(mu, nu, consts.zeta, consts.w)[::-1]
    gc = [x.conjugate() for x in g]
    full = [(g[i] * gc[j] * tri[f]).real for i, j, f in _CELLS[:count]]
    cfg = consts.cfg
    pref = 1.0 / (cfg.wavelength ** 2 * cfg.distance ** 2 * math.sqrt(math.pi * consts.b1)
                  * math.factorial(mu) * math.factorial(nu) * 2 ** (mu + nu))
    result = pref * math.fsum(chain(full, compress(full, _OFF_DIAGONAL)))
    if -math.inf < result < 0.0:
        # Pi is a mean |overlap|^2: only roundoff makes it negative (-inf fails in pi_factor)
        floor = _NEGATIVE_CLAMP * pref * math.fsum(
            map(abs, chain(full, compress(full, _OFF_DIAGONAL))))
        if result < -floor:
            raise NumericalError(f"Pi({mu}, {nu}) = {result:.6g} is negative beyond the floor "
                                 f"{floor:.3g} at gamma={consts.gamma:.6g}, "
                                 f"Lambda0={cfg.fresnel_ratio:.6g}")
        result = 0.0
    return result


def pi_factor(mu: int, nu: int, consts: DerivedConstants) -> float:
    """Per-axis probability factor: the kernel quadratic form with prefactor.

    Symmetric in (mu, nu); the table key is sorted so the symmetry is exact.
    The one sign gate: a sum negative within _NEGATIVE_CLAMP of its sum of
    |terms| reads 0.0. NumericalError if it is negative beyond that or not
    finite, as a kernel term beyond the float range (c2/c1 huge) makes it.
    """
    if type(mu) is not int or type(nu) is not int:  # ints, the hot lookups, skip the call
        mu, nu = _orders(mu, nu)
    if mu < 0 or nu < 0:
        raise DomainError(f"orders must be nonnegative, got ({mu}, {nu})")
    if max(mu, nu) > DEFAULT_MAX_ORDER:
        raise DomainError(
            f"order {max(mu, nu)} exceeds max_order={DEFAULT_MAX_ORDER}; the "
            "paraxial closed form degrades for high orders"
        )
    key = (mu, nu) if mu <= nu else (nu, mu)
    _counts.pi_lookups += 1
    value = consts.pi.get(key)
    if value is None:
        _counts.pi_misses += 1
        try:
            value = _pi_value(*key, consts)
            finite = math.isfinite(value)
        except (OverflowError, ZeroDivisionError, ValueError):
            finite = False
        if not finite:
            raise NumericalError(f"pi_factor({mu}, {nu}) leaves the float range at "
                                 f"c1={consts.c1:.6g}, c2={consts.c2:.6g}")
        consts.pi[key] = value
    return value


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
    ms, ns = [s.m for s in ordering], [s.n for s in ordering]
    m_orders, n_orders = sorted(set(ms)), sorted(set(ns))
    keys = sorted({(0, 0), *combinations_with_replacement(m_orders, 2),
                   *combinations_with_replacement(n_orders, 2)})
    pi: dict[int, dict[int, float]] = {a: {} for a in {0, *m_orders, *n_orders}}
    for a, b in keys:
        pi[a][b] = pi[b][a] = pi_factor(a, b, consts)
    # row s is pi[s.m][i.m] * pi[s.n][i.n] over the idlers i, from one
    # gathered column per distinct order
    col_m = {a: list(map(pi[a].__getitem__, ms)) for a in m_orders}
    col_n = {b: list(map(pi[b].__getitem__, ns)) for b in n_orders}
    raw_ref = pi[0][0] * pi[0][0]

    calibrated = normalization == NORMALIZATION_CALIBRATED
    factor = _calibration_factor(consts, reference_value) if calibrated else 1.0
    norm = Normalization(normalization, _ANCHOR_PAIR, reference_value if calibrated else None,
                         factor, raw_ref)

    values = tuple([tuple([factor * (x * y) for x, y in zip(col_m[m], col_n[n])])
                    for m, n in zip(ms, ns)])
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
    A NumericalError names the pair and the Rytov value it failed at.
    """
    grid, pairs = list(grid), list(pairs)
    if not grid:
        raise DomainError("sweep grid is empty")
    if not pairs:
        raise DomainError("sweep pair list is empty")
    if grid != sorted(grid):
        raise DomainError("sweep grid must be ascending")
    _check_normalization(normalization)
    gammas = [TurbulenceSpec.from_rytov(s2).resolve(cfg).gamma for s2 in grid]
    factor = (_calibration_factor(derive_constants(cfg))
              if normalization == NORMALIZATION_CALIBRATED else 1.0)
    # point by point, each point's constant set derived in turn, so a long
    # grid holds no more sets than derive_constants keeps
    points = []
    for rytov, gamma in zip(grid, gammas):
        consts = derive_constants(cfg, gamma)
        point = []
        for pair in pairs:
            try:
                point.append(factor * joint_probability(pair, consts))
            except NumericalError as exc:
                raise NumericalError(f"P{pair.label()} at rytov {rytov:g}: {exc}") from None
        points.append(point)
    return [list(series) for series in zip(*points)]
