"""Closed-form joint detection probabilities for photon-pair transverse modes.

Evaluates the per-axis factor pi_factor and the joint probability
P(signal, idler) = Pi(m_s, m_i) * Pi(n_s, n_i), and assembles probability
matrices over ordered mode grids.
probability_matrix is the one assembly and calibration of probabilities:
build_matrix takes channel inputs (geometry plus turbulence) to its
matrix, and a rytov_sweep point is the entries of one build_matrix
matrix. The CLI, the validation suite and the scripts all go through
them.

Pi(mu, nu) is the closed form's mean |HG overlap|^2, a quadratic form over
the per-term overlap kernels (see perterm.py). Its generating function is
C exp(quadratic), so four numbers per constant set fix every Pi:

    Pi(mu, nu) = C mu! nu! / 2^(mu+nu) sum_k delta^k k! |v_k(mu, nu)|^2,

v_0(m, n) = [s^m t^n] exp(alpha (s^2 + t^2) + beta s t), by
(m + 1) v_0(m + 1, n) = 2 alpha v_0(m - 1, n) + beta v_0(m, n - 1), and
v_k(m, n) = (v_(k-1)(m - 1, n) + v_(k-1)(m, n - 1)) / k: the
multivariate-Hermite recursion of Miatto & Quesada (Quantum 4, 366, 2020),
Mehler's kernel in vacuum. The fill carries u_k = k! v_k instead, so
u_k(m, n) = u_(k-1)(m - 1, n) + u_(k-1)(m, n - 1) costs two float
additions, real and imaginary parts apart, and weighs each term
delta^k / k! |u_k|^2, the same delta^k k! |v_k|^2. Against this sum in
50-digit mpmath from the same seeds, the filled Pi of order max(mu, nu)
= 10 are within 3.4e-15 over the links the tests fill. C = Pi(0, 0) is
real and positive, alpha and beta are complex, and delta >= 0 is the
variance of the random displacement that turbulence shares between the
photons, exactly 0 in vacuum. The set computes them when it is built, in
closed form from its Lambda0, gamma and w_variant, which alone they depend
on, apart from C's raw scale (see channel._seed_values), and pi_seeds
checks them.
Every term of the sum is >= 0, so nothing cancels, and v_k vanishes unless
k has the parity of m + n, so vacuum Pi with odd mu + nu are exactly 0.
The fill runs over the triangle m <= n, v_k being symmetric, and skips the
parity zeros.

Each DerivedConstants keeps its table pi of Pi rows by order: pi[n] is
(Pi(0, n), ..., Pi(n, n)), so Pi(mu, nu) is pi[max][min]. A fill checks
the set's seeds and publishes rows 0..top in one dict update, each row
independent of top and of fill order. A pi_factor miss fills through the
row it needs. probability_matrix asks for Pi(top, top) of its grid's top
order once, so one fill serves every Pi it reads from the rows. The
calibration factor is the reference over the set's anchor, the vacuum
(00,00) entry C * C of its link's vacuum seeds, which the set computes
with its seeds, so no vacuum set is built for it; a reference that is not
positive and finite is a DomainError, and an anchor that is not, or whose
factor is not finite, a CalibrationError. Pi is symmetric, so the
transposed entry P(i, s) and the entry of the swapped modes
P((n_s, m_s), (n_i, m_i)) read the same two Pi as P(s, i), at most in the
other order, and are bitwise equal: a matrix multiplies each distinct
unordered pair of Pi once and gathers every row from the products. Seeds
that are not finite, C <= 0 or delta < 0, and a fill whose Pi leave the
float range, are the NumericalErrors of Pi; each names the set by gamma
and Lambda0. A product that leaves the float range, though both its Pi
are finite, is a NumericalError naming its entry, gamma and w_variant.

The per-term references f_kernel and k_kernel live in perterm, which no
matrix loads; engine.f_kernel and engine.k_kernel resolve to them on first
use.

Two bounded lru_caches remain: the fill's geometry-free indexing _plan,
built on first use, and the matrix's _grid_plan, keyed on its grid's
ordering of ModeIndex values. table_info() reports the sets and the Pi
lookups. All functions are pure and fills store values computed from the
set's own seeds, so concurrent use is safe.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache
from itertools import chain, repeat
from operator import index, itemgetter

from .channel import (
    DEFAULT_W_VARIANT,
    DerivedConstants,
    OpticalConfig,
    ResolvedTurbulence,
    Seeds,
    TurbulenceSpec,
    _check_config,
    _checked_make,
    _lambda0,
    derive_cache_info,
    derive_constants,
)
from .errors import CalibrationError, DomainError, NumericalError
from .reference import CALIBRATION_REFERENCE

DEFAULT_MAX_ORDER = 10

# grid plans kept, one per ordering
_GRID_PLANS = 32


def _orders(*orders) -> tuple[int, ...]:
    """orders as ints by operator.index; DomainError for a non-integer."""
    try:
        return tuple(map(index, orders))
    except TypeError:
        raise DomainError(f"orders must be integers, got {orders}") from None


class ModeIndex(namedtuple("ModeIndex", "m n")):
    """Transverse mode orders (m, n) along the two Cartesian axes; modes
    order as the tuples (m, n)."""

    __slots__ = ()

    def __new__(cls, m: int, n: int):
        m, n = _orders(m, n)
        if min(m, n) < 0:
            raise DomainError(f"mode orders must be nonnegative, got ({m}, {n})")
        return super().__new__(cls, m, n)

    _make = _checked_make

    def label(self) -> str:
        if self.m <= 9 and self.n <= 9:
            return f"{self.m}{self.n}"
        return f"{self.m},{self.n}"


class ModePair(namedtuple("ModePair", "signal idler")):
    __slots__ = ()

    def label(self) -> str:
        return f"({self.signal.label()},{self.idler.label()})"


def parse_mode(token: str) -> ModeIndex:
    """Parse 'mn' two-digit tokens (or 'm,n' for orders above 9). A
    zero-padded part ('00,01') marks a comma-separated list of modes, a
    DomainError."""
    token = token.strip()
    if "," in token:
        if any(len(part) > 1 and part[0] == "0" for part in token.split(",")):
            raise DomainError(f"mode token {token!r} holds more than one mode: "
                              "separate modes with spaces, e.g. '00 01 10'")
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


PiInfo = namedtuple("PiInfo", "hits misses")
TableInfo = namedtuple("TableInfo", "sets pi")
_GridPlan = namedtuple("_GridPlan", "top xs ys rows")


class _Counts:
    """Pi lookups and misses, each miss one fill, since _clear_tables:
    statistics, which concurrent lookups may miscount."""

    __slots__ = ("lookups", "misses")

    def __init__(self):
        self.lookups = self.misses = 0


_counts = _Counts()


def _clear_tables() -> None:
    """Drop the derived sets, zero the Pi counts."""
    global _counts
    derive_cache_info(clear=True)
    _counts = _Counts()


def table_info() -> TableInfo:
    """Hits, misses, bound and size of the derived constant sets, and the
    Pi lookups that hit and that missed and filled, since the last
    _clear_tables. The lookups are pi_factor calls: a matrix, calibrated or
    raw, counts one, at its top order, however many Pi it reads from the
    rows; the calibration anchor makes none."""
    return TableInfo(derive_cache_info(), PiInfo(_counts.lookups - _counts.misses,
                                                 _counts.misses))


def pi_seeds(consts: DerivedConstants) -> Seeds:
    """The generating-function seeds C, alpha, beta and delta of consts,
    which it computed when it was built; NumericalError naming the seeds,
    gamma and Lambda0 if one is not finite, C <= 0 or delta < 0."""
    seeds = consts.seeds
    c, alpha, beta, delta = seeds
    if not (0.0 < c < math.inf and 0.0 <= delta < math.inf
            and cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise NumericalError(
            f"the Pi seeds C={c:.6g}, alpha={alpha:.6g}, beta={beta:.6g}, delta={delta:.6g} "
            f"are not finite, C <= 0 or delta < 0 at gamma={consts.gamma:.6g}, "
            f"Lambda0={_lambda0(consts.cfg):.6g}")
    return seeds


@lru_cache(maxsize=DEFAULT_MAX_ORDER + 1)
def _plan(top: int) -> tuple:
    """The fill's geometry-free indexing through top. Cell n (n + 1) / 2 + m
    holds (m, n), m <= n <= top, row by row in n, and the cell past the last
    is a constant 0. Returns the cells' m! n! / 2^(m+n) (exact), the v_0
    steps (cell, m or n, cell of (m - 2, n), cell of (m - 1, n - 1)) over
    even m + n > 0, and per k = 1..2 top the v_k steps (cell, cell of
    (m - 1, n), cell of (m, n - 1) or at m = n its mirror (n - 1, n)) over
    m + n >= k of k's parity."""
    keys = [(m, n) for n in range(top + 1) for m in range(n + 1)]
    zero = len(keys)

    def cell(m, n):
        return n * (n + 1) // 2 + m if 0 <= m <= n else zero

    scales = [math.factorial(m) * math.factorial(n) / 2 ** (m + n) for m, n in keys]
    first = [(cell(m, n), m or n, cell(m - 2, n) if m else cell(0, n - 2), cell(m - 1, n - 1))
             for m, n in keys[1:] if (m + n) % 2 == 0]
    later = [[(cell(m, n), cell(m - 1, n), cell(m, n - 1) if m < n else cell(n - 1, n))
              for m, n in keys if m + n >= k and (m + n - k) % 2 == 0]
             for k in range(1, 2 * top + 1)]
    return scales, first, later


def _fill(consts: DerivedConstants, top: int) -> None:
    """Publish rows 0..top of consts.pi, row n the tuple (Pi(0, n), ...,
    Pi(n, n)), in one update of a prebuilt dict.

    v_0 runs its recurrence over the even cells. Each u_k = k! v_k then
    takes two float additions a cell, u_k(m, n) = u_(k-1)(m - 1, n) +
    u_(k-1)(m, n - 1) on the real and on the imaginary parts, and adds
    delta^k / k! |u_k|^2 = delta^k k! |v_k|^2 to its cell, the weight
    delta^k / k! built as weight * delta / k, k ascending. So a row depends
    on neither top nor the fill order: concurrent fills write identical
    rows, and the rows present are always 0..r. In vacuum delta is 0 and
    v_0 is all. NumericalError, naming the set, if a Pi leaves the float
    range.
    """
    c, alpha, beta, delta = pi_seeds(consts)
    scales, first, later = _plan(top)
    v = [0j] * (len(scales) + 1)
    v[0] = 1.0 + 0.0j
    twice = 2 * alpha
    for cell, order, back, diag in first:
        v[cell] = (twice * v[back] + beta * v[diag]) / order
    acc = [x.real * x.real + x.imag * x.imag for x in v]
    if delta:
        # u_k = k! v_k in real and imaginary lists, two buffers each in
        # turn: step k reads only the cells step k - 1 wrote and the zero
        # cell, which no step writes
        re, im = [x.real for x in v], [x.imag for x in v]
        re_prev, im_prev = [0.0] * len(v), [0.0] * len(v)
        weight = 1.0
        for k, steps in enumerate(later, 1):
            weight = weight * delta / k
            re_prev, re = re, re_prev
            im_prev, im = im, im_prev
            for cell, left, down in steps:
                x = re[cell] = re_prev[left] + re_prev[down]
                y = im[cell] = im_prev[left] + im_prev[down]
                acc[cell] += weight * (x * x + y * y)
    values = [c * s * a for s, a in zip(scales, acc)]
    # the values are >= 0 or nan, so a sum that is not finite flags any
    # value that is not
    if not math.isfinite(sum(values)):
        raise NumericalError(
            f"the Pi of orders <= {top} leave the float range with the seeds C={c:.6g}, "
            f"alpha={alpha:.6g}, beta={beta:.6g}, delta={delta:.6g} at gamma={consts.gamma:.6g}, "
            f"Lambda0={_lambda0(consts.cfg):.6g}")
    consts.pi.update({n: tuple(values[n * (n + 1) // 2:(n + 1) * (n + 2) // 2])
                      for n in range(top + 1)})


def pi_factor(mu: int, nu: int, consts: DerivedConstants) -> float:
    """Per-axis probability factor Pi(mu, nu), a mean |overlap|^2: finite
    and >= 0.

    Symmetric in (mu, nu) exactly: the value is row max(mu, nu) of the
    set's table at min(mu, nu). A missing row fills the table through it;
    NumericalError if the set's seeds fail pi_seeds.
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
    low, high = (mu, nu) if mu <= nu else (nu, mu)
    _counts.lookups += 1
    row = consts.pi.get(high)
    if row is None:
        _counts.misses += 1
        try:
            _fill(consts, high)
        except NumericalError as exc:
            raise NumericalError(f"pi_factor({mu}, {nu}): {exc}") from None
        row = consts.pi[high]
    return row[low]


def joint_probability(pair: ModePair, consts: DerivedConstants) -> float:
    """P(signal, idler) = Pi(m_s, m_i) * Pi(n_s, n_i), unnormalized."""
    s, i = pair.signal, pair.idler
    return pi_factor(s.m, i.m, consts) * pi_factor(s.n, i.n, consts)


def selection_rule_allowed(pair: ModePair) -> bool:
    """Vacuum selection rules for the Gaussian (00) pump: per axis, the
    signal and idler orders sum to an even number."""
    s, i = pair.signal, pair.idler
    return (s.m + i.m) % 2 == 0 and (s.n + i.n) % 2 == 0


NORMALIZATION_RAW = "raw"
NORMALIZATION_CALIBRATED = "calibrated"


class Normalization(namedtuple("Normalization", "mode reference_pair reference_value "
                                                "calibration_factor raw_reference_value")):
    """How a matrix was scaled.

    calibrated mode rescales every entry by one global factor chosen so the
    vacuum entry of reference_pair, always (00,00), over the same geometry
    lands on reference_value (None in raw mode); raw_reference_value reports
    the unscaled magnitude so the absolute scale stays inspectable.
    """

    __slots__ = ()


class ProbabilityMatrix(namedtuple("ProbabilityMatrix",
                                   "ordering values consts normalization turbulence",
                                   defaults=(None,))):
    """Joint probabilities over an ordered mode grid.

    values[i][j] = P(signal=ordering[i], idler=ordering[j]), a tuple of row
    tuples. consts is the DerivedConstants set and normalization the
    Normalization it was scaled by; turbulence carries the resolved channel
    input (a ResolvedTurbulence) when the caller supplies it, else None.
    """

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.ordering)

    def value(self, signal: ModeIndex, idler: ModeIndex) -> float:
        """The entry P(signal, idler); DomainError naming the first of the
        two modes that is not in the ordering."""
        try:
            return self.values[self.ordering.index(signal)][self.ordering.index(idler)]
        except ValueError:
            missing = signal if signal not in self.ordering else idler
            raise DomainError(f"mode {missing!r} is not in the matrix's ordering") from None

    def max_value(self) -> float:
        return max(max(row) for row in self.values)


def _getter(indices):
    """itemgetter(*indices), whose result is a tuple for one index too."""
    if len(indices) == 1:
        i, = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


@lru_cache(maxsize=_GRID_PLANS)
def _grid_plan(ordering: tuple[ModeIndex, ...]) -> _GridPlan:
    """probability_matrix's geometry-free indexing for the grid ordering:
    the top order; xs and ys, which gather the two factors of every
    distinct product from the flat Pi triangle, Pi(m, n) at cell
    n (n + 1) / 2 + m for m <= n; and per row the gather of its entries
    from the products.

    Entry (i, j) is the product of the cells of (m_i, m_j) and (n_i, n_j),
    and the distinct products are the distinct unordered pairs of cells,
    numbered in the order the grid first reads them: the transposed entry
    and the entry of the swapped modes read the same pair."""
    orders = set(chain.from_iterable(ordering))
    cells = {a: {b: b * (b + 1) // 2 + a if a <= b else a * (a + 1) // 2 + b for b in orders}
             for a in orders}
    pairs, rows = {}, []
    for s in ordering:
        cell_m, cell_n = cells[s.m], cells[s.n]
        row = []
        for i in ordering:
            x, y = cell_m[i.m], cell_n[i.n]
            row.append(pairs.setdefault((x, y) if x <= y else (y, x), len(pairs)))
        rows.append(_getter(row))
    xs, ys = zip(*pairs)
    return _GridPlan(max(orders), _getter(xs), _getter(ys), tuple(rows))


def probability_matrix(
    modes,
    consts: DerivedConstants,
    normalization: str = NORMALIZATION_CALIBRATED,
    reference_value: float = CALIBRATION_REFERENCE,
    turbulence: ResolvedTurbulence | None = None,
) -> ProbabilityMatrix:
    """Fill the grid of joint probabilities for every ordered pair of modes,
    which must be ModeIndex values (else DomainError).

    With calibrated normalization all entries are rescaled by the single
    global factor that maps the vacuum (00,00) entry onto reference_value,
    so matrices for different turbulence strengths stay mutually comparable:
    DomainError unless reference_value is positive and finite,
    CalibrationError unless the anchor is and so is the factor, and
    NumericalError, naming the first entry, if an entry leaves the float
    range. turbulence, when given, must carry the gamma that consts was
    derived for.
    """
    ordering = tuple(modes)
    if not ordering:
        raise DomainError("mode list must be nonempty")
    # a plain (m, n) tuple equals the ModeIndex of its orders, so it is
    # turned away before it can hit that mode's cached grid plan
    if not all(map(isinstance, ordering, repeat(ModeIndex))):
        bad = next(s for s in ordering if not isinstance(s, ModeIndex))
        raise DomainError(f"modes must be ModeIndex values, got {bad!r}")
    if normalization not in (NORMALIZATION_RAW, NORMALIZATION_CALIBRATED):
        raise DomainError(f"unknown normalization {normalization!r}")
    if turbulence is None and consts.gamma == 0.0:
        turbulence = TurbulenceSpec().resolve(consts.cfg)
    if turbulence is not None and turbulence.gamma != consts.gamma:
        raise DomainError(
            f"turbulence metadata has gamma={turbulence.gamma!r} but the "
            f"constants were derived for gamma={consts.gamma!r}"
        )

    # one pi_factor call, at the grid's top order, fills the rows 0..top of
    # the set's table, flattened into the triangle the plan's cells index.
    # Entry (s, i) is Pi(s.m, i.m) Pi(s.n, i.n): each distinct unordered
    # pair of factors is multiplied once, and every row is gathered from
    # the products in one C call (see _grid_plan)
    top, xs, ys, rows = _grid_plan(ordering)
    pi_factor(top, top, consts)
    flat = tuple(chain.from_iterable(map(consts.pi.__getitem__, range(top + 1))))
    raw_ref = flat[0] * flat[0]

    # the calibration factor is reference_value over the set's anchor, the
    # unscaled vacuum (00,00) entry of its link
    calibrated = normalization == NORMALIZATION_CALIBRATED
    factor = 1.0
    if calibrated:
        if not 0.0 < reference_value < math.inf:
            raise DomainError(
                f"reference_value must be positive and finite, got {reference_value!r}")
        anchor = consts.anchor
        factor = reference_value / anchor if 0.0 < anchor < math.inf else math.nan
        if not math.isfinite(factor):
            raise CalibrationError(
                f"calibration reference {_ANCHOR_PAIR.label()} is {anchor}; cannot normalize")
    norm = Normalization(normalization, _ANCHOR_PAIR, reference_value if calibrated else None,
                         factor, raw_ref)

    products = [factor * (x * y) for x, y in zip(xs(flat), ys(flat))]
    values = [row(products) for row in rows]
    # no product exceeds factor * (largest Pi)^2: only past that bound, which
    # reads the Pi, not the many more products, is each product looked at.
    # A raw matrix's bound also covers raw_ref, its (00,00) entry, which a
    # grid need not hold; a calibrated raw_ref is at most the anchor
    largest = max(flat)
    if not factor * (largest * largest) < math.inf and (math.inf in products
                                                        or raw_ref == math.inf):
        pair = next((ModePair(s, i) for s, row in zip(ordering, values)
                     for i, v in zip(ordering, row) if v == math.inf), _ANCHOR_PAIR)
        raise NumericalError(
            f"P{pair.label()} of the {normalization} matrix leaves the "
            f"float range at gamma={consts.gamma:.6g}, Lambda0={_lambda0(consts.cfg):.6g}, "
            f"w_variant={consts.w_variant!r}")
    return ProbabilityMatrix(ordering, tuple(values), consts, norm, turbulence)


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
    _check_config(cfg)
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
    """Joint probabilities of each pair, a ModePair of ModeIndex values
    (else DomainError), over an ascending grid of Rytov variances, one
    series per pair in the order given.

    A point is the pairs' entries of the build_matrix matrix over their
    distinct modes, in the order they first appear, at that Rytov value. A
    NumericalError of the fill names the first pair that reads the top
    order and the Rytov value; a CalibrationError passes unchanged.
    """
    grid, pairs = list(grid), list(pairs)
    if not grid:
        raise DomainError("sweep grid is empty")
    if not pairs:
        raise DomainError("sweep pair list is empty")
    if grid != sorted(grid):
        raise DomainError("sweep grid must be ascending")
    for pair in pairs:
        if not (isinstance(pair, ModePair) and all(map(isinstance, pair, repeat(ModeIndex)))):
            raise DomainError(f"sweep pairs must be ModePairs of ModeIndex values, got {pair!r}")
    modes = tuple(dict.fromkeys(chain.from_iterable(pairs)))
    # point by point, each matrix dropped in turn, so a long grid holds no
    # more constant sets than derive_constants keeps
    points = []
    for rytov in grid:
        try:
            matrix = build_matrix(cfg, TurbulenceSpec.from_rytov(rytov), modes, normalization)
        except CalibrationError:
            raise
        except NumericalError as exc:
            first = max(pairs, key=lambda pair: max(chain(*pair)))
            raise NumericalError(f"P{first.label()} at rytov {rytov:g}: {exc}") from None
        points.append([matrix.value(pair.signal, pair.idler) for pair in pairs])
    return [list(series) for series in zip(*points)]


def __getattr__(name):
    # the benchmark's tracer still reads the per-term references here
    if name not in ("f_kernel", "k_kernel"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import perterm
    return getattr(perterm, name)
