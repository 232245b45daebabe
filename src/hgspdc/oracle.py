"""Brute-force vacuum oracle: direct numerical quadrature of the per-axis
detection overlap, independent of the closed-form kernels.

Per Cartesian axis the overlap amplitude is

    A(mu, nu) = iint dx1 dx2 h_mu*(x1) h_nu*(x2)
                int dr g(r) exp[i k/(2z) ((x1-r)^2 + (x2-r)^2)]

with g the 1-D Gaussian pump amplitude at the crystal (width = pump spot
W0/sqrt(2)) and h_j 1-D detection modes at the receiver plane. The vacuum
joint probability is |A(m_s, m_i)|^2 |A(n_s, n_i)|^2 up to a global constant,
so only ratios are meaningful and only ratios are compared.

Detection-mode convention (the closed form never states one): waist equal to
the propagated beam radius W = W0 sqrt(1 + Lambda0^2), carrying half the
propagated beam's wavefront curvature, i.e. a quadratic phase rate
phi = k / (4 R(z)) with R(z) = z (1 + 1/Lambda0^2). It is recorded in metadata.
How closely it reproduces the closed form's vacuum ratios depends on the
Fresnel ratio: the worst |oracle/closed - 1| over Pi(mu, nu)/Pi(0, 0),
mu + nu even, orders <= 4, 128 nodes (512 give the same digits), is

    Lambda0   0.0048    0.127    0.51     0.99     3.95
    worst     5.2e-10   2.4e-4   2.0e-2   5.2e-2   4.4e-1

The x-integral is exact. With kappa = k/(2z), P_n(r) = int dx h_n*(x)
exp[i kappa (x - r)^2] is exp(i kappa r^2) times a Hermite polynomial
integrated against exp(-alpha x^2 + beta x), alpha = 1/W^2 + i(phi - kappa),
beta = -2 i kappa r, whose moments (DLMF 7.4) are

    m_0 = sqrt(pi/alpha) exp[beta^2 / (4 alpha)],
    m_(j+1) = (beta m_j + j m_(j-1)) / (2 alpha),

and A(mu, nu) = int dr g(r) P_mu(r) P_nu(r). |P_n| decays too, so the pump
sets the r-window: +-sqrt(16 ln 10) ~ 6.07 pump waists, where g < 1e-16, at
any order. The integrand is smooth, so the trapezoid rule converges
geometrically: 64 nodes match 4096 within 3.5e-15 of |A(0, 0)| at every
Lambda0 above, orders <= 4. Time is O(max_order^2 * nodes) and memory
O(max_order^2), in pure Python.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .channel import OpticalConfig
from .engine import ModePair, _orders
from .errors import DomainError, QuadratureResolutionError

#: A(mu, nu) keyed (mu, nu) in both orders
OverlapTable = dict[tuple[int, int], complex]

MIN_NODES = 64
DEFAULT_NODES = 128
#: the r-window's half-width in pump waists: beyond it g(r) < 1e-16
WINDOW_PUMP_WAISTS = math.sqrt(16.0 * math.log(10.0))
#: node doubling must move results by less than this (relative)
CONVERGENCE_RTOL = 1e-4
MAX_ORACLE_ORDER = 4
#: the convergence check runs at twice this
MAX_NODES = 4096


def detection_waist(cfg: OpticalConfig) -> float:
    """Propagated beam radius at the receiver plane."""
    return cfg.w0 * math.sqrt(1.0 + cfg.fresnel_ratio ** 2)


def detection_phase_rate(cfg: OpticalConfig) -> float:
    """Quadratic phase rate of the detection modes: half the beam curvature."""
    lam0 = cfg.fresnel_ratio
    radius = cfg.distance * (1.0 + 1.0 / lam0 ** 2)
    return cfg.wavenumber / (4.0 * radius)


def check_node_count(nodes: int) -> None:
    if not MIN_NODES <= nodes <= MAX_NODES:
        raise DomainError(f"nodes must be from {MIN_NODES} to {MAX_NODES}, got {nodes}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Trapezoid resolution: window half-width and nodes in r. The
    window is set by the pump, the only factor of the r-integrand that
    decays (see the module docstring)."""

    half_width: float
    nodes: int = DEFAULT_NODES

    def __post_init__(self):
        check_node_count(self.nodes)
        if self.half_width <= 0:
            raise DomainError("half_width must be positive")

    @classmethod
    def for_config(cls, cfg: OpticalConfig, nodes: int = DEFAULT_NODES) -> "QuadratureSpec":
        return cls(WINDOW_PUMP_WAISTS * cfg.pump_waist, nodes)

    def check_window(self, cfg: OpticalConfig) -> None:
        need = WINDOW_PUMP_WAISTS * cfg.pump_waist
        if self.half_width < need:
            raise DomainError(f"half_width {self.half_width:.4g} m is below {need:.4g} m, "
                              f"{WINDOW_PUMP_WAISTS:.3g} pump waists, where the pump is 1e-16")


def _mode_polynomial(n: int, waist: float) -> list[tuple[int, float]]:
    """(j, c_j) with h_n*(x) = sum_j c_j x^j exp[-(x/W)^2 - i phi x^2]: the
    normalized H_n(sqrt(2) x / W) expanded in powers of x."""
    norm = (2.0 / math.pi) ** 0.25 / math.sqrt(waist * 2.0 ** n * math.factorial(n))
    scale = 2.0 * math.sqrt(2.0) / waist  # 2y per unit x, y = sqrt(2) x / W
    return [(n - 2 * k, norm * (-1) ** k * math.factorial(n)
             / (math.factorial(k) * math.factorial(n - 2 * k)) * scale ** (n - 2 * k))
            for k in range(n // 2 + 1)]


def _overlap_grid(cfg: OpticalConfig, spec: QuadratureSpec, max_order: int,
                  nodes: int) -> OverlapTable:
    """All A(mu, nu) for mu, nu <= max_order, keyed (mu, nu) in both orders,
    by the trapezoid rule in r on spec's window with the given node count
    (spec.nodes, or twice it for the convergence pass)."""
    waist = detection_waist(cfg)
    kappa = cfg.wavenumber / (2.0 * cfg.distance)
    alpha = complex(waist ** -2, detection_phase_rate(cfg) - kappa)
    root = cmath.sqrt(math.pi / alpha)
    # exp(i kappa r^2) exp(beta^2 / (4 alpha)) with beta = -2 i kappa r
    rate = 1j * kappa - kappa ** 2 / alpha
    polys = [_mode_polynomial(n, waist) for n in range(max_order + 1)]
    keys = [(mu, nu) for mu in range(max_order + 1) for nu in range(mu, max_order + 1)]
    sums = dict.fromkeys(keys, 0j)
    step = 2.0 * spec.half_width / (nodes - 1)
    for i in range(nodes):
        r = -spec.half_width + i * step
        half_beta = -1j * kappa * r / alpha
        # moments of exp(-alpha x^2 + beta x), each times exp(i kappa r^2);
        # at j = 0 the second term is 0 * moments[-1]
        moments = [root * cmath.exp(rate * r * r)]
        for j in range(max_order):
            moments.append(half_beta * moments[j] + j / (2.0 * alpha) * moments[j - 1])
        proj = [sum(c * moments[j] for j, c in poly) for poly in polys]
        weight = step * math.exp(-(r / cfg.pump_waist) ** 2)
        if i in (0, nodes - 1):
            weight *= 0.5
        for mu, nu in keys:
            sums[mu, nu] += weight * proj[mu] * proj[nu]
    return {**sums, **{(nu, mu): value for (mu, nu), value in sums.items()}}


def overlap_table(cfg: OpticalConfig, spec: QuadratureSpec | None = None,
                  max_order: int = MAX_ORACLE_ORDER,
                  check_convergence: bool = True) -> OverlapTable:
    """Converged per-axis overlap amplitudes A(mu, nu), mu, nu <= max_order.

    When check_convergence is set, the table is recomputed with doubled
    nodes and any entry moving by more than the tolerance (relative to the
    dominant amplitude) raises QuadratureResolutionError. DomainError if
    max_order is not an integer from 0 to MAX_ORACLE_ORDER.
    """
    max_order, = _orders(max_order)
    if not 0 <= max_order <= MAX_ORACLE_ORDER:
        raise DomainError(f"oracle supports orders 0 to {MAX_ORACLE_ORDER} (quadrature "
                          f"cost guard), got max_order={max_order}")
    if spec is None:
        spec = QuadratureSpec.for_config(cfg)
    spec.check_window(cfg)
    table = _overlap_grid(cfg, spec, max_order, spec.nodes)
    if check_convergence:
        fine = _overlap_grid(cfg, spec, max_order, 2 * spec.nodes)
        drift = max(abs(table[key] - fine[key]) for key in fine) / abs(fine[0, 0])
        if drift > CONVERGENCE_RTOL:
            raise QuadratureResolutionError(
                f"node doubling moved overlaps by {drift:.2e} relative "
                f"(> {CONVERGENCE_RTOL}); enlarge window or node count"
            )
    return table


def vacuum_overlap_1d(mu: int, nu: int, cfg: OpticalConfig,
                      spec: QuadratureSpec | None = None,
                      check_convergence: bool = True) -> complex:
    """Single per-axis overlap amplitude A(mu, nu); DomainError if an order
    is not a nonnegative integer."""
    mu, nu = _orders(mu, nu)
    if min(mu, nu) < 0:
        raise DomainError(f"orders must be nonnegative, got ({mu}, {nu})")
    return overlap_table(cfg, spec, max(mu, nu), check_convergence)[mu, nu]


def vacuum_probability_oracle(pair: ModePair, cfg: OpticalConfig,
                              spec: QuadratureSpec | None = None,
                              reference_value: float = 1.0,
                              table: OverlapTable | None = None) -> float:
    """Vacuum joint probability |A(m_s, m_i)|^2 |A(n_s, n_i)|^2, normalized so
    the (00,00) pair equals reference_value.

    Pass a precomputed overlap_table when evaluating many pairs.
    """
    s, i = pair.signal, pair.idler
    order = max(s.m, s.n, i.m, i.n)
    if table is None:
        table = overlap_table(cfg, spec, max_order=order)
    elif (order, order) not in table:
        covered = max(mu for mu, _ in table)
        raise DomainError(f"overlap table covers orders <= {covered}, but pair "
                          f"{pair.label()} needs order {order}")
    anchor = abs(table[0, 0]) ** 4
    value = abs(table[s.m, i.m]) ** 2 * abs(table[s.n, i.n]) ** 2
    return reference_value * value / anchor
