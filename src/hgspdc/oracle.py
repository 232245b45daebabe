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
k / (4 R(z)) with R(z) = z (1 + 1/Lambda0^2). This convention reproduces the
closed form's vacuum ratios through high order and is recorded in metadata.

The triple integral is tensor-product Gauss-Legendre over a truncated
window, with the r nodes equal to the x nodes. The kernel
E[i, j] = exp[i k/(2z) (x_i - r_j)^2] is contracted with the mode vectors
first: proj = M E, where row mu of M holds the weighted conjugate mode
h_mu*(x_i) w_i, and then A = proj diag(w g) proj^T. E is built and consumed
a fixed block of rows at a time, so no nodes x nodes array is ever held:
memory is O((max_order + block) * nodes) and time O(max_order * nodes^2),
against O(nodes^3) for forming E diag(w g) E^T first. The nodes and weights
come from Newton's method on the three-term Legendre recurrence, also
O(nodes^2), rather than an O(nodes^3) eigenvalue solve.

numpy is a declared dependency of the package, but only this oracle uses it,
and it is imported inside the functions that build arrays: importing hgspdc
(or running the matrix, sweep and rank commands) never loads numpy; the first
call to overlap_table, vacuum_overlap_1d or vacuum_probability_oracle does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .channel import OpticalConfig
from .engine import ModePair
from .errors import DomainError, QuadratureResolutionError

if TYPE_CHECKING:
    import numpy as np

MIN_NODES = 64
DEFAULT_NODES = 512
#: window must cover at least this many times the widest mode's radius
WINDOW_RADII = 5.0
#: node doubling must move results by less than this (relative)
CONVERGENCE_RTOL = 1e-4
MAX_ORACLE_ORDER = 4
#: the convergence check runs at twice this; time grows as nodes^2
MAX_NODES = 4096
#: kernel rows built at a time: 64 x 2 * MAX_NODES complex values is 8 MB
_KERNEL_BLOCK = 64


def detection_waist(cfg: OpticalConfig) -> float:
    """Propagated beam radius at the receiver plane."""
    return cfg.w0 * math.sqrt(1.0 + cfg.fresnel_ratio ** 2)


def detection_phase_rate(cfg: OpticalConfig) -> float:
    """Quadratic phase rate of the detection modes: half the beam curvature."""
    lam0 = cfg.fresnel_ratio
    radius = cfg.distance * (1.0 + 1.0 / lam0 ** 2)
    return cfg.wavenumber / (4.0 * radius)


def mode_radius(order: int, waist: float) -> float:
    """Transverse extent of a 1-D mode of the given order."""
    return waist * math.sqrt(order + 1.0)


def check_node_count(nodes: int) -> None:
    if not MIN_NODES <= nodes <= MAX_NODES:
        raise DomainError(f"nodes must be from {MIN_NODES} to {MAX_NODES}, got {nodes}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre resolution: window half-width and nodes per axis. The
    transverse scale is the detection waist of the configuration."""

    half_width: float
    nodes: int = DEFAULT_NODES

    def __post_init__(self):
        check_node_count(self.nodes)
        if self.half_width <= 0:
            raise DomainError("half_width must be positive")

    @classmethod
    def for_config(cls, cfg: OpticalConfig, nodes: int = DEFAULT_NODES,
                   max_order: int = MAX_ORACLE_ORDER) -> "QuadratureSpec":
        return cls(WINDOW_RADII * mode_radius(max_order, detection_waist(cfg)), nodes)

    def check_window(self, cfg: OpticalConfig, max_order: int) -> None:
        need = WINDOW_RADII * mode_radius(max_order, detection_waist(cfg))
        if self.half_width < need:
            raise DomainError(
                f"half_width {self.half_width:.4g} m is below {WINDOW_RADII}x the "
                f"widest mode radius ({need:.4g} m)"
            )


def _hermite(n: int, y: np.ndarray) -> np.ndarray:
    import numpy as np

    h0 = np.ones_like(y)
    if n == 0:
        return h0
    h1 = 2.0 * y
    for m in range(1, n):
        h0, h1 = h1, 2.0 * y * h1 - 2.0 * m * h0
    return h1


def _detection_mode(n: int, x: np.ndarray, waist: float, phase_rate: float) -> np.ndarray:
    import numpy as np

    norm = (2.0 / math.pi) ** 0.25 / math.sqrt(waist * 2.0 ** n * math.factorial(n))
    return (norm * _hermite(n, math.sqrt(2.0) * x / waist)
            * np.exp(-(x / waist) ** 2 + 1j * phase_rate * x ** 2))


def _legendre_with_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    import numpy as np

    prev, cur = np.ones_like(x), x.copy()
    for j in range(2, n + 1):
        xp = x * cur
        prev, cur = cur, xp + (j - 1) / j * (xp - prev)
    return cur, n * (prev - x * cur) / ((1.0 - x) * (1.0 + x))


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method from Tricomi's initial guesses, on the non-negative half
    of the nodes only, mirrored so the rule is exactly symmetric.
    """
    import numpy as np

    k = np.arange((n + 1) // 2, 0, -1)
    x = ((1.0 - 1.0 / (8 * n ** 2) + 1.0 / (8 * n ** 3))
         * np.cos(np.pi * (4 * k - 1) / (4 * n + 2)))
    for _ in range(100):
        p, dp = _legendre_with_derivative(n, x)
        step = p / dp
        x -= step
        if np.abs(step).max() <= 4 * np.finfo(float).eps:
            break
    _, dp = _legendre_with_derivative(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp ** 2)
    if n % 2:  # the middle node of an odd rule is exactly 0
        x[0] = 0.0
    lower = slice(n % 2, None)
    return (np.concatenate((-x[lower][::-1], x)),
            np.concatenate((w[lower][::-1], w)))


def _overlap_grid(cfg: OpticalConfig, spec: QuadratureSpec, max_order: int,
                  nodes: int) -> np.ndarray:
    """All A(mu, nu) for mu, nu <= max_order on spec's window with the given
    node count (spec.nodes, or twice it for the convergence pass)."""
    import numpy as np

    waist = detection_waist(cfg)
    phase_rate = detection_phase_rate(cfg)
    kappa = cfg.wavenumber / (2.0 * cfg.distance)
    pump = cfg.pump_waist

    unit_x, unit_w = _gauss_legendre(nodes)
    x = spec.half_width * unit_x
    wx = spec.half_width * unit_w
    pump_w = wx * np.exp(-(x / pump) ** 2)

    modes = np.array([np.conj(_detection_mode(n, x, waist, phase_rate)) * wx
                      for n in range(max_order + 1)])
    proj = np.zeros(modes.shape, dtype=complex)
    for start in range(0, nodes, _KERNEL_BLOCK):
        rows = slice(start, start + _KERNEL_BLOCK)
        kernel = np.exp(1j * kappa * (x[rows, None] - x[None, :]) ** 2)
        proj += modes[:, rows] @ kernel

    weighted = proj * pump_w
    out = np.empty((max_order + 1, max_order + 1), dtype=complex)
    for mu in range(max_order + 1):
        for nu in range(mu, max_order + 1):
            out[mu, nu] = out[nu, mu] = weighted[mu] @ proj[nu]
    return out


def overlap_table(cfg: OpticalConfig, spec: QuadratureSpec | None = None,
                  max_order: int = MAX_ORACLE_ORDER,
                  check_convergence: bool = True) -> np.ndarray:
    """Converged per-axis overlap amplitudes A(mu, nu), mu, nu <= max_order.

    When check_convergence is set, the table is recomputed with doubled
    nodes and any entry moving by more than the tolerance (relative to the
    dominant amplitude) raises QuadratureResolutionError.
    """
    if max_order > MAX_ORACLE_ORDER:
        raise DomainError(
            f"oracle supports orders <= {MAX_ORACLE_ORDER} (quadrature cost guard)"
        )
    if spec is None:
        spec = QuadratureSpec.for_config(cfg, max_order=max_order)
    spec.check_window(cfg, max_order)
    table = _overlap_grid(cfg, spec, max_order, spec.nodes)
    if check_convergence:
        fine = _overlap_grid(cfg, spec, max_order, 2 * spec.nodes)
        scale = abs(fine[0, 0])
        drift = abs(table - fine) / scale
        if drift.max() > CONVERGENCE_RTOL:
            raise QuadratureResolutionError(
                f"node doubling moved overlaps by {drift.max():.2e} relative "
                f"(> {CONVERGENCE_RTOL}); enlarge window or node count"
            )
    return table


def vacuum_overlap_1d(mu: int, nu: int, cfg: OpticalConfig,
                      spec: QuadratureSpec | None = None,
                      check_convergence: bool = True) -> complex:
    """Single per-axis overlap amplitude A(mu, nu)."""
    order = max(mu, nu)
    return overlap_table(cfg, spec, order, check_convergence)[mu, nu]


def vacuum_probability_oracle(pair: ModePair, cfg: OpticalConfig,
                              spec: QuadratureSpec | None = None,
                              reference_value: float = 1.0,
                              table: np.ndarray | None = None) -> float:
    """Vacuum joint probability |A(m_s, m_i)|^2 |A(n_s, n_i)|^2, normalized so
    the (00,00) pair equals reference_value.

    Pass a precomputed overlap_table when evaluating many pairs.
    """
    s, i = pair.signal, pair.idler
    order = max(s.m, s.n, i.m, i.n)
    if table is None:
        table = overlap_table(cfg, spec, max_order=order)
    anchor = abs(table[0, 0]) ** 4
    value = abs(table[s.m, i.m]) ** 2 * abs(table[s.n, i.n]) ** 2
    return reference_value * value / anchor
