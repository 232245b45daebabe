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
window: the r contraction is the matrix product E diag(w g) E^T with
E[i, j] = exp[i k/(2z) (x_i - r_j)^2], after which every A(mu, nu) is a
small quadratic form in the same kernel matrix.

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre resolution: window half-width, nodes per axis, and the
    detection-plane mode waist setting the transverse scale."""

    half_width: float
    nodes: int = DEFAULT_NODES
    waist: float | None = None  # None: propagated beam radius

    def __post_init__(self):
        if self.nodes < MIN_NODES:
            raise DomainError(f"nodes must be >= {MIN_NODES}, got {self.nodes}")
        if self.half_width <= 0:
            raise DomainError("half_width must be positive")

    @classmethod
    def for_config(cls, cfg: OpticalConfig, nodes: int = DEFAULT_NODES,
                   max_order: int = MAX_ORACLE_ORDER) -> "QuadratureSpec":
        w = detection_waist(cfg)
        return cls(half_width=WINDOW_RADII * mode_radius(max_order, w),
                   nodes=nodes, waist=w)

    def resolved_waist(self, cfg: OpticalConfig) -> float:
        return self.waist if self.waist is not None else detection_waist(cfg)

    def check_window(self, cfg: OpticalConfig, max_order: int) -> None:
        need = WINDOW_RADII * mode_radius(max_order, self.resolved_waist(cfg))
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


def _overlap_grid(cfg: OpticalConfig, spec: QuadratureSpec, max_order: int) -> np.ndarray:
    """All A(mu, nu) for mu, nu <= max_order at the given resolution."""
    import numpy as np

    waist = spec.resolved_waist(cfg)
    phase_rate = detection_phase_rate(cfg)
    kappa = cfg.wavenumber / (2.0 * cfg.distance)
    pump = cfg.pump_waist

    nodes, weights = np.polynomial.legendre.leggauss(spec.nodes)
    x = spec.half_width * nodes
    wx = spec.half_width * weights

    kernel = np.exp(1j * kappa * (x[:, None] - x[None, :]) ** 2)
    pump_w = wx * np.exp(-(x / pump) ** 2)
    contracted = (kernel * pump_w[None, :]) @ kernel.T

    modes = [np.conj(_detection_mode(n, x, waist, phase_rate)) * wx
             for n in range(max_order + 1)]
    out = np.empty((max_order + 1, max_order + 1), dtype=complex)
    for mu in range(max_order + 1):
        left = modes[mu] @ contracted
        for nu in range(mu, max_order + 1):
            out[mu, nu] = out[nu, mu] = left @ modes[nu]
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
    table = _overlap_grid(cfg, spec, max_order)
    if check_convergence:
        fine = _overlap_grid(
            cfg, QuadratureSpec(spec.half_width, 2 * spec.nodes, spec.waist),
            max_order,
        )
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
