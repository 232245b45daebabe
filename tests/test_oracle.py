"""Quadrature oracle: parity zeros, golden ratios, convergence guards."""

import math
import tracemalloc

import numpy as np
import pytest

from hgspdc import oracle, reference
from hgspdc.channel import OpticalConfig, derive_constants
from hgspdc.engine import ModeIndex, ModePair, pi_factor
from hgspdc.errors import DomainError, QuadratureResolutionError
from hgspdc.oracle import (
    MAX_NODES,
    MAX_ORACLE_ORDER,
    QuadratureSpec,
    _overlap_grid,
    detection_phase_rate,
    detection_waist,
    overlap_table,
    vacuum_overlap_1d,
    vacuum_probability_oracle,
)

#: rounded Fresnel ratio -> geometry, from the near field to the far field
GEOMETRIES = {
    0.0048: OpticalConfig.from_w0(0.6e-6, 1e3, 0.2),
    0.127: reference.reference_config(),
    0.51: OpticalConfig.from_w0(0.8e-6, 2e4, 0.1),
    0.99: OpticalConfig.from_w0(1.55e-6, 2e4, 0.1),
    3.95: OpticalConfig.from_w0(1.55e-6, 2e4, 0.05),
}


@pytest.fixture(scope="module")
def table(ref_cfg):
    return overlap_table(ref_cfg, max_order=2, check_convergence=True)


class TestQuadratureSpec:
    def test_node_floor(self):
        with pytest.raises(DomainError):
            QuadratureSpec(half_width=1.0, nodes=32)

    def test_node_cap(self):
        assert QuadratureSpec(half_width=1.0, nodes=MAX_NODES).nodes == MAX_NODES
        with pytest.raises(DomainError):
            QuadratureSpec(half_width=1.0, nodes=MAX_NODES + 1)

    def test_convergence_pass_doubles_the_capped_count(self, ref_cfg, monkeypatch):
        counts = []

        def fake_grid(cfg, spec, max_order, nodes):
            counts.append(nodes)
            return {(mu, nu): 1 + 0j for mu in range(max_order + 1)
                    for nu in range(max_order + 1)}

        monkeypatch.setattr(oracle, "_overlap_grid", fake_grid)
        spec = QuadratureSpec.for_config(ref_cfg, nodes=MAX_NODES)
        overlap_table(ref_cfg, spec, max_order=2, check_convergence=True)
        assert counts == [MAX_NODES, 2 * MAX_NODES]

    def test_window_floor(self, ref_cfg):
        w = detection_waist(ref_cfg)
        tight = QuadratureSpec(half_width=2 * w, nodes=128)
        with pytest.raises(DomainError):
            tight.check_window(ref_cfg)

    def test_default_window_scales_with_order(self, ref_cfg):
        # the window is set by the pump alone, where g(r) < 1e-16, at any
        # order: sqrt(16 ln 10) ~ 6.07 pump waists, 0.429 m here
        spec = QuadratureSpec.for_config(ref_cfg)
        assert spec.half_width == pytest.approx(6.0697 * ref_cfg.pump_waist, rel=1e-4)
        assert spec.half_width == pytest.approx(0.4292, rel=1e-4)
        spec.check_window(ref_cfg)

    def test_order_cap(self, ref_cfg):
        with pytest.raises(DomainError):
            overlap_table(ref_cfg, max_order=5)


class TestOverlaps:
    def test_parity_zeros(self, table):
        # odd mu + nu integrands are odd under simultaneous sign flip
        anchor = abs(table[0, 0])
        assert abs(table[0, 1]) < 1e-10 * anchor
        assert abs(table[1, 2]) < 1e-10 * anchor

    def test_golden_ratio_02(self, table):
        got = abs(table[0, 2]) ** 2 / abs(table[0, 0]) ** 2
        assert got == pytest.approx(0.03986 / 0.31307, rel=2e-3)

    def test_golden_ratio_11(self, table):
        got = abs(table[1, 1]) ** 4 / abs(table[0, 0]) ** 4
        assert got == pytest.approx(0.01892 / 0.31307, rel=2e-3)

    def test_symmetric(self, table):
        assert table[0, 2] == table[2, 0]
        assert table[1, 2] == table[2, 1]

    def test_single_overlap_matches_table(self, ref_cfg, table):
        one = vacuum_overlap_1d(0, 2, ref_cfg, check_convergence=False)
        assert one == pytest.approx(table[0, 2], rel=1e-12)

    def test_unresolved_quadrature_raises(self):
        # a window of +-45 W0 in the far field, where the pump reaches ~4 W0:
        # 64 nodes in r cannot resolve it
        cfg = GEOMETRIES[3.95]
        spec = QuadratureSpec(45 * cfg.w0, nodes=64)
        with pytest.raises(QuadratureResolutionError):
            overlap_table(cfg, spec, max_order=2, check_convergence=True)

    @pytest.mark.parametrize("nodes", [64, 128])
    def test_far_field_converges_with_few_nodes(self, nodes):
        # the pump's window at Lambda0 = 3.95: 64 and 128 nodes agree with
        # 4096 to roundoff, and node doubling passes the check
        cfg = GEOMETRIES[3.95]
        got = overlap_table(cfg, QuadratureSpec.for_config(cfg, nodes=nodes))
        want = overlap_table(cfg, QuadratureSpec.for_config(cfg, nodes=MAX_NODES),
                             check_convergence=False)
        assert max(abs(got[key] - want[key]) for key in want) <= 1e-14 * abs(want[0, 0])


class TestVacuumProbabilityOracle:
    def test_anchor_pair(self, ref_cfg, table):
        pair = ModePair(ModeIndex(0, 0), ModeIndex(0, 0))
        got = vacuum_probability_oracle(pair, ref_cfg, reference_value=0.31307,
                                        table=table)
        assert got == pytest.approx(0.31307, rel=1e-14)

    def test_forbidden_pair_noise(self, ref_cfg, table):
        pair = ModePair(ModeIndex(0, 0), ModeIndex(0, 1))
        got = vacuum_probability_oracle(pair, ref_cfg, table=table)
        assert got < 1e-6

    def test_table_below_pair_order(self, ref_cfg, table):
        pair = ModePair(ModeIndex(3, 0), ModeIndex(1, 0))
        with pytest.raises(DomainError, match=r"orders <= 2, .* needs order 3"):
            vacuum_probability_oracle(pair, ref_cfg, table=table)

    def test_engine_agreement_orders_two(self, ref_cfg, vac_consts, table):
        anchor = pi_factor(0, 0, vac_consts) ** 2
        for ms in range(3):
            for ns in range(3):
                for mi in range(3):
                    for ni in range(3):
                        pair = ModePair(ModeIndex(ms, ns), ModeIndex(mi, ni))
                        eng = (pi_factor(ms, mi, vac_consts)
                               * pi_factor(ns, ni, vac_consts)) / anchor
                        orc = vacuum_probability_oracle(pair, ref_cfg, table=table)
                        if eng > 1e-8:
                            assert orc == pytest.approx(eng, rel=1e-2)
                        else:
                            assert orc < 1e-6

    def test_convergence_under_node_doubling(self, ref_cfg):
        spec = QuadratureSpec.for_config(ref_cfg, nodes=512)
        coarse = overlap_table(ref_cfg, spec, max_order=2, check_convergence=False)
        fine = overlap_table(
            ref_cfg, QuadratureSpec(spec.half_width, 1024),
            max_order=2, check_convergence=False,
        )
        scale = abs(fine[0, 0])
        drift = max(abs(coarse[mu, nu] - fine[mu, nu]) / scale
                    for mu in range(3) for nu in range(3))
        assert drift < 1e-4


def detection_mode(n, x, waist, phase_rate):
    """The normalized 1-D detection mode h_n on the array x."""
    norm = (2.0 / math.pi) ** 0.25 / math.sqrt(waist * 2.0 ** n * math.factorial(n))
    hermite = np.polynomial.hermite.hermval(math.sqrt(2.0) * x / waist, [0] * n + [1])
    return norm * hermite * np.exp(-(x / waist) ** 2 + 1j * phase_rate * x ** 2)


def dense_reference(cfg, nodes, order):
    """A(mu, nu) as the dense contraction M E diag(w g) E^T M^T on one
    Gauss-Legendre grid in x1, x2 and r, with nodes x nodes matrices, over
    +-5 W sqrt(order + 1) with W the detection waist: wide enough for the
    detection modes in x, and for the pump in r."""
    half_width = 5 * detection_waist(cfg) * math.sqrt(order + 1)
    unit_x, unit_w = np.polynomial.legendre.leggauss(nodes)
    x = half_width * unit_x
    wx = half_width * unit_w
    kappa = cfg.wavenumber / (2.0 * cfg.distance)
    kernel = np.exp(1j * kappa * (x[:, None] - x[None, :]) ** 2)
    pump_w = wx * np.exp(-(x / cfg.pump_waist) ** 2)
    contracted = (kernel * pump_w) @ kernel.T
    modes = np.array([
        np.conj(detection_mode(n, x, detection_waist(cfg), detection_phase_rate(cfg))) * wx
        for n in range(order + 1)])
    return modes @ contracted @ modes.T


class TestOverlapGrid:
    def test_matches_dense_contraction(self):
        # the near-field geometry is left out: no Gauss-Legendre grid of at
        # most 4096 nodes resolves its Fresnel kernel in x
        order = MAX_ORACLE_ORDER
        keys = [(mu, nu) for mu in range(order + 1) for nu in range(order + 1)]
        for lam0 in (0.127, 0.51, 0.99, 3.95):
            cfg = GEOMETRIES[lam0]
            spec = QuadratureSpec.for_config(cfg, nodes=1024)
            dense = dense_reference(cfg, spec.nodes, order)
            got = _overlap_grid(cfg, spec, order, spec.nodes)
            assert sorted(got) == keys
            dev = max(abs(got[key] - dense[key]) for key in keys) / abs(dense[0, 0])
            assert dev <= 1e-12, lam0
            assert all(got[mu, nu] == got[nu, mu] for mu, nu in keys)

    def test_memory_stays_below_one_dense_kernel(self, ref_cfg):
        overlap_table(ref_cfg, max_order=1, check_convergence=False)  # warm imports
        dense_bytes = 1024 ** 2 * 16  # one complex matrix at the doubled count
        tracemalloc.start()
        try:
            overlap_table(ref_cfg, max_order=MAX_ORACLE_ORDER, check_convergence=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes


_DRIFT = "the closed form's vacuum ratios drift from the oracle's as Lambda0 grows"


@pytest.mark.parametrize("lam0, bound", [
    (0.0048, 1e-9),  # measured 5.2e-10
    (0.127, 1e-3),  # measured 2.4e-4
    # criterion 4's tolerance; measured 2.0e-2, 5.2e-2 and 4.4e-1
    pytest.param(0.51, 1e-2, marks=pytest.mark.xfail(strict=True, reason=_DRIFT)),
    pytest.param(0.99, 1e-2, marks=pytest.mark.xfail(strict=True, reason=_DRIFT)),
    pytest.param(3.95, 1e-2, marks=pytest.mark.xfail(strict=True, reason=_DRIFT)),
])
def test_vacuum_ratio_drift(lam0, bound):
    # worst |oracle/closed - 1| over Pi(mu, nu)/Pi(0, 0), mu + nu even
    cfg = GEOMETRIES[lam0]
    assert cfg.fresnel_ratio == pytest.approx(lam0, rel=1e-2)
    table = overlap_table(cfg, QuadratureSpec.for_config(cfg, nodes=512))
    consts = derive_constants(cfg)
    worst = max(
        abs(abs(table[mu, nu] / table[0, 0]) ** 2
            / (pi_factor(mu, nu, consts) / pi_factor(0, 0, consts)) - 1.0)
        for mu in range(MAX_ORACLE_ORDER + 1) for nu in range(MAX_ORACLE_ORDER + 1)
        if (mu + nu) % 2 == 0)
    assert worst <= bound
