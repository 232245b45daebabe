"""Quadrature oracle: parity zeros, golden ratios, convergence guards."""

import math
import tracemalloc

import numpy as np
import pytest

from hgspdc import oracle
from hgspdc.engine import ModeIndex, ModePair, pi_factor
from hgspdc.errors import DomainError, QuadratureResolutionError
from hgspdc.oracle import (
    MAX_NODES,
    MAX_ORACLE_ORDER,
    QuadratureSpec,
    _detection_mode,
    _gauss_legendre,
    _overlap_grid,
    detection_phase_rate,
    detection_waist,
    mode_radius,
    overlap_table,
    vacuum_overlap_1d,
    vacuum_probability_oracle,
)


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
            return np.ones((max_order + 1, max_order + 1), dtype=complex)

        monkeypatch.setattr(oracle, "_overlap_grid", fake_grid)
        spec = QuadratureSpec.for_config(ref_cfg, nodes=MAX_NODES, max_order=2)
        overlap_table(ref_cfg, spec, max_order=2, check_convergence=True)
        assert counts == [MAX_NODES, 2 * MAX_NODES]

    def test_window_floor(self, ref_cfg):
        w = detection_waist(ref_cfg)
        tight = QuadratureSpec(half_width=2 * w, nodes=128)
        with pytest.raises(DomainError):
            tight.check_window(ref_cfg, max_order=2)

    def test_default_window_scales_with_order(self, ref_cfg):
        spec = QuadratureSpec.for_config(ref_cfg, max_order=4)
        w = detection_waist(ref_cfg)
        assert spec.half_width == pytest.approx(5 * mode_radius(4, w), rel=1e-14)

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

    def test_unresolved_quadrature_raises(self, ref_cfg):
        # 64 nodes cannot resolve the Fresnel oscillation over this window
        spec = QuadratureSpec.for_config(ref_cfg, nodes=64, max_order=2)
        with pytest.raises(QuadratureResolutionError):
            overlap_table(ref_cfg, spec, max_order=2, check_convergence=True)


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
        spec = QuadratureSpec.for_config(ref_cfg, nodes=512, max_order=2)
        coarse = overlap_table(ref_cfg, spec, max_order=2, check_convergence=False)
        fine = overlap_table(
            ref_cfg, QuadratureSpec(spec.half_width, 1024),
            max_order=2, check_convergence=False,
        )
        scale = abs(fine[0, 0])
        drift = max(abs(coarse[mu, nu] - fine[mu, nu]) / scale
                    for mu in range(3) for nu in range(3))
        assert drift < 1e-4


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [64, 512, 1024])
    def test_nodes_match_numpy(self, n):
        x, _ = _gauss_legendre(n)
        ref_x, _ = np.polynomial.legendre.leggauss(n)
        assert np.all(np.abs(x - ref_x) <= 4 * np.spacing(np.abs(ref_x)))

    @pytest.mark.parametrize("n", [64, 512, 1024])
    def test_weights_integrate_even_monomials(self, n):
        x, w = _gauss_legendre(n)
        assert w.sum() == pytest.approx(2.0, abs=1e-14)
        # an n-node rule is exact for degree <= 2n - 1
        for j in (1, 2, 5, 20, n // 4, n // 2, n - 1):
            assert w @ x ** (2 * j) == pytest.approx(2.0 / (2 * j + 1), rel=1e-13)

    def test_odd_count_is_symmetric_with_zero_node(self):
        x, w = _gauss_legendre(65)
        assert x[32] == 0.0
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


class TestOverlapGrid:
    def test_matches_dense_contraction(self, ref_cfg):
        # the E diag(w g) E^T contraction, with its nodes x nodes matrices
        order = 2
        spec = QuadratureSpec.for_config(ref_cfg, nodes=512, max_order=order)
        nodes, weights = _gauss_legendre(spec.nodes)
        x = spec.half_width * nodes
        wx = spec.half_width * weights
        kappa = ref_cfg.wavenumber / (2.0 * ref_cfg.distance)
        kernel = np.exp(1j * kappa * (x[:, None] - x[None, :]) ** 2)
        pump_w = wx * np.exp(-(x / ref_cfg.pump_waist) ** 2)
        contracted = (kernel * pump_w) @ kernel.T
        modes = np.array([
            np.conj(_detection_mode(n, x, detection_waist(ref_cfg),
                                    detection_phase_rate(ref_cfg))) * wx
            for n in range(order + 1)])
        dense = modes @ contracted @ modes.T

        got = _overlap_grid(ref_cfg, spec, order, spec.nodes)
        assert np.abs(got - dense).max() <= 1e-12 * abs(dense[0, 0])
        assert np.array_equal(got, got.T)

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
