"""Channel parameter cascade: Rytov variance, strength law, derived constants."""

import math

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgspdc.channel import (
    DEFAULT_STRENGTH_COEFF,
    STRENGTH_COEFF_CALIBRATED,
    STRENGTH_COEFF_TEXTBOOK,
    W_VARIANT_PROPAGATED,
    W_VARIANT_WAIST,
    OpticalConfig,
    TurbulenceSpec,
    derive_constants,
    rytov_to_cn2,
    rytov_variance,
    turbulence_strength,
)
from hgspdc.errors import DomainError

LAM, Z = 0.8e-6, 5000.0


class TestOpticalConfig:
    def test_derived_quantities(self, ref_cfg):
        assert ref_cfg.wavenumber == pytest.approx(2 * math.pi / 0.8e-6, rel=1e-15)
        assert ref_cfg.w0 == pytest.approx(0.1, rel=1e-15)
        # Lambda0 = 2z/(k W0^2) = 1e4 / ((2 pi / 0.8e-6) * 0.01)
        expected = 1e4 / ((2 * math.pi / 0.8e-6) * 0.01)
        assert ref_cfg.fresnel_ratio == pytest.approx(expected, rel=1e-14)
        assert ref_cfg.fresnel_ratio == pytest.approx(0.12732, abs=5e-6)

    def test_positivity_enforced(self):
        for bad in ((0, Z, 0.1), (LAM, -1, 0.1), (LAM, Z, 0.0)):
            with pytest.raises(DomainError):
                OpticalConfig(*bad)

    def test_from_w0(self):
        cfg = OpticalConfig.from_w0(LAM, Z, 0.1)
        assert cfg.pump_waist == pytest.approx(0.1 / math.sqrt(2), rel=1e-15)
        assert cfg.w0 == pytest.approx(0.1, rel=1e-15)


class TestRytovVariance:
    def test_zero_cn2(self):
        assert rytov_variance(0.0, LAM, Z) == 0.0

    def test_round_trip_at_target(self):
        # choose cn2 so the output is exactly 0.02, by algebraic inversion
        cn2 = rytov_to_cn2(0.02, LAM, Z)
        assert rytov_variance(cn2, LAM, Z) == pytest.approx(0.02, rel=1e-12)

    def test_distance_scaling(self):
        # doubling z multiplies the variance by 2^(11/6)
        r1 = rytov_variance(1e-16, LAM, Z)
        r2 = rytov_variance(1e-16, LAM, 2 * Z)
        assert r2 / r1 == pytest.approx(2 ** (11 / 6), rel=1e-12)
        assert r2 / r1 == pytest.approx(3.5636, abs=1e-4)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            rytov_variance(-1e-17, LAM, Z)

    @given(st.floats(min_value=1e-20, max_value=1e-12),
           st.floats(min_value=1e-7, max_value=1e-5),
           st.floats(min_value=100.0, max_value=1e5))
    def test_round_trip_property(self, cn2, lam, z):
        assert rytov_to_cn2(rytov_variance(cn2, lam, z), lam, z) == pytest.approx(
            cn2, rel=1e-12
        )


class TestTurbulenceStrength:
    def test_zero(self):
        assert turbulence_strength(0.0) == 0.0

    def test_unit_base(self):
        assert turbulence_strength(1.0, STRENGTH_COEFF_TEXTBOOK) == 1.63
        assert turbulence_strength(1.0, STRENGTH_COEFF_CALIBRATED) == pytest.approx(
            math.sqrt(math.pi), rel=1e-15
        )

    def test_textbook_value_at_002(self):
        got = turbulence_strength(0.02, STRENGTH_COEFF_TEXTBOOK)
        assert got == pytest.approx(1.63 * 0.02 ** 1.2, rel=1e-15)
        assert got == pytest.approx(0.014908144692830841, rel=1e-12)

    def test_calibrated_value_at_002(self):
        got = turbulence_strength(0.02)
        assert got == pytest.approx(math.sqrt(math.pi) * 0.02 ** 1.2, rel=1e-15)
        assert got == pytest.approx(0.016211042006542734, rel=1e-12)

    def test_default_is_calibrated(self):
        assert DEFAULT_STRENGTH_COEFF == STRENGTH_COEFF_CALIBRATED

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            turbulence_strength(-0.1)


class TestTurbulenceSpec:
    def test_mutually_exclusive(self):
        with pytest.raises(DomainError):
            TurbulenceSpec(cn2=1e-16, rytov=0.02)

    def test_vacuum(self, ref_cfg):
        resolved = TurbulenceSpec.vacuum().resolve(ref_cfg)
        assert resolved.cn2 == resolved.rytov == resolved.gamma == 0.0

    def test_both_retained_after_resolve(self, ref_cfg):
        resolved = TurbulenceSpec.from_rytov(0.02).resolve(ref_cfg)
        assert resolved.rytov == 0.02
        assert resolved.cn2 == pytest.approx(rytov_to_cn2(0.02, LAM, Z), rel=1e-14)
        assert resolved.gamma == pytest.approx(turbulence_strength(0.02), rel=1e-14)
        via_cn2 = TurbulenceSpec.from_cn2(resolved.cn2).resolve(ref_cfg)
        assert via_cn2.rytov == pytest.approx(0.02, rel=1e-12)


class TestDeriveConstants:
    def test_fresnel_and_zeta(self, vac_consts):
        assert vac_consts.cfg.fresnel_ratio == pytest.approx(0.12732395447, rel=1e-10)
        lam0 = vac_consts.cfg.fresnel_ratio
        assert vac_consts.zeta == pytest.approx(
            (1 + lam0 ** 2) / (1 + lam0 ** 2 + 1j * lam0), rel=1e-15
        )

    def test_zeta_limit_collimated(self):
        # Lambda0 -> 0+ gives zeta -> 1
        cfg = OpticalConfig.from_w0(LAM, 1.0, 10.0)
        consts = derive_constants(cfg)
        assert consts.cfg.fresnel_ratio < 1e-8
        assert consts.zeta == pytest.approx(1.0, abs=1e-7)

    def test_vacuum_im_a2_closed_form(self, vac_consts):
        # gamma = 0 collapses Im A2 to -(k/z) Lambda0^2 / (1 + Lambda0^2)
        u = vac_consts.cfg.wavenumber / vac_consts.cfg.distance
        lam0 = vac_consts.cfg.fresnel_ratio
        assert vac_consts.a2.imag == pytest.approx(
            -u * lam0 ** 2 / (1 + lam0 ** 2), rel=1e-12
        )

    def test_vacuum_a3_vanishes(self, vac_consts, near_field_cfgs):
        # a3 is exactly 0 in vacuum at every geometry, so c1 == c2 bitwise
        for consts in (vac_consts, *map(derive_constants, near_field_cfgs.values())):
            assert consts.a3 == 0.0
            assert consts.c1 == consts.c2

    def test_a3_against_mpmath(self, near_field_cfgs):
        # -|b2|^2 / (2 b1) + b4 cancels in near field; the closed form does not
        cfg = near_field_cfgs[3.5e-4]
        gamma = 1e-6
        with mp.workdps(50):
            u = mp.mpf(cfg.wavenumber) / mp.mpf(cfg.distance)
            lam0 = mp.mpf(cfg.fresnel_ratio)
            b1 = u * (1 / (2 * lam0) + lam0 / 2 + gamma)
            b2 = u * mp.mpc(1 / lam0 - gamma, -1)
            b4 = u * (1 / lam0 + 2 * gamma)
            want = float(-abs(b2) ** 2 / (2 * b1) + b4)
        assert derive_constants(cfg, gamma).a3 == pytest.approx(want, rel=1e-15, abs=0)

    def test_c_invariants_over_gamma_range(self, ref_cfg):
        for gamma in (0.0, 1e-4, 0.005, 0.02, 0.05):
            c = derive_constants(ref_cfg, gamma)
            assert c.c1 > 0 and c.c2 > 0
            assert c.c4 <= 0
            assert c.c4 == pytest.approx(-c.c3 ** 2 / (4 * c.c1 * c.c2), rel=1e-14)

    def test_zeta_modulus_bound(self, ref_cfg):
        c = derive_constants(ref_cfg)
        assert abs(c.zeta) <= 1.0 and c.zeta.real > 0

    def test_vacuum_reduction_continuity(self, ref_cfg):
        exact = derive_constants(ref_cfg, 0.0)
        eps = derive_constants(ref_cfg, 1e-8)
        # a3 is exactly zero in vacuum, so continuity is measured against the
        # cascade's natural magnitude k/z rather than the component itself
        unit = exact.cfg.wavenumber / exact.cfg.distance
        for name in ("b1", "b2", "b3", "b4", "a2", "a3", "c1", "c2", "c3", "c4"):
            v0 = getattr(exact, name)
            v1 = getattr(eps, name)
            scale = max(abs(v0), abs(v1), unit)
            assert abs(v1 - v0) / scale < 1e-6

    def test_dimensional_scaling(self):
        # doubling k at fixed Lambda0 and gamma doubles every k/z-scaled
        # constant; dimensionless zeta and c4 stay fixed
        base = derive_constants(OpticalConfig.from_w0(LAM, Z, 0.1), 0.01)
        # halve wavelength (k doubles) and halve W0^2 to keep Lambda0
        scaled_cfg = OpticalConfig.from_w0(LAM / 2, Z, 0.1 / math.sqrt(2))
        scaled = derive_constants(scaled_cfg, 0.01)
        assert scaled.cfg.fresnel_ratio == pytest.approx(base.cfg.fresnel_ratio, rel=1e-14)
        assert scaled.zeta == pytest.approx(base.zeta, rel=1e-14)
        assert scaled.c4 == pytest.approx(base.c4, rel=1e-12)
        for name in ("a3", "b1", "b4", "c1", "c2", "c3"):
            assert getattr(scaled, name) == pytest.approx(
                2 * getattr(base, name), rel=1e-12
            )
        for name in ("a2", "b2", "b3"):
            assert getattr(scaled, name) == pytest.approx(
                2 * getattr(base, name), rel=1e-12
            )

    def test_w_variants(self, ref_cfg):
        prop = derive_constants(ref_cfg, 0.0, W_VARIANT_PROPAGATED)
        waist = derive_constants(ref_cfg, 0.0, W_VARIANT_WAIST)
        lam0 = prop.cfg.fresnel_ratio
        assert prop.w == pytest.approx(0.1 * math.sqrt(1 + lam0 ** 2), rel=1e-14)
        assert waist.w == pytest.approx(0.1, rel=1e-14)
        with pytest.raises(DomainError):
            derive_constants(ref_cfg, 0.0, "collimated")

    def test_negative_gamma_rejected(self, ref_cfg):
        with pytest.raises(DomainError):
            derive_constants(ref_cfg, -0.01)
