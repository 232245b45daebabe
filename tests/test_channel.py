"""Channel parameter cascade: Rytov variance, strength law, derived constants."""

import math
import random
import re

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


def cascade_mp(cfg, gamma):
    """b1 and c1..c3 through the paper's cascade B1..B4, A2, a3 at 50 digits,
    where its cancellations cost nothing."""
    with mp.workdps(50):
        u = mp.mpf(cfg.wavenumber) / mp.mpf(cfg.distance)
        lam0 = mp.mpf(cfg.fresnel_ratio)
        b1 = u * (1 / (2 * lam0) + lam0 / 2 + gamma)
        b2 = u * mp.mpc(1 / lam0 - gamma, -1)
        b3 = u * mp.mpc(1 / (2 * lam0) + gamma, -1)
        b4 = u * (1 / lam0 + 2 * gamma)
        a2 = -b2 ** 2 / (4 * b1) + b3 + u * lam0 / (1 + lam0 ** 2)
        a3 = -abs(b2) ** 2 / (2 * b1) + b4
        return {"b1": float(b1), "c1": float(a2.real - a3 / 2),
                "c2": float(a2.real + a3 / 2), "c3": float(a2.imag)}


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
            with pytest.raises(DomainError) as err:
                OpticalConfig(*bad)
            assert str(err.value) == ("wavelength, distance and pump_waist must all be "
                                      f"positive and finite, got {bad}")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        for args in ((bad, Z, 0.1), (LAM, bad, 0.1), (LAM, Z, bad)):
            with pytest.raises(DomainError):
                OpticalConfig(*args)

    @pytest.mark.parametrize("link", [(1e-6, 1.0, 1e200), (1e-300, 1e-300, 1e-200)],
                             ids=["W0^2 overflows", "k W0^2 is 0"])
    def test_fresnel_ratio_out_of_range_names_the_link(self, link):
        cfg = OpticalConfig(*link)
        with pytest.raises(DomainError, match=re.escape(
                f"fresnel_ratio({', '.join(map(format, link))}) leaves the float range")):
            cfg.fresnel_ratio

    def test_fresnel_ratio_keeps_its_bits(self):
        # over links log-uniform in 1e-300..1e300, Lambda0 is the bare
        # expression where that is finite, and a DomainError where it
        # raises or is not
        rng = random.Random(32)
        finite = 0
        for _ in range(1000):
            cfg = OpticalConfig(*(10 ** rng.uniform(-300, 300) for _ in range(3)))
            try:
                bare = 2.0 * cfg.distance / (cfg.wavenumber * cfg.w0 ** 2)
            except (OverflowError, ZeroDivisionError):
                bare = math.inf
            if math.isfinite(bare):
                finite += 1
                assert cfg.fresnel_ratio.hex() == bare.hex()
            else:
                with pytest.raises(DomainError, match="leaves the float range"):
                    cfg.fresnel_ratio
        assert 0 < finite < 1000

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

    def test_weak_fluctuation_bound(self, ref_cfg):
        # the closed form holds for rytov <= 1, the bound included; every
        # Rytov or Cn^2 input goes through the strength law
        assert turbulence_strength(1.0) == DEFAULT_STRENGTH_COEFF
        for fail in (lambda: turbulence_strength(1.0000001),
                     lambda: TurbulenceSpec.from_rytov(2.0).resolve(ref_cfg),
                     lambda: TurbulenceSpec.from_cn2(1e-10).resolve(ref_cfg)):
            with pytest.raises(DomainError, match="weak-fluctuation range, rytov <= 1"):
                fail()


class TestStrengthLawErrors:
    """The public strength-law functions fail with DomainError, never with a
    bare arithmetic error or a nan, complex or infinite value."""

    @pytest.mark.parametrize("wavelength,distance", [(-8e-7, Z), (LAM, 0.0)])
    def test_rytov_to_cn2_checks_path(self, wavelength, distance):
        # a negative wavelength gave a complex cn2, a zero distance a bare
        # ZeroDivisionError
        with pytest.raises(DomainError):
            rytov_to_cn2(0.01, wavelength, distance)

    @pytest.mark.parametrize("law,args", [
        (rytov_variance, (math.nan, LAM, Z)), (rytov_variance, (1e-16, math.nan, Z)),
        (rytov_variance, (1e-16, LAM, math.inf)), (rytov_to_cn2, (math.nan, LAM, Z)),
        (rytov_to_cn2, (0.01, LAM, math.nan)), (turbulence_strength, (math.nan,)),
        (turbulence_strength, (math.inf,)), (turbulence_strength, (0.01, math.nan)),
    ])
    def test_non_finite_input_rejected(self, law, args):
        with pytest.raises(DomainError):
            law(*args)

    @pytest.mark.parametrize("law,args", [
        (turbulence_strength, (1e300,)),        # rytov^(6/5) overflows
        (rytov_variance, (1e-16, 1e-300, Z)),   # k^(7/6) overflows
        (rytov_variance, (1e300, LAM, Z)),      # the product is infinite
        (rytov_to_cn2, (0.01, 1e300, Z)),       # k^(7/6) underflows to 0
    ])
    def test_float_range_exit_is_domain_error(self, law, args):
        with pytest.raises(DomainError, match="leaves the float range"):
            law(*args)

    def test_resolve_reports_vanishing_denominator(self):
        with pytest.raises(DomainError):
            TurbulenceSpec.from_rytov(0.01).resolve(OpticalConfig(1e300, Z, 0.1))


class TestTurbulenceSpec:
    def test_mutually_exclusive(self):
        with pytest.raises(DomainError):
            TurbulenceSpec(cn2=1e-16, rytov=0.02)

    @pytest.mark.parametrize("name", ["cn2", "rytov", "strength_coeff"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_rejected(self, name, bad):
        with pytest.raises(DomainError):
            TurbulenceSpec(**{name: bad})

    def test_overflow_raises_domain_error(self, ref_cfg):
        # (1e300)^(6/5) leaves the float range inside the strength law
        with pytest.raises(DomainError):
            TurbulenceSpec.from_rytov(1e300).resolve(ref_cfg)

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
        # gamma = 0 collapses c3 = Im A2 to -(k/z) Lambda0^2 / (1 + Lambda0^2)
        u = vac_consts.cfg.wavenumber / vac_consts.cfg.distance
        lam0 = vac_consts.cfg.fresnel_ratio
        assert vac_consts.c3 == pytest.approx(
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

    def test_closed_forms_against_cascade(self, ref_cfg, near_field_cfgs):
        # a float evaluation of the cascade loses up to 4e-8 relative at
        # Lambda0 = 3e-5; the closed forms stay within a few ulp
        for cfg in (ref_cfg, *near_field_cfgs.values()):
            for gamma in (0.0, 1e-6, turbulence_strength(0.02)):
                got = derive_constants(cfg, gamma)
                for name, want in cascade_mp(cfg, gamma).items():
                    assert getattr(got, name) == pytest.approx(want, rel=2e-15, abs=0), (
                        cfg.fresnel_ratio, gamma, name)

    def test_c_invariants_over_gamma_range(self, ref_cfg):
        for gamma in (0.0, 1e-4, 0.005, 0.02, 0.05):
            c = derive_constants(ref_cfg, gamma)
            # a3 >= 0, so K's tau = (c2 - c1) / (4 c1 c2 + c3^2) is >= 0
            assert 0 < c.c1 <= c.c2

    def test_zeta_modulus_bound(self, ref_cfg):
        c = derive_constants(ref_cfg)
        assert abs(c.zeta) <= 1.0 and c.zeta.real > 0

    def test_vacuum_reduction_continuity(self, ref_cfg):
        exact = derive_constants(ref_cfg, 0.0)
        eps = derive_constants(ref_cfg, 1e-8)
        # a3 is exactly zero in vacuum, so continuity is measured against the
        # cascade's natural magnitude k/z rather than the component itself
        unit = exact.cfg.wavenumber / exact.cfg.distance
        for name in ("b1", "a3", "c1", "c2", "c3"):
            v0 = getattr(exact, name)
            v1 = getattr(eps, name)
            scale = max(abs(v0), abs(v1), unit)
            assert abs(v1 - v0) / scale < 1e-6

    def test_dimensional_scaling(self):
        # doubling k at fixed Lambda0 and gamma doubles every k/z-scaled
        # constant; dimensionless zeta stays fixed
        base = derive_constants(OpticalConfig.from_w0(LAM, Z, 0.1), 0.01)
        # halve wavelength (k doubles) and halve W0^2 to keep Lambda0
        scaled_cfg = OpticalConfig.from_w0(LAM / 2, Z, 0.1 / math.sqrt(2))
        scaled = derive_constants(scaled_cfg, 0.01)
        assert scaled.cfg.fresnel_ratio == pytest.approx(base.cfg.fresnel_ratio, rel=1e-14)
        assert scaled.zeta == pytest.approx(base.zeta, rel=1e-14)
        for name in ("a3", "b1", "c1", "c2", "c3"):
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

    def test_one_set_per_channel(self, ref_cfg):
        # every spelling of one channel returns one object, whose gamma is a
        # float, so its tables stay warm across calls
        vac = derive_constants(ref_cfg)
        for same in (derive_constants(ref_cfg, 0), derive_constants(ref_cfg, 0.0),
                     derive_constants(ref_cfg, -0.0), derive_constants(ref_cfg, gamma=0),
                     derive_constants(ref_cfg, 0.0, W_VARIANT_PROPAGATED),
                     derive_constants(cfg=ref_cfg, w_variant=W_VARIANT_PROPAGATED)):
            assert same is vac
        assert type(vac.gamma) is float and math.copysign(1.0, vac.gamma) == 1.0
        turb = derive_constants(ref_cfg, 0.02)
        assert turb is derive_constants(ref_cfg, gamma=0.02)
        assert turb is not vac
        assert derive_constants(ref_cfg, 0.0, W_VARIANT_WAIST) is not vac

    def test_plain_tuple_is_no_config(self, ref_cfg):
        # the tuple equals, and hashes as, the cached set's config, so the
        # cache would return that set if derive_constants took it
        derive_constants(ref_cfg, 0.0)
        assert tuple(ref_cfg) == ref_cfg and hash(tuple(ref_cfg)) == hash(ref_cfg)
        with pytest.raises(DomainError, match="cfg must be an OpticalConfig, got tuple"):
            derive_constants(tuple(ref_cfg), 0.0)

    def test_tables_are_not_part_of_the_value(self, ref_cfg):
        consts = derive_constants(ref_cfg, 0.03)
        copy = consts._replace()
        # the Pi table, the seeds and the anchor are the attributes outside
        # the fields; a copy computes its own seeds and anchor, equal to the
        # original's, and starts with an empty table of its own
        assert list(vars(consts)) == ["pi", "seeds", "anchor"]
        assert not set(vars(consts)) & set(consts._fields)
        assert copy.pi == {}
        assert copy.seeds == consts.seeds and copy.anchor == consts.anchor
        copy.pi[0] = (1.0,)
        assert copy == consts and hash(copy) == hash(consts)
        assert "pi=" not in repr(copy) and "seeds=" not in repr(copy)
        assert copy.pi is not consts.pi

    def test_negative_gamma_rejected(self, ref_cfg):
        with pytest.raises(DomainError):
            derive_constants(ref_cfg, -0.01)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 10 ** 400])
    def test_non_finite_gamma_rejected(self, ref_cfg, gamma):
        with pytest.raises(DomainError):
            derive_constants(ref_cfg, gamma)

    @pytest.mark.parametrize("cfg", [
        OpticalConfig(LAM, Z, 1e200),    # W0^2 overflows
        OpticalConfig(LAM, Z, 1e-200),   # W0^2 underflows: Lambda0 divides by 0
        OpticalConfig(1e-300, Z, 0.1),   # b1 = u d / (2 Lambda0) is infinite
    ])
    def test_constants_out_of_float_range_rejected(self, cfg):
        with pytest.raises(DomainError):
            derive_constants(cfg)
