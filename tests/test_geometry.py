"""The split of the constants and the Pi seeds at the line between geometry
and turbulence: the gamma-free terms come from one cached record per link
and w_variant, and every constant, seed and calibration factor stays bitwise
what the unsplit expressions below compute."""

import cmath
import math
import random

import pytest

from hgspdc import channel, engine
from hgspdc.channel import (
    DERIVED_SETS,
    W_VARIANT_PROPAGATED,
    W_VARIANT_WAIST,
    DerivedConstants,
    OpticalConfig,
    TurbulenceSpec,
    derive_cache_info,
    derive_constants,
    turbulence_strength,
)
from hgspdc.engine import DEFAULT_ORDERING, Seeds, build_matrix, expand_modes, pi_factor
from hgspdc.errors import CalibrationError, DomainError, NumericalError
from hgspdc.reference import CALIBRATION_REFERENCE


def _unsplit_constants(cfg, gamma, w_variant):
    """The constants as one expression per field, every term from cfg."""
    try:
        lam0 = cfg.fresnel_ratio
        zeta = (1 + lam0 ** 2) / (1 + lam0 ** 2 + 1j * lam0)
        u = cfg.wavenumber / cfg.distance
        d = 1 + lam0 ** 2 + 2 * gamma * lam0
        b1 = u * d / (2 * lam0)
        a3 = u * gamma * (6 + 2 * lam0 ** 2 + 3 * gamma * lam0) / d
        c1 = u * lam0 * (1 / d + 1 / (1 + lam0 ** 2))
        c2 = c1 + a3
        c3 = -u * lam0 * (lam0 + 3 * gamma) / d
        w = cfg.w0
        if w_variant == W_VARIANT_PROPAGATED:
            w *= math.sqrt(1 + lam0 ** 2)
        finite = all(map(cmath.isfinite, (zeta, b1, c1, c2, c3, w)))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise DomainError(f"{cfg} at gamma={gamma} gives constants that are zero, "
                          "infinite or beyond the float range")
    return DerivedConstants(cfg=cfg, w=w, w_variant=w_variant, zeta=zeta, gamma=gamma,
                            a3=a3, b1=b1, c1=c1, c2=c2, c3=c3)


def _unsplit_seeds(consts):
    """The seeds as one expression each, every term from consts."""
    try:
        d, sigma, tau = engine._moments(consts.c1, consts.c2, consts.c3)
        cfg, w2 = consts.cfg, consts.w ** 2
        lam0 = cfg.fresnel_ratio
        one_minus_zeta = 1j * lam0 / (1 + lam0 ** 2 + 1j * lam0)
        p0 = 1.0 / (cfg.wavelength ** 2 * cfg.distance ** 2 * math.sqrt(math.pi * consts.b1))
        scaled = 4 * sigma / w2
        return Seeds(p0 * 4 * math.pi * abs(one_minus_zeta) * (2 * math.pi / math.sqrt(d)),
                     scaled - 1 + one_minus_zeta, 2 * (scaled - one_minus_zeta), 8 * tau / w2)
    except (OverflowError, ZeroDivisionError, ValueError):
        return Seeds(math.nan, math.nan, math.nan, math.nan)


def _hex(value):
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return value.hex() if isinstance(value, float) else value


def _outcome(compute):
    """compute()'s value as hex, or its error's type and text."""
    try:
        value = compute()
    except (DomainError, NumericalError, CalibrationError) as exc:
        return type(exc).__name__, str(exc)
    return tuple(map(_hex, value)) if isinstance(value, tuple) else _hex(value)


def _unsplit_factor(cfg, w_variant):
    """The reference over Pi(0, 0)^2 of the vacuum set, whose Pi(0, 0) is
    C * 1.0 * 1.0 = C; seeds that fail pi_seeds' guard fail it, as a fill."""
    c, alpha, beta, delta = _unsplit_seeds(_unsplit_constants(cfg, 0.0, w_variant))
    if not (0.0 < c < math.inf and 0.0 <= delta < math.inf
            and cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise NumericalError("vacuum seeds")
    if c * c <= 0.0:
        raise CalibrationError("zero anchor")
    return CALIBRATION_REFERENCE / (c * c)


def _geometries():
    rng = random.Random(30)
    cfgs = [OpticalConfig.from_w0(10 ** rng.uniform(-7, -5), 10 ** rng.uniform(0, 5),
                                  10 ** rng.uniform(-3, -0.5)) for _ in range(300)]
    for _ in range(100):
        try:
            cfgs.append(OpticalConfig(*(10 ** rng.uniform(-300, 300) for _ in range(3))))
        except DomainError:
            pass
    return cfgs, rng


def _assert_split_is_bitwise(cfgs, rytovs):
    for cfg in cfgs:
        for rytov in rytovs:
            gamma = turbulence_strength(rytov)
            for w_variant in (W_VARIANT_PROPAGATED, W_VARIANT_WAIST):
                want = _outcome(lambda: _unsplit_constants(cfg, gamma, w_variant))
                assert _outcome(lambda: derive_constants(cfg, gamma, w_variant)) == want
                if isinstance(want[0], str) and want[0] == "DomainError":
                    continue
                consts = derive_constants(cfg, gamma, w_variant)
                assert _outcome(lambda: engine._seed_values(consts)) == \
                    _outcome(lambda: _unsplit_seeds(consts))
                # a failing anchor: the same error type, whose text the
                # reference does not rebuild
                got = _outcome(lambda: engine._calibration_factor(consts))
                ref = _outcome(lambda: _unsplit_factor(cfg, w_variant))
                assert (got[0] if isinstance(got, tuple) else got) == \
                    (ref[0] if isinstance(ref, tuple) else ref)


def test_split_is_bitwise_over_random_links():
    # every field of every set, every seed and every calibration factor
    # over 300 links, and the outcomes of extreme ones, at rytov 0, a
    # random value in (0, 0.1) and 1, for both w_variants
    cfgs, rng = _geometries()
    engine._clear_tables()
    _assert_split_is_bitwise(cfgs, (0.0, rng.uniform(0.0, 0.1), 1.0))


def test_split_is_bitwise_in_the_near_field(near_field_cfgs):
    engine._clear_tables()
    _assert_split_is_bitwise(near_field_cfgs.values(), (0.0, 0.02, 0.1, 1.0))


def test_anchor_is_the_filled_vacuum_entry(ref_cfg, near_field_cfgs):
    # the anchor, C * C of the vacuum seeds, is the square of Pi(0, 0) that
    # a filled vacuum set holds, for both w_variants
    for cfg in (ref_cfg, *near_field_cfgs.values()):
        for w_variant in (W_VARIANT_PROPAGATED, W_VARIANT_WAIST):
            p = pi_factor(0, 0, derive_constants(cfg, 0.0, w_variant)._replace())
            assert engine._anchor(cfg, w_variant) == p * p


def test_calibrated_matrix_derives_one_set(ref_cfg):
    # no vacuum set is derived for the calibration anchor
    engine._clear_tables()
    m = build_matrix(ref_cfg, TurbulenceSpec.from_rytov(0.05), expand_modes(6))
    assert derive_cache_info().currsize == 1
    assert m.normalization.calibration_factor == engine._calibration_factor(m.consts)


def test_geometry_cache_is_bounded_and_cleared(ref_cfg):
    engine._clear_tables()
    rng = random.Random(500)
    for _ in range(500):
        cfg = OpticalConfig.from_w0(ref_cfg.wavelength, 10 ** rng.uniform(2, 4),
                                    10 ** rng.uniform(-2, -1))
        build_matrix(cfg, TurbulenceSpec.from_rytov(rng.uniform(0.0, 0.1)), DEFAULT_ORDERING)
    for cache in (channel._geometry, engine._anchor):
        info = cache.cache_info()
        assert info.maxsize == DERIVED_SETS and 0 < info.currsize <= DERIVED_SETS
    engine._clear_tables()
    assert channel._geometry.cache_info().currsize == 0
    assert engine._anchor.cache_info().currsize == 0
    assert derive_cache_info().currsize == 0


def test_fresh_rytov_values_share_one_geometry(ref_cfg):
    engine._clear_tables()
    for k in range(50):
        build_matrix(ref_cfg, TurbulenceSpec.from_rytov(0.002 * k))
    assert channel._geometry.cache_info().misses == 1
    assert engine._anchor.cache_info().misses == 1
    assert derive_cache_info().misses == 50


def test_vacuum_seed_failure_keeps_its_text(ref_cfg, turb_consts, corrupt_seeds):
    # a vacuum C that is not finite fails the anchor as a fill of the
    # vacuum set's Pi(0, 0) would
    corrupt_seeds(lambda seeds, consts:
                  seeds._replace(c=math.inf) if consts.gamma == 0 else seeds)
    with pytest.raises(NumericalError, match=r"^pi_factor\(0, 0\): the Pi seeds C=inf, .* "
                                             r"at gamma=0, "):
        engine.probability_matrix(DEFAULT_ORDERING, turb_consts._replace())


def test_seed_terms_out_of_range_give_nan_seeds():
    # lambda^2 overflows while the constants stay finite: every seed is nan,
    # as when the unsplit expression raises
    cfg = OpticalConfig(1e160, 1.0, 1e80)
    consts = derive_constants(cfg)
    assert channel._geometry(cfg, W_VARIANT_PROPAGATED).lz2 is None
    assert all(map(math.isnan, engine._seed_values(consts)))
    assert all(map(math.isnan, _unsplit_seeds(consts)))
    with pytest.raises(NumericalError, match=r"C=nan, alpha=nan, beta=nan, delta=nan"):
        pi_factor(0, 0, consts)
