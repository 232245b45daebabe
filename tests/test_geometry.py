"""The split of the closed form between the constants and the Pi seeds: the
constants are the dimensioned values the per-term kernels read
(perterm.constants), each bitwise what the unsplit expressions below
compute; the seeds are dimensionless functions of Lambda0, gamma and
w_variant, apart from C's raw scale, each within 1e-15 of a 50-digit
evaluation of their dimensioned forms, or nan; and the calibration anchor,
C * C of the vacuum seeds, comes with each set's seeds, with no vacuum set
built."""

import cmath
import math
import random
import re
import sys

import mpmath
import pytest

from hgspdc import channel, engine, perterm
from hgspdc.channel import (
    DERIVED_SETS,
    W_VARIANT_PROPAGATED,
    W_VARIANT_WAIST,
    OpticalConfig,
    TurbulenceSpec,
    derive_cache_info,
    derive_constants,
    turbulence_strength,
)
from hgspdc.engine import DEFAULT_ORDERING, build_matrix, expand_modes, pi_factor
from hgspdc.errors import CalibrationError, DomainError, NumericalError
from hgspdc.perterm import KernelConstants
from hgspdc.reference import CALIBRATION_REFERENCE

SEED_TOLERANCE = 1e-15


def _unsplit_constants(cfg, gamma, w_variant):
    """The constants as one expression per field, every term from cfg."""
    try:
        lam0 = 2.0 * cfg.distance / (cfg.wavenumber * cfg.w0 ** 2)
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
    return KernelConstants(w=w, zeta=zeta, a3=a3, b1=b1, c1=c1, c2=c2, c3=c3)


def _mp_seeds(cfg, gamma, w_variant):
    """C, alpha, beta and delta in 50-digit mpmath from the dimensioned
    constants of cfg, read as exact binary values: C = P0 4 pi |1 - zeta|
    K(0, 0), P0 = 1 / (lambda^2 z^2 sqrt(pi b1)), alpha = 4 sigma / w^2 - zeta,
    beta = 8 sigma / w^2 - 2 (1 - zeta) and delta = 8 tau / w^2, with D,
    sigma and tau the moments of K's Gaussian (see perterm.k_kernel)."""
    with mpmath.workdps(50):
        lam, z, p, g = map(mpmath.mpf, (*cfg, gamma))
        k = 2 * mpmath.pi / lam
        w0_2 = 2 * p ** 2
        lam0 = 2 * z / (k * w0_2)
        u = k / z
        d = 1 + lam0 ** 2 + 2 * g * lam0
        b1 = u * d / (2 * lam0)
        c1 = u * lam0 * (1 / d + 1 / (1 + lam0 ** 2))
        c2 = c1 + u * g * (6 + 2 * lam0 ** 2 + 3 * g * lam0) / d
        c3 = -u * lam0 * (lam0 + 3 * g) / d
        det = 4 * c1 * c2 + c3 ** 2
        sigma, tau = mpmath.mpc(c1 + c2, -c3) / det, (c2 - c1) / det
        w2 = w0_2 * (1 + lam0 ** 2 if w_variant == W_VARIANT_PROPAGATED else 1)
        zeta = (1 + lam0 ** 2) / mpmath.mpc(1 + lam0 ** 2, lam0)
        p0 = 1 / (lam ** 2 * z ** 2 * mpmath.sqrt(mpmath.pi * b1))
        c = p0 * 4 * mpmath.pi * abs(1 - zeta) * 2 * mpmath.pi / mpmath.sqrt(det)
        return c, 4 * sigma / w2 - zeta, 8 * sigma / w2 - 2 * (1 - zeta), 8 * tau / w2


def _assert_seeds_match_mpmath(cfgs, rytovs):
    """Every seed of every set that derive_constants gives is within
    SEED_TOLERANCE of _mp_seeds, relative to its modulus; a seed whose exact
    value lies below the normal float range must come out below it too, and
    one above it not finite. A set whose seeds are nan, all four, is not
    checked: pi_seeds turns it away. Returns the number of sets checked."""
    checked = 0
    for cfg in cfgs:
        for rytov in rytovs:
            gamma = turbulence_strength(rytov)
            for w_variant in (W_VARIANT_PROPAGATED, W_VARIANT_WAIST):
                got = derive_constants(cfg, gamma, w_variant).seeds
                if cmath.isnan(got.c):
                    assert all(map(cmath.isnan, got)), (cfg, rytov, w_variant, got)
                    continue
                checked += 1
                want = _mp_seeds(cfg, gamma, w_variant)
                for name, g, w in zip(got._fields, got, want):
                    size = abs(w)
                    where = (name, cfg, rytov, w_variant, g, w)
                    if size == 0:
                        assert g == 0, where
                    elif size < sys.float_info.min:
                        assert abs(g) < sys.float_info.min, where
                    elif size > sys.float_info.max:
                        assert not cmath.isfinite(g), where
                    else:
                        assert abs(mpmath.mpc(g) - w) <= SEED_TOLERANCE * size, where
    return checked


def _random_links(seed, count):
    rng = random.Random(seed)
    return [OpticalConfig.from_w0(10 ** rng.uniform(-7, -5), 10 ** rng.uniform(0, 5),
                                  10 ** rng.uniform(-3, -0.5)) for _ in range(count)], rng


def _extreme_links(seed, count):
    """Links with each of lambda, z and p log-uniform over 1e-300..1e300."""
    rng = random.Random(seed)
    return [OpticalConfig(*(10 ** rng.uniform(-300, 300) for _ in range(3)))
            for _ in range(count)]


def _assert_constants_are_bitwise(cfgs, rytovs):
    for cfg in cfgs:
        for rytov in rytovs:
            gamma = turbulence_strength(rytov)
            for w_variant in (W_VARIANT_PROPAGATED, W_VARIANT_WAIST):
                consts = derive_constants(cfg, gamma, w_variant)
                try:
                    want = _unsplit_constants(cfg, gamma, w_variant)
                except DomainError as exc:
                    with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                        perterm.constants(*consts)
                    continue
                got = perterm.constants(*consts)
                assert got == want
                # == equates 0.0 and -0.0 and fails on nan; the hex does neither
                assert list(map(_hex, got)) == list(map(_hex, want))


def _hex(value):
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return value.hex() if isinstance(value, float) else value


def test_split_is_bitwise_over_random_links():
    # every constant of every set over 300 links and 100 extreme ones, or
    # the same DomainError, at rytov 0, a random value in (0, 0.1) and 1, for
    # both w_variants
    cfgs, rng = _random_links(30, 300)
    engine._clear_tables()
    _assert_constants_are_bitwise(cfgs + _extreme_links(31, 100),
                                  (0.0, rng.uniform(0.0, 0.1), 1.0))


def test_split_is_bitwise_in_the_near_field(near_field_cfgs):
    engine._clear_tables()
    _assert_constants_are_bitwise(near_field_cfgs.values(), (0.0, 0.02, 0.1, 1.0))


def test_seeds_match_mpmath(near_field_cfgs):
    # 300 links, the near field and 1000 extreme links, among them Lambda0
    # from 7e-265 to 1e148 and sets whose C lies below the float range; an
    # extreme link whose seeds leave the float range, or whose Lambda0 or
    # C's denominator falls below it, has nan seeds
    cfgs, rng = _random_links(32, 300)
    assert _assert_seeds_match_mpmath(cfgs, (0.0, rng.uniform(0.0, 0.1), 1.0)) == 1800
    assert _assert_seeds_match_mpmath(near_field_cfgs.values(), (0.0, 0.02, 0.1, 1.0)) == 32
    assert _assert_seeds_match_mpmath(_extreme_links(33, 1000), (0.0, 0.05, 1.0)) == 2220


def test_anchor_is_the_filled_vacuum_entry(ref_cfg, near_field_cfgs):
    # the anchor, C * C of the vacuum seeds, is the square of Pi(0, 0) that
    # a filled vacuum set holds, for both w_variants, and every set of the
    # link carries it
    for cfg in (ref_cfg, *near_field_cfgs.values()):
        for w_variant in (W_VARIANT_PROPAGATED, W_VARIANT_WAIST):
            p = pi_factor(0, 0, derive_constants(cfg, 0.0, w_variant)._replace())
            for rytov in (0.0, 0.02, 1.0):
                consts = derive_constants(cfg, turbulence_strength(rytov), w_variant)
                assert consts.anchor == p * p


def test_calibrated_matrix_derives_one_set(ref_cfg):
    # no vacuum set is derived for the calibration anchor
    engine._clear_tables()
    m = build_matrix(ref_cfg, TurbulenceSpec.from_rytov(0.05), expand_modes(6))
    assert derive_cache_info().currsize == 1
    assert m.normalization.calibration_factor == CALIBRATION_REFERENCE / m.consts.anchor


def test_geometry_cache_is_bounded_and_cleared(ref_cfg):
    # the derived sets, which carry the anchors, keep DERIVED_SETS sets
    engine._clear_tables()
    rng = random.Random(500)
    for _ in range(500):
        cfg = OpticalConfig.from_w0(ref_cfg.wavelength, 10 ** rng.uniform(2, 4),
                                    10 ** rng.uniform(-2, -1))
        build_matrix(cfg, TurbulenceSpec.from_rytov(rng.uniform(0.0, 0.1)), DEFAULT_ORDERING)
    info = derive_cache_info()
    assert info.maxsize == DERIVED_SETS and 0 < info.currsize <= DERIVED_SETS
    engine._clear_tables()
    assert derive_cache_info().currsize == 0


def test_fresh_rytov_values_share_one_geometry(ref_cfg):
    engine._clear_tables()
    factors = {build_matrix(ref_cfg, TurbulenceSpec.from_rytov(0.002 * k))
               .normalization.calibration_factor for k in range(50)}
    assert derive_cache_info().misses == 50
    p = pi_factor(0, 0, derive_constants(ref_cfg))
    assert factors == {CALIBRATION_REFERENCE / (p * p)}


def test_vacuum_seed_failure_keeps_its_text(ref_cfg, turb_consts, corrupt_seeds):
    # a vacuum C that is not finite makes an anchor that is not: a
    # calibrated turbulent matrix fails with the calibration text, and a
    # raw one, which reads no anchor, is the parent's matrix
    corrupt_seeds(lambda seeds, gamma: seeds._replace(c=math.inf) if gamma == 0 else seeds)
    consts = turb_consts._replace()
    assert consts.seeds == turb_consts.seeds and consts.anchor == math.inf
    with pytest.raises(CalibrationError, match=r"^calibration reference \(00,00\) is inf; "
                                               r"cannot normalize$"):
        engine.probability_matrix(DEFAULT_ORDERING, consts)
    assert engine.probability_matrix(DEFAULT_ORDERING, consts, "raw") == \
        engine.probability_matrix(DEFAULT_ORDERING, turb_consts, "raw")


def test_lambda_squared_out_of_range_gives_a_calibrated_matrix():
    # lambda^2 overflows while Lambda0 = 0.159 and the constants stay
    # finite: the seeds never form lambda^2 z^2, so the matrix is finite
    # and its vacuum (00,00) entry is the calibration reference
    cfg = OpticalConfig(1e160, 1.0, 1e80)
    with pytest.raises(OverflowError):
        cfg.wavelength ** 2
    assert abs(cfg.fresnel_ratio - 1 / (2 * math.pi)) < 1e-15
    assert _assert_seeds_match_mpmath([cfg], (0.0, 0.05)) == 4
    m = build_matrix(cfg, TurbulenceSpec.vacuum(), expand_modes(10))
    assert all(0.0 <= v < math.inf for row in m.values for v in row)
    assert m.values[0][0] == pytest.approx(CALIBRATION_REFERENCE, rel=1e-15)



@pytest.mark.parametrize("cfg, gamma, w_variant, off", [
    (OpticalConfig(1e-320, 1.0, 1.0), 0.0, W_VARIANT_PROPAGATED, 1.4e-4),
    (OpticalConfig(3.5229440116871185e-119, 3.0310162080699083e-145, 7.70185209497321e+29),
     1.4708809600132535, W_VARIANT_WAIST, 0.72),
    (OpticalConfig(3.633146323797344e-275, 3.242878288629327e-79, 7.215866476046917e-30),
     0.0, W_VARIANT_WAIST, 0.47),
], ids=["Lambda0=1.6e-321", "Lambda0=5e-324", "denominator=2.6e-324"])
def test_seeds_that_would_lose_bits_are_nan(cfg, gamma, w_variant, off, monkeypatch):
    # a subnormal Lambda0, or at Lambda0 = 3.6e-296 a subnormal denominator
    # of C, keeps too few bits: C, whose 50-digit value is a normal float,
    # would come out off by the fraction off. Such a set's seeds and anchor
    # are nan, so its matrices are typed errors
    want = _mp_seeds(cfg, gamma, w_variant)[0]
    assert sys.float_info.min < want < sys.float_info.max
    consts = derive_constants(cfg, gamma, w_variant)
    assert all(map(cmath.isnan, consts.seeds)) and math.isnan(consts.anchor)
    for normalization in ("raw", "calibrated"):
        with pytest.raises(NumericalError, match=r"^pi_factor\(3, 3\): the Pi seeds C=nan, "):
            engine.probability_matrix(DEFAULT_ORDERING, consts, normalization)
    monkeypatch.setattr(channel, "_normal", lambda value: value)
    unguarded = channel._seed_values(cfg, gamma, w_variant)[0].c
    assert abs(unguarded - want) / want == pytest.approx(off, rel=0.05)
