"""Every input over the float range gives a matrix of finite, non-negative,
symmetric entries with finite normalization fields, or a typed error: a
DomainError or NumericalError in process, exit 2 or 3 from the CLI.

Seeded Hypothesis properties draw the wavelength, distance and pump waist
log-uniform over 1e-300..1e300, and Lambda0 and C's raw scale log-uniform
over 1e-10..1e40 and 1..1e160, where the products Pi * Pi can overflow; the
links below are the ones that broke the contract before its checks landed,
kept as plain regression tests."""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgspdc import cli
from hgspdc.channel import (
    W_VARIANT_PROPAGATED,
    W_VARIANT_WAIST,
    OpticalConfig,
    TurbulenceSpec,
    derive_constants,
)
from hgspdc.engine import (
    NORMALIZATION_CALIBRATED,
    NORMALIZATION_RAW,
    DEFAULT_ORDERING,
    ModeIndex,
    ModePair,
    build_matrix,
    expand_modes,
    pi_factor,
    probability_matrix,
    rytov_sweep,
)
from hgspdc.errors import CalibrationError, DomainError, NumericalError

NORMALIZATIONS = (NORMALIZATION_RAW, NORMALIZATION_CALIBRATED)

# links whose Pi are all finite with the waist mode scale, yet some products
# Pi * Pi of their 10-mode grids overflow: Lambda0 = 3.9e18, the largest Pi
# 1.6e216 and 8 of 100 products inf; and Lambda0 = 1.6e49, the largest Pi
# 4.1e305 and 4 products inf, which the property below found
WAIST_OVERFLOWS = {
    OpticalConfig(4.5839328755110384e-176, 4.684374127149405e-84, 9.331257496466637e-140):
        (1.6233e216, "3.92491e+18"),
    OpticalConfig(1.0, 1e-162, 1e-106): (4.0955e305, "1.59155e+49"),
}
# a sweep reads the propagated mode scale, whose calibrated entries stay
# bounded: at a 1e-160 m link the raw (00,00) entry C * C overflows
RAW_OVERFLOW = OpticalConfig(1e-160, 1e-160, 1e-160)


def _assert_valid(matrix):
    values = matrix.values
    assert all(0.0 <= v < math.inf for row in values for v in row), matrix
    assert all(values[i][j] == values[j][i]
               for i in range(len(values)) for j in range(i)), matrix
    norm = matrix.normalization
    assert math.isfinite(norm.calibration_factor) and math.isfinite(norm.raw_reference_value)
    assert norm.reference_value is None or math.isfinite(norm.reference_value)


def _cli_matrix(cfg, rytov, max_sum, normalization):
    """Exit code and parsed JSON of `hgspdc matrix` run in process."""
    argv = ["matrix", "--wavelength", repr(cfg.wavelength), "--distance", repr(cfg.distance),
            "--pump-waist", repr(cfg.pump_waist), "--rytov", repr(rytov),
            "--max-sum", str(max_sum), "--normalize", normalization, "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert "Traceback" not in err.getvalue()
    return code, json.loads(out.getvalue()) if code == cli.EXIT_OK else None


def _check_channel(cfg, rytov, w_variant, normalization, max_sum):
    """Run the channel through build_matrix, rytov_sweep and the CLI, and
    check each result against the contract."""
    modes = expand_modes(max_sum)
    try:
        _assert_valid(build_matrix(cfg, TurbulenceSpec.from_rytov(rytov), modes,
                                   normalization, w_variant))
    except (DomainError, NumericalError):
        pass
    pairs = [ModePair(modes[0], modes[-1]), ModePair(modes[-1], modes[-1])]
    try:
        series = rytov_sweep(cfg, [0.0, rytov], pairs, normalization)
    except (DomainError, NumericalError):
        pass
    else:
        assert all(0.0 <= v < math.inf for values in series for v in values), series
    code, doc = _cli_matrix(cfg, rytov, max_sum, normalization)
    assert code in (cli.EXIT_OK, cli.EXIT_PARAMS, cli.EXIT_NUMERICAL), code
    if doc is not None:
        values = doc["matrix"]
        assert all(0.0 <= v < math.inf for row in values for v in row)
        assert all(values[i][j] == values[j][i]
                   for i in range(len(values)) for j in range(i))
        norm = doc["normalization"]
        assert math.isfinite(norm["calibration_factor"])
        assert math.isfinite(norm["raw_reference_value"])


_EXTREME = st.floats(-300.0, 300.0).map(lambda exponent: 10.0 ** exponent)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(wavelength=_EXTREME, distance=_EXTREME, pump_waist=_EXTREME,
       rytov=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       w_variant=st.sampled_from([W_VARIANT_PROPAGATED, W_VARIANT_WAIST]),
       normalization=st.sampled_from(NORMALIZATIONS), max_sum=st.integers(0, 10))
def test_every_link_gives_a_valid_matrix_or_a_typed_error(
        wavelength, distance, pump_waist, rytov, w_variant, normalization, max_sum):
    _check_channel(OpticalConfig(wavelength, distance, pump_waist), rytov, w_variant,
                   normalization, max_sum)


# the Pi, and so the products Pi * Pi, are functions of Lambda0, gamma and
# C's raw scale 1 / sqrt(lambda z) alone. A product overflows only in narrow
# bands of waist-scale links with Lambda0 in about 1..1e36 and the scale in
# 1..1e155, which the draw of lambda, z and p above rarely reaches; this
# property draws Lambda0 and the scale themselves, over ranges just wider
_LAMBDA0 = st.floats(-10.0, 40.0).map(lambda exponent: 10.0 ** exponent)
_C_SCALE = st.floats(0.0, 160.0).map(lambda exponent: 10.0 ** exponent)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(lam0=_LAMBDA0, scale=_C_SCALE, rytov=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       w_variant=st.sampled_from([W_VARIANT_PROPAGATED, W_VARIANT_WAIST]),
       normalization=st.sampled_from(NORMALIZATIONS), max_sum=st.integers(0, 10))
def test_every_lambda0_and_scale_gives_a_valid_matrix_or_a_typed_error(
        lam0, scale, rytov, w_variant, normalization, max_sum):
    # lambda = z = 1 / scale, and Lambda0 = lambda z / (2 pi p^2) sets p
    path = 1.0 / scale
    cfg = OpticalConfig(path, path, path / math.sqrt(2 * math.pi * lam0))
    _check_channel(cfg, rytov, w_variant, normalization, max_sum)


@pytest.mark.parametrize("cfg", WAIST_OVERFLOWS, ids=["Lambda0=3.9e18", "Lambda0=1.6e49"])
@pytest.mark.parametrize("normalization", NORMALIZATIONS)
def test_overflowing_product_is_a_numerical_error(cfg, normalization):
    # the products were not checked, and some entries came out inf. Now the
    # first of them is named, with the set, and the Pi stay as they were
    largest, lam0 = WAIST_OVERFLOWS[cfg]
    consts = derive_constants(cfg, 0.0, W_VARIANT_WAIST)
    pi_factor(3, 3, consts)
    assert max(map(max, consts.pi.values())) == pytest.approx(largest, rel=1e-4)
    with pytest.raises(NumericalError, match="^" + re.escape(
            f"P(03,03) of the {normalization} matrix leaves the float range at gamma=0, "
            f"Lambda0={lam0}, w_variant='waist'") + "$"):
        build_matrix(cfg, TurbulenceSpec.vacuum(), DEFAULT_ORDERING, normalization,
                     W_VARIANT_WAIST)
    # the same link with the propagated mode scale is a valid matrix
    _assert_valid(build_matrix(cfg, TurbulenceSpec.vacuum(), DEFAULT_ORDERING, normalization))


def test_overflowing_product_fails_a_sweep_with_its_prefix():
    # raw, the (00,00) entry overflows in a matrix and at the sweep's first
    # point, whose error keeps its prefix; calibrated, the anchor C_vac^2
    # overflows first
    pairs = [ModePair(ModeIndex(0, 0), ModeIndex(0, 0)), ModePair(ModeIndex(1, 1), ModeIndex(1, 1))]
    text = ("P(00,00) of the raw matrix leaves the float range at gamma=0, Lambda0=0.159155, "
            "w_variant='propagated'")
    with pytest.raises(NumericalError, match="^" + re.escape(text) + "$"):
        build_matrix(RAW_OVERFLOW, TurbulenceSpec.vacuum(), normalization=NORMALIZATION_RAW)
    with pytest.raises(NumericalError, match="^" + re.escape(f"P(11,11) at rytov 0: {text}") + "$"):
        rytov_sweep(RAW_OVERFLOW, [0.0, 0.01], pairs, NORMALIZATION_RAW)
    with pytest.raises(CalibrationError, match=r"^calibration reference \(00,00\) is inf; "):
        rytov_sweep(RAW_OVERFLOW, [0.0, 0.01], pairs, NORMALIZATION_CALIBRATED)


def test_overflowing_raw_reference_is_a_numerical_error():
    # C = 3.9e154: the one entry Pi(1, 1)^2 = 9.5e307 of the grid {11} is
    # finite, but its raw_reference_value, the raw (00,00) entry C * C that
    # the grid does not hold, overflows
    cfg = OpticalConfig(1e-160, 6.283185307179587e-151, 1e-155)
    consts = derive_constants(cfg)
    assert 3.9e154 < consts.seeds.c < 4e154
    with pytest.raises(NumericalError, match="^" + re.escape(
            "P(00,00) of the raw matrix leaves the float range at gamma=0, Lambda0=0.1, "
            "w_variant='propagated'") + "$"):
        probability_matrix([ModeIndex(1, 1)], consts, NORMALIZATION_RAW)


@pytest.mark.parametrize("normalization", NORMALIZATIONS)
def test_seed_error_names_an_overflowing_lambda0(normalization):
    # Lambda0 = 1e600 / (2 pi) leaves the float range, where
    # cfg.fresnel_ratio raises: the seeds' error reads it as inf, and
    # formatting the error raises nothing else
    cfg = OpticalConfig(1e-300, 1e300, 1e-300)
    with pytest.raises(DomainError, match="fresnel_ratio"):
        cfg.fresnel_ratio
    consts = derive_constants(cfg)
    with pytest.raises(NumericalError, match="^" + re.escape(
            "pi_factor(3, 3): the Pi seeds C=nan, alpha=nan, beta=nan, delta=nan are not "
            "finite, C <= 0 or delta < 0 at gamma=0, Lambda0=inf") + "$"):
        probability_matrix(DEFAULT_ORDERING, consts, normalization)
