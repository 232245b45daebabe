"""Overlap engine: kernels against independent high-precision oracles,
symmetries, selection rules, matrix assembly and golden regression."""

import cmath
import copy
import dataclasses
import functools
import gc
import math
import pickle
import random
import re
import sys
from fractions import Fraction
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgspdc import engine, reference
from hgspdc.channel import (
    DerivedConstants,
    OpticalConfig,
    TurbulenceSpec,
    derive_constants,
    turbulence_strength,
)
from hgspdc.engine import (
    DEFAULT_MAX_ORDER,
    DEFAULT_ORDERING,
    ModeIndex,
    ModePair,
    NORMALIZATION_RAW,
    build_matrix,
    expand_modes,
    f_kernel,
    joint_probability,
    k_kernel,
    parse_mode,
    pi_factor,
    probability_matrix,
    rytov_sweep,
    selection_rule_allowed,
    sigma,
    table_info,
)
from hgspdc.errors import CalibrationError, DomainError, NumericalError

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# independent oracles: the printed kernel products re-evaluated with mpmath,
# sharing no code with the engine
# ---------------------------------------------------------------------------

def oracle_f(mu, nu, k, l, consts):
    zeta = mp.mpc(consts.zeta)
    val = mp.binomial(mu, k) * mp.binomial(nu, l) * mp.mpf(2) ** (mu + nu)
    val *= mp.mpc(0, 1) ** (k + l) * ((-1) ** k + (-1) ** l)
    val *= mp.gamma(mp.mpf(k + l + 1) / 2)
    val *= (mp.sqrt(2) / mp.mpf(consts.w)) ** (mu + nu - k - l)
    val *= mp.sqrt(1 - zeta) * mp.sqrt(zeta) ** (k + l)
    val *= mp.hyp2f1(-k, -l, mp.mpf(1 - k - l) / 2, 1 / (2 * zeta))
    return val


def _gamma_recursion(twice):
    """Gamma(twice / 2) as the float product x Gamma(x) = Gamma(x + 1) from
    Gamma(1/2) = sqrt(pi) or Gamma(1) = 1, factor by factor in rising order."""
    value, x = (math.sqrt(math.pi), 0.5) if twice % 2 else (1.0, 1.0)
    while x < twice / 2:
        value *= x
        x += 1
    return value


def _mp_hyp2f1(a, b, c, z):
    """mp.hyp2f1 for the brackets' z = c4 <= 0. Past z = -1 mpmath continues
    through 1/z, ~0.1 s a call when a - b is an integer, so there Pfaff's
    transformation on a (DLMF 15.8.1) maps z into [1/2, 1), where c - b is a
    nonpositive integer and the series terminates. The engine transforms on b."""
    if z >= -1:
        return mp.hyp2f1(a, b, c, z)
    return (1 - z) ** -a * mp.hyp2f1(a, c - b, c, z / (z - 1))


@functools.lru_cache(maxsize=None)
def _oracle_bracket(s, t, c1, c2, c3, c4, prec):
    # the printed bracket; it reads s = p + q and t = a + b - s only
    with mp.workprec(prec):
        c1, c2, c3, c4 = map(mp.mpf, (c1, c2, c3, c4))
        sig0 = (1 + (-1) ** s) * (1 + (-1) ** t)
        sig1 = (-1 + (-1) ** s) * (-1 + (-1) ** t)
        value = mp.mpc(0)
        if sig0:
            value += (sig0 * mp.sqrt(c1 / c2)
                      * mp.gamma(mp.mpf(1 + s) / 2) * mp.gamma(mp.mpf(1 + t) / 2)
                      * _mp_hyp2f1(mp.mpf(1 + s) / 2, mp.mpf(1 + t) / 2,
                                  mp.mpf(1) / 2, c4))
        if sig1:
            g2 = mp.gamma(mp.mpf(2 + s) / 2) * mp.gamma(mp.mpf(2 + t) / 2)
            den = c2 * c3 * (1 + s) * (1 + t)
            value -= (mp.mpc(0, 1) * sig1 * (4 * c1 * c2 + c3 ** 2) / den * g2
                      * _mp_hyp2f1(mp.mpf(2 + s) / 2, mp.mpf(2 + t) / 2,
                                  -mp.mpf(1) / 2, c4))
            value += (mp.mpc(0, 1) * sig1
                      * (4 * c1 * c2 + c3 ** 2 * (4 + s + t)) / den * g2
                      * _mp_hyp2f1(mp.mpf(2 + s) / 2, mp.mpf(2 + t) / 2,
                                  mp.mpf(1) / 2, c4))
        return value


def oracle_bracket(s, t, consts):
    """The printed K bracket h(s, t) at the working precision; each value is
    computed once per constant set and precision."""
    return _oracle_bracket(min(s, t), max(s, t), consts.c1, consts.c2, consts.c3,
                           consts.c4, mp.mp.prec)


def oracle_k(a, b, consts):
    c1, c2 = mp.mpf(consts.c1), mp.mpf(consts.c2)
    total = mp.mpc(0)
    for p in range(a + 1):
        for q in range(b + 1):
            s, t = p + q, a + b - p - q
            pre = (mp.binomial(a, p) * mp.binomial(b, q) * (-1) ** (b - q)
                   * (1 / mp.sqrt(c1)) ** (2 + s) * (1 / mp.sqrt(c2)) ** t)
            total += pre * oracle_bracket(s, t, consts)
    return mp.mpf(1) / 4 * (1 / mp.sqrt(2)) ** (a + b) * total


def oracle_pi(mu, nu, consts):
    """Returns (value, scale); scale is the term-magnitude sum, the natural
    yardstick for entries that cancel to zero."""
    with mp.workdps(50):
        total = mp.mpc(0)
        scale = mp.mpf(0)
        for k1 in range(mu + 1):
            for l1 in range(nu + 1):
                for k3 in range(mu + 1):
                    for l3 in range(nu + 1):
                        f1 = oracle_f(mu, nu, k1, l1, consts)
                        f3 = oracle_f(mu, nu, k3, l3, consts)
                        term = f1 * mp.conj(f3) * oracle_k(
                            mu + nu - k1 - l1, mu + nu - k3 - l3, consts)
                        total += term
                        scale += abs(term)
        pref = _oracle_pref(mu, nu, consts)
        return pref * total, pref * scale


def _oracle_pref(mu, nu, consts):
    return 1 / (mp.mpf(consts.cfg.wavelength) ** 2 * mp.mpf(consts.cfg.distance) ** 2
                * mp.sqrt(mp.pi * mp.mpf(consts.b1))
                * mp.factorial(mu) * mp.factorial(nu) * mp.mpf(2) ** (mu + nu))


class TestSigma:
    def test_values(self):
        assert sigma(0, 0) == 2
        assert sigma(1, 2) == 0
        assert sigma(1, 3) == -2

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_range_and_parity(self, k, l):
        v = sigma(k, l)
        assert v in (-2, 0, 2)
        assert (v == 0) == ((k + l) % 2 == 1)


class TestFKernel:
    def test_ground_value(self, vac_consts):
        # all binomials and powers collapse: 2 Gamma(1/2) sqrt(1 - zeta)
        import cmath
        got = f_kernel(0, 0, 0, 0, vac_consts)
        want = 2 * math.sqrt(math.pi) * cmath.sqrt(1 - vac_consts.zeta)
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("mu,nu,k,l", [(1, 0, 1, 0), (2, 1, 0, 1), (3, 2, 2, 1)])
    def test_odd_parity_vanishes(self, vac_consts, mu, nu, k, l):
        assert f_kernel(mu, nu, k, l, vac_consts) == 0

    @pytest.mark.parametrize("mu,nu,k,l", [
        (2, 0, 2, 0), (2, 0, 0, 0), (2, 2, 2, 2), (3, 3, 1, 1), (4, 2, 2, 2),
    ])
    def test_against_oracle(self, vac_consts, turb_consts, mu, nu, k, l):
        for consts in (vac_consts, turb_consts):
            got = f_kernel(mu, nu, k, l, consts)
            want = complex(oracle_f(mu, nu, k, l, consts))
            assert got == pytest.approx(want, rel=1e-12)

    def test_index_bounds(self, vac_consts):
        with pytest.raises(DomainError):
            f_kernel(2, 0, 3, 0, vac_consts)

    def test_symmetry_under_axis_swap(self, turb_consts):
        # F(mu, nu, k, l) = F(nu, mu, l, k)
        assert f_kernel(3, 1, 2, 0, turb_consts) == f_kernel(1, 3, 0, 2, turb_consts)


class TestKKernel:
    def test_odd_total_vanishes(self, vac_consts, turb_consts):
        for consts in (vac_consts, turb_consts):
            for a, b in ((1, 0), (2, 1), (0, 3), (3, 2)):
                assert k_kernel(a, b, consts) == 0

    def test_ground_closed_form(self, vac_consts, turb_consts):
        # only the (p, q) = (0, 0) bracket survives:
        # (1/c1) sqrt(c1/c2) pi (1 - c4)^(-1/2)
        for consts in (vac_consts, turb_consts):
            want = (math.pi / consts.c1 * math.sqrt(consts.c1 / consts.c2)
                    * (1 - consts.c4) ** -0.5)
            assert k_kernel(0, 0, consts) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("a,b", [(2, 0), (1, 1), (2, 2), (3, 1), (4, 2), (0, 4)])
    def test_against_oracle(self, vac_consts, turb_consts, a, b):
        for consts in (vac_consts, turb_consts):
            got = k_kernel(a, b, consts)
            want = complex(oracle_k(a, b, consts))
            assert got == pytest.approx(want, rel=1e-11)

    def test_conjugate_on_swap(self, turb_consts):
        for a, b in ((2, 0), (3, 1), (4, 2)):
            assert k_kernel(b, a, turb_consts) == pytest.approx(
                k_kernel(a, b, turb_consts).conjugate(), rel=1e-13
            )

    def test_vacuum_1_1_vanishes(self, vac_consts, near_field_cfgs):
        # c1 = c2 in vacuum: the s and a + b - s terms cancel exactly
        for consts in (vac_consts, *map(derive_constants, near_field_cfgs.values())):
            assert k_kernel(1, 1, consts) == 0

    # the worst-conditioned orders of a Pi(10, 10) table
    @pytest.mark.parametrize("a,b,rytov", [(20, 18, 0.01), (20, 20, 0.02)])
    def test_high_orders_against_oracle(self, ref_cfg, a, b, rytov):
        consts = derive_constants(ref_cfg, turbulence_strength(rytov))
        want = complex(oracle_k(a, b, consts))
        assert k_kernel(a, b, consts) == pytest.approx(want, rel=1e-13, abs=0)

    def test_small_c3_expansion_matches_exact(self, turb_consts):
        # shrink c3 to 5e-7 (c1 + c2), where the printed odd bracket cancels
        # in double precision; the engine's form has no such cancellation
        # and must match the printed bracket evaluated at high precision
        c1, c2 = turb_consts.c1, turb_consts.c2
        tiny = 0.5e-6 * (c1 + c2)
        consts = dataclasses.replace(
            turb_consts, c3=tiny, c4=-tiny ** 2 / (4 * c1 * c2))
        for a, b in ((1, 1), (2, 0), (3, 1), (2, 2)):
            got = k_kernel(a, b, consts)
            want = complex(oracle_k(a, b, consts))
            assert got == pytest.approx(want, rel=1e-9)

    def test_small_c3_path_is_continuous(self, turb_consts):
        c1, c2 = turb_consts.c1, turb_consts.c2
        values = []
        for factor in (1.5e-6, 0.9e-6):  # c3 values a factor 1.7 apart
            c3 = factor * (c1 + c2)
            consts = dataclasses.replace(
                turb_consts, c3=c3, c4=-c3 ** 2 / (4 * c1 * c2))
            values.append(k_kernel(3, 1, consts))
        rel = abs(values[0] - values[1]) / abs(values[0])
        assert rel < 1e-5

    # test_high_orders_against_oracle's pairs and odd pairs of the same total
    # orders, in far field (Lambda0 = 1): the worst error is 1.4e-15
    @pytest.mark.parametrize("rytov", [0.0, 0.02])
    def test_far_field_against_oracle(self, ref_cfg, rytov):
        w0 = math.sqrt(2 * ref_cfg.distance / ref_cfg.wavenumber)
        cfg = OpticalConfig.from_w0(ref_cfg.wavelength, ref_cfg.distance, w0)
        consts = derive_constants(cfg, turbulence_strength(rytov))
        assert cfg.fresnel_ratio == pytest.approx(1.0, rel=1e-15)
        for a, b in ((20, 18), (20, 20), (19, 19), (19, 1), (11, 9)):
            want = complex(oracle_k(a, b, consts))
            # in vacuum K(odd, odd) is exactly 0 and the oracle leaves noise:
            # the floor is 1e-13 of the even K of the same total order
            floor = 1e-13 * abs(complex(oracle_k(a + 1, b - 1, consts))) if a % 2 else 0
            assert k_kernel(a, b, consts) == pytest.approx(
                want, rel=1e-13, abs=0 if rytov else floor), (a, b)

    # far field at large |c4| (c4 = -1316 at Lambda0 = 395, rytov 0.02, where
    # K(20, 20) is 1.2e-30), where the bracket polynomials are evaluated about
    # x = 1; the highorder benchmark draws Lambda0 <= 3.5 only
    @pytest.mark.parametrize("lam0", [10, 50, 200, 395])
    def test_far_field_k_cancellation(self, lam0):
        wavelength, distance = 1.55e-6, 2e4
        w0 = math.sqrt(distance * wavelength / (math.pi * lam0))
        consts = derive_constants(OpticalConfig.from_w0(wavelength, distance, w0),
                                  turbulence_strength(0.02))
        assert consts.cfg.fresnel_ratio == pytest.approx(lam0, rel=1e-14)
        for a, b in ((20, 18), (20, 20), (19, 19), (19, 1), (10, 0), (11, 9)):
            want = complex(oracle_k(a, b, consts))
            assert k_kernel(a, b, consts) == pytest.approx(want, rel=1e-13, abs=0), (a, b)

    def test_oracle_shortcut_is_mpmath_hyp2f1(self):
        # the oracle's Pfaff-transformed 2F1 past z = -1 against mpmath's own,
        # at bracket parameters of row n = 40 at Lambda0 = 395, rytov 0.02
        z = mp.mpf(derive_constants(OpticalConfig.from_w0(1.55e-6, 2e4, 0.005),
                                    turbulence_strength(0.02)).c4)
        assert z < -1000
        for a, b, c in ((1, 41, 1), (11, 31, 1), (21, 23, -1), (21, 21, 1)):
            a, b, c = mp.mpf(a) / 2, mp.mpf(b) / 2, mp.mpf(c) / 2
            want = mp.hyp2f1(a, b, c, z)
            assert abs(_mp_hyp2f1(a, b, c, z) - want) <= mp.mpf(10) ** -40 * abs(want)

    # every bracket row K reads, against the printed bracket, in near field and
    # on each side of the centre switches at c4 = -1/3 (Lambda0 ~ 2.3) and
    # c4 = -3 (Lambda0 ~ 7 to 10): error within 1e-13 of the row's largest
    # bracket (worst 3.1e-14, at Lambda0 = 10, rytov 0.1, c4 = -3.03)
    @pytest.mark.parametrize("lam0", [3e-5, 1e-2, 0.127, 1, 3, 5, 10, 50, 395])
    def test_bracket_rows_against_oracle(self, ref_cfg, lam0):
        w0 = math.sqrt(2 * ref_cfg.distance / (ref_cfg.wavenumber * lam0))
        cfg = OpticalConfig.from_w0(ref_cfg.wavelength, ref_cfg.distance, w0)
        for rytov in (0.0, 0.02, 0.1):
            consts = derive_constants(cfg, turbulence_strength(rytov))
            for n in range(0, 41, 2):
                want = [complex(oracle_bracket(s, n - s, consts)) for s in range(n // 2 + 1)]
                top = max(map(abs, want))
                got = engine._bracket_row(n, consts)[0]
                assert len(got) == len(want)
                for s, (x, y) in enumerate(zip(got, want)):
                    assert abs(x - y) <= 1e-13 * top, (rytov, n, s, abs(x - y) / top)

    # the pairs where the printed odd bracket lost most near field
    @pytest.mark.parametrize("lam0,rytov", [(3e-5, 0.0), (3e-5, 0.02), (1e-6, 0.1)])
    def test_near_field_against_oracle(self, ref_cfg, lam0, rytov):
        w0 = math.sqrt(2 * ref_cfg.distance / (ref_cfg.wavenumber * lam0))
        cfg = OpticalConfig.from_w0(ref_cfg.wavelength, ref_cfg.distance, w0)
        consts = derive_constants(cfg, turbulence_strength(rytov))
        pairs = [(0, 4), (0, 10), (8, 10)] + ([(1, 9)] if rytov else [])
        for a, b in pairs:
            with mp.workdps(40):
                want = complex(oracle_k(a, b, consts))
            assert k_kernel(a, b, consts) == pytest.approx(want, rel=1e-13, abs=0), (a, b)

    def test_odd_bracket_smooth_through_zero_c3(self, turb_consts):
        # Im K is first order in c3 and Re K second order, so at c3 = 0 K is
        # real and equals Re K at a tiny c3
        c1, c2 = turb_consts.c1, turb_consts.c2
        tiny = 1e-12 * (c1 + c2)
        zero = dataclasses.replace(turb_consts, c3=0.0, c4=0.0)
        near = dataclasses.replace(turb_consts, c3=tiny, c4=-tiny ** 2 / (4 * c1 * c2))
        for a, b in ((1, 1), (3, 1)):
            at_zero, at_tiny = k_kernel(a, b, zero), k_kernel(a, b, near)
            assert cmath.isfinite(at_zero) and at_zero.imag == 0.0
            assert at_zero.real == pytest.approx(at_tiny.real, rel=1e-13, abs=0)
            assert abs(at_tiny.imag) <= 1e-11 * abs(at_tiny)


class TestPiFactor:
    def test_symmetric_exactly(self, turb_consts):
        for mu in range(4):
            for nu in range(4):
                assert pi_factor(mu, nu, turb_consts) == pi_factor(nu, mu, turb_consts)

    # (1, 6) spans four per-order F sums g_0..g_6: zero in vacuum, nonzero
    # in turbulence
    @pytest.mark.parametrize("mu,nu", [(0, 0), (1, 1), (2, 0), (2, 1), (3, 3), (1, 6)])
    def test_against_oracle(self, vac_consts, turb_consts, mu, nu):
        for consts in (vac_consts, turb_consts):
            got = pi_factor(mu, nu, consts)
            want, scale = oracle_pi(mu, nu, consts)
            # an entry whose every term vanishes, such as vacuum (1, 6), leaves
            # only 50-digit noise, real or not; any other comes out real
            identically_zero = scale < 1e-40 * pi_factor(0, 0, consts)
            assert abs(want.imag) < 1e-25 * scale or identically_zero
            if abs(want.real) > 1e-20 * scale:
                assert got == pytest.approx(float(want.real), rel=1e-11)
            else:
                # entry cancels to zero; the engine must sit at noise level
                assert abs(got) < 1e-12 * float(scale)

    # far field, Lambda0 = 395 and rytov 0.02 (c4 = -1316): Pi(9, 10) is well
    # conditioned, yet K that lost its digits there put it 1.4e-6 off
    def test_far_field_against_oracle(self):
        consts = derive_constants(OpticalConfig.from_w0(1.55e-6, 2e4, 0.005),
                                  turbulence_strength(0.02))
        mu, nu = 9, 10
        # oracle_pi's sum, grouped by the total orders N - s, N - t K reads
        g = [mp.fsum(terms) for terms in _per_order_f_sums(
            mu, nu, lambda k, l: oracle_f(mu, nu, k, l, consts))]
        form = mp.fsum(ga * mp.conj(gb) * oracle_k(mu + nu - 2 * a, mu + nu - 2 * b, consts)
                       for a, ga in enumerate(g) for b, gb in enumerate(g))
        want = _oracle_pref(mu, nu, consts) * form
        assert abs(want.imag) < 1e-30 * abs(want)
        assert pi_factor(mu, nu, consts) == pytest.approx(float(want.real), rel=1e-13, abs=0)

    def test_max_order_guard(self, vac_consts):
        with pytest.raises(DomainError):
            pi_factor(11, 0, vac_consts)

    def test_nan_pi_is_a_numerical_error(self):
        # at a 1e-25 m link rho ~ 4.8e7, so K(20, 20) is inf + nan j and
        # Pi(10, 10) is NaN; it is refused, named with c1 and c2, and not stored
        cfg = OpticalConfig(0.8e-6, 1e-25, 7.0710678)
        consts = derive_constants(cfg, TurbulenceSpec.from_rytov(1e-3).resolve(cfg).gamma)
        k = k_kernel(20, 20, consts)
        assert math.isinf(k.real) and math.isnan(k.imag)
        assert math.isfinite(pi_factor(9, 10, consts))
        for _ in range(2):
            with pytest.raises(NumericalError,
                               match=r"pi_factor\(10, 10\) .* c1=0\.04, c2=2\.09805e\+29"):
                pi_factor(10, 10, consts)
            assert (10, 10) not in consts.pi
        with pytest.raises(NumericalError, match=r"pi_factor\(10, 10\)"):
            probability_matrix(expand_modes(10), consts)

    def test_infinities_of_both_signs_are_a_numerical_error(self, turb_consts):
        # fsum raises ValueError on -inf + inf
        fresh = dataclasses.replace(turb_consts)
        with mock.patch.object(engine.math, "fsum", side_effect=ValueError("-inf + inf in fsum")):
            with pytest.raises(NumericalError, match=r"pi_factor\(3, 2\)"):
                pi_factor(3, 2, fresh)
        assert not fresh.pi

    @pytest.mark.parametrize("excess,error", [
        (1.9e-12, None), (2.1e-12, r"Pi\(0, 3\) = -\S+ is negative beyond"),
        (math.inf, r"pi_factor\(3, 0\) leaves the float range")])
    def test_sign_gate_floor(self, turb_consts, monkeypatch, fill_k, excess, error):
        # Pi(0, 3) sums to -2 excess of 4 of terms: within 1e-12 of their
        # magnitude it is roundoff and reads 0.0, beyond it a named fault;
        # -inf is not finite, never roundoff
        _craft_pi_03(monkeypatch, fill_k, excess)
        if error is None:
            assert pi_factor(3, 0, turb_consts) == 0.0
        else:
            with pytest.raises(NumericalError, match=error):
                pi_factor(3, 0, turb_consts)
            assert (0, 3) not in turb_consts.pi

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(st.floats(0.6e-6, 1.6e-6), st.floats(1e3, 2e4), st.floats(0.05, 0.2),
           st.floats(0.0, 1.0))
    def test_every_pi_is_finite_and_nonnegative(self, wavelength, distance, w0, rytov):
        # Pi is a mean |overlap|^2: over the documented range no sum is
        # negative past its floor, so no pi_factor raises
        cfg = OpticalConfig.from_w0(wavelength, distance, w0)
        consts = derive_constants(cfg, TurbulenceSpec.from_rytov(rytov).resolve(cfg).gamma)
        for mu in range(DEFAULT_MAX_ORDER + 1):
            for nu in range(mu, DEFAULT_MAX_ORDER + 1):
                value = pi_factor(mu, nu, consts)
                assert math.isfinite(value) and value >= 0.0, (mu, nu)

    def test_vacuum_forbidden_orders_vanish(self, vac_consts, near_field_cfgs):
        # every Pi with odd mu + nu is a sum of vacuum K(odd, odd), each
        # exactly 0, at the reference geometry and in near field alike
        for consts in (vac_consts, *map(derive_constants, near_field_cfgs.values())):
            for mu in range(11):
                for nu in range(1 - mu % 2, 11, 2):
                    assert pi_factor(mu, nu, consts) == 0.0, (mu, nu)


class TestJointProbability:
    def test_golden_vacuum_entries(self, vac_consts):
        anchor = joint_probability(
            ModePair(ModeIndex(0, 0), ModeIndex(0, 0)), vac_consts)
        scale = 0.31307 / anchor
        p0002 = joint_probability(
            ModePair(ModeIndex(0, 0), ModeIndex(0, 2)), vac_consts)
        assert scale * p0002 == pytest.approx(0.03986, abs=5e-4)
        p1111 = joint_probability(
            ModePair(ModeIndex(1, 1), ModeIndex(1, 1)), vac_consts)
        assert scale * p1111 == pytest.approx(0.01892, abs=5e-4)

    def test_golden_turbulence_entry(self, vac_consts, turb_consts):
        anchor = joint_probability(
            ModePair(ModeIndex(0, 0), ModeIndex(0, 0)), vac_consts)
        scale = 0.31307 / anchor
        p0000 = joint_probability(
            ModePair(ModeIndex(0, 0), ModeIndex(0, 0)), turb_consts)
        assert scale * p0000 == pytest.approx(0.2262, abs=5e-4)

    def test_exchange_symmetry(self, turb_consts):
        modes = expand_modes(4)
        for s in modes:
            for i in modes:
                p = joint_probability(ModePair(s, i), turb_consts)
                q = joint_probability(ModePair(i, s), turb_consts)
                assert p == q

    def test_axis_swap_exact(self, turb_consts):
        # P((ms ns),(mi ni)) = P((ns ms),(ni mi)): same two factors swapped
        for s, i in (((0, 1), (2, 1)), ((1, 2), (0, 3)), ((2, 0), (1, 1))):
            p = joint_probability(
                ModePair(ModeIndex(*s), ModeIndex(*i)), turb_consts)
            q = joint_probability(
                ModePair(ModeIndex(s[1], s[0]), ModeIndex(i[1], i[0])), turb_consts)
            assert p == q

    def test_factorization_cross_identity(self, turb_consts):
        pis = {(a, c): pi_factor(a, c, turb_consts)
               for a in range(4) for c in range(4)}
        rng = range(4)
        for a in rng:
            for b in rng:
                for c in rng:
                    for d in rng:
                        lhs = (pis[(a, c)] * pis[(b, d)]) * (pis[(b, c)] * pis[(a, d)])
                        rhs = (pis[(a, c)] * pis[(a, d)]) * (pis[(b, c)] * pis[(b, d)])
                        if lhs or rhs:
                            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestSelectionRules:
    def test_examples(self):
        pump = ModeIndex(0, 0)
        assert not selection_rule_allowed(
            ModePair(ModeIndex(0, 0), ModeIndex(0, 1)), pump)
        assert selection_rule_allowed(
            ModePair(ModeIndex(0, 0), ModeIndex(2, 0)), pump)
        assert selection_rule_allowed(
            ModePair(ModeIndex(1, 1), ModeIndex(1, 1)), pump)

    def test_higher_order_pump(self):
        pump = ModeIndex(1, 0)
        # m_s + m_i must be odd and >= 1; n_s + n_i even
        assert selection_rule_allowed(
            ModePair(ModeIndex(1, 0), ModeIndex(0, 0)), pump)
        assert not selection_rule_allowed(
            ModePair(ModeIndex(0, 0), ModeIndex(0, 0)), pump)

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
    def test_matches_parity_definition(self, ms, ns, mi, ni):
        pair = ModePair(ModeIndex(ms, ns), ModeIndex(mi, ni))
        expected = (ms + mi) % 2 == 0 and (ns + ni) % 2 == 0
        assert selection_rule_allowed(pair) == expected


class TestModeHandling:
    def test_default_ordering_matches_reference_labels(self):
        assert tuple(m.label() for m in DEFAULT_ORDERING) == reference.ORDERING_LABELS

    def test_expand_modes(self):
        assert [m.label() for m in expand_modes(2)] == ["00", "01", "10", "02", "11", "20"]

    def test_parse_round_trip(self):
        for token in ("00", "13", "90"):
            assert parse_mode(token).label() == token
        assert parse_mode("10,4") == ModeIndex(10, 4)

    def test_parse_rejects_garbage(self):
        for bad in ("", "1", "abc", "1,2,3", "a,b"):
            with pytest.raises(DomainError):
                parse_mode(bad)

    def test_negative_orders_rejected(self):
        with pytest.raises(DomainError):
            ModeIndex(-1, 0)

    @pytest.mark.parametrize("call", [
        lambda c: pi_factor(1.0, 0, c), lambda c: pi_factor(0, 1.5, c),
        lambda c: k_kernel(2.0, 0, c), lambda c: ModeIndex(1.5, 0),
        lambda c: ModeIndex(0, "1"), lambda c: expand_modes(2.5),
    ], ids=["pi_factor-1.0", "pi_factor-1.5", "k_kernel-2.0", "ModeIndex-1.5",
            "ModeIndex-str", "expand_modes-2.5"])
    def test_non_integer_orders_rejected(self, vac_consts, call):
        with pytest.raises(DomainError, match="orders must be integers"):
            call(vac_consts)


class TestProbabilityMatrix:
    def test_single_mode_grid(self, vac_consts):
        m = probability_matrix([ModeIndex(0, 0)], vac_consts,
                               normalization=NORMALIZATION_RAW)
        assert m.size == 1
        assert m.values[0][0] == pytest.approx(
            pi_factor(0, 0, vac_consts) ** 2, rel=1e-14)

    def test_calibrated_anchor(self, vac_consts):
        m = probability_matrix(DEFAULT_ORDERING, vac_consts)
        assert m.values[0][0] == pytest.approx(0.31307, rel=1e-12)
        assert m.normalization.calibration_factor > 0
        assert m.normalization.raw_reference_value == pytest.approx(
            pi_factor(0, 0, vac_consts) ** 2, rel=1e-14)

    def test_symmetric_and_nonnegative(self, turb_consts):
        m = probability_matrix(DEFAULT_ORDERING, turb_consts)
        for i in range(m.size):
            for j in range(m.size):
                assert m.values[i][j] == m.values[j][i]
                assert m.values[i][j] >= 0.0

    def test_turbulence_all_positive(self, turb_consts):
        m = probability_matrix(DEFAULT_ORDERING, turb_consts)
        assert min(min(row) for row in m.values) > 0.0

    def test_empty_modes_rejected(self, vac_consts):
        with pytest.raises(DomainError):
            probability_matrix([], vac_consts)

    def test_calibration_error_on_zero_reference(self, vac_consts, monkeypatch):
        # an anchor that evaluates to zero cannot normalize the matrix
        monkeypatch.setattr(engine, "joint_probability", lambda pair, consts: 0.0)
        with pytest.raises(CalibrationError):
            probability_matrix(DEFAULT_ORDERING, vac_consts)

    def test_failure_names_entry(self, ref_cfg, turb_consts, negate_k):
        # with odd K negated, Pi(0, 1) is the first Pi the grid reads that
        # is negative; the error names it, its floor, gamma and Lambda0
        negate_k(lambda p, consts: p and consts.gamma > 0)
        ok = re.escape(f"at gamma={turb_consts.gamma:.6g}, Lambda0={ref_cfg.fresnel_ratio:.6g}")
        with pytest.raises(NumericalError, match=r"Pi\(0, 1\) = -\S+ is negative beyond "
                                                 r"the floor \S+ " + ok):
            probability_matrix(DEFAULT_ORDERING, turb_consts)

    @pytest.mark.parametrize("scale", [1.0, 1e-7])
    def test_roundoff_negative_pi_reads_zero(self, turb_consts, monkeypatch, fill_k, scale):
        # a Pi(0, 3) sum of -2e-13 scale against 4 scale of terms is roundoff
        # at any scale: it reads 0, and so do the entries that read it
        modes = [ModeIndex(0, 0), ModeIndex(0, 3)]
        before = probability_matrix(modes, turb_consts).values
        assert pi_factor(0, 3, turb_consts) > 0.0
        _craft_pi_03(monkeypatch, fill_k, 1e-13, scale)
        assert pi_factor(0, 3, turb_consts) == 0.0
        m = probability_matrix(modes, turb_consts)
        assert m.values[0][1] == m.values[1][0] == 0.0
        assert m.values[0][0] == before[0][0] and m.values[1][1] == before[1][1]

    def test_turbulence_gamma_must_match_consts(self, ref_cfg, turb_consts):
        # metadata resolved for vacuum must not label a turbulent matrix
        vacuum = TurbulenceSpec.vacuum().resolve(ref_cfg)
        with pytest.raises(DomainError):
            probability_matrix(DEFAULT_ORDERING, turb_consts, turbulence=vacuum)

    def test_value_lookup(self, vac_consts):
        m = probability_matrix(DEFAULT_ORDERING, vac_consts)
        assert m.value(ModeIndex(0, 0), ModeIndex(0, 2)) == m.values[0][3]

    @settings(deadline=None)
    @given(st.lists(st.builds(ModeIndex, st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=8, unique=True),
           st.booleans())
    def test_table_assembly(self, vac_consts, turb_consts, modes, turbulent):
        # each raw entry is the per-pair product bitwise, and the table asks
        # pi_factor once for each sorted (mu, nu) the entries and the (00,00)
        # anchor read: pairs of m orders and pairs of n orders, never mixed
        consts = turb_consts if turbulent else vac_consts
        with mock.patch.object(engine, "pi_factor", wraps=engine.pi_factor) as spy:
            m = probability_matrix(modes, consts, normalization=NORMALIZATION_RAW)
        calls = sorted((min(c.args[:2]), max(c.args[:2])) for c in spy.call_args_list)
        want = {(0, 0)}
        for s in modes:
            for i in modes:
                want |= {(min(s.m, i.m), max(s.m, i.m)), (min(s.n, i.n), max(s.n, i.n))}
        assert calls == sorted(want)
        for s, row in zip(modes, m.values):
            for i, v in zip(modes, row):
                assert v == joint_probability(ModePair(s, i), consts)

    def test_memoization_distinct_pi_count(self, ref_cfg):
        # a 10-mode matrix costs O(N) distinct pi evaluations, not O(N^2):
        # orders 0..3 per axis make 10 sorted (mu, nu) combinations
        consts = derive_constants(ref_cfg, turbulence_strength(0.0171))
        engine._clear_tables()
        probability_matrix(DEFAULT_ORDERING, consts,
                           normalization=NORMALIZATION_RAW)
        assert table_info().pi.misses == 10

    def test_concurrent_fills_are_consistent(self, ref_cfg):
        # idempotent cache writes: hammering the same evaluations from
        # several threads must agree bitwise with the serial answer
        import threading
        from concurrent.futures import ThreadPoolExecutor

        consts = derive_constants(ref_cfg, turbulence_strength(0.0137))
        engine._clear_tables()

        def table(_):
            return tuple(pi_factor(mu, nu, consts)
                         for mu in range(4) for nu in range(4))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(table, range(16), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(r == results[0] for r in results)
        # one set, holding the 10 sorted (mu, nu) once each
        assert len(consts.pi) == 10
        engine._clear_tables()
        serial = tuple(pi_factor(mu, nu, consts)
                       for mu in range(4) for nu in range(4))
        assert serial == results[0]

        # 8 threads fill one fresh set's 66 Pi, each in its own order, while
        # a ninth reads the triangles: each parity's length is always a
        # whole number of rows, and the values are bitwise the serial ones
        keys = [(mu, nu) for mu in range(11) for nu in range(mu, 11)]
        base = derive_constants(ref_cfg, turbulence_strength(0.0421))
        engine._clear_tables()
        fresh = dataclasses.replace(base)
        rows = {r * (r + 1) // 2 for r in range(12)}
        seen, done = set(), threading.Event()

        def watch():
            while not done.is_set():
                seen.add(tuple(map(len, fresh.k)))

        def fill(seed):
            order = list(keys)
            random.Random(seed).shuffle(order)
            for mu, nu in order:
                pi_factor(mu, nu, fresh)
            return {key: pi_factor(*key, fresh) for key in keys}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(fill, range(8), timeout=120))
        finally:
            done.set()
            watcher.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not watcher.is_alive()
        seen.add(tuple(map(len, fresh.k)))
        assert all(even in rows and odd in rows for even, odd in seen), seen
        serial = dataclasses.replace(base)
        want = {key: pi_factor(*key, serial).hex() for key in keys}
        assert all({k: v.hex() for k, v in r.items()} == want for r in results)
        # a fill that raced a longer one may have published fewer rows, never
        # other values
        for tri, full in zip(fresh.k, serial.k):
            assert [z.real.hex() + z.imag.hex() for z in tri] == \
                [z.real.hex() + z.imag.hex() for z in full[:len(tri)]]


def _bits(values):
    """Entries as hex strings: equal bitwise, NaN and the sign of zero included."""
    return [[float(v).hex() for v in row] for row in values]


def _craft_pi_03(monkeypatch, fill_k, excess, scale=1.0):
    """Make Pi(0, 3) of every set filled from now on pref * scale * (2 + 2 x),
    x = -1 - excess, below the sign gate: F sums (1, 1) and odd K rows 0..1
    (1, x, 1) times scale, so its terms are scale, scale and x scale twice,
    about 4 scale in magnitude, and the floor about 4e-12 scale pref."""
    f_sums = engine._f_sums
    monkeypatch.setattr(engine, "_f_sums", lambda mu, nu, zeta, w:
                        (1.0, 1.0) if (mu, nu) == (0, 3) else f_sums(mu, nu, zeta, w))
    crafted = {0: scale, 1: (-1.0 - excess) * scale, 2: scale}
    fill_k(lambda values, cells, p, consts:
           [crafted.get(f, v) if p else v for v, (_, _, f) in zip(values, cells)])


def _fsum(terms):
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def _clear_engine_caches():
    engine._clear_tables()
    for cache in (engine._f_sums, engine._f_coefficients, engine._gamma_half,
                  engine._bracket_coefficients, engine._kappas):
        cache.cache_clear()


def _per_order_f_sums(mu, nu, f):
    """The per-order sums g_s = sum_k f(k, s - k), s = 0, 2, ..., mu + nu."""
    return [[f(k, s - k) for k in range(max(0, s - nu), min(mu, s) + 1)]
            for s in range(0, mu + nu + 1, 2)]


class TestKernelTables:
    # a raw matrix over orders <= M reads the 2 M + 1 bracket rows of every
    # even total order n <= 4 M; row n holds n/2 + 1 brackets, each a
    # polynomial with geometry-free coefficients, so no 2F1 series runs
    @pytest.mark.parametrize("max_sum", [10, 3])
    def test_each_kernel_value_once(self, ref_cfg, max_sum):
        modes = expand_modes(max_sum)
        _clear_engine_caches()
        with mock.patch.object(engine, "_hyp2f1_terminating",
                               wraps=engine._hyp2f1_terminating) as terminating, \
                mock.patch.object(engine, "_gamma_half", wraps=engine._gamma_half) as gamma:
            probability_matrix(modes, derive_constants(ref_cfg, turbulence_strength(0.05)),
                               normalization=NORMALIZATION_RAW)
            # the F sums are polynomials with precomputed coefficients
            assert terminating.call_count == 0
            # Pi reads one triangle of K: K(p, q), q <= p <= 2 M, p + q even
            top = 2 * max_sum
            assert k_kernel.cache_info().misses == sum(
                1 for p in range(top + 1) for q in range(p + 1) if (p - q) % 2 == 0)
            assert engine._bracket_coefficients.cache_info().currsize == 2 * max_sum + 1
            # F reads only the geometry: a second Rytov value reuses its sums
            f_misses = engine._f_sums.cache_info().misses
            probability_matrix(modes, derive_constants(ref_cfg, turbulence_strength(0.06)),
                               normalization=NORMALIZATION_RAW)
            assert engine._f_sums.cache_info().misses == f_misses
            # with the geometry-free tables warm, a fresh geometry, here one
            # in far field (c4 < -1), computes no Gamma value, no 2F1 and no
            # coefficient row
            gamma.reset_mock()
            tables = (engine._bracket_coefficients, engine._kappas, engine._f_coefficients)
            built = [cache.cache_info().misses for cache in tables]
            consts = derive_constants(OpticalConfig.from_w0(1.55e-6, 2e4, 0.005),
                                      turbulence_strength(0.05))
            assert consts.c4 < -1
            probability_matrix(modes, consts, normalization=NORMALIZATION_RAW)
            assert (gamma.call_count, terminating.call_count) == (0, 0)
            assert [cache.cache_info().misses for cache in tables] == built

    def test_k_kernel_equals_per_term_brackets(self, ref_cfg, near_field_cfgs):
        def per_term(a, b, c):
            # each K term reads its bracket from the row; kappa_s from its
            # binomial sum and the weight from rho, term by term
            n = a + b
            if n % 2:
                return 0.0 + 0.0j
            rho = (c.c2 / c.c1) ** 0.25
            sign = (-1) ** b
            terms = []
            for s in range(n // 2 + 1):
                t = n - s
                kappa = sum(math.comb(a, p) * math.comb(b, s - p) * (-1) ** (b - s + p)
                            for p in range(max(0, s - b), min(a, s) + 1))
                weight = kappa * (rho ** (s - t) + sign * rho ** (t - s) if s < t else 1.0)
                if weight:
                    terms.append(weight * engine._bracket_row(n, c)[0][s])
            return 0.25 * 0.5 ** (n / 2) / c.c1 * (c.c1 * c.c2) ** (-n / 4) * _fsum(terms)

        cfgs = [ref_cfg, *near_field_cfgs.values()]
        _clear_engine_caches()
        for consts in [derive_constants(cfg, gamma) for cfg in cfgs
                       for gamma in (0.0, turbulence_strength(0.02))]:
            for a in range(21):
                for b in range(21):
                    assert k_kernel(a, b, consts) == per_term(a, b, consts), (a, b)

    def test_k_kernel_conjugate_symmetric(self, ref_cfg, near_field_cfgs):
        # Pi reads one triangle of K and takes the other as its conjugate
        cfgs = [ref_cfg, *near_field_cfgs.values()]
        for consts in [derive_constants(cfg, gamma) for cfg in cfgs
                       for gamma in (0.0, turbulence_strength(0.02))]:
            for a in range(21):
                for b in range(a):
                    assert k_kernel(b, a, consts) == k_kernel(a, b, consts).conjugate(), (a, b)

    def test_pi_factor_equals_full_double_sum(self, vac_consts, turb_consts, near_field_cfgs):
        # the triangle form, summed in reals, is bitwise the real part of the
        # full complex double sum over s and t: at the reference geometry, in
        # near field (Lambda0 = 3e-5) and far field (Lambda0 ~ 395), in vacuum
        # and at rytov 0.02 and 0.1
        _clear_engine_caches()
        cfgs = (near_field_cfgs[3e-5], OpticalConfig.from_w0(1.55e-6, 2e4, 0.005))
        for consts in (vac_consts, turb_consts, *[
                derive_constants(cfg, turbulence_strength(rytov))
                for cfg in cfgs for rytov in (0.0, 0.02, 0.1)]):
            for mu in range(11):
                for nu in range(mu, 11):
                    n = mu + nu
                    g = engine._f_sums(mu, nu, consts.zeta, consts.w)
                    form = _fsum([gs * gt.conjugate() * k_kernel(n - 2 * a, n - 2 * b, consts)
                                  for a, gs in enumerate(g) for b, gt in enumerate(g)])
                    pref = 1.0 / (
                        consts.cfg.wavelength ** 2 * consts.cfg.distance ** 2
                        * math.sqrt(math.pi * consts.b1)
                        * math.factorial(mu) * math.factorial(nu) * 2 ** (mu + nu))
                    want = (pref * form).real
                    if -1e-12 <= want < 0.0:
                        want = 0.0
                    assert pi_factor(mu, nu, consts) == want, (mu, nu)

    def test_stored_k_equals_per_entry_sum(self, ref_cfg, near_field_cfgs):
        # cell i (i + 1) / 2 + j of the parity-p triangle is K(2 i + p, 2 j + p),
        # bitwise the per-entry sum: kappa times the weight row times the
        # bracket row, fsum of the real and imaginary parts, then the prefactor
        def per_entry(a, b, c):
            n = a + b
            h, even, odd = engine._bracket_row(n, c)[:3]
            weights = [kappa * w for kappa, w in zip(engine._kappas(a, b), odd if b % 2 else even)]
            terms = [w * x for w, x in zip(weights, h) if w]
            return 0.25 * 0.5 ** (n / 2) / c.c1 * (c.c1 * c.c2) ** (-n / 4) * _fsum(terms)

        def bits(z):
            return z.real.hex(), z.imag.hex()

        _clear_engine_caches()
        cfgs = [ref_cfg, *near_field_cfgs.values(), OpticalConfig.from_w0(1.55e-6, 2e4, 0.005)]
        for consts in [derive_constants(cfg, turbulence_strength(rytov))
                       for cfg in cfgs for rytov in (0.0, 0.02, 0.1)]:
            for mu in range(11):
                for nu in range(mu, 11):
                    pi_factor(mu, nu, consts)
            for p, rows in ((0, 11), (1, 10)):
                want = [bits(per_entry(2 * i + p, 2 * j + p, consts))
                        for i in range(rows) for j in range(i + 1)]
                assert list(map(bits, consts.k[p])) == want, (consts.c4, p)

    @pytest.mark.parametrize("rytov", [0.0, 0.03])
    def test_fill_order_does_not_change_the_bits(self, ref_cfg, rytov):
        # the triangles grow by whole rows in whatever order the Pi are
        # asked for, and every order gives the same entries and matrix bits
        keys = [(mu, nu) for mu in range(11) for nu in range(mu, 11)]
        shuffled = list(keys)
        random.Random(15).shuffle(shuffled)
        _clear_engine_caches()
        base = derive_constants(ref_cfg, turbulence_strength(rytov))
        filled = []
        for order in (keys, keys[::-1], shuffled):
            consts = dataclasses.replace(base)
            for mu, nu in order:
                pi_factor(mu, nu, consts)
            filled.append(consts)
        first = filled[0]
        for consts in filled[1:]:
            assert [[(z.real.hex(), z.imag.hex()) for z in t] for t in consts.k] == \
                [[(z.real.hex(), z.imag.hex()) for z in t] for t in first.k]
            assert {k: v.hex() for k, v in consts.pi.items()} == \
                {k: v.hex() for k, v in first.pi.items()}
        modes = expand_modes(10)
        assert all(_bits(probability_matrix(modes, c).values) ==
                   _bits(probability_matrix(modes, first).values) for c in filled[1:])

    def test_f_sums_match_per_term_f_kernel(self, vac_consts, turb_consts):
        for consts in (vac_consts, turb_consts):
            for mu in range(11):
                for nu in range(mu, 11):
                    want = [_fsum(terms) for terms in _per_order_f_sums(
                        mu, nu, lambda k, l: f_kernel(mu, nu, k, l, consts))]
                    got = engine._f_sums(mu, nu, consts.zeta, consts.w)
                    top = max(map(abs, want))
                    assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-14 * top, (mu, nu)

    def test_f_coefficients_exact(self):
        # row s holds Q_s(y) = P_s((1 + y)/2), P_s(x) the exact expansion of
        # sum_k C(mu, k) C(nu, l) sigma(k, l) 2F1(-k, -l; (1-s)/2; x), l = s - k
        def hyp_coefficients(k, l, c):
            out, term = [], Fraction(1)
            for n in range(min(k, l) + 1):
                out.append(term)
                term = term * (n - k) * (n - l) / ((c + n) * (n + 1))
            return out

        for mu in range(11):
            for nu in range(mu, 11):
                rows = engine._f_coefficients(mu, nu)
                assert len(rows) == (mu + nu) // 2 + 1
                for (gamma, coeffs), s in zip(rows, range(0, mu + nu + 1, 2)):
                    assert gamma == _gamma_recursion(s + 1)
                    p = [Fraction(0)] * len(coeffs)
                    for k in range(max(0, s - nu), min(mu, s) + 1):
                        w = math.comb(mu, k) * math.comb(nu, s - k) * sigma(k, s - k)
                        for n, h in enumerate(hyp_coefficients(k, s - k, Fraction(1 - s, 2))):
                            p[n] += w * h
                    q = [sum(math.comb(n, j) * p[n] / 2 ** n for n in range(j, len(p)))
                         for j in range(len(p))]
                    assert coeffs == tuple(map(float, q)), (mu, nu, s)

    def test_bracket_coefficients_exact(self):
        # row n, entry s: the front 4 Gamma Gamma (negated for odd s), b and
        # 2F1(-m, b; c; x) re-centred at 0, 1/2 and 1, each coefficient the
        # correctly rounded exact one; for odd s, the combination of the two
        # Pfaff-transformed 2F1 of the contiguous relation is that polynomial
        def hyp(m, b, c):
            out, term = [], Fraction(1)
            for j in range(m + 1):
                out.append(term)
                term = term * (b + j) * (j - m) / ((c + j) * (j + 1))
            return out

        half = Fraction(1, 2)
        for n in range(0, 41, 2):
            rows = engine._bracket_coefficients(n)
            assert len(rows) == n // 2 + 1
            for s, (front, b, *centred) in enumerate(rows):
                t = n - s
                assert b == (1 + t + s % 2) / 2
                if s % 2 == 0:
                    p = hyp(s // 2, (1 + t) * half, half)
                    g = _gamma_recursion(1 + s), _gamma_recursion(1 + t)
                    assert front == 4 * g[0] * g[1]
                else:
                    p = hyp(s // 2, (2 + t) * half, 3 * half)
                    g = _gamma_recursion(2 + s), _gamma_recursion(2 + t)
                    assert front == -4 * g[0] * g[1]
                    lo = hyp((1 + s) // 2, (2 + t) * half, half)
                    hi = hyp((1 + s) // 2, (4 + t) * half, 3 * half)
                    assert [(3 + s + t) * x - (2 + s) * (2 + t) * y for x, y in zip(lo, hi)] == \
                        [-(1 + s) * (1 + t) * x for x in p] + [0]
                for x0, coeffs in zip((0, half, 1), centred):
                    q = [sum(math.comb(j, k) * x0 ** (j - k) * p[j] for j in range(k, len(p)))
                         for k in range(len(p))]
                    assert coeffs == tuple(map(float, reversed(q))), (n, s, x0)

    def test_f_sums_against_oracle(self, ref_cfg, near_field_cfgs):
        # relative to the row maximum, at the reference geometry, in near field
        # and in far field (Fresnel ratio ~395)
        cfgs = [ref_cfg, *near_field_cfgs.values(), OpticalConfig.from_w0(1.55e-6, 2e4, 0.005)]
        for consts in map(derive_constants, cfgs):
            for mu in range(11):
                for nu in range(mu, 11):
                    want = [mp.fsum(terms) for terms in _per_order_f_sums(
                        mu, nu, lambda k, l: oracle_f(mu, nu, k, l, consts))]
                    got = engine._f_sums(mu, nu, consts.zeta, consts.w)
                    top = max(map(abs, want))
                    err = max(abs(x - y) for x, y in zip(got, want)) / top
                    assert err <= 2e-15, (consts.cfg.fresnel_ratio, mu, nu, float(err))

    def test_tables_stay_bounded(self, ref_cfg):
        # 500 sweep points read 7 bracket rows each; more than 16 geometries
        # of 66 F-sum rows each overflow the F-sum table
        pairs = [ModePair(ModeIndex(k, k), ModeIndex(k, k)) for k in range(4)]
        _clear_engine_caches()
        rytov_sweep(ref_cfg, [0.1 * k / 499 for k in range(500)], pairs)
        # at most 16 sets are alive, each with at most its 21 bracket rows
        live = list(engine._live.values())
        assert len(live) <= 16
        assert all(len(c.brackets) <= 21 for c in live)
        del live
        for k in range(20):
            cfg = OpticalConfig.from_w0(ref_cfg.wavelength, ref_cfg.distance, 0.1 + 0.005 * k)
            probability_matrix(expand_modes(10), derive_constants(cfg),
                               normalization=NORMALIZATION_RAW)
        assert all(len(c.brackets) <= 21 for c in engine._live.values())
        for cache in (engine._f_sums,):
            info = cache.cache_info()
            assert info.maxsize is not None
            assert info.misses > info.maxsize >= info.currsize
        # the geometry-free tables hold every row the orders read, each built once
        for cache, rows in ((engine._f_coefficients, 66), (engine._gamma_half, 21),
                            (engine._bracket_coefficients, 21), (engine._kappas, 121)):
            assert cache.cache_info()[1:] == (rows, rows, rows)


    def test_public_k_kernel_calls_stay_in_the_triangle(self, ref_cfg):
        # K(a < b) reads the stored K(b, a), odd a + b stores nothing and an
        # order above 2 * DEFAULT_MAX_ORDER is computed without being stored
        _clear_engine_caches()
        sets = [derive_constants(ref_cfg, turbulence_strength(0.005 * k)) for k in range(18)]
        for consts in sets[:2]:
            for a in range(41):
                for b in range(41):
                    got = k_kernel(a, b, consts)
                    if (a + b) % 2:
                        assert got == 0
                    elif max(a, b) > 20:
                        assert got == engine._k_values([(a // 2, b // 2, None)], a % 2,
                                                       consts, {})[0]
            for mu in range(11):
                for nu in range(11):
                    pi_factor(mu, nu, consts)
            # the even triangle holds K(0..20, 0..20), the odd K(1..19, 1..19)
            assert [len(t) for t in consts.k] == [66, 55] and len(consts.pi) == 66
            # the bracket rows of every even total order K reads, no more
            assert sorted(consts.brackets) == list(range(0, 41, 2))
        first = sets[0].pi[10, 10]
        for consts in sets[2:]:
            k_kernel(3, 5, consts)
            pi_factor(10, 10, consts)
        info = table_info()
        assert info.sets.maxsize == 16 and info.sets.currsize == 16
        assert len(engine._live) <= 16
        assert all(sum(map(len, t.k)) <= 121 and len(t.pi) <= 66 for t in engine._live.values())
        assert info.k.currsize <= info.k.maxsize == 16 * 121
        assert info.pi.currsize <= info.pi.maxsize == 16 * 66
        # the sets held here are the tables' owners: the two that filled
        # first were emptied when the 17th and 18th filled
        assert all((c.k, c.pi, c.brackets) == ([(), ()], {}, {}) for c in sets[:2])
        assert sum(len(t) for c in sets for t in c.k) == info.k.currsize
        assert sum(len(c.pi) for c in sets) == info.pi.currsize
        # an emptied set fills again, and empties the set that filled next
        assert pi_factor(10, 10, sets[0]) == first
        assert sets[0].pi and not sets[2].pi and len(engine._live) == 16

    @pytest.mark.parametrize("make", [
        dataclasses.replace, copy.copy, copy.deepcopy,
        lambda c: pickle.loads(pickle.dumps(c))], ids=["replace", "copy", "deepcopy", "pickle"])
    def test_fresh_copy_starts_empty_and_agrees(self, turb_consts, make):
        # a copy starts with empty tables, whose values are bitwise those of
        # the derived set, and so is its matrix
        for mu in range(11):
            for nu in range(mu, 11):
                pi_factor(mu, nu, turb_consts)
        fresh = make(turb_consts)
        assert fresh is not turb_consts and fresh == turb_consts
        assert (fresh.k, fresh.pi, fresh.brackets) == ([(), ()], {}, {})
        assert all(pi_factor(mu, nu, fresh) == turb_consts.pi[mu, nu]
                   for mu, nu in turb_consts.pi)
        # it owns tables of its own, which cache_clear empties too
        assert fresh.pi is not turb_consts.pi and id(fresh) in engine._live
        k_kernel.cache_clear()
        assert (fresh.k, fresh.pi, fresh.brackets) == ([(), ()], {}, {})
        modes = expand_modes(10)
        assert _bits(probability_matrix(modes, dataclasses.replace(turb_consts)).values) == \
            _bits(probability_matrix(modes, turb_consts).values)

    def test_cache_clear_empties_sets_a_caller_holds(self, ref_cfg):
        held = derive_constants(ref_cfg, turbulence_strength(0.031))
        fresh = dataclasses.replace(held)
        for consts in (held, fresh):
            pi_factor(2, 3, consts)
            k_kernel(4, 2, consts)
        k_kernel.cache_clear()
        assert derive_constants(ref_cfg, turbulence_strength(0.031)) is not held
        for consts in (held, fresh):
            assert (consts.k, consts.pi, consts.brackets) == ([(), ()], {}, {})
            pi_factor(2, 3, consts)
            k_kernel(4, 2, consts)
        info = table_info()
        assert (info.pi.hits, info.pi.misses) == (0, 2)
        # Pi(2, 3) fills the six K of odd rows 0..2, and K(4, 2) the six of
        # even rows 0..2, its own row included
        assert (info.k.hits, info.k.misses) == (0, 2 * 12)
        assert info.k.currsize == 2 * 12 and info.pi.currsize == 2

    def test_k_kernel_cache_info_counts_the_tables(self, vac_consts):
        _clear_engine_caches()
        assert k_kernel.cache_info() == (0, 0, 16 * 121, 0)
        # a miss fills whole rows: K(2, 0) fills K(0, 0), K(2, 0) and K(2, 2)
        k_kernel(2, 0, vac_consts)
        assert k_kernel.cache_info() == (0, 3, 16 * 121, 3)
        # K(0, 2) is the conjugate of a stored entry; odd a + b reads nothing
        k_kernel(0, 2, vac_consts)
        k_kernel(1, 2, vac_consts)
        assert k_kernel.cache_info() == (1, 3, 16 * 121, 3)
        # Pi(1, 3) reads even rows 0..2: three stored entries and three new
        pi_factor(1, 3, vac_consts)
        assert k_kernel.cache_info() == (4, 6, 16 * 121, 6)
        assert table_info().pi == (0, 1, 16 * 66, 1)
        k_kernel.cache_clear()
        assert k_kernel.cache_info() == (0, 0, 16 * 121, 0)
        assert table_info().sets.currsize == 0


class TestChannelPath:
    def test_build_matrix_matches_long_form(self, ref_cfg):
        spec = TurbulenceSpec.from_rytov(reference.REFERENCE_RYTOV)
        turb = spec.resolve(ref_cfg)
        long_form = probability_matrix(
            DEFAULT_ORDERING, derive_constants(ref_cfg, turb.gamma), turbulence=turb)
        m = build_matrix(ref_cfg, spec)
        assert m.values == long_form.values
        assert m.normalization == long_form.normalization
        assert m.turbulence == turb

    def test_sweep_matches_matrix_entries(self, ref_cfg):
        # a calibrated sweep point is the matching entry of the calibrated
        # matrix at that rytov: both share one calibration factor
        pairs = [ModePair(ModeIndex(0, 0), ModeIndex(0, 0)),
                 ModePair(ModeIndex(0, 0), ModeIndex(0, 2)),
                 ModePair(ModeIndex(1, 2), ModeIndex(2, 1))]
        grid = [0.0, 0.02, 0.07]
        series = rytov_sweep(ref_cfg, grid, pairs)
        for k, s2 in enumerate(grid):
            m = build_matrix(ref_cfg, TurbulenceSpec.from_rytov(s2))
            for pair, values in zip(pairs, series):
                assert values[k] == m.value(pair.signal, pair.idler)

    def test_raw_sweep_is_unscaled(self, ref_cfg, turb_consts):
        pair = ModePair(ModeIndex(0, 0), ModeIndex(0, 1))
        (series,) = rytov_sweep(ref_cfg, [reference.REFERENCE_RYTOV], [pair],
                                normalization=NORMALIZATION_RAW)
        assert series == [joint_probability(pair, turb_consts)]

    def test_sweep_caches_stay_bounded(self, ref_cfg):
        # 500 points of four pairs read more kernels than either cache holds
        pairs = [ModePair(ModeIndex(k, k), ModeIndex(k, k)) for k in range(4)]
        engine._clear_tables()
        rytov_sweep(ref_cfg, [0.1 * k / 499 for k in range(500)], pairs)
        for info in (table_info().k, table_info().pi):
            assert info.maxsize is not None
            assert info.misses > info.maxsize >= info.currsize

    def test_sweep_keeps_at_most_16_sets_alive(self, ref_cfg, monkeypatch):
        # each point's set is derived inside the loop, so at its last point
        # a 500-point sweep holds no more sets than derive_constants keeps
        def alive():
            gc.collect()
            return [o for o in gc.get_objects() if isinstance(o, DerivedConstants)]

        pairs = [ModePair(ModeIndex(k, k), ModeIndex(k, k)) for k in range(4)]
        engine._clear_tables()
        before = alive()  # held, so no new set can reuse their ids
        old = set(map(id, before))
        last, counts, joint = turbulence_strength(0.1), [], engine.joint_probability

        def count_at_last_point(pair, consts):
            if consts.gamma == last and pair == pairs[-1]:
                counts.append(sum(id(o) not in old for o in alive()))
            return joint(pair, consts)

        monkeypatch.setattr(engine, "joint_probability", count_at_last_point)
        rytov_sweep(ref_cfg, [0.1 * k / 499 for k in range(500)], pairs)
        assert len(counts) == 1 and 0 < counts[0] <= 16

    def test_sweep_fills_each_pi_once_per_point(self, ref_cfg):
        # point by point: one table set per grid point, which the vacuum
        # calibration anchor shares with the rytov-0 point, and four Pi each
        pairs = [ModePair(ModeIndex(k, k), ModeIndex(k, k)) for k in range(4)]
        engine._clear_tables()
        rytov_sweep(ref_cfg, [0.1 * k / 499 for k in range(500)], pairs)
        info = table_info()
        assert info.sets.misses == 500
        assert info.pi.misses == 4 * 500

    def test_sweep_clamps_like_a_matrix(self, ref_cfg, monkeypatch, fill_k):
        # a Pi within the floor of its terms reads as 0 at every point; one
        # beyond it is a numerical failure
        pair = ModePair(ModeIndex(0, 0), ModeIndex(0, 3))

        def sweep(excess):
            _craft_pi_03(monkeypatch, fill_k, excess)
            return rytov_sweep(ref_cfg, [0.0, 0.01], [pair], normalization=NORMALIZATION_RAW)

        assert sweep(1e-13) == [[0.0, 0.0]]
        with pytest.raises(NumericalError, match=r"Pi\(0, 3\)"):
            sweep(1e-11)

    def test_sweep_failure_names_pair_and_rytov(self, ref_cfg, negate_k):
        # with odd K negated at rytov 0.01, the sweep stops at the first Pi
        # of a pair there that is negative, named with the pair, the Rytov
        # value and that point's gamma
        bad = ModePair(ModeIndex(9, 0), ModeIndex(10, 0))
        negate_k(lambda p, consts: p and consts.gamma > 0)
        pairs = [ModePair(ModeIndex(0, 0), ModeIndex(0, 0)), bad]
        gamma = re.escape(f"gamma={turbulence_strength(0.01):.6g}, ")
        with pytest.raises(NumericalError, match=r"^P\(90,10,0\) at rytov 0\.01: "
                                                 r"Pi\(9, 10\) = -\S+ .* " + gamma):
            rytov_sweep(ref_cfg, [0.0, 0.01], pairs)

    @pytest.mark.parametrize("grid,normalization", [
        ([], "calibrated"), ([-0.01, 0.0], "calibrated"),
        ([0.02, 0.01], "calibrated"), ([0.0], "unit"),
    ])
    def test_sweep_rejects_bad_input(self, ref_cfg, grid, normalization):
        pair = ModePair(ModeIndex(0, 0), ModeIndex(0, 0))
        with pytest.raises(DomainError):
            rytov_sweep(ref_cfg, grid, [pair], normalization=normalization)
