"""Overlap engine: kernels against independent high-precision oracles,
symmetries, selection rules, matrix assembly and golden regression."""

import cmath
import copy
import functools
import gc
import math
import pickle
import random
import re
import sys
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgspdc import channel, engine, perterm, reference, serialization
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
    joint_probability,
    parse_mode,
    pi_factor,
    probability_matrix,
    rytov_sweep,
    selection_rule_allowed,
    table_info,
)
from hgspdc.errors import CalibrationError, DomainError, NumericalError
from hgspdc.perterm import KernelConstants, f_kernel, k_kernel, sigma

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# independent oracles: the printed kernel products re-evaluated with mpmath,
# sharing no code with the engine
# ---------------------------------------------------------------------------

def _dims(consts):
    """The dimensioned constants the kernels read: those of a constant set,
    or a KernelConstants record itself."""
    return consts if isinstance(consts, KernelConstants) else perterm.constants(*consts)


def _k_with(a, b, consts, dims):
    """k_kernel(a, b, consts) reading the constants dims in place of the
    set's own."""
    with mock.patch.object(perterm, "constants", lambda *key: dims):
        return k_kernel(a, b, consts)


def oracle_f(mu, nu, k, l, consts):
    dims = _dims(consts)
    zeta = mp.mpc(dims.zeta)
    val = mp.binomial(mu, k) * mp.binomial(nu, l) * mp.mpf(2) ** (mu + nu)
    val *= mp.mpc(0, 1) ** (k + l) * ((-1) ** k + (-1) ** l)
    val *= mp.gamma(mp.mpf(k + l + 1) / 2)
    val *= (mp.sqrt(2) / mp.mpf(dims.w)) ** (mu + nu - k - l)
    val *= mp.sqrt(1 - zeta) * mp.sqrt(zeta) ** (k + l)
    val *= mp.hyp2f1(-k, -l, mp.mpf(1 - k - l) / 2, 1 / (2 * zeta))
    return val


def _mp_hyp2f1(a, b, c, z):
    """mp.hyp2f1 for the brackets' z = c4 <= 0. Past z = -1 mpmath continues
    through 1/z, ~0.1 s a call when a - b is an integer, so there Pfaff's
    transformation on a (DLMF 15.8.1) maps z into [1/2, 1), where c - b is a
    nonpositive integer and the series terminates."""
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


def oracle_c4(consts):
    """The brackets' argument c4 = -c3^2 / (4 c1 c2) at the working precision."""
    dims = _dims(consts)
    c1, c2, c3 = map(mp.mpf, (dims.c1, dims.c2, dims.c3))
    return -c3 ** 2 / (4 * c1 * c2)


def oracle_bracket(s, t, consts):
    """The printed K bracket h(s, t) at the working precision; each value is
    computed once per constant set and precision."""
    dims = _dims(consts)
    return _oracle_bracket(min(s, t), max(s, t), dims.c1, dims.c2, dims.c3,
                           oracle_c4(consts), mp.mp.prec)


def oracle_k(a, b, consts):
    c1, c2 = mp.mpf(_dims(consts).c1), mp.mpf(_dims(consts).c2)
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


def _per_order_pi(mu, nu, consts):
    """oracle_pi's sum, grouped by the total orders N - s, N - t that K
    reads: (mu + nu) / 2 + 1 per-order F sums and their K, not 4 nested loops."""
    g = [mp.fsum(terms) for terms in _per_order_f_sums(
        mu, nu, lambda k, l: oracle_f(mu, nu, k, l, consts))]
    form = mp.fsum(ga * mp.conj(gb) * oracle_k(mu + nu - 2 * a, mu + nu - 2 * b, consts)
                   for a, ga in enumerate(g) for b, gb in enumerate(g))
    return _oracle_pref(mu, nu, consts) * form


def oracle_fill(seeds, top):
    """Pi(m, n), m <= n <= top, from the float seeds by the closed form
    C m! n! / 2^(m+n) sum_k delta^k / k! |u_k(m, n)|^2 at the working
    precision, with v_0(m, n) = sum_j beta^j / j! alpha^((m-j)/2) /
    ((m-j)/2)! alpha^((n-j)/2) / ((n-j)/2)! over j of m's and n's parity
    and u_k(m, n) = k! v_k(m, n) = sum_j binomial(k, j) v_0(m - j, n - k + j):
    neither recurrence the fill runs."""
    c, delta = mp.mpf(seeds.c), mp.mpf(seeds.delta)
    fact = [mp.factorial(i) for i in range(2 * top + 1)]
    alphas = [mp.mpc(seeds.alpha) ** i / fact[i] for i in range(top + 1)]
    betas = [mp.mpc(seeds.beta) ** i / fact[i] for i in range(top + 1)]
    v0 = {(m, n): mp.fsum(betas[j] * alphas[(m - j) // 2] * alphas[(n - j) // 2]
                          for j in range(min(m, n) % 2, min(m, n) + 1, 2))
          if (m - n) % 2 == 0 else mp.mpc(0)
          for m in range(top + 1) for n in range(top + 1)}
    table = {}
    for n in range(top + 1):
        for m in range(n + 1):
            terms = [delta ** k / fact[k]
                     * abs(mp.fsum(mp.binomial(k, j) * v0[m - j, n - k + j]
                                   for j in range(max(0, k - n), min(k, m) + 1))) ** 2
                     for k in range(m + n + 1 if delta else 1)]
            table[m, n] = c * fact[m] * fact[n] / mp.mpf(2) ** (m + n) * mp.fsum(terms)
    return table


def _oracle_pref(mu, nu, consts):
    return 1 / (mp.mpf(consts.cfg.wavelength) ** 2 * mp.mpf(consts.cfg.distance) ** 2
                * mp.sqrt(mp.pi * mp.mpf(_dims(consts).b1))
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
        got = f_kernel(0, 0, 0, 0, vac_consts)
        want = 2 * math.sqrt(math.pi) * cmath.sqrt(1 - _dims(vac_consts).zeta)
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
        # the Gaussian's integral 2 pi / sqrt(4 c1 c2 + c3^2), real
        for consts in (vac_consts, turb_consts):
            c = _dims(consts)
            want = 2 * math.pi / math.sqrt(4 * c.c1 * c.c2 + c.c3 ** 2)
            got = k_kernel(0, 0, consts)
            assert got.imag == 0.0 and got.real == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("a,b", [(2, 0), (1, 1), (2, 2), (3, 1), (4, 2), (0, 4)])
    def test_against_oracle(self, vac_consts, turb_consts, a, b):
        for consts in (vac_consts, turb_consts):
            got = k_kernel(a, b, consts)
            if consts.gamma == 0.0 and a % 2:
                # vacuum K(odd, odd): exactly 0, where the oracle leaves noise
                assert got == 0
            else:
                assert got == pytest.approx(complex(oracle_k(a, b, consts)), rel=1e-13, abs=0)

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
        dims = _dims(turb_consts)
        near = dims._replace(c3=0.5e-6 * (dims.c1 + dims.c2))
        for a, b in ((1, 1), (2, 0), (3, 1), (2, 2)):
            got = _k_with(a, b, turb_consts, near)
            want = complex(oracle_k(a, b, near))
            assert got == pytest.approx(want, rel=1e-9)

    def test_small_c3_path_is_continuous(self, turb_consts):
        dims = _dims(turb_consts)
        values = []
        for factor in (1.5e-6, 0.9e-6):  # c3 values a factor 1.7 apart
            c3 = factor * (dims.c1 + dims.c2)
            values.append(_k_with(3, 1, turb_consts, dims._replace(c3=c3)))
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

    # far field, up to Lambda0 = 395 at rytov 0.02, where K(20, 20) is
    # 1.2e-30 and the printed brackets' argument c4 = -c3^2 / (4 c1 c2) is
    # -1316; the highorder benchmark draws Lambda0 <= 3.5 only
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
        z = oracle_c4(derive_constants(OpticalConfig.from_w0(1.55e-6, 2e4, 0.005),
                                       turbulence_strength(0.02)))
        assert z < -1000
        for a, b, c in ((1, 41, 1), (11, 31, 1), (21, 23, -1), (21, 21, 1)):
            a, b, c = mp.mpf(a) / 2, mp.mpf(b) / 2, mp.mpf(c) / 2
            want = mp.hyp2f1(a, b, c, z)
            assert abs(_mp_hyp2f1(a, b, c, z) - want) <= mp.mpf(10) ** -40 * abs(want)

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
        dims = _dims(turb_consts)
        zero = dims._replace(c3=0.0)
        near = dims._replace(c3=1e-12 * (dims.c1 + dims.c2))
        for a, b in ((1, 1), (3, 1)):
            at_zero = _k_with(a, b, turb_consts, zero)
            at_tiny = _k_with(a, b, turb_consts, near)
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
            if consts.gamma == 0.0 and (mu + nu) % 2:
                # every term vanishes identically, vacuum K(odd, odd) being 0:
                # the oracle leaves 50-digit noise, the engine an exact 0
                assert got == 0.0
            else:
                # the worst measured error is 1.8e-15, at turbulent Pi(3, 3)
                assert abs(want.imag) < 1e-25 * scale
                assert got == pytest.approx(float(want.real), rel=2.5e-15, abs=0)

    # far field, Lambda0 = 395 and rytov 0.02: Pi(9, 10) is well
    # conditioned, yet K that lost its digits there put it 1.4e-6 off
    def test_far_field_against_oracle(self):
        consts = derive_constants(OpticalConfig.from_w0(1.55e-6, 2e4, 0.005),
                                  turbulence_strength(0.02))
        want = _per_order_pi(9, 10, consts)
        assert abs(want.imag) < 1e-30 * abs(want)
        assert pi_factor(9, 10, consts) == pytest.approx(float(want.real), rel=1e-13, abs=0)

    # the worst relative error per order max(mu, nu) of the fill against
    # oracle_fill over the links below, both w_variants: the measured
    # worst rounded up to two digits. Pi(0, 0) is C itself
    _FILL_BOUNDS = (0.0, 1.8e-16, 1.9e-16, 5.8e-16, 1.1e-15, 2.0e-15,
                    8.4e-16, 2.5e-15, 2.2e-15, 2.9e-15, 3.4e-15)

    def test_fill_against_its_sum_in_mpmath(self, ref_cfg):
        # the reference geometry in vacuum, at rytov 0.05 and at rytov 1;
        # the tiny, tiny-kernel and far-field links of the tests below
        links = [(ref_cfg, rytov) for rytov in (0.0, 0.05, 1.0)] + [
            (OpticalConfig(0.8e-6, 1e-25, 7.0710678), 1e-3),
            (OpticalConfig(0.8e-6, 1e-25, 0.01), 0.02),
            (OpticalConfig(0.8e-6, 1e-40, 0.01), 0.02),
            (OpticalConfig.from_w0(1.55e-6, 2e4, 0.005), 0.02),
        ]
        worst = [0.0] * (DEFAULT_MAX_ORDER + 1)
        for cfg, rytov in links:
            for w_variant in (channel.W_VARIANT_PROPAGATED, channel.W_VARIANT_WAIST):
                consts = derive_constants(cfg, turbulence_strength(rytov), w_variant)
                pi_factor(DEFAULT_MAX_ORDER, DEFAULT_MAX_ORDER, consts)
                want = oracle_fill(consts.seeds, DEFAULT_MAX_ORDER)
                for (m, n), value in want.items():
                    got = consts.pi[n][m]
                    if not value:
                        # vacuum Pi of odd m + n: no term at all
                        assert got == 0.0, (cfg, rytov, w_variant, m, n)
                        continue
                    worst[n] = max(worst[n], float(abs(got - value) / value))
        assert all(map(float.__le__, worst, self._FILL_BOUNDS)), worst

    def test_fill_past_an_overflowing_delta_power(self):
        # delta = 5.6e14: delta^20 20! leaves the float range, though every
        # Pi, up to 2.7e296, and the weight delta^20 / 20! stay in it
        consts = derive_constants(OpticalConfig(990.7769352208691, 1.210449653160932e-12,
                                                3.6843844573405824e-13),
                                  turbulence_strength(0.05), channel.W_VARIANT_WAIST)
        pi_factor(DEFAULT_MAX_ORDER, DEFAULT_MAX_ORDER, consts)
        for (m, n), value in oracle_fill(consts.seeds, DEFAULT_MAX_ORDER).items():
            assert consts.pi[n][m] == pytest.approx(float(value), rel=1e-15, abs=0), (m, n)

    def test_max_order_guard(self, vac_consts):
        with pytest.raises(DomainError):
            pi_factor(11, 0, vac_consts)

    def test_nan_pi_is_a_numerical_error(self, ref_cfg, corrupt_seeds):
        # a set whose seeds are not finite fills no Pi: the error names the
        # Pi asked for, the seeds and the set, and nothing is stored
        corrupt_seeds(lambda seeds, gamma: seeds._replace(alpha=complex(math.nan, 0.0)))
        consts = derive_constants(ref_cfg, turbulence_strength(0.03))
        ok = re.escape(f"at gamma={consts.gamma:.6g}, Lambda0={ref_cfg.fresnel_ratio:.6g}")
        for _ in range(2):
            with pytest.raises(NumericalError, match=r"pi_factor\(10, 10\): the Pi seeds C=\S+, "
                                                     r"alpha=nan\S*, .* " + ok):
                pi_factor(10, 10, consts)
            assert not consts.pi
        with pytest.raises(NumericalError, match=r"pi_factor\(10, 10\)"):
            probability_matrix(expand_modes(10), consts)

    def test_infinities_of_both_signs_are_a_numerical_error(self, ref_cfg, corrupt_seeds):
        # alpha = inf - inf j is not finite, though no part of it is nan
        corrupt_seeds(lambda seeds, gamma: seeds._replace(alpha=complex(math.inf, -math.inf)))
        fresh = derive_constants(ref_cfg, turbulence_strength(0.03))
        with pytest.raises(NumericalError, match=r"pi_factor\(3, 2\)"):
            pi_factor(3, 2, fresh)
        assert not fresh.pi

    @pytest.mark.parametrize("seeds", [
        dict(c=0.0), dict(c=-1.0), dict(c=math.inf), dict(c=math.nan),
        dict(delta=-1e-300), dict(delta=math.inf), dict(delta=math.nan),
        dict(beta=complex(0.0, math.nan)), dict(beta=complex(math.inf, 0.0)),
    ], ids=lambda s: ",".join(f"{k}={v}" for k, v in s.items()))
    def test_seed_guard(self, ref_cfg, corrupt_seeds, seeds):
        # C <= 0, delta < 0 or a seed that is not finite is the one
        # NumericalError, named with the seeds and the set, at every order
        corrupt_seeds(lambda values, gamma: values._replace(**seeds))
        consts = derive_constants(ref_cfg, turbulence_strength(0.03))
        for mu, nu in ((0, 0), (3, 0), (10, 9)):
            with pytest.raises(NumericalError, match=rf"pi_factor\({mu}, {nu}\): the Pi seeds "
                                                     r".* are not finite, C <= 0 or delta < 0 "
                                                     rf"at gamma={consts.gamma:.6g}, "):
                pi_factor(mu, nu, consts)
        assert not consts.pi

    @pytest.mark.parametrize("delta", [0.0, 5e-324, 0.3])
    def test_seed_guard_passes_delta_from_zero(self, ref_cfg, corrupt_seeds, delta):
        # delta = 0 is vacuum's value and no failure: the odd Pi read 0.0
        corrupt_seeds(lambda values, gamma: values._replace(delta=delta))
        consts = derive_constants(ref_cfg, turbulence_strength(0.03))
        assert (pi_factor(0, 1, consts) > 0.0) == (delta > 0.0)
        assert engine.pi_seeds(consts).delta == delta

    @pytest.mark.parametrize("cfg,rytov,top", [
        # delta = 9e75 passes the seed guard, but the weight delta^k / k!
        # overflows at k = 5
        (OpticalConfig(1.3810288670448687e-103, 4.029599060983179e+59,
                       6.1782231572189225e-61), 0.05, 3),
        # in vacuum alpha ~ 6e31 i, and v_0 overflows by order 10
        (OpticalConfig.from_w0(1e-6, 1e30, 1e-4), 0.0, 10),
    ], ids=["delta-power", "vacuum-v0"])
    def test_fill_overflow_is_a_numerical_error(self, cfg, rytov, top):
        # a fill whose Pi leave the float range stores no row and names the
        # Pi asked for, the seeds and the set
        consts = derive_constants(cfg, turbulence_strength(rytov), "waist")
        ok = re.escape(f"at gamma={consts.gamma:.6g}, Lambda0={cfg.fresnel_ratio:.6g}")
        with pytest.raises(NumericalError, match=rf"^pi_factor\({top}, {top}\): the Pi of orders "
                                                 rf"<= {top} leave the float range with the "
                                                 r"seeds C=.* " + ok + "$"):
            build_matrix(cfg, TurbulenceSpec.from_rytov(rytov), expand_modes(top),
                         w_variant="waist")
        assert not consts.pi

    def test_tiny_link_is_a_valid_table(self):
        # at a 1e-25 m link c2/c1 ~ 5e30, yet K(20, 20) ~ 9.1e25 keeps its
        # digits, and the seeds and every Pi stay finite; K(20, 20) against
        # the 50-digit oracle and Pi(10, 10) against its per-order form
        cfg = OpticalConfig(0.8e-6, 1e-25, 7.0710678)
        consts = derive_constants(cfg, TurbulenceSpec.from_rytov(1e-3).resolve(cfg).gamma)
        want = complex(oracle_k(20, 20, consts))
        assert k_kernel(20, 20, consts) == pytest.approx(want, rel=1e-13, abs=0)
        values = probability_matrix(expand_modes(10), consts).values
        assert all(math.isfinite(v) and v >= 0.0 for row in values for v in row)
        want = _per_order_pi(10, 10, consts)
        assert abs(want.imag) < 1e-30 * abs(want)
        assert pi_factor(10, 10, consts) == pytest.approx(float(want.real), rel=1e-14, abs=0)

    # links where c2/c1 is ~4e26 and ~4e41 and K(20, 20) is 2.2e-92 and
    # 7.1e-100, far below K(0, 0)
    @pytest.mark.parametrize("distance", [1e-25, 1e-40])
    def test_tiny_link_kernels(self, distance):
        cfg = OpticalConfig(0.8e-6, distance, 0.01)
        consts = derive_constants(cfg, TurbulenceSpec.from_rytov(0.02).resolve(cfg).gamma)
        for a, b in ((20, 20), (20, 18)):
            want = complex(oracle_k(a, b, consts))
            assert k_kernel(a, b, consts) == pytest.approx(want, rel=1e-13, abs=0), (a, b)

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(st.floats(0.6e-6, 1.6e-6), st.floats(1e3, 2e4), st.floats(0.05, 0.2),
           st.floats(0.0, 1.0))
    def test_every_pi_is_finite_and_nonnegative(self, wavelength, distance, w0, rytov):
        # Pi is a mean |overlap|^2: over the documented range every seed
        # passes pi_seeds' guard, so no pi_factor raises
        cfg = OpticalConfig.from_w0(wavelength, distance, w0)
        consts = derive_constants(cfg, TurbulenceSpec.from_rytov(rytov).resolve(cfg).gamma)
        for mu in range(DEFAULT_MAX_ORDER + 1):
            for nu in range(mu, DEFAULT_MAX_ORDER + 1):
                value = pi_factor(mu, nu, consts)
                assert math.isfinite(value) and value >= 0.0, (mu, nu)

    def test_vacuum_forbidden_orders_vanish(self, vac_consts, near_field_cfgs):
        # vacuum K(odd, odd) are exactly 0, so delta is, and every Pi with
        # odd mu + nu reads only v_0 off its parity: exactly 0, at the
        # reference geometry and in near field alike
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
        assert not selection_rule_allowed(ModePair(ModeIndex(0, 0), ModeIndex(0, 1)))
        assert selection_rule_allowed(ModePair(ModeIndex(0, 0), ModeIndex(2, 0)))
        assert selection_rule_allowed(ModePair(ModeIndex(1, 1), ModeIndex(1, 1)))

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

    @pytest.mark.parametrize("token", ["00,01", "0,01", "01,0", "00,01,10"])
    def test_parse_rejects_zero_padded_comma_lists(self, token):
        # a zero-padded part marks a comma-separated list of modes, which
        # no label spells: 0,1 is the mode 01, 00,01 two modes
        with pytest.raises(DomainError, match="separate modes with spaces"):
            parse_mode(token)
        assert parse_mode("0,1") == ModeIndex(0, 1)

    def test_negative_orders_rejected(self):
        with pytest.raises(DomainError):
            ModeIndex(-1, 0)

    def test_orders_stored_as_ints(self, vac_consts):
        # an order given as a bool is stored as the int it stands for
        mode = ModeIndex(True, 0)
        assert type(mode.m) is int and mode.label() == "10"
        matrix = probability_matrix([mode, ModeIndex(0, 0)], vac_consts)
        lines = serialization.matrix_to_csv(matrix).splitlines()
        assert [ln for ln in lines if not ln.startswith("#")][0] == "signal\\idler,10,00"

    @pytest.mark.parametrize("call", [
        lambda c: pi_factor(1.0, 0, c), lambda c: pi_factor(0, 1.5, c),
        lambda c: k_kernel(2.0, 0, c), lambda c: ModeIndex(1.5, 0),
        lambda c: ModeIndex(0, "1"), lambda c: expand_modes(2.5),
    ], ids=["pi_factor-1.0", "pi_factor-1.5", "k_kernel-2.0", "ModeIndex-1.5",
            "ModeIndex-str", "expand_modes-2.5"])
    def test_non_integer_orders_rejected(self, vac_consts, call):
        with pytest.raises(DomainError, match="orders must be integers"):
            call(vac_consts)


_SHUFFLED = expand_modes(10)
random.Random(25).shuffle(_SHUFFLED)
# grids whose rows are all computed, partly gathered or gathered in an
# unusual order
_GRID_KINDS = {
    "shuffled": _SHUFFLED,
    "not swap-closed": [parse_mode(t) for t in "21 12 00 30".split()],
    "duplicated": [parse_mode(t) for t in "00 21 12 21 11 00 11".split()],
    "one mode": [ModeIndex(2, 1)],
    "swap first": [ModeIndex(s.n, s.m) for s in expand_modes(4)],
}


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

    def test_calibration_error_on_zero_reference(self, turb_consts, corrupt_seeds):
        # an anchor that evaluates to zero cannot normalize the matrix: a
        # vacuum C so small that C * C underflows passes the seed guard,
        # and the anchor, C * C, is 0
        corrupt_seeds(lambda seeds, gamma:
                      seeds._replace(c=seeds.c * 1e-200) if gamma == 0 else seeds)
        with pytest.raises(CalibrationError, match=r"calibration reference \(00,00\) is 0\.0"):
            probability_matrix(DEFAULT_ORDERING, turb_consts._replace())

    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_reference_value_must_be_positive_and_finite(self, turb_consts, value):
        # a negative reference gave negative entries and 0.0 a matrix of zeros
        with pytest.raises(DomainError, match=r"^reference_value must be positive and finite, "
                                              rf"got {re.escape(repr(value))}$"):
            probability_matrix(DEFAULT_ORDERING, turb_consts, reference_value=value)

    def test_failure_names_entry(self, ref_cfg, turb_consts, corrupt_seeds):
        # with delta negative in turbulence, the grid's first Pi, (3, 3),
        # whose miss fills the rest, fails; the error names it, the seeds,
        # gamma and Lambda0
        corrupt_seeds(lambda seeds, gamma:
                      seeds._replace(delta=-seeds.delta) if gamma > 0 else seeds)
        fresh = turb_consts._replace()
        ok = re.escape(f"at gamma={turb_consts.gamma:.6g}, Lambda0={ref_cfg.fresnel_ratio:.6g}")
        with pytest.raises(NumericalError, match=r"pi_factor\(3, 3\): the Pi seeds C=\S+, .* "
                                                 r"delta=-\S+ are not finite, C <= 0 or "
                                                 r"delta < 0 " + ok):
            probability_matrix(DEFAULT_ORDERING, fresh)

    def test_turbulence_gamma_must_match_consts(self, ref_cfg, turb_consts):
        # metadata resolved for vacuum must not label a turbulent matrix
        vacuum = TurbulenceSpec.vacuum().resolve(ref_cfg)
        with pytest.raises(DomainError):
            probability_matrix(DEFAULT_ORDERING, turb_consts, turbulence=vacuum)

    def test_value_lookup(self, vac_consts):
        m = probability_matrix(DEFAULT_ORDERING, vac_consts)
        assert m.value(ModeIndex(0, 0), ModeIndex(0, 2)) == m.values[0][3]

    @pytest.mark.parametrize("signal,idler,missing", [
        (ModeIndex(0, 4), ModeIndex(0, 0), ModeIndex(0, 4)),
        (ModeIndex(0, 0), ModeIndex(4, 0), ModeIndex(4, 0)),
        (ModeIndex(5, 0), ModeIndex(0, 5), ModeIndex(5, 0)),
        ((0, 9), ModeIndex(0, 0), (0, 9)),
    ])
    def test_value_of_a_missing_mode_is_a_domain_error(self, vac_consts, signal, idler,
                                                       missing):
        # the first of the two modes that the ordering lacks is named
        m = probability_matrix(DEFAULT_ORDERING, vac_consts)
        with pytest.raises(DomainError, match=f"^mode {re.escape(repr(missing))} is not in "
                                              "the matrix's ordering$"):
            m.value(signal, idler)

    @settings(deadline=None)
    @given(st.lists(st.builds(ModeIndex, st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=8, unique=True),
           st.booleans(), st.booleans())
    def test_table_assembly(self, vac_consts, turb_consts, modes, turbulent, calibrated):
        # each entry is the calibration factor times the per-pair product
        # bitwise, and the table makes one pi_factor call on its own set,
        # at (top, top) of its top order; the (00,00) anchor of a
        # calibrated table adds none
        consts = turb_consts if turbulent else vac_consts
        top = max(max(s.m, s.n) for s in modes)
        normalization = engine.NORMALIZATION_CALIBRATED if calibrated else NORMALIZATION_RAW
        with mock.patch.object(engine, "pi_factor", wraps=engine.pi_factor) as spy:
            m = probability_matrix(modes, consts, normalization=normalization)
        calls = [c.args for c in spy.call_args_list]
        assert calls == [(top, top, consts)] and calls[0][2] is consts
        factor = m.normalization.calibration_factor
        for s, row in zip(modes, m.values):
            for i, v in zip(modes, row):
                assert v == factor * joint_probability(ModePair(s, i), consts)

    @pytest.mark.parametrize("name", _GRID_KINDS)
    @pytest.mark.parametrize("turbulent", [False, True])
    def test_table_assembly_over_grid_kinds(self, vac_consts, turb_consts, name, turbulent):
        # on every grid kind each entry is bitwise the calibration factor
        # times the per-pair product, with one pi_factor call on the set, at
        # (top, top); the transposed entry and, where the grid holds both
        # swapped modes, the swapped entry read the same two factors and are
        # the same float
        modes = _GRID_KINDS[name]
        consts = turb_consts if turbulent else vac_consts
        top = max(max(s.m, s.n) for s in modes)
        with mock.patch.object(engine, "pi_factor", wraps=engine.pi_factor) as spy:
            m = probability_matrix(modes, consts)
        calls = [c.args for c in spy.call_args_list]
        assert calls == [(top, top, consts)]
        factor = m.normalization.calibration_factor
        assert _bits(m.values) == _bits([[factor * joint_probability(ModePair(s, i), consts)
                                          for i in modes] for s in modes])
        entry = {(s, i): v for s, row in zip(modes, m.values) for i, v in zip(modes, row)}
        for (s, i), v in entry.items():
            assert entry[i, s] is v
            assert entry.get((ModeIndex(s.n, s.m), ModeIndex(i.n, i.m)), v) is v

    def test_grid_plan_cache(self, vac_consts):
        # the grid plans are bounded and keyed on the ordering: two equal
        # orderings, a list and a tuple of distinct ModeIndex objects, share
        # one plan
        engine._grid_plan.cache_clear()
        probability_matrix(expand_modes(3), vac_consts)
        probability_matrix(tuple(ModeIndex(s.m, s.n) for s in expand_modes(3)), vac_consts)
        info = engine._grid_plan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert engine._grid_plan.cache_parameters()["maxsize"] == engine._GRID_PLANS
        assert engine._grid_plan(tuple(expand_modes(3))) is engine._grid_plan(DEFAULT_ORDERING)
        for k in range(engine._GRID_PLANS + 5):
            probability_matrix([ModeIndex(k % 4, k // 4)], vac_consts)
        assert engine._grid_plan.cache_info().currsize == engine._GRID_PLANS

    @pytest.mark.parametrize("max_sum, products", [(3, 28), (6, 176), (10, 876)])
    def test_each_distinct_product_once(self, turb_consts, max_sum, products):
        # entries that read the same unordered pair of per-axis factors share
        # one product: a max-sum grid of N modes makes far fewer than N^2
        # (100, 784 and 4356), and every transposed entry is the same float
        m = probability_matrix(expand_modes(max_sum), turb_consts)
        assert len({id(v) for row in m.values for v in row}) == products
        assert all(m.values[i][j] is m.values[j][i]
                   for i in range(m.size) for j in range(m.size))

    @pytest.mark.parametrize("modes", [[(0, 0)], [(-1, 0)], "00", [ModeIndex(0, 0), (1, 0)]],
                             ids=["tuple", "negative tuple", "str", "mixed"])
    def test_modes_must_be_mode_index(self, vac_consts, modes):
        # a plain tuple equals the ModeIndex of its orders, so it would
        # otherwise hit that grid's cached plan; it is a DomainError, as are
        # a negative tuple and the characters of a string
        probability_matrix([ModeIndex(0, 0)], vac_consts)
        with pytest.raises(DomainError, match="modes must be ModeIndex values"):
            probability_matrix(modes, vac_consts)

    def test_memoization_distinct_pi_count(self, ref_cfg):
        # a 10-mode matrix over a fresh set costs one lookup, Pi(3, 3), whose
        # miss fills rows 0..3: the 10 Pi(m <= n <= 3), not O(N^2)
        # evaluations. Over the filled set it is one hit, calibrated or
        # not: the anchor makes no lookup and fills no vacuum set
        consts = derive_constants(ref_cfg, turbulence_strength(0.0171))
        engine._clear_tables()
        probability_matrix(DEFAULT_ORDERING, consts,
                           normalization=NORMALIZATION_RAW)
        assert table_info().pi == (0, 1)
        assert [len(consts.pi[n]) for n in consts.pi] == [1, 2, 3, 4]
        probability_matrix(DEFAULT_ORDERING, consts, normalization=NORMALIZATION_RAW)
        assert table_info().pi == (1, 1)
        probability_matrix(DEFAULT_ORDERING, consts)
        assert table_info().pi == (2, 1)
        probability_matrix(DEFAULT_ORDERING, consts)
        assert table_info().pi == (3, 1)

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
        # one set, holding the rows 0..3 once each
        assert list(consts.pi) == [0, 1, 2, 3]
        fresh = consts._replace()
        serial = tuple(pi_factor(mu, nu, fresh)
                       for mu in range(4) for nu in range(4))
        assert serial == results[0]

        # 8 threads fill one fresh set's 66 Pi, each in its own order, while
        # a ninth reads the table: its row keys are always a prefix 0..r, and
        # the values are bitwise the serial ones
        keys = [(mu, nu) for mu in range(11) for nu in range(mu, 11)]
        base = derive_constants(ref_cfg, turbulence_strength(0.0421))
        engine._clear_tables()
        fresh = base._replace()
        prefixes = {tuple(range(r)) for r in range(12)}
        seen, done = set(), threading.Event()

        def watch():
            while not done.is_set():
                seen.add(tuple(fresh.pi))

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
        seen.add(tuple(fresh.pi))
        assert seen <= prefixes and list(fresh.pi) == list(range(11)), seen
        serial = base._replace()
        want = {key: pi_factor(*key, serial).hex() for key in keys}
        assert all({k: v.hex() for k, v in r.items()} == want for r in results)
        assert _row_bits(fresh.pi) == _row_bits(serial.pi)


def _bits(values):
    """Entries as hex strings: equal bitwise, NaN and the sign of zero included."""
    return [[float(v).hex() for v in row] for row in values]


def _row_bits(table):
    """A set's Pi rows as hex strings: equal bitwise."""
    return {n: [v.hex() for v in row] for n, row in table.items()}


def _complex_bits(z):
    return z.real.hex(), z.imag.hex()


def _wick_k(c, a_top, b_top):
    """K(a, b), b <= a <= a_top, b <= b_top, a + b even, by Wick's
    recurrence over a plain dict in ascending a + b, the diagonal taken
    real."""
    c = _dims(c)
    d = 4 * c.c1 * c.c2 + c.c3 * c.c3
    sigma, tau = complex(c.c1 + c.c2, -c.c3) / d, (c.c2 - c.c1) / d
    k = {(0, 0): complex(2 * math.pi / math.sqrt(d))}
    k[1, 1] = tau * k[0, 0]
    for n in range(2, a_top + b_top + 1, 2):
        for a in range(max(2, n // 2, n - b_top), min(n, a_top) + 1):
            b = n - a
            below = k[a - 2, b] if a - 2 >= b else k[b, a - 2].conjugate()
            value = (a - 1) * sigma * below
            if b:
                value += b * tau * k[a - 1, b - 1]
            k[a, b] = value if a > b else complex(value.real)
    return k


def _clear_engine_caches():
    engine._clear_tables()
    engine._plan.cache_clear()
    k_kernel.cache_clear()


def _per_order_f_sums(mu, nu, f):
    """The per-order sums g_s = sum_k f(k, s - k), s = 0, 2, ..., mu + nu."""
    return [[f(k, s - k) for k in range(max(0, s - nu), min(mu, s) + 1)]
            for s in range(0, mu + nu + 1, 2)]


class TestKernelTables:
    # a raw matrix over orders <= M reads its set's closed-form seeds and
    # fills its table once, calling neither f_kernel nor k_kernel; a second
    # matrix over that set computes nothing, and a fresh geometry, with the
    # fill plans warm, builds no geometry-free table
    @pytest.mark.parametrize("max_sum", [10, 3])
    def test_each_kernel_value_once(self, ref_cfg, max_sum):
        modes = expand_modes(max_sum)
        _clear_engine_caches()
        consts = derive_constants(ref_cfg, turbulence_strength(0.05))
        with mock.patch.object(perterm, "f_kernel", wraps=perterm.f_kernel) as f, \
                mock.patch.object(perterm, "k_kernel", wraps=perterm.k_kernel) as k:
            for _ in range(2):
                probability_matrix(modes, consts, normalization=NORMALIZATION_RAW)
            assert (f.call_count, k.call_count) == (0, 0)
        assert k_kernel.cache_info()[:2] == (0, 0)
        assert table_info().pi.misses == 1
        assert list(consts.pi) == list(range(max_sum + 1))
        assert engine._plan.cache_info().misses == 1
        far = derive_constants(OpticalConfig.from_w0(1.55e-6, 2e4, 0.005),
                               turbulence_strength(0.05))
        probability_matrix(modes, far, normalization=NORMALIZATION_RAW)
        assert engine._plan.cache_info().misses == 1
        assert k_kernel.cache_info()[:2] == (0, 0)
        assert table_info().pi.misses == 2

    def test_k_kernel_conjugate_symmetric(self, ref_cfg, near_field_cfgs):
        # k_kernel computes one triangle of K and takes the other as its conjugate
        cfgs = [ref_cfg, *near_field_cfgs.values()]
        for consts in [derive_constants(cfg, gamma) for cfg in cfgs
                       for gamma in (0.0, turbulence_strength(0.02))]:
            for a in range(21):
                for b in range(a):
                    assert k_kernel(b, a, consts) == k_kernel(a, b, consts).conjugate(), (a, b)

    def test_stored_k_equals_per_entry_sum(self, ref_cfg, near_field_cfgs):
        # every stored K(a >= b), a + b even, is bitwise Wick's recurrence
        # run here over a plain dict, the diagonal taken real; K(b, a) its
        # conjugate
        _clear_engine_caches()
        cfgs = [ref_cfg, *near_field_cfgs.values(), OpticalConfig.from_w0(1.55e-6, 2e4, 0.005)]
        for consts in [derive_constants(cfg, turbulence_strength(rytov))
                       for cfg in cfgs for rytov in (0.0, 0.02, 0.1)]:
            for (a, b), want in _wick_k(consts, 20, 20).items():
                assert _complex_bits(k_kernel(a, b, consts)) == _complex_bits(want), \
                    (consts, a, b)
                if b < a:
                    assert _complex_bits(k_kernel(b, a, consts)) == \
                        _complex_bits(want.conjugate()), (a, b)

    @pytest.mark.parametrize("a, b", [(400, 400), (1500, 0)])
    def test_k_kernel_has_no_order_limit(self, ref_cfg, a, b):
        # K runs bottom-up without recursion, so orders far past those the
        # closed form reads neither recurse nor fail: bitwise Wick's
        # recurrence, and K(0, 1500) the exact conjugate of K(1500, 0)
        consts = derive_constants(ref_cfg, turbulence_strength(0.02))
        want = _wick_k(consts, a, b)[a, b]
        assert _complex_bits(k_kernel(a, b, consts)) == _complex_bits(want)
        if b < a:
            assert _complex_bits(k_kernel(b, a, consts)) == _complex_bits(want.conjugate())

    @pytest.mark.parametrize("rytov", [0.0, 0.03])
    def test_fill_order_does_not_change_the_bits(self, ref_cfg, rytov):
        # the table grows by whole triangles in whatever order the Pi are
        # asked for, and every order gives the same entries and matrix bits
        keys = [(mu, nu) for mu in range(11) for nu in range(mu, 11)]
        shuffled = list(keys)
        random.Random(15).shuffle(shuffled)
        _clear_engine_caches()
        base = derive_constants(ref_cfg, turbulence_strength(rytov))
        filled = []
        for order in (keys, keys[::-1], shuffled):
            consts = base._replace()
            for mu, nu in order:
                pi_factor(mu, nu, consts)
            filled.append(consts)
        first = filled[0]
        for consts in filled[1:]:
            assert _row_bits(consts.pi) == _row_bits(first.pi)
        modes = expand_modes(10)
        assert all(_bits(probability_matrix(modes, c).values) ==
                   _bits(probability_matrix(modes, first).values) for c in filled[1:])

    def test_tables_stay_bounded(self, ref_cfg):
        # 500 sweep points and 20 geometries: at most 16 derived sets, each
        # set's table at most its 11 rows of 66 Pi, no K read, and the fill
        # plans each built once
        pairs = [ModePair(ModeIndex(k, k), ModeIndex(k, k)) for k in range(4)]
        _clear_engine_caches()
        rytov_sweep(ref_cfg, [0.1 * k / 499 for k in range(500)], pairs)
        for k in range(20):
            cfg = OpticalConfig.from_w0(ref_cfg.wavelength, ref_cfg.distance, 0.1 + 0.005 * k)
            consts = derive_constants(cfg)
            probability_matrix(expand_modes(10), consts, normalization=NORMALIZATION_RAW)
            assert [len(consts.pi[n]) for n in consts.pi] == list(range(1, 12))
        info = table_info()
        assert info.sets.currsize <= info.sets.maxsize == 16
        # the seeds are closed forms: no set reads K
        assert k_kernel.cache_info() == (0, 0, 16 * 121, 0)
        # the fill plans through orders 3 and 10; the anchor fills nothing
        assert engine._plan.cache_info().misses == engine._plan.cache_info().currsize == 2

    def test_public_k_kernel_calls_stay_in_the_triangle(self, ref_cfg):
        # K(a < b) is the exact conjugate of the stored K(b, a) and odd
        # a + b stores nothing: the cache holds one triangle per set
        _clear_engine_caches()
        consts = derive_constants(ref_cfg, turbulence_strength(0.005))
        for a in range(41):
            for b in range(41):
                got = k_kernel(a, b, consts)
                if (a + b) % 2:
                    assert got == 0
                elif a < b:
                    assert got == k_kernel(b, a, consts).conjugate()
        info = k_kernel.cache_info()
        assert info.misses == info.currsize == sum(
            1 for a in range(41) for b in range(a + 1) if (a - b) % 2 == 0)

    @pytest.mark.parametrize("make", [
        lambda c: c._replace(), copy.copy, copy.deepcopy,
        lambda c: pickle.loads(pickle.dumps(c))], ids=["replace", "copy", "deepcopy", "pickle"])
    def test_fresh_copy_starts_empty_and_agrees(self, turb_consts, make):
        # a copy starts with an empty table, whose values are bitwise those
        # of the derived set, and so is its matrix
        for mu in range(11):
            for nu in range(mu, 11):
                pi_factor(mu, nu, turb_consts)
        fresh = make(turb_consts)
        assert fresh is not turb_consts and fresh == turb_consts
        assert fresh.pi == {}
        assert all(pi_factor(mu, nu, fresh) == row[mu]
                   for nu, row in turb_consts.pi.items() for mu in range(nu + 1))
        # it owns a table of its own, with the same seeds
        assert fresh.pi is not turb_consts.pi
        assert _row_bits(fresh.pi) == _row_bits(turb_consts.pi)
        assert engine.pi_seeds(fresh) == engine.pi_seeds(turb_consts)
        modes = expand_modes(10)
        assert _bits(probability_matrix(modes, turb_consts._replace()).values) == \
            _bits(probability_matrix(modes, turb_consts).values)

    def test_k_kernel_cache_info_counts_the_tables(self, vac_consts):
        _clear_engine_caches()
        assert k_kernel.cache_info() == (0, 0, 16 * 121, 0)
        # K(2, 0) is stored on a miss, alone: its recurrence runs over a
        # table of its own; K(0, 2) is its conjugate, a hit, and odd a + b
        # reads nothing
        k_kernel(2, 0, vac_consts)
        assert k_kernel.cache_info() == (0, 1, 16 * 121, 1)
        k_kernel(0, 2, vac_consts)
        k_kernel(1, 2, vac_consts)
        assert k_kernel.cache_info() == (1, 1, 16 * 121, 1)
        # a fresh set's seeds are closed forms that read no K; its Pi(1, 3)
        # is one fill
        fresh = vac_consts._replace()
        pi_factor(1, 3, fresh)
        assert k_kernel.cache_info() == (1, 1, 16 * 121, 1)
        assert table_info().pi == (0, 1)
        # clearing K leaves the engine's tables as they are
        sets = table_info().sets
        k_kernel.cache_clear()
        assert k_kernel.cache_info() == (0, 0, 16 * 121, 0)
        assert table_info() == (sets, (0, 1))


class TestChannelPath:
    @pytest.mark.parametrize("normalization", ["calibrated", "raw"])
    def test_plain_tuple_is_no_config(self, ref_cfg, normalization):
        # checked before the turbulence input reads the link's fields
        pair = ModePair(ModeIndex(0, 0), ModeIndex(0, 0))
        for call in (lambda cfg: build_matrix(cfg, TurbulenceSpec.from_rytov(0.01),
                                              normalization=normalization),
                     lambda cfg: rytov_sweep(cfg, [0.0, 0.01], [pair], normalization)):
            with pytest.raises(DomainError, match="^cfg must be an OpticalConfig, got tuple$"):
                call(tuple(ref_cfg))

    def test_subnormal_anchor_is_a_calibration_error(self):
        # Lambda0 = 5.2e67: the vacuum (00,00) entry, 1.4e-320, is positive
        # but its calibration factor overflows; the raw values are finite.
        # A sweep passes the CalibrationError on as it is, with no prefix
        cfg = OpticalConfig(1.367e129, 5.95e-12, 4.996e24)
        assert 0.0 < derive_constants(cfg).anchor < sys.float_info.min
        pairs = [ModePair(ModeIndex(0, 0), ModeIndex(0, 0)),
                 ModePair(ModeIndex(1, 2), ModeIndex(3, 0))]
        for values in (lambda normalization: build_matrix(cfg, TurbulenceSpec.vacuum(),
                                                          normalization=normalization).values,
                       lambda normalization: rytov_sweep(cfg, [0.0, 0.01], pairs, normalization)):
            with pytest.raises(CalibrationError, match=r"^calibration reference \(00,00\) is "
                                                       r"1\.41e-320; cannot normalize$"):
                values(engine.NORMALIZATION_CALIBRATED)
            raw = values(NORMALIZATION_RAW)
            assert all(0.0 <= v < math.inf for row in raw for v in row)

    def test_replaced_gamma_gives_that_gammas_matrix(self, ref_cfg):
        # _replace builds through the constructor, so a set never carries
        # another set's seeds or anchor
        modes = expand_modes(6)
        for g1, g2 in ((0.0, 0.05), (0.05, 0.0), (0.02, 0.7)):
            for normalization in ("calibrated", "raw"):
                got = probability_matrix(modes, derive_constants(ref_cfg, g1)._replace(gamma=g2),
                                         normalization)
                want = probability_matrix(modes, derive_constants(ref_cfg, g2)._replace(),
                                          normalization)
                assert [[v.hex() for v in row] for row in got.values] == \
                    [[v.hex() for v in row] for row in want.values]

    def test_a_set_computes_its_seeds_once(self, ref_cfg, monkeypatch):
        # the seeds come with the set: filling it to top 3 and then to top
        # 10 computes none
        calls = []
        values = channel._seed_values
        monkeypatch.setattr(channel, "_seed_values",
                            lambda *key: calls.append(key) or values(*key))
        consts = derive_constants(ref_cfg, 0.03)
        calls.clear()
        consts = consts._replace()
        probability_matrix(expand_modes(3), consts)
        probability_matrix(expand_modes(10), consts)
        assert calls == [(ref_cfg, 0.03, consts.w_variant)]

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
        # a sweep point, calibrated or raw, is bitwise the matching entry of
        # the matrix of that normalization at that rytov, over any grid of
        # modes
        pairs = [ModePair(ModeIndex(0, 0), ModeIndex(0, 0)),
                 ModePair(ModeIndex(0, 0), ModeIndex(0, 2)),
                 ModePair(ModeIndex(1, 2), ModeIndex(2, 1))]
        grid = [0.0, 0.02, 0.07]
        for normalization in (engine.NORMALIZATION_CALIBRATED, NORMALIZATION_RAW):
            series = rytov_sweep(ref_cfg, grid, pairs, normalization)
            for k, s2 in enumerate(grid):
                m = build_matrix(ref_cfg, TurbulenceSpec.from_rytov(s2), expand_modes(3),
                                 normalization)
                for pair, values in zip(pairs, series):
                    assert values[k].hex() == m.value(pair.signal, pair.idler).hex()

    def test_raw_sweep_is_unscaled(self, ref_cfg, turb_consts):
        pair = ModePair(ModeIndex(0, 0), ModeIndex(0, 1))
        (series,) = rytov_sweep(ref_cfg, [reference.REFERENCE_RYTOV], [pair],
                                normalization=NORMALIZATION_RAW)
        assert series == [joint_probability(pair, turb_consts)]

    def test_sweep_caches_stay_bounded(self, ref_cfg):
        # 500 points of four pairs derive more sets than derive_constants
        # keeps, and store no K: the seeds are closed forms
        pairs = [ModePair(ModeIndex(k, k), ModeIndex(k, k)) for k in range(4)]
        _clear_engine_caches()
        rytov_sweep(ref_cfg, [0.1 * k / 499 for k in range(500)], pairs)
        sets = table_info().sets
        assert sets.misses > sets.maxsize >= sets.currsize
        assert k_kernel.cache_info() == (0, 0, 16 * 121, 0)

    def test_sweep_keeps_at_most_16_sets_alive(self, ref_cfg, monkeypatch):
        # each point's matrix is built inside the loop, so at its last point
        # a 500-point sweep holds no more sets than derive_constants keeps
        def alive():
            gc.collect()
            return [o for o in gc.get_objects() if isinstance(o, DerivedConstants)]

        pairs = [ModePair(ModeIndex(k, k), ModeIndex(k, k)) for k in range(4)]
        engine._clear_tables()
        before = alive()  # held, so no new set can reuse their ids
        old = set(map(id, before))
        last, counts, matrix = turbulence_strength(0.1), [], engine.probability_matrix

        def count_at_last_point(modes, consts, *args, **kwargs):
            if consts.gamma == last:
                counts.append(sum(id(o) not in old for o in alive()))
            return matrix(modes, consts, *args, **kwargs)

        monkeypatch.setattr(engine, "probability_matrix", count_at_last_point)
        rytov_sweep(ref_cfg, [0.1 * k / 499 for k in range(500)], pairs)
        assert len(counts) == 1 and 0 < counts[0] <= 16

    def test_sweep_fills_each_pi_once_per_point(self, ref_cfg):
        # point by point: one set per grid point, and one fill through
        # order 3 each, by the miss of Pi(3, 3), the one lookup of that
        # point's matrix; the calibration anchor makes none
        pairs = [ModePair(ModeIndex(k, k), ModeIndex(k, k)) for k in range(4)]
        engine._clear_tables()
        rytov_sweep(ref_cfg, [0.1 * k / 499 for k in range(500)], pairs)
        info = table_info()
        assert info.sets.misses == 500
        assert info.pi == (0, 500)

    def test_sweep_derives_no_vacuum_set(self, ref_cfg):
        # the calibration factor comes from the link's anchor: a grid that
        # does not start at 0 derives one set per point, and its series are
        # the calibrated matrices' entries
        grid, pair = [0.01, 0.02], ModePair(ModeIndex(0, 0), ModeIndex(0, 1))
        engine._clear_tables()
        (series,) = rytov_sweep(ref_cfg, grid, [pair])
        assert engine.derive_cache_info().currsize == len(grid)
        assert series == [build_matrix(ref_cfg, TurbulenceSpec.from_rytov(s2))
                          .value(pair.signal, pair.idler) for s2 in grid]

    @pytest.mark.parametrize("grid", [[0.0, 0.01], [0.01, 0.02]])
    @pytest.mark.parametrize("normalization", ["calibrated", "raw"])
    def test_sweep_over_a_bad_link_is_a_domain_error(self, ref_cfg, grid, normalization):
        # a link that is not an OpticalConfig is the one bad link a sweep
        # turns away with a DomainError: a plain tuple of the values of a
        # config whose set is cached fails, calibrated or raw, at the first
        # point, before the cache could hand it that config's set
        pair = ModePair(ModeIndex(0, 0), ModeIndex(0, 0))
        engine._clear_tables()
        derive_constants(ref_cfg, turbulence_strength(grid[0]))
        with pytest.raises(DomainError, match="^cfg must be an OpticalConfig, got tuple$"):
            rytov_sweep(tuple(ref_cfg), grid, [pair], normalization)
        assert engine.derive_cache_info() == (0, 1, channel.DERIVED_SETS, 1)
        assert table_info().pi == (0, 0)

    @pytest.mark.parametrize("grid", [[0.0, 0.01], [0.01, 0.02]])
    @pytest.mark.parametrize("normalization", ["calibrated", "raw"])
    def test_sweep_over_a_link_without_seeds_is_a_numerical_error(self, grid, normalization):
        # Lambda0 ~ 6e-404 underflows to 0, so the link's seeds are not
        # finite: a sweep, calibrated or raw, fails at the first point with
        # the seeds' error, which names the pair, the Rytov value and the
        # set; the set is derived and cached, and no Pi is filled
        cfg = OpticalConfig(0.8e-6, 5000.0, 1e200)
        gamma = turbulence_strength(grid[0])
        engine._clear_tables()
        with pytest.raises(NumericalError, match="^" + re.escape(
                f"P(00,00) at rytov {grid[0]:g}: pi_factor(0, 0): the Pi seeds C=nan, "
                "alpha=nan, beta=nan, delta=nan are not finite, C <= 0 or delta < 0 at "
                f"gamma={gamma:.6g}, Lambda0=0") + "$"):
            rytov_sweep(cfg, grid, [ModePair(ModeIndex(0, 0), ModeIndex(0, 0))], normalization)
        assert engine.derive_cache_info().currsize == 1
        assert table_info().pi == (0, 1)

    def test_sweep_failure_names_pair_and_rytov(self, ref_cfg, corrupt_seeds):
        # with delta negative in turbulence, the sweep stops at rytov 0.01,
        # whose one fill fails; the error names the first pair that reads
        # the top order, the Rytov value, the seeds and that point's gamma
        bad = ModePair(ModeIndex(9, 0), ModeIndex(10, 0))
        corrupt_seeds(lambda seeds, gamma:
                      seeds._replace(delta=-seeds.delta) if gamma > 0 else seeds)
        pairs = [ModePair(ModeIndex(0, 0), ModeIndex(0, 0)), bad]
        gamma = re.escape(f"gamma={turbulence_strength(0.01):.6g}, ")
        with pytest.raises(NumericalError, match=r"^P\(90,10,0\) at rytov 0\.01: pi_factor\(10, 10\): "
                                                 r"the Pi seeds .* delta=-\S+ .* " + gamma):
            rytov_sweep(ref_cfg, [0.0, 0.01], pairs)

    @pytest.mark.parametrize("grid,normalization", [
        ([], "calibrated"), ([-0.01, 0.0], "calibrated"),
        ([0.02, 0.01], "calibrated"), ([0.0], "unit"),
    ])
    def test_sweep_rejects_bad_input(self, ref_cfg, grid, normalization):
        pair = ModePair(ModeIndex(0, 0), ModeIndex(0, 0))
        with pytest.raises(DomainError):
            rytov_sweep(ref_cfg, grid, [pair], normalization=normalization)

    @pytest.mark.parametrize("bad", [
        ModePair((0, 0), (0, 1)),
        (ModeIndex(0, 0), ModeIndex(0, 1)),
        ModePair(ModeIndex(0, 0), (0, 1)),
        ModePair(ModeIndex(0, 0), None),
    ], ids=["pair-of-tuples", "plain-tuple", "one-tuple-mode", "none-mode"])
    @pytest.mark.parametrize("normalization", ["calibrated", "raw"])
    def test_sweep_pair_must_be_a_mode_pair(self, ref_cfg, bad, normalization):
        # a pair that is not a ModePair of ModeIndex values is named, after
        # any good pair before it
        pairs = [ModePair(ModeIndex(0, 0), ModeIndex(0, 0)), bad]
        with pytest.raises(DomainError, match="^sweep pairs must be ModePairs of ModeIndex "
                                              f"values, got {re.escape(repr(bad))}$"):
            rytov_sweep(ref_cfg, [0.0, 0.01], pairs, normalization)
