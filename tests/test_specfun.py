"""Special-function kernel: anchor values, exact-rational oracles, and
property-based invariants."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgspdc.errors import DomainError, NumericalError, PoleError
from hgspdc.specfun import (
    SQRT_PI,
    HalfInteger,
    gamma_half,
    hyp2f1_real,
    hyp2f1_terminating,
)

mp.mp.dps = 50


class TestHalfInteger:
    def test_exact_representation(self):
        assert HalfInteger(5).value == 2.5
        assert HalfInteger(4).is_integer
        assert not HalfInteger(5).is_integer
        assert float(HalfInteger(-3)) == -1.5
        assert str(HalfInteger(3)) == "3/2"
        assert str(HalfInteger(6)) == "3"

    def test_rejects_non_int(self):
        with pytest.raises(DomainError):
            HalfInteger(1.5)


class TestGammaHalf:
    def test_anchor_half(self):
        assert gamma_half(HalfInteger(1)) == pytest.approx(SQRT_PI, rel=1e-15)

    def test_anchor_one(self):
        assert gamma_half(HalfInteger(2)) == 1.0

    def test_five_halves(self):
        # two recursion steps from Gamma(1/2): (3/2)(1/2)sqrt(pi)
        assert gamma_half(HalfInteger(5)) == pytest.approx(0.75 * SQRT_PI, rel=1e-15)
        assert gamma_half(HalfInteger(5)) == pytest.approx(1.3293403881791370, rel=1e-12)

    def test_integer_factorials(self):
        for n in range(1, 20):
            assert gamma_half(n) == math.factorial(n - 1)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            gamma_half(HalfInteger(0))
        with pytest.raises(DomainError):
            gamma_half(HalfInteger(-1))

    @pytest.mark.parametrize("twice", range(1, 121))
    def test_recursion_identity(self, twice):
        # Gamma(x+1)/Gamma(x) = x up to x = 60
        x = HalfInteger(twice)
        ratio = gamma_half(HalfInteger(twice + 2)) / gamma_half(x)
        assert ratio == pytest.approx(x.value, rel=1e-13)

    @pytest.mark.parametrize("twice", [1, 3, 7, 31, 99, 119])
    def test_against_mpmath(self, twice):
        assert gamma_half(HalfInteger(twice)) == pytest.approx(
            float(mp.gamma(mp.mpf(twice) / 2)), rel=1e-14
        )


class TestTerminating2F1:
    def test_zero_upper_parameter(self):
        assert hyp2f1_terminating(0, 5, HalfInteger(-4), 0.3 + 0.1j) == 1.0

    def test_two_term_series_by_hand(self):
        # 1 + (-1)(-1)/((-1/2) 1!) * 0.5 = 1 - 1 = 0
        value = hyp2f1_terminating(1, 1, HalfInteger(-1), 0.5)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_three_term_series_exact_rationals(self):
        # independent evaluation with exact arithmetic:
        # sum_n (-2)_n (-2)_n / ((-3/2)_n n!) x^n at x = 1/4
        x = Fraction(1, 4)
        expected = Fraction(0)
        for n in range(3):
            num = Fraction(1)
            den = Fraction(1)
            for j in range(n):
                num *= (-2 + j) * (-2 + j)
                den *= Fraction(-3 + 2 * j, 2) * (j + 1)
            expected += num / den * x ** n
        assert expected == Fraction(1, 2)
        value = hyp2f1_terminating(2, 2, HalfInteger(-3), 0.25 + 0j)
        assert value.real == pytest.approx(float(expected), rel=1e-14)
        assert value.imag == 0.0

    def test_pole_detected(self):
        # c = -1 integer with min(k, l) = 2 crosses the Pochhammer zero
        with pytest.raises(PoleError):
            hyp2f1_terminating(2, 3, -1.0, 0.5)

    @given(
        st.integers(0, 8), st.integers(0, 8),
        st.integers(-9, 9).filter(lambda t: t % 2 == 1),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    )
    def test_symmetry_in_upper_parameters(self, k, l, twice_c, x):
        c = HalfInteger(twice_c)
        assert hyp2f1_terminating(k, l, c, x) == hyp2f1_terminating(l, k, c, x)

    @pytest.mark.parametrize("k,l,twice_c,x", [
        (2, 3, -3, 0.4 + 0.2j),
        (4, 4, -7, -0.8 + 0.1j),
        (1, 5, 3, 2.5 - 1.0j),
    ])
    def test_against_mpmath(self, k, l, twice_c, x):
        got = hyp2f1_terminating(k, l, HalfInteger(twice_c), x)
        want = complex(mp.hyp2f1(-k, -l, mp.mpf(twice_c) / 2, x))
        assert got == pytest.approx(want, rel=1e-12)


class TestReal2F1:
    def test_unit_at_zero(self):
        assert hyp2f1_real(0.3, -2.2, 0.7, 0.0) == 1.0

    @given(st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False),
           st.floats(-5, 5, allow_nan=False).filter(
               lambda c: not (c <= 0 and float(c).is_integer())))
    def test_unit_at_zero_for_all_parameters(self, a, b, c):
        assert hyp2f1_real(a, b, c, 0.0) == 1.0

    def test_pfaff_closed_form(self):
        # 2F1(a, b; b; x) = (1-x)^(-a)
        assert hyp2f1_real(0.5, 3.0, 3.0, -1.0) == pytest.approx(2 ** -0.5, rel=1e-12)

    def test_log_identity(self):
        # 2F1(1, 1; 2; x) = -ln(1-x)/x
        assert hyp2f1_real(1.0, 1.0, 2.0, -0.5) == pytest.approx(
            math.log(1.5) / 0.5, rel=1e-12
        )
        assert hyp2f1_real(1.0, 1.0, 2.0, -0.5) == pytest.approx(0.8109302162163288,
                                                                 rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hyp2f1_real(0.5, 0.5, 1.5, 1.0)
        with pytest.raises(PoleError):
            hyp2f1_real(0.5, 0.5, -2.0, 0.5)

    def test_positive_branch_against_mpmath(self):
        for x in (0.1, 0.5, 0.9):
            got = hyp2f1_real(0.5, 1.5, 2.5, x)
            assert got == pytest.approx(float(mp.hyp2f1(0.5, 1.5, 2.5, x)), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([-0.5, 0.5, 1.0, 1.5]),
        st.sampled_from([-0.5, 0.5, 1.0, 1.5]),
        st.sampled_from([-0.5, 0.5, 1.0, 1.5]),
        st.floats(min_value=-0.9, max_value=-1e-6),
    )
    def test_pfaff_agrees_with_direct_series(self, a, b, c, x):
        direct, scale = _direct_series(a, b, c, x)
        via = hyp2f1_real(a, b, c, x)
        # cancellation floor: the series loses all digits at zeros of F
        tol = 1e-10 * max(abs(direct), abs(via), 1e-6 * scale)
        assert abs(via - direct) <= tol

    def test_engine_regime_against_mpmath(self):
        # the engine only ever calls with c in {1/2, -1/2} and x <= 0
        for half_c in (0.5, -0.5):
            for x in (-1e-3, -0.02, -0.5, -5.0):
                for a, b in ((0.5, 0.5), (1.5, 2.5), (3.0, 1.0), (4.5, 4.5)):
                    got = hyp2f1_real(a, b, half_c, x)
                    want = float(mp.hyp2f1(a, b, half_c, x))
                    assert got == pytest.approx(want, rel=1e-12)


def _direct_series(a, b, c, x):
    total, term, scale = 1.0, 1.0, 1.0
    for n in range(50_000):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
        total += term
        scale += abs(term)
        if abs(term) < 1e-17 * max(abs(total), 1e-300):
            break
    return total, scale
