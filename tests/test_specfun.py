"""Half-integer Gamma and f_kernel's terminating 2F1, the special functions
of the per-term references: anchor values, exact-rational oracles and
property-based invariants."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgspdc.perterm import _gamma_half, _hyp2f1_terminating
from hgspdc.errors import DomainError

SQRT_PI = math.sqrt(math.pi)

mp.mp.dps = 50


class TestGammaHalf:
    def test_anchor_half(self):
        assert _gamma_half(1) == pytest.approx(SQRT_PI, rel=1e-15)

    def test_anchor_one(self):
        assert _gamma_half(2) == 1.0

    def test_five_halves(self):
        # two recursion steps from Gamma(1/2): (3/2)(1/2)sqrt(pi)
        assert _gamma_half(5) == pytest.approx(0.75 * SQRT_PI, rel=1e-15)
        assert _gamma_half(5) == pytest.approx(1.3293403881791370, rel=1e-12)

    def test_integer_factorials(self):
        for n in range(1, 20):
            assert _gamma_half(2 * n) == math.factorial(n - 1)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            _gamma_half(0)
        with pytest.raises(DomainError):
            _gamma_half(-1)

    @pytest.mark.parametrize("twice", range(1, 121))
    def test_recursion_identity(self, twice):
        # Gamma(x+1)/Gamma(x) = x up to x = 60
        ratio = _gamma_half(twice + 2) / _gamma_half(twice)
        assert ratio == pytest.approx(twice / 2, rel=1e-13)

    @pytest.mark.parametrize("twice", [1, 3, 7, 31, 99, 119])
    def test_against_mpmath(self, twice):
        assert _gamma_half(twice) == pytest.approx(
            float(mp.gamma(mp.mpf(twice) / 2)), rel=1e-14
        )


class TestTerminating2F1:
    def test_zero_upper_parameter(self):
        assert _hyp2f1_terminating(0, 5, -2.0, 0.3 + 0.1j) == 1.0

    def test_two_term_series_by_hand(self):
        # 1 + (-1)(-1)/((-1/2) 1!) * 0.5 = 1 - 1 = 0
        value = _hyp2f1_terminating(1, 1, -0.5, 0.5)
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
        value = _hyp2f1_terminating(2, 2, -1.5, 0.25 + 0j)
        assert value.real == pytest.approx(float(expected), rel=1e-14)
        assert value.imag == 0.0

    @given(
        st.integers(0, 8), st.integers(0, 8),
        st.integers(-9, 9).filter(lambda t: t % 2 == 1),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    )
    def test_symmetry_in_upper_parameters(self, k, l, twice_c, x):
        c = twice_c / 2
        assert _hyp2f1_terminating(k, l, c, x) == _hyp2f1_terminating(l, k, c, x)

    @pytest.mark.parametrize("k,l,twice_c,x", [
        (2, 3, -3, 0.4 + 0.2j),
        (4, 4, -7, -0.8 + 0.1j),
        (1, 5, 3, 2.5 - 1.0j),
    ])
    def test_against_mpmath(self, k, l, twice_c, x):
        got = _hyp2f1_terminating(k, l, twice_c / 2, x)
        want = complex(mp.hyp2f1(-k, -l, mp.mpf(twice_c) / 2, x))
        assert got == pytest.approx(want, rel=1e-12)
