"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion.

Known red: criterion 6b (global strict increase of the forbidden-pair
probability across the full sweep grid). The model that reproduces both
reference matrices rises from zero but peaks near rytov 0.05 because leak-in
competes with beam-spread loss, so the literal criterion cannot hold on the
extended grid; the rising weak-turbulence prefix is checked and reported
instead. Everything else is green.
"""

import pytest

from hgspdc.channel import STRENGTH_COEFF_TEXTBOOK, W_VARIANT_WAIST
from hgspdc.validate import (
    SWEEP_GRID,
    check_oracle,
    check_robust_ordering,
    check_selection_rules,
    check_specfun,
    check_symmetry_factorization,
    check_trend_allowed,
    check_trend_forbidden,
    check_turbulence_golden,
    check_vacuum_golden,
    _trend_series,
)
from hgspdc.engine import ModeIndex, ModePair


def _report(num: str, result, extra: str = "") -> None:
    status = "PASS" if result.passed else "FAIL"
    dev = (f" max_dev={result.max_deviation:.3e}"
           if result.max_deviation is not None else "")
    timing = f" [{result.elapsed_s:.2f}s]" if result.elapsed_s is not None else ""
    print(f"ACCEPTANCE {num} {result.name}: {status}{dev}{timing} {extra}")
    if not result.passed:
        print(f"  detail: {result.detail}")


def test_criterion_1_vacuum_golden_matrix():
    result = check_vacuum_golden()
    # this criterion freezes the receiver-scale variant: the propagated
    # radius must reproduce the table and the bare-waist variant must not
    waist = check_vacuum_golden(W_VARIANT_WAIST)
    _report("1", result, f"(waist-variant max_dev={waist.max_deviation:.2e})")
    assert result.passed
    assert result.elapsed_s < 1.0
    assert not waist.passed, "bare-waist variant unexpectedly reproduces the table"


def test_criterion_2_turbulence_golden_matrix():
    result = check_turbulence_golden()
    # analogous arbitration to criterion 1: the default (calibrated) strength
    # coefficient must reproduce the table and the textbook constant must
    # not; the reference data itself pins the coefficient to 1.771 +/- 0.011
    textbook = check_turbulence_golden(strength_coeff=STRENGTH_COEFF_TEXTBOOK)
    _report("2", result, f"(textbook-coeff max_dev={textbook.max_deviation:.2e})")
    assert result.passed
    assert result.elapsed_s < 1.0
    assert not textbook.passed, (
        "the textbook strength coefficient unexpectedly reproduces the table"
    )


def test_criterion_3_selection_rule_equivalence():
    result = check_selection_rules()
    _report("3", result)
    assert result.passed


def test_criterion_4_oracle_equivalence():
    result = check_oracle(nodes=512)
    _report("4", result)
    assert result.passed
    assert result.elapsed_s < 60.0


def test_criterion_5_symmetry_and_factorization():
    result = check_symmetry_factorization()
    _report("5", result)
    assert result.passed


def test_criterion_6a_allowed_trend_decreasing():
    result = check_trend_allowed()
    _report("6a", result)
    assert result.passed


def test_criterion_6b_forbidden_trend_increasing():
    # verbatim criterion; see the module docstring for why this stays red
    result = check_trend_forbidden()
    prefix = _trend_series(ModePair(ModeIndex(0, 0), ModeIndex(0, 1)),
                           SWEEP_GRID[:6])
    prefix_rises = (prefix[0] < 1e-9
                    and all(a < b for a, b in zip(prefix, prefix[1:])))
    _report("6b", result, f"(weak-turbulence prefix rises from 0: {prefix_rises})")
    assert prefix_rises, "even the weak-turbulence prefix fails to rise"
    assert result.passed, (
        "P(00,01) is not strictly increasing over the full grid: it peaks "
        "near rytov 0.05 and then falls; the reference-matrix-consistent "
        "model cannot satisfy the literal criterion"
    )


def test_criterion_7_robust_mode_ordering():
    result = check_robust_ordering()
    _report("7", result)
    assert result.passed


def test_criterion_8_special_function_suite():
    result = check_specfun()
    # no realness is asserted anywhere: each per-axis factor sums only the
    # real parts of its form's terms (K(b, a) is the conjugate of K(a, b)),
    # so no imaginary residue is computed or checked
    _report("8", result, "(per-axis factors sum real parts; realness is not asserted)")
    assert result.passed
