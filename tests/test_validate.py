"""Validation checks against plain reference computations."""

import pytest

from hgspdc import engine, reference
from hgspdc.channel import derive_constants, turbulence_strength
from hgspdc.engine import ModeIndex, ModePair, expand_modes, joint_probability
from hgspdc.oracle import MAX_NODES
from hgspdc.validate import check_oracle, check_symmetry_factorization, run_checks


def _relative_gap(p, q):
    return abs(p - q) / max(abs(p), abs(q))


def test_symmetry_factorization_matches_nested_loops():
    cfg = reference.reference_config()
    rng = range(4)
    worst = 0.0
    for rytov in (0.0, reference.REFERENCE_RYTOV):
        consts = derive_constants(cfg, turbulence_strength(rytov))
        modes = expand_modes(3)
        for s in modes:
            for i in modes:
                p = joint_probability(ModePair(s, i), consts)
                q = joint_probability(ModePair(i, s), consts)
                if p != 0.0 or q != 0.0:
                    worst = max(worst, _relative_gap(p, q))

        joint = {}
        for a in rng:
            for b in rng:
                for c in rng:
                    for d in rng:
                        joint[a, b, c, d] = joint_probability(
                            ModePair(ModeIndex(a, b), ModeIndex(c, d)), consts)
        for a in rng:
            for b in rng:
                for c in rng:
                    for d in rng:
                        for a2 in rng:
                            for b2 in rng:
                                for c2 in rng:
                                    for d2 in rng:
                                        lhs = joint[a, b, c, d] * joint[a2, b2, c2, d2]
                                        rhs = joint[a, b2, c, d2] * joint[a2, b, c2, d]
                                        if lhs != 0.0 or rhs != 0.0:
                                            worst = max(worst, _relative_gap(lhs, rhs))

    result = check_symmetry_factorization()
    assert result.max_deviation == worst
    assert result.passed


def test_run_checks_leave_the_gamma_table_alone():
    # check_specfun calls Gamma unwrapped: once the engine's tables are warm,
    # a full run neither adds to nor evicts from the cached Gamma values
    run_checks()
    before = engine._gamma_half.cache_info()
    run_checks()
    assert engine._gamma_half.cache_info() == before


def test_oracle_default_nodes_match_the_cap():
    # the default node count resolves the allowed-pair deviation as well as
    # the most nodes allowed
    assert check_oracle().max_deviation == pytest.approx(
        check_oracle(MAX_NODES).max_deviation, rel=0, abs=1e-14)
