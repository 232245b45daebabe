"""Overlap engine: kernels against independent high-precision oracles,
symmetries, selection rules, matrix assembly and golden regression."""

import dataclasses
import math
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgspdc import engine, reference
from hgspdc.channel import TurbulenceSpec, derive_constants, turbulence_strength
from hgspdc.engine import (
    DEFAULT_ORDERING,
    ModeIndex,
    ModePair,
    NORMALIZATION_RAW,
    _pi_cached,
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


def oracle_k(a, b, consts):
    c1, c2 = mp.mpf(consts.c1), mp.mpf(consts.c2)
    c3, c4 = mp.mpf(consts.c3), mp.mpf(consts.c4)
    total = mp.mpc(0)
    for p in range(a + 1):
        for q in range(b + 1):
            s, t = p + q, a + b - p - q
            pre = (mp.binomial(a, p) * mp.binomial(b, q) * (-1) ** (b - q)
                   * (1 / mp.sqrt(c1)) ** (2 + s) * (1 / mp.sqrt(c2)) ** t)
            sig0 = (1 + (-1) ** s) * (1 + (-1) ** t)
            sig1 = (-1 + (-1) ** s) * (-1 + (-1) ** t)
            bracket = mp.mpc(0)
            if sig0:
                bracket += (sig0 * mp.sqrt(c1 / c2)
                            * mp.gamma(mp.mpf(1 + s) / 2) * mp.gamma(mp.mpf(1 + t) / 2)
                            * mp.hyp2f1(mp.mpf(1 + s) / 2, mp.mpf(1 + t) / 2,
                                        mp.mpf(1) / 2, c4))
            if sig1:
                g2 = mp.gamma(mp.mpf(2 + s) / 2) * mp.gamma(mp.mpf(2 + t) / 2)
                den = c2 * c3 * (1 + s) * (1 + t)
                bracket -= (mp.mpc(0, 1) * sig1 * (4 * c1 * c2 + c3 ** 2) / den * g2
                            * mp.hyp2f1(mp.mpf(2 + s) / 2, mp.mpf(2 + t) / 2,
                                        -mp.mpf(1) / 2, c4))
                bracket += (mp.mpc(0, 1) * sig1
                            * (4 * c1 * c2 + c3 ** 2 * (4 + a + b)) / den * g2
                            * mp.hyp2f1(mp.mpf(2 + s) / 2, mp.mpf(2 + t) / 2,
                                        mp.mpf(1) / 2, c4))
            total += pre * bracket
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
        pref = 1 / (mp.mpf(consts.cfg.wavelength) ** 2 * mp.mpf(consts.cfg.distance) ** 2
                    * mp.sqrt(mp.pi * mp.mpf(consts.b1))
                    * mp.factorial(mu) * mp.factorial(nu) * mp.mpf(2) ** (mu + nu))
        return pref * total, pref * scale


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
        # shrink c3 below the guard threshold; the engine switches to the
        # first-order expansion, which must match the exact bracket evaluated
        # at high precision (where the cancellation costs nothing)
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
        for factor in (1.5e-6, 0.9e-6):  # straddle the 1e-6 threshold
            c3 = factor * (c1 + c2)
            consts = dataclasses.replace(
                turb_consts, c3=c3, c4=-c3 ** 2 / (4 * c1 * c2))
            values.append(k_kernel(3, 1, consts))
        rel = abs(values[0] - values[1]) / abs(values[0])
        assert rel < 1e-5


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

    def test_max_order_guard(self, vac_consts):
        with pytest.raises(DomainError):
            pi_factor(11, 0, vac_consts)

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

    def test_failure_names_entry(self, vac_consts, monkeypatch):
        # the first deep negative entry in row order is (00,01); the error
        # gives its calibrated value, not the raw one
        monkeypatch.setattr(engine, "pi_factor",
                            lambda mu, nu, consts: -1e-3 if {mu, nu} == {0, 1} else 1.0)
        with pytest.raises(NumericalError, match=r"P\(00,01\) = -0.00031307 "):
            probability_matrix(DEFAULT_ORDERING, vac_consts)

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
                p = joint_probability(ModePair(s, i), consts)
                assert v == p or (v == 0.0 and p < 0.0)

    def test_memoization_distinct_pi_count(self, ref_cfg):
        # a 10-mode matrix costs O(N) distinct pi evaluations, not O(N^2):
        # orders 0..3 per axis make 10 sorted (mu, nu) combinations
        consts = derive_constants(ref_cfg, turbulence_strength(0.0171))
        _pi_cached.cache_clear()
        probability_matrix(DEFAULT_ORDERING, consts,
                           normalization=NORMALIZATION_RAW)
        assert _pi_cached.cache_info().misses == 10

    def test_concurrent_fills_are_consistent(self, ref_cfg):
        # idempotent cache writes: hammering the same evaluations from
        # several threads must agree bitwise with the serial answer
        from concurrent.futures import ThreadPoolExecutor

        consts = derive_constants(ref_cfg, turbulence_strength(0.0137))
        _pi_cached.cache_clear()

        def table(_):
            return tuple(pi_factor(mu, nu, consts)
                         for mu in range(4) for nu in range(4))

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(table, range(16)))
        assert all(r == results[0] for r in results)
        serial = tuple(pi_factor(mu, nu, consts)
                       for mu in range(4) for nu in range(4))
        assert serial == results[0]


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
        k_kernel.cache_clear()
        _pi_cached.cache_clear()
        rytov_sweep(ref_cfg, [0.1 * k / 499 for k in range(500)], pairs)
        for cache in (k_kernel, _pi_cached):
            info = cache.cache_info()
            assert info.maxsize is not None
            assert info.misses > info.maxsize >= info.currsize

    def test_sweep_clamps_like_a_matrix(self, ref_cfg, monkeypatch):
        # roundoff below zero within 1e-12 of the series peak reads as 0; a
        # deeper negative probability is a numerical failure
        pair = ModePair(ModeIndex(0, 0), ModeIndex(0, 1))

        def sweep(residue):
            values = iter([1.0, residue])
            monkeypatch.setattr(engine, "joint_probability",
                                lambda pair, consts: next(values))
            return rytov_sweep(ref_cfg, [0.0, 0.01], [pair],
                               normalization=NORMALIZATION_RAW)

        assert sweep(-1e-13) == [[1.0, 0.0]]
        with pytest.raises(NumericalError):
            sweep(-1e-11)

    def test_sweep_failure_names_pair_and_rytov(self, ref_cfg, monkeypatch):
        # the error gives the calibrated value, not the raw one
        bad = ModePair(ModeIndex(9, 0), ModeIndex(10, 0))
        monkeypatch.setattr(
            engine, "joint_probability",
            lambda pair, consts: -1e-6 if pair == bad and consts.gamma else 1.0)
        pairs = [ModePair(ModeIndex(0, 0), ModeIndex(0, 0)), bad]
        with pytest.raises(NumericalError,
                           match=r"P\(90,10,0\) at rytov 0.01 = -3.1307e-07 "):
            rytov_sweep(ref_cfg, [0.0, 0.01], pairs)

    @pytest.mark.parametrize("grid,normalization", [
        ([], "calibrated"), ([-0.01, 0.0], "calibrated"),
        ([0.02, 0.01], "calibrated"), ([0.0], "unit"),
    ])
    def test_sweep_rejects_bad_input(self, ref_cfg, grid, normalization):
        pair = ModePair(ModeIndex(0, 0), ModeIndex(0, 0))
        with pytest.raises(DomainError):
            rytov_sweep(ref_cfg, grid, [pair], normalization=normalization)
