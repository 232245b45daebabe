"""Validation suite: golden-matrix regression, selection rules, symmetry,
oracle agreement, trends and robust-mode ordering.

Each check returns a CheckResult; the CLI validate command and the
acceptance tests share these functions so there is a single source of truth
for every criterion.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import namedtuple

from . import reference
from .channel import (
    DEFAULT_STRENGTH_COEFF,
    DEFAULT_W_VARIANT,
    TurbulenceSpec,
    derive_constants,
    turbulence_strength,
)
from .engine import (
    NORMALIZATION_RAW,
    ModeIndex,
    ModePair,
    build_matrix,
    expand_modes,
    joint_probability,
    pi_seeds,
    rytov_sweep,
    selection_rule_allowed,
)
from .oracle import (
    DEFAULT_NODES,
    QuadratureSpec,
    check_node_count,
    detection_waist,
    overlap_table,
    vacuum_probability_oracle,
)

SWEEP_GRID = tuple(round(0.01 * i, 10) for i in range(11))


class CheckResult(namedtuple("CheckResult",
                             "name passed max_deviation detail elapsed_s extras",
                             defaults=(None, "", None, None))):
    """One check's outcome: name, passed, max_deviation (or None), detail,
    elapsed_s (or None until run_checks times the check) and extras (a dict
    or None)."""

    __slots__ = ()

    def as_dict(self) -> dict:
        """The fields in order, without extras when it is empty."""
        fields = self._asdict()
        if not self.extras:
            del fields["extras"]
        return fields


def _reference_matrix(rytov: float, w_variant: str = DEFAULT_W_VARIANT,
                      strength_coeff: float = DEFAULT_STRENGTH_COEFF):
    turb = TurbulenceSpec.from_rytov(rytov, strength_coeff=strength_coeff)
    return build_matrix(reference.reference_config(), turb, w_variant=w_variant)


def check_vacuum_golden(w_variant: str = DEFAULT_W_VARIANT) -> CheckResult:
    """All 100 vacuum entries within tolerance; zero entries at noise level."""
    t0 = time.perf_counter()
    matrix = _reference_matrix(0.0, w_variant)
    elapsed = time.perf_counter() - t0
    peak = matrix.max_value()
    pairs = list(zip(itertools.chain(*matrix.values),
                     itertools.chain(*reference.VACUUM_MATRIX)))
    worst = max(abs(got - want) for got, want in pairs)
    zero_worst = max([0.0] + [got / peak for got, want in pairs if want == 0.0])
    passed = worst <= reference.ENTRY_TOL and zero_worst <= 1e-6
    return CheckResult(
        "vacuum_golden", passed, worst,
        f"max |dev| {worst:.2e} (tol {reference.ENTRY_TOL}); "
        f"zero entries <= {zero_worst:.2e} of peak (tol 1e-6); "
        f"w_variant={matrix.consts.w_variant}",
        elapsed,
    )


def check_turbulence_golden(strength_coeff: float = DEFAULT_STRENGTH_COEFF) -> CheckResult:
    """All 100 turbulence entries within tolerance at the reference rytov."""
    t0 = time.perf_counter()
    matrix = _reference_matrix(reference.REFERENCE_RYTOV,
                               strength_coeff=strength_coeff)
    elapsed = time.perf_counter() - t0
    pairs = list(zip(itertools.chain(*matrix.values),
                     itertools.chain(*reference.TURBULENCE_MATRIX)))
    worst = max(abs(got - want) for got, want in pairs if want >= 1e-4)
    tiny_worst = max(abs(got - want) for got, want in pairs if want < 1e-4)
    passed = worst <= reference.ENTRY_TOL and tiny_worst <= reference.TINY_ENTRY_TOL
    return CheckResult(
        "turbulence_golden", passed, max(worst, tiny_worst),
        f"max |dev| {worst:.2e} (tol {reference.ENTRY_TOL}); "
        f"tiny entries {tiny_worst:.2e} (tol {reference.TINY_ENTRY_TOL}); "
        f"gamma={matrix.consts.gamma:.6g}",
        elapsed,
    )


def check_selection_rules() -> CheckResult:
    """Vacuum zero pattern coincides exactly with the selection rules."""
    matrix = _reference_matrix(0.0)
    peak = matrix.max_value()
    mismatches = []
    worst = 0.0
    for s, row in zip(matrix.ordering, matrix.values):
        for i, value in zip(matrix.ordering, row):
            allowed = selection_rule_allowed(ModePair(s, i))
            if not allowed:
                worst = max(worst, value / peak)
            if allowed == (value <= 1e-6 * peak):
                mismatches.append((s.label(), i.label(),
                                   "allowed-but-zero" if allowed else "forbidden-but-nonzero"))
    return CheckResult(
        "selection_rules", not mismatches, worst,
        f"forbidden entries <= {worst:.2e} of peak; mismatches: {mismatches or 'none'}",
    )


def check_oracle(nodes: int = DEFAULT_NODES) -> CheckResult:
    """Quadrature oracle reproduces the engine's vacuum ratios (orders <= 2)
    and is self-converged under node doubling. The engine's ratios are the
    entries of one raw vacuum matrix over the nine modes with orders <= 2,
    over its raw (00,00) entry.

    The overlap table is computed at nodes and again at 2 * nodes; each pass
    costs O(nodes) time and constant memory (see oracle.py), and nodes
    outside oracle.MIN_NODES..MAX_NODES raise DomainError before any
    quadrature runs.
    """
    t0 = time.perf_counter()
    cfg = reference.reference_config()
    spec = QuadratureSpec.for_config(cfg, nodes=nodes)
    table = overlap_table(cfg, spec, max_order=2, check_convergence=True)
    modes = [ModeIndex(m, n) for m in range(3) for n in range(3)]
    matrix = build_matrix(cfg, TurbulenceSpec.vacuum(), modes, NORMALIZATION_RAW)
    anchor_engine = matrix.normalization.raw_reference_value
    worst = 0.0
    zero_worst = 0.0
    for s, i in itertools.product(modes, repeat=2):
        pair = ModePair(s, i)
        eng = matrix.value(s, i) / anchor_engine
        orc = vacuum_probability_oracle(pair, cfg, table=table)
        if selection_rule_allowed(pair):
            worst = max(worst, abs(orc / eng - 1.0))
        else:
            zero_worst = max(zero_worst, orc)
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-2 and zero_worst <= 1e-6 and elapsed < 60.0
    return CheckResult(
        "oracle_agreement", passed, worst,
        f"allowed-pair ratio dev {worst:.2e} (tol 1e-2); forbidden-pair "
        f"oracle residue {zero_worst:.2e}; nodes={nodes}",
        elapsed,
        extras={
            "detection_waist_m": detection_waist(cfg),
            "detection_phase_rate": "k/(4R), half the propagated-beam curvature",
            "pump_width_m": cfg.pump_waist,
            "half_width_m": spec.half_width,
        },
    )


def check_symmetry_factorization() -> CheckResult:
    """Exchange symmetry and the factorization cross-identity, orders <= 3,
    in vacuum and at the reference turbulence.

    The products come from joint_probability, the public per-pair product,
    which no other check reads; matrices read the same per-axis factors from
    a table, which test_engine checks entry by entry against it.

    With J[x][y] = P((a, b), (c, d)), x = 4a + c and y = 4b + d, the identity
    P(a,b,c,d) P(a2,b2,c2,d2) = P(a,b2,c,d2) P(a2,b,c2,d) reads
    J[x][y] J[x2][y2] = J[x][y2] J[x2][y]: entries (y, y2) and (y2, y) of the
    outer product of rows x and x2. Swapping x with x2 or y with y2 only
    commutes or swaps the two products, and x = x2 or y = y2 gives equal
    products, so for each pair of rows x < x2 the outer product is compared
    with its transpose above the diagonal, and each relative deviation is
    computed where the two differ.
    """
    cfg = reference.reference_config()
    modes = expand_modes(3)
    # the exchange deviation is the same for (s, i) and (i, s), and 0 for s = i
    exchange = [(ModePair(s, i), ModePair(i, s))
                for s, i in itertools.combinations(modes, 2)]
    index = [ModeIndex(a, b) for a in range(4) for b in range(4)]  # 4a + b
    worst = 0.0
    for rytov in (0.0, reference.REFERENCE_RYTOV):
        consts = derive_constants(cfg, turbulence_strength(rytov))
        for pair, swapped in exchange:
            p = joint_probability(pair, consts)
            q = joint_probability(swapped, consts)
            if p != q:
                worst = max(worst, abs(p - q) / max(abs(p), abs(q)))
        rows = [[joint_probability(ModePair(index[4 * a + b], index[4 * c + d]), consts)
                 for b in range(4) for d in range(4)]
                for a in range(4) for c in range(4)]
        for r1, r2 in itertools.combinations(rows, 2):
            outer = [[p * q for q in r2] for p in r1]
            devs = [abs(lhs - rhs) / max(abs(lhs), abs(rhs))
                    for y, (row, col) in enumerate(zip(outer, zip(*outer)), 1)
                    for lhs, rhs in zip(row[y:], col[y:]) if lhs != rhs]
            if devs:
                worst = max(worst, *devs)
    return CheckResult(
        "symmetry_factorization", worst <= 1e-10, worst,
        f"worst relative deviation {worst:.2e} (tol 1e-10)",
    )


def _trend_series(pair: ModePair, grid=SWEEP_GRID) -> list[float]:
    return rytov_sweep(reference.reference_config(), grid, [pair])[0]


def check_trend_allowed() -> CheckResult:
    """P(00,00) strictly decreasing across the sweep grid."""
    series = _trend_series(ModePair(ModeIndex(0, 0), ModeIndex(0, 0)))
    ok = all(a > b for a, b in zip(series, series[1:]))
    return CheckResult(
        "trend_allowed_decreasing", ok, None,
        "P(00,00) over rytov grid: " + ", ".join(f"{v:.5f}" for v in series),
    )


def check_trend_forbidden() -> CheckResult:
    """P(00,01) starting at zero and strictly increasing across the grid.

    The underlying model rises from zero but peaks inside the grid (leak-in
    competes with beam-spread loss), so the strict global monotonicity
    demanded here fails beyond the peak; see the detail for the series.
    """
    series = _trend_series(ModePair(ModeIndex(0, 0), ModeIndex(0, 1)))
    starts_zero = series[0] <= 1e-6 * reference.CALIBRATION_REFERENCE
    increasing = all(a < b for a, b in zip(series, series[1:]))
    rising_prefix = next((idx for idx in range(1, len(series))
                          if series[idx] <= series[idx - 1]), len(series))
    return CheckResult(
        "trend_forbidden_increasing", starts_zero and increasing, None,
        f"P(00,01) starts at {series[0]:.2e}, rises through grid index "
        f"{rising_prefix - 1} (rytov {SWEEP_GRID[rising_prefix - 1]}) then "
        "falls; series: " + ", ".join(f"{v:.6f}" for v in series),
    )


def check_robust_ordering() -> CheckResult:
    """Crosstalk is nonuniform at the reference turbulence: leakage into
    (00,01)/(00,10) beats (00,12)/(00,21), and the allowed (00,02)/(00,20)
    pairs retain more than leaks gain."""
    # row 00 (the first of the reference ordering) of each matrix, keyed on the idler's label
    t, v = ({i.label(): p for i, p in zip(m.ordering, m.values[0])}
            for m in (_reference_matrix(reference.REFERENCE_RYTOV), _reference_matrix(0.0)))
    leak_strong = min(t["01"], t["10"])
    leak_weak = max(t["12"], t["21"])
    retention_02 = t["02"] / v["02"]
    retention_20 = t["20"] / v["20"]
    stay_beats_leak = t["02"] > t["01"] and t["20"] > t["10"]
    passed = leak_strong > leak_weak and stay_beats_leak
    return CheckResult(
        "robust_mode_ordering", passed, None,
        f"leak(00->01/10) >= {leak_strong:.4g} > leak(00->12/21) <= "
        f"{leak_weak:.4g}; retention(00,02)={retention_02:.4f}, "
        f"retention(00,20)={retention_20:.4f}; allowed pairs outweigh leaks: "
        f"{stay_beats_leak}",
    )


def check_specfun() -> CheckResult:
    """Anchor values and invariants of the per-term references' two special
    functions: Gamma at half-integers and f_kernel's terminating 2F1."""
    # here, not at the top: no other check reads the per-term module
    from .perterm import _gamma_half, _hyp2f1_terminating

    failures = []
    sqrt_pi = math.sqrt(math.pi)

    def expect(label, got, want, rtol=1e-13, atol=0.0):
        if abs(got - want) > rtol * abs(want) + atol:
            failures.append(f"{label}: {got!r} != {want!r}")

    expect("gamma(1/2)", _gamma_half(1), sqrt_pi)
    expect("gamma(1)", _gamma_half(2), 1.0)
    expect("gamma(5/2)", _gamma_half(5), 0.75 * sqrt_pi)
    for twice in range(1, 120):
        x = twice / 2
        if abs(_gamma_half(twice + 2) / _gamma_half(twice) - x) > 1e-13 * x:
            failures.append(f"recursion at {twice}/2")
    expect("2F1(-1,-1;-1/2;1/2)",
           _hyp2f1_terminating(1, 1, -0.5, 0.5).real, 0.0, atol=1e-15)
    for k, l, c, x in ((2, 3, -1.5, 0.3 + 0.2j), (4, 1, 1.5, -0.7 + 0.1j)):
        if _hyp2f1_terminating(k, l, c, x) != _hyp2f1_terminating(l, k, c, x):
            failures.append(f"termination symmetry at {(k, l)}")
    return CheckResult(
        "specfun", not failures, None,
        "all anchors/invariants ok" if not failures else "; ".join(failures[:5]),
    )


def reference_seeds() -> list[dict]:
    """The generating-function seeds C, alpha, beta and delta of the
    reference channel in vacuum and at the reference Rytov variance: all the
    closed form holds about each channel's Pi (see engine.py). Complex seeds
    are [real, imaginary] pairs."""
    cfg = reference.reference_config()
    rows = []
    for rytov in (0.0, reference.REFERENCE_RYTOV):
        seeds = pi_seeds(derive_constants(cfg, turbulence_strength(rytov)))
        rows.append({"rytov": rytov, "C": seeds.c,
                     "alpha": [seeds.alpha.real, seeds.alpha.imag],
                     "beta": [seeds.beta.real, seeds.beta.imag], "delta": seeds.delta})
    return rows


ALL_CHECKS = (
    check_vacuum_golden,
    check_turbulence_golden,
    check_selection_rules,
    check_oracle,
    check_symmetry_factorization,
    check_trend_allowed,
    check_trend_forbidden,
    check_robust_ordering,
    check_specfun,
)

_TURBULENCE_CHECKS = {check_turbulence_golden, check_symmetry_factorization,
                      check_trend_allowed, check_trend_forbidden,
                      check_robust_ordering}


def run_checks(vacuum_only: bool = False,
               oracle_nodes: int = DEFAULT_NODES) -> list[CheckResult]:
    """Run every check (only the vacuum ones if vacuum_only) in order.

    A check that does not time itself gets its whole call as elapsed_s. An
    oracle node count out of range raises DomainError before any check runs.
    """
    check_node_count(oracle_nodes)
    results = []
    for fn in ALL_CHECKS:
        if vacuum_only and fn in _TURBULENCE_CHECKS:
            continue
        t0 = time.perf_counter()
        result = fn(oracle_nodes) if fn is check_oracle else fn()
        if result.elapsed_s is None:
            result = result._replace(elapsed_s=time.perf_counter() - t0)
        results.append(result)
    return results
