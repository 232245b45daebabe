"""Seeded inputs and output checks shared by the benchmark processes.

Stdlib only: the load generator must not import numpy, and the CLI workload
never imports hgspdc in the generating process.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = ("sweep", "highorder", "warm", "cli")

#: op_p50_ms is the mean of the nearest-rank medians of this many
#: consecutive windows of the run, in time order. A shared host switches
#: between a fast and a slow state every second or so, which leaves a
#: two-humped latency distribution whose run-wide median jumps from one hump
#: to the other with the share of time spent in each; the mean of per-window
#: medians moves smoothly with that share. highorder completes about 90 ops
#: in 20 s, so its windows hold about nine.
P50_WINDOWS = {"sweep": 20, "highorder": 10, "warm": 20, "cli": 1}
#: op_tail_ms is this nearest-rank percentile of the run. In some runs host
#: preemption stretches 1-3% of the short sweep and warm ops by 10-30 ms, so
#: their tail is p90, the highest percentile that measures the program rather
#: than the host; the slower highorder and cli ops use the highest percentile
#: that keeps ten samples beyond it at 20 s per run on a 2-CPU machine.
TAIL = {"sweep": 90, "highorder": 80, "warm": 90, "cli": 75}

#: A traced run (--trace 1) runs this many ops per second of --seconds, in
#: an untraced and then a traced pass over the same inputs, so its per-layer
#: totals are for a fixed input. At this commit both passes together take
#: about --seconds on a 2-CPU machine.
TRACE_OPS_PER_S = {"sweep": 100, "highorder": 1.2, "warm": 40, "cli": 1.5}

#: BLAS pools are pinned to one thread so the load stays within nproc
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")

# reference geometry; the reference tables are built at these values
REF_WAVELENGTH = 0.8e-6
REF_DISTANCE = 5000.0
REF_W0 = 0.1

# anchor of the vacuum (00,00) entry, reference.CALIBRATION_REFERENCE; run.py
# checks the two agree
CALIBRATION = 0.31307

#: peak_rss_mb of an in-process workload is read after this many ops. sweep
#: and highorder grow the engine's caches with every op, so a reading at the
#: end of the run would follow the host's speed rather than the program's
#: memory use; each count is reached within 20 s even on a host running at
#: 40% of its usual speed.
RSS_AT_OPS = {"sweep": 2000, "highorder": 30, "warm": 1000}

RYTOV_MAX = 0.1
HIGHORDER_MAX_SUM = 10
HIGHORDER_VACUUM_EVERY = 4  # every 4th highorder op is vacuum
#: Indices into the fixed vacuum stream (see highorder_inputs) of the first
#: 40 geometries whose vacuum max-sum 10 matrix passes, and of the first 40
#: that fail with a NumericalError, at the time of writing (Python 3.11,
#: x86-64). Vacuum ops alternate between the two lists; a 20 s run uses about
#: 11 of each, and past 40 they repeat.
VACUUM_PASS = (0, 1, 3, 5, 6, 7, 8, 9, 16, 21, 23, 24, 25, 27, 28, 31, 32, 33, 34, 35,
               36, 38, 42, 44, 45, 48, 49, 50, 53, 54, 55, 61, 62, 64, 66, 68, 69, 73, 74, 77)
VACUUM_FAIL = (2, 4, 10, 11, 12, 13, 14, 15, 17, 18, 19, 20, 22, 26, 29, 30, 37, 39, 40, 41,
               43, 46, 47, 51, 52, 56, 57, 58, 59, 60, 63, 65, 67, 70, 71, 72, 75, 76, 78, 79)
#: a run of these workloads stops only at the end of a block of this many
#: ops: in highorder, six turbulent ops, one passing and one failing vacuum op
BLOCK = {"highorder": 2 * HIGHORDER_VACUUM_EVERY}
SWEEP_MAX_SUM = 3
WARM_MAX_SUM = 6
WARM_POOL = 8

# selection-rule zeros of a vacuum matrix must stay below this share of peak
ZERO_SHARE = 1e-6

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


# Host-speed normalization. On small shared hosts a fixed pure-Python loop
# runs up to 1.6x slower or faster from one moment to the next, in bursts
# from milliseconds to minutes, and each CPU drifts on its own; op times
# follow the loop within a few percent. Every benchmark process is therefore
# pinned to one CPU, a short calibration loop runs on it between ops, and
# each timing is scaled to the reference speed at which that loop takes
# CAL_REF_S, using the median of the passes just before and just after it.
CAL_ITERATIONS = 20_000
CAL_REF_S = 0.0012
CAL_EVERY_S = 0.01


def calibration_pass() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration passes taken between ops, at most one per CAL_EVERY_S."""

    def __init__(self):
        self.passes: list[float] = []
        self.last = float("-inf")

    def mark(self) -> int:
        """Call right before an op; returns the index of the last pass."""
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.passes.append(calibration_pass())
            self.last = time.perf_counter()
        return len(self.passes) - 1

    def factors(self, marks: list[int]) -> list[float]:
        """Per op, the factor that scales its wall time to the reference
        speed: from the two passes before the op and the two after it."""
        self.passes.append(calibration_pass())
        self.passes.append(calibration_pass())
        return [CAL_REF_S / median(self.passes[max(0, m - 1):m + 3]) for m in marks]


def factor_around(fn):
    """Run fn() between two calibration passes before and two after; return
    the factor to the reference speed and fn's result."""
    before = [calibration_pass() for _ in range(2)]
    out = fn()
    after = [calibration_pass() for _ in range(2)]
    return CAL_REF_S / median(before + after), out


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to one CPU, the
    last one allowed (interrupts tend to land on the first)."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def rng_for(workload: str, seed: int, stream: str = "") -> random.Random:
    # string seeds are hashed with sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{stream}")


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond_count(n: int, pct: float) -> int:
    """How many of n samples lie beyond the nearest-rank percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def windowed_median(latencies: list[float], windows: int) -> float:
    """Mean over consecutive windows of the nearest-rank median."""
    n = len(latencies)
    windows = max(1, min(windows, n))
    cuts = [n * k // windows for k in range(windows + 1)]
    return statistics.fmean(nearest_rank(sorted(latencies[a:b]), 50)
                            for a, b in zip(cuts, cuts[1:]))


def median(values):
    return statistics.median(values)


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


# ---------------------------------------------------------------- inputs

def random_geometry(rng: random.Random) -> tuple[float, float, float]:
    """Wavelength 0.6-1.6 um, distance 1-20 km, effective width W0 0.05-0.2 m."""
    return (rng.uniform(0.6e-6, 1.6e-6), rng.uniform(1000.0, 20000.0),
            rng.uniform(0.05, 0.2))


def sweep_inputs(seed: int):
    """Reference geometry, a fresh Rytov value per op."""
    rng = rng_for("sweep", seed)
    while True:
        yield (REF_WAVELENGTH, REF_DISTANCE, REF_W0, rng.uniform(0.0, RYTOV_MAX))


def highorder_inputs(seed: int):
    """A fresh channel per op; every HIGHORDER_VACUUM_EVERY-th op in vacuum.

    Whether a vacuum max-sum 10 matrix fails with a NumericalError flips
    from one geometry to the next like a coin, so seeded vacuum geometries
    would make the failure share a matter of the seed. The vacuum ops
    therefore take the same geometries in every run, from one fixed stream,
    alternating VACUUM_PASS and VACUUM_FAIL; the turbulent ops are seeded.
    """
    rng = rng_for("highorder", seed)
    stream = random.Random("highorder:vacuum")
    geometries = [random_geometry(stream) for _ in range(1 + max(VACUUM_PASS + VACUUM_FAIL))]
    vacuum = itertools.cycle([geometries[k] for pair in zip(VACUUM_PASS, VACUUM_FAIL)
                              for k in pair])
    i = 0
    while True:
        if i % HIGHORDER_VACUUM_EVERY == HIGHORDER_VACUUM_EVERY - 1:
            yield (*next(vacuum), 0.0)
        else:
            yield (*random_geometry(rng), rng.uniform(0.0, RYTOV_MAX))
        i += 1


def warm_pool(seed: int) -> list[tuple[float, float, float, float]]:
    rng = rng_for("warm", seed, "pool")
    return [(*random_geometry(rng), rng.uniform(0.0, RYTOV_MAX))
            for _ in range(WARM_POOL)]


def warm_inputs(seed: int):
    """Indices into the pool, Zipf-like: channel k drawn with weight 1/(k+1)."""
    rng = rng_for("warm", seed)
    cum = []
    acc = 0.0
    for k in range(WARM_POOL):
        acc += 1.0 / (k + 1)
        cum.append(acc)
    while True:
        yield rng.choices(range(WARM_POOL), cum_weights=cum)[0]


# each block of ten CLI ops holds this mix, shuffled per block, so the share
# of slow validate calls is fixed and the tail percentile stays off the cliff
CLI_BLOCK = ("matrix-table", "matrix-json", "matrix-json", "matrix-csv",
             "matrix-csv", "sweep", "sweep", "rank", "rank", "validate")


def cli_inputs(seed: int):
    """(kind, argv) pairs for `python -m hgspdc`."""
    rng = rng_for("cli", seed)
    while True:
        block = list(CLI_BLOCK)
        rng.shuffle(block)
        for kind in block:
            yield kind, cli_argv(kind, rng)


def cli_argv(kind: str, rng: random.Random) -> list[str]:
    if kind == "matrix-table":
        return ["matrix"]
    if kind == "matrix-json":
        return ["matrix", "--rytov", repr(rng.uniform(0.0, RYTOV_MAX)),
                "--format", "json"]
    if kind == "matrix-csv":
        # Cn^2 up to 1.2e-16 keeps the reference link below Rytov 0.1
        return ["matrix", "--cn2", repr(rng.uniform(1e-18, 1.2e-16)),
                "--max-sum", str(rng.randint(2, 5)), "--format", "csv"]
    if kind == "sweep":
        grid = [0.0] + sorted(rng.uniform(0.0, RYTOV_MAX) for _ in range(10))
        argv = ["sweep", "--grid", ",".join(repr(g) for g in grid)]
        return argv + (["--format", "json"] if rng.random() < 0.5 else [])
    if kind == "rank":
        return ["rank", "--rytov", repr(rng.uniform(0.005, RYTOV_MAX)),
                "--format", "json"]
    if kind == "validate":
        return ["validate"]
    raise ValueError(f"unknown CLI op kind {kind!r}")


# ---------------------------------------------------------------- checks

def label_orders(label: str) -> tuple[int, int]:
    # the CLI ops stay below order 10, where labels are two digits
    return int(label[0]), int(label[1])


def matrix_problems(values, orders, vacuum: bool) -> list[str]:
    """Finite, non-negative, exactly symmetric under signal<->idler exchange;
    in vacuum the selection-rule zeros stay below ZERO_SHARE of the peak."""
    n = len(values)
    if n == 0 or any(len(row) != n for row in values) or len(orders) != n:
        return [f"matrix shape {n}x? does not match {len(orders)} modes"]
    problems = []
    for i in range(n):
        row = values[i]
        for j in range(n):
            v = row[j]
            if not math.isfinite(v) or v < 0.0:
                problems.append(f"entry ({i},{j}) = {v!r}")
            elif v != values[j][i]:
                problems.append(f"asymmetric entry ({i},{j}): {v!r} vs {values[j][i]!r}")
    if problems:
        return problems[:5]
    peak = max(max(row) for row in values)
    if not peak > 0.0:
        return [f"peak entry is {peak!r}"]
    if vacuum:
        for i, (ms, ns) in enumerate(orders):
            for j, (mi, ni) in enumerate(orders):
                # pump 00: each axis needs an even signal+idler order
                forbidden = (ms + mi) % 2 or (ns + ni) % 2
                if forbidden and values[i][j] > ZERO_SHARE * peak:
                    problems.append(f"selection-rule zero ({i},{j}) = {values[i][j]!r}")
    return problems[:5]


def reference_problems(values, golden, entry_tol: float, tiny_tol: float | None) -> list[str]:
    """Entry-wise comparison with a reference table; with tiny_tol, golden
    entries below 1e-4 use it instead of entry_tol (as validate does)."""
    if len(values) != len(golden) or any(len(r) != len(g) for r, g in zip(values, golden)):
        return ["reference table shape mismatch"]
    problems = []
    for i, (row, grow) in enumerate(zip(values, golden)):
        for j, (v, g) in enumerate(zip(row, grow)):
            tol = tiny_tol if tiny_tol is not None and g < 1e-4 else entry_tol
            if not abs(v - g) <= tol:
                problems.append(f"entry ({i},{j}) = {v!r}, reference {g!r}, tol {tol}")
    return problems[:5]


def parse_table(text: str) -> tuple[list[str], list[list[float]]]:
    """The default `matrix` output: '#' header lines, a label row, rows."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    labels = lines[0].split()
    rows = []
    for ln in lines[1:]:
        cells = ln.split()
        rows.append([float(c) for c in cells[1:]])
    return labels, rows


def parse_csv_matrix(text: str) -> tuple[list[str], list[list[float]]]:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    labels = lines[0].split(",")[1:]
    rows = [[float(c) for c in ln.split(",")[1:]] for ln in lines[1:]]
    return labels, rows


def parse_json_matrix(text: str) -> tuple[list[str], list[list[float]]]:
    doc = json.loads(text)
    return [str(label) for label in doc["ordering"]], doc["matrix"]


def parse_sweep(text: str, as_json: bool) -> tuple[list[float], dict[str, list[float]]]:
    if as_json:
        doc = json.loads(text)
        return doc["grid"], doc["series"]
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    # series names such as P(00,01) hold unquoted commas
    names = re.findall(r"P\([^)]*\)", lines[0])
    grid, series = [], {name: [] for name in names}
    for ln in lines[1:]:
        cells = [float(c) for c in ln.split(",")]
        grid.append(cells[0])
        for name, v in zip(names, cells[1:]):
            series[name].append(v)
    return grid, series


def cli_output_problems(kind: str, argv: list[str], code: int, stdout: str,
                        report_path: Path | None, calibration: float) -> list[str]:
    """Check the output of one `python -m hgspdc` call.

    calibration is the anchor of the vacuum (00,00) entry. A validate call
    passes only when its report fails exactly trend_forbidden_increasing,
    which is red by design.
    """
    if kind == "validate":
        if code != 1:
            return [f"validate exited {code}, expected 1"]
        report = json.loads(report_path.read_text())
        failing = sorted(c["name"] for c in report["checks"] if not c["passed"])
        if failing != ["trend_forbidden_increasing"]:
            return [f"validate failed checks {failing}"]
        return []
    if code != 0:
        return [f"exit code {code}"]
    if kind.startswith("matrix"):
        parse = {"matrix-table": parse_table, "matrix-json": parse_json_matrix,
                 "matrix-csv": parse_csv_matrix}[kind]
        labels, rows = parse(stdout)
        vacuum = kind == "matrix-table"
        return matrix_problems(rows, [label_orders(s) for s in labels], vacuum)
    if kind == "sweep":
        grid, series = parse_sweep(stdout, "json" in argv)
        problems = []
        if len(grid) != 11 or any(len(s) != len(grid) for s in series.values()):
            problems.append("sweep has the wrong length")
        for name, s in series.items():
            if not all(math.isfinite(v) and v >= 0.0 for v in s):
                problems.append(f"{name} has a negative or non-finite value")
        anchor = series.get("P(00,00)", [float("nan")])[0]
        if not abs(anchor - calibration) <= 1e-9 * calibration:
            problems.append(f"P(00,00) at rytov 0 is {anchor!r}, expected {calibration}")
        leak = series.get("P(00,01)", [float("nan")])[0]
        if not 0.0 <= leak <= ZERO_SHARE * calibration:
            problems.append(f"P(00,01) at rytov 0 is {leak!r}, expected 0")
        return problems
    if kind == "rank":
        doc = json.loads(stdout)
        entries = doc["retention"] + doc["leakage"]
        problems = []
        if len(entries) != 55:
            problems.append(f"rank lists {len(entries)} pairs, expected 55")
        for e in entries:
            vals = [e["p_turb"]] + ([e["p_vac"]] if "p_vac" in e else [])
            if not all(math.isfinite(v) and v >= 0.0 for v in vals):
                problems.append(f"rank entry {e['pair']} has {vals}")
        return problems[:5]
    return [f"unknown op kind {kind!r}"]
