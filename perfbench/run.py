"""hgspdc benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {sweep,highorder,warm,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src. Every run first checks the program's output: it builds both reference
tables through `python -m hgspdc matrix` and runs `python -m hgspdc
validate`, each in a fresh process; untraced runs repeat these calls after
the ops, and their times give cli_matrix_ms and cli_validate_ms. The
workload runs in a fresh worker process (see worker.py), single client,
closed loop, for S seconds.

--trace 0 prints the end-to-end metrics. --trace 1 runs a fixed number of
ops (common.TRACE_OPS_PER_S times S) twice over the same seeded inputs, first
untraced, then with hgspdc's public functions wrapped, and prints per-layer
totals of the traced pass. The reference calls are traced too; they alone
give the CLI-side layers (oracle, validate, serialization, cli) of the
in-process workloads.

Human-readable lines come first; the last stdout line is the JSON result.
The exit code is 1 when an output check failed and 2 when the benchmark
could not run. Details of each run go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import common  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

# Machine speed on small shared hosts drifts by tens of percent within
# seconds, so the untraced run takes this many set-up samples and reference
# call repeats before the ops and as many after them, 20 s apart, rather
# than all in one stretch.
SETUP_SAMPLES = 5
PROBE_REPEATS = 2
IMPORT_SAMPLES = 5
# each call is (kind, argv); the table is the vacuum reference table and
# --rytov 0.02 gives the turbulence reference table
PROBES = (("matrix-table", ["matrix"]),
          ("matrix-json", ["matrix", "--rytov", "0.02", "--format", "json"]),
          ("validate", ["validate"]))
PROC_TIMEOUT = 170


class BenchError(Exception):
    """The benchmark itself could not run."""


def python(*argv: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=common.child_env(), timeout=timeout)


def last_json(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{what} printed nothing")
    return json.loads(lines[-1])


def load_program():
    """Import hgspdc from ./src and make sure it is this checkout's copy."""
    init = common.SRC / "hgspdc" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no program to measure: {init} is missing "
                         "(run from the root of a source checkout)")
    for var in common.BLAS_VARS:
        os.environ[var] = common.BLAS_THREADS
    sys.path.insert(0, str(common.SRC))
    import hgspdc
    from hgspdc import reference

    if Path(hgspdc.__file__).resolve() != init.resolve():
        raise BenchError(f"imported hgspdc from {hgspdc.__file__}, not {init}")
    if reference.CALIBRATION_REFERENCE != common.CALIBRATION:
        raise BenchError("the calibration anchor in reference.py changed")
    # compile bytecode once, outside every timed region
    proc = python("-c", "import hgspdc")
    if proc.returncode != 0:
        raise BenchError(f"import hgspdc failed: {proc.stderr.strip()[-2000:]}")
    return reference


def run_probes(reference, repeats: int, trace_dir: Path | None) -> dict:
    """Build both reference tables and run validate through the CLI."""
    times = {"matrix": [], "validate": []}
    problems: list[str] = []
    n = 0
    for _ in range(repeats):
        for kind, argv in PROBES:
            trace_out = None if trace_dir is None else trace_dir / f"probe-{n}.json"
            factor, (elapsed, code, stdout, found) = common.factor_around(
                lambda: worker.run_cli_op(argv, kind, trace_out))
            n += 1
            times[kind.split("-")[0]].append(elapsed * factor)
            if code == 3:
                found = ["numerical failure"]
            elif not found and kind == "matrix-table":
                labels, rows = common.parse_table(stdout)
                found = reference_check(labels, rows, reference.ORDERING_LABELS,
                                        reference.VACUUM_MATRIX, reference.ENTRY_TOL, None)
            elif not found and kind == "matrix-json":
                labels, rows = common.parse_json_matrix(stdout)
                found = reference_check(labels, rows, reference.ORDERING_LABELS,
                                        reference.TURBULENCE_MATRIX, reference.ENTRY_TOL,
                                        reference.TINY_ENTRY_TOL)
            problems += [f"reference call {' '.join(argv)}: {p}" for p in found]
    return {"times": times, "problems": problems}


def reference_check(labels, rows, ordering, golden, entry_tol, tiny_tol) -> list[str]:
    if tuple(labels) != tuple(ordering):
        return [f"ordering {labels} is not the reference ordering"]
    return common.reference_problems(rows, golden, entry_tol, tiny_tol)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh-process set-up times: spawn to the first op (a bare import for cli)."""
    def once() -> float:
        t0 = time.perf_counter()
        if workload == "cli":
            proc = python("-c", "import hgspdc")
            if proc.returncode != 0:
                raise BenchError(f"import hgspdc failed: {proc.stderr.strip()[-2000:]}")
            return time.perf_counter() - t0
        ready = last_json(python(str(HERE / "worker.py"), "setup", "--workload", workload,
                                 "--seed", str(seed), timeout=PROC_TIMEOUT), "set-up")["ready_at"]
        return ready - t0

    samples = []
    for _ in range(SETUP_SAMPLES):
        factor, elapsed = common.factor_around(once)
        if not 0.0 < elapsed < PROC_TIMEOUT:
            raise BenchError(f"implausible set-up time {elapsed}")
        samples.append(elapsed * factor)
    return samples


def run_worker(workload: str, seed: int, trace_out: Path | None, *,
               seconds: float | None = None, ops: int | None = None,
               relay_warnings: bool = False) -> dict:
    argv = [str(HERE / "worker.py"), "run", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", repr(seconds)] if ops is None else ["--ops", str(ops)]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    proc = python(*argv, timeout=PROC_TIMEOUT)
    result = last_json(proc, f"{workload} worker")
    if relay_warnings:
        sys.stderr.write(proc.stderr)
    if not result["latencies"]:
        raise BenchError(f"{workload} worker completed no op")
    return result


def import_cost() -> tuple[float, int]:
    """Fresh `import hgspdc` minus a bare interpreter (medians, interleaved),
    and whether numpy is loaded after the import."""
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        for out, code in ((bare, "pass"), (full, "import hgspdc")):
            def once():
                t0 = time.perf_counter()
                python("-c", code)
                return time.perf_counter() - t0
            factor, elapsed = common.factor_around(once)
            out.append(elapsed * factor)
    loaded = python("-c", "import sys, hgspdc; print(int('numpy' in sys.modules))")
    return common.median(full) - common.median(bare), int(loaded.stdout.strip() or 0)


def normalized(result: dict) -> list[float]:
    """Op latencies at the reference host speed, in time order."""
    return [t * f for t, f in zip(result["latencies"], result["factors"])]


def end_to_end(workload: str, result: dict, probes: dict, setup: list[float]) -> dict:
    in_order = normalized(result)
    lat = sorted(in_order)
    n = len(lat)
    raw = sorted(result["latencies"])
    print(f"raw (unscaled) ops_per_s {n / sum(raw):.6g} 1/s, op_p50_ms "
          f"{common.median(raw) * 1e3:.6g} ms; median host speed factor "
          f"{common.median(result['factors']):.4g}")
    p50 = common.windowed_median(in_order, common.P50_WINDOWS[workload])
    pct = common.TAIL[workload]
    tail = common.nearest_rank(lat, pct)
    if common.beyond_count(n, pct) < 10:
        print(f"warning: only {common.beyond_count(n, pct)} samples beyond p{pct}; "
              "op_tail_ms is a coarse estimate", file=sys.stderr)
    by_kind = result.get("by_kind", {})
    matrix = probes["times"]["matrix"] + by_kind.get("matrix", [])
    validate = probes["times"]["validate"] + by_kind.get("validate", [])
    return {
        "setup_s": (common.median(setup), "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ok_ratio": ((n - len(result["failures"])) / n, "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "cli_matrix_ms": (common.median(matrix) * 1e3, "ms"),
        "cli_validate_ms": (common.median(validate) * 1e3, "ms"),
    }


def environment(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (common.ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((common.SRC / "hgspdc").rglob("*.py")):
        digest.update(path.relative_to(common.SRC).as_posix().encode())
        digest.update(path.read_bytes())
    numpy = sys.modules.get("numpy")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "calibration": {"iterations": common.CAL_ITERATIONS, "ref_s": common.CAL_REF_S},
        "numpy": getattr(numpy, "__version__", None),
        "blas_threads": {var: common.BLAS_THREADS for var in common.BLAS_VARS},
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "git_commit": commit, "source_sha256": digest.hexdigest(),
    }


def measure(args) -> tuple[dict, int, int, list[str]]:
    reference = load_program()
    common.WORK.mkdir(exist_ok=True)
    if not args.trace:
        probes = run_probes(reference, PROBE_REPEATS, None)
        setup = setup_seconds(args.workload, args.seed)
        result = run_worker(args.workload, args.seed, None, seconds=args.seconds,
                            relay_warnings=True)
        after = run_probes(reference, PROBE_REPEATS, None)
        for kind, times in after["times"].items():
            probes["times"][kind] += times
        probes["problems"] += after["problems"]
        setup += setup_seconds(args.workload, args.seed)
        metrics = end_to_end(args.workload, result, probes, setup)
        (common.WORK / f"latencies-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(normalized(result)))
        failures, wrong = result["failures"], result["wrong"]
        attempted = len(result["latencies"])
        print(f"error_rate {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)")
        return metrics, attempted, len(failures), probes["problems"] + wrong

    trace_dir = common.WORK / f"trace-{args.workload}"
    trace_dir.mkdir(exist_ok=True)
    for stale in trace_dir.glob("*.json"):
        stale.unlink()
    # the cli workload's own ops reach every layer, so its reference calls
    # are only checked
    probes = run_probes(reference, 1, None if args.workload == "cli" else trace_dir)
    import_s, numpy_loaded = import_cost()
    ops = max(1, round(common.TRACE_OPS_PER_S[args.workload] * args.seconds))
    plain = run_worker(args.workload, args.seed, None, ops=ops)
    traced = run_worker(args.workload, args.seed, trace_dir / "worker.json", ops=ops)
    totals = spans.merge(spans.empty_totals(),
                         json.loads((trace_dir / "worker.json").read_text()))
    for path in sorted(trace_dir.glob("probe-*.json")):
        spans.merge(totals, json.loads(path.read_text()), layers=spans.CLI_LAYERS)
    # spans are held in memory until here and written once
    (common.WORK / f"spans-{args.workload}.json").write_text(json.dumps(totals["processes"]))
    for path in trace_dir.glob("*.json"):
        path.unlink()
    trace_dir.rmdir()

    def rate(r):
        return len(r["latencies"]) / sum(normalized(r))

    metrics = spans.layer_metrics(totals)
    metrics["import.hgspdc_s"] = (import_s, "s")
    metrics["import.numpy_loaded"] = (numpy_loaded, "bool")
    metrics["trace.overhead_ratio"] = (rate(traced) / rate(plain), "ratio")
    failures = plain["failures"] + traced["failures"]
    attempted = len(plain["latencies"]) + len(traced["latencies"])
    print(f"error_rate {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)")
    return metrics, attempted, len(failures), probes["problems"] + plain["wrong"] + traced["wrong"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")

    common.pin_to_one_cpu()
    try:
        metrics, attempted, failed, wrong = measure(args)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    env = environment(args)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in wrong[:20]:
        print(f"wrong output: {problem}", file=sys.stderr)
    print("environment " + json.dumps(env))
    record = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (common.WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "environment": env, "wrong": wrong}, indent=1))
    print(json.dumps(record))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
