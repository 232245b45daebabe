"""One benchmark process: set up a workload, then run its ops in a closed loop.

Started by run.py in a fresh interpreter per workload, because the engine's
caches are module-level and would otherwise carry state between workloads.

    worker.py setup --workload W --seed N
    worker.py run --workload W --seed N (--seconds S | --ops K) [--trace-out PATH]
    worker.py traced-cli --out PATH -- <hgspdc argv>

`run` runs ops for S seconds or, with --ops, exactly K ops. The last
stdout line of `setup` and `run` is a JSON object. `ready_at` is the
time.perf_counter() value when set-up ended; on Linux it reads the
system-wide monotonic clock, so the parent can subtract its own spawn time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402

SPAN_CAP_WORKER = 20_000
SPAN_CAP_CLI = 4_000


class InProcess:
    """sweep, highorder and warm: each op derives the channel constants and
    builds one calibrated matrix through hgspdc's public API."""

    def __init__(self, workload: str, seed: int, tracer):
        # hgspdc is imported here so set-up time includes the import
        import hgspdc  # noqa: F401
        from hgspdc import channel, engine, errors, reference

        self.channel, self.engine, self.reference = channel, engine, reference
        self.typed_errors = (errors.NumericalError, errors.DomainError, errors.PoleError)
        self.workload = workload
        self.tracer = tracer
        if tracer is not None:
            tracer.install()
        max_sum = {"sweep": common.SWEEP_MAX_SUM, "highorder": common.HIGHORDER_MAX_SUM,
                   "warm": common.WARM_MAX_SUM}[workload]
        self.modes = tuple(engine.expand_modes(max_sum))
        self.orders = [(m.m, m.n) for m in self.modes]
        if workload == "warm":
            self.pool = common.warm_pool(seed)
            self.first = [self.compute(*channel_args).values for channel_args in self.pool]
            indices = common.warm_inputs(seed)
            self.inputs = ((i, self.pool[i]) for i in indices)
        else:
            gen = common.sweep_inputs(seed) if workload == "sweep" else common.highorder_inputs(seed)
            self.inputs = ((None, args) for args in gen)

    def compute(self, wavelength, distance, w0, rytov):
        channel = self.channel
        cfg = channel.OpticalConfig.from_w0(wavelength, distance, w0)
        turb = channel.TurbulenceSpec.from_rytov(rytov).resolve(cfg)
        consts = channel.derive_constants(cfg, turb.gamma)
        return self.engine.probability_matrix(
            self.modes, consts, reference_value=self.reference.CALIBRATION_REFERENCE,
            turbulence=turb)

    def run(self, seconds: float | None, ops: int | None) -> dict:
        latencies, marks, failures, wrong = [], [], [], []
        speed = common.HostSpeed()
        rss_at = common.RSS_AT_OPS[self.workload]
        rss_mb = None
        op = self.compute
        if self.tracer is not None:
            self.tracer.reset_counts()
            op = self.tracer.wrap("bench.op", op)
        clock = time.perf_counter
        more = more_ops(seconds, ops, common.BLOCK.get(self.workload, 1))
        n = 0
        while more(n):
            if n == rss_at:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            pool_index, args = next(self.inputs)
            if self.tracer is not None:
                self.tracer.op_id = n
            marks.append(speed.mark())
            t0 = clock()
            try:
                matrix = op(*args)
            except self.typed_errors as exc:
                latencies.append(clock() - t0)
                failures.append(f"op {n} {args}: {type(exc).__name__}: {exc}")
                n += 1
                continue
            latencies.append(clock() - t0)
            problems = common.matrix_problems(matrix.values, self.orders, args[3] == 0.0)
            if pool_index is not None and matrix.values != self.first[pool_index]:
                problems.append(f"warm channel {pool_index} changed between calls")
            if problems:
                wrong.append(f"op {n} {args}: {problems}")
            n += 1
        if rss_mb is None:
            print(f"warning: {n} ops, fewer than the {rss_at} after which "
                  "peak_rss_mb is read; read at the end instead", file=sys.stderr)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {"latencies": latencies, "factors": speed.factors(marks), "failures": failures,
                "wrong": wrong, "peak_rss_mb": rss_mb}


def more_ops(seconds: float | None, ops: int | None, block: int = 1):
    """Loop condition on the op count n: K ops, or until the deadline and
    then on to the end of a block of ops."""
    if ops is not None:
        return lambda n: n < ops
    deadline = time.perf_counter() + seconds
    return lambda n: n % block != 0 or time.perf_counter() < deadline


def run_cli_op(argv: list[str], kind: str, trace_out: Path | None):
    """One whole-process `python -m hgspdc` call.

    Returns (wall seconds, exit code, stdout, problems). Exit code 3 is the
    CLI's typed numerical failure; its output is not checked.
    """
    report = common.WORK / f"validate-{os.getpid()}.json"
    if kind == "validate":
        argv = argv + ["--output", str(report)]
    if trace_out is None:
        cmd = [sys.executable, "-m", "hgspdc", *argv]
    else:
        cmd = [sys.executable, __file__, "traced-cli", "--out", str(trace_out), "--", *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=common.child_env(),
                          timeout=120)
    elapsed = time.perf_counter() - t0
    try:
        problems = []
        if proc.returncode != 3:
            try:
                problems = common.cli_output_problems(kind, argv, proc.returncode,
                                                      proc.stdout, report, common.CALIBRATION)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems and proc.stderr:
            problems.append(proc.stderr.strip()[-300:])
        return elapsed, proc.returncode, proc.stdout, problems
    finally:
        report.unlink(missing_ok=True)


def run_cli(seed: int, seconds: float | None, ops: int | None,
            trace_dir: Path | None) -> dict:
    latencies, marks, kinds, failures, wrong = [], [], [], [], []
    speed = common.HostSpeed()
    inputs = common.cli_inputs(seed)
    more = more_ops(seconds, ops)
    n = 0
    while more(n):
        kind, argv = next(inputs)
        trace_out = None if trace_dir is None else trace_dir / f"cli-{n}.json"
        marks.append(speed.mark())
        elapsed, code, _, problems = run_cli_op(argv, kind, trace_out)
        latencies.append(elapsed)
        kinds.append(kind.split("-")[0])
        if code == 3:
            failures.append(f"op {n} {argv}: numerical failure")
        elif problems:
            failures.append(f"op {n} {argv}: wrong output")
            wrong.append(f"op {n} {argv}: {problems}")
        n += 1
    factors = speed.factors(marks)
    by_kind: dict[str, list[float]] = {}
    for kind, elapsed, factor in zip(kinds, latencies, factors):
        by_kind.setdefault(kind, []).append(elapsed * factor)
    return {"latencies": latencies, "factors": factors, "by_kind": by_kind,
            "failures": failures, "wrong": wrong,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}


def traced_cli(out: str, argv: list[str]) -> int:
    """Run hgspdc.cli.main(argv) with every layer wrapped, then write totals."""
    import hgspdc.cli
    from spans import Tracer

    tracer = Tracer(SPAN_CAP_CLI)
    tracer.install()
    tracer.op_id = 0
    try:
        code = hgspdc.cli.main(argv)
    finally:
        Path(out).write_text(json.dumps(tracer.snapshot("cli " + " ".join(argv))))
    return code


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run", "traced-cli"])
    parser.add_argument("--workload", choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--trace-out")
    parser.add_argument("--out")
    raw = sys.argv[1:]
    cli_argv = []
    if "--" in raw:
        cut = raw.index("--")
        raw, cli_argv = raw[:cut], raw[cut + 1:]
    args = parser.parse_args(raw)

    if args.mode == "traced-cli":
        return traced_cli(args.out, cli_argv)

    tracer = None
    if args.trace_out:
        from spans import Tracer
        tracer = Tracer(SPAN_CAP_WORKER)

    if args.workload == "cli":
        # the CLI workload's set-up is timed by run.py as a bare import
        trace_dir = None
        if tracer is not None:
            trace_dir = common.WORK / f"cli-trace-{os.getpid()}"
            trace_dir.mkdir(parents=True, exist_ok=True)
        result = run_cli(args.seed, args.seconds, args.ops, trace_dir)
        if trace_dir is not None:
            from spans import empty_totals, merge
            totals = empty_totals()
            for path in sorted(trace_dir.glob("cli-*.json")):
                merge(totals, json.loads(path.read_text()))
                path.unlink()
            trace_dir.rmdir()
            Path(args.trace_out).write_text(json.dumps(totals))
    else:
        runner = InProcess(args.workload, args.seed, tracer)
        ready_at = time.perf_counter()
        if args.mode == "setup":
            common.emit({"ready_at": ready_at})
            return 0
        result = runner.run(args.seconds, args.ops)
        result["ready_at"] = ready_at
        if tracer is not None:
            Path(args.trace_out).write_text(json.dumps(
                tracer.snapshot(f"worker {args.workload}")))
    numpy = sys.modules.get("numpy")
    result["numpy_version"] = getattr(numpy, "__version__", None)
    common.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
