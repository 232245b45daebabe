"""Steadiness check: two interleaved sets of runs of the same code.

    python3 perfbench/steady.py --seed 100 [--runs 5]

For each workload in BENCHMARK.json, set A runs seeds seed, seed+2, ...
and set B seeds seed+1, seed+3, ..., alternating A and B so that drift of
the machine hits both sets alike. Per end-to-end metric it prints each set's median and
spread (interquartile distance over the median, as statistics.quantiles
gives it) and whether the medians agree within the metric's bound in
BENCHMARK.json. The spread of both sets pooled is printed too, marked when
it is above a third of the bound. Every run is untraced and measures
BENCHMARK.json's run_seconds. Exits 1 when a pair of medians disagrees or a
pooled spread exceeds its bound. Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported wrong output")
    return result


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for k, name in enumerate("AB"):
                seed = args.seed + 2 * i + k
                sets[name].append(run_once(workload, seed, bench["run_seconds"]))
                print(f"{workload} set {name} seed {seed} done", file=sys.stderr, flush=True)
        print(f"== {workload} ({args.runs} runs per set)")
        print(f"{'metric':<44}{'median A':>12}{'median B':>12}{'shift':>8}"
              f"{'spr A':>7}{'spr B':>7}{'spr AB':>7}{'bound':>7}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            shift = (med_b - med_a) / med_a
            spreads = (spread(a), spread(b), spread(a + b))
            agree = abs(shift) <= bound
            # the pooled spread is the one a single set of 2 x runs shows
            steady = spreads[2] <= bound
            verdict = ("agree" if agree else "DISAGREE") + ("" if steady else " UNSTEADY")
            if spreads[2] > bound / 3:
                verdict += " (spread above bound/3)"
            ok = ok and agree and steady
            print(f"{name:<44}{med_a:>12.5g}{med_b:>12.5g}{shift:>8.3f}"
                  f"{spreads[0]:>7.3f}{spreads[1]:>7.3f}{spreads[2]:>7.3f}"
                  f"{bound:>7}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
