#!/usr/bin/env python3
"""Sweep joint probabilities over turbulence strength and write a plot-ready
CSV: column 1 is the Rytov variance, one column per mode pair.

Default pairs: the retained (00,00) channel and the leaking (00,01) channel.
Runs `hgspdc sweep` over a grid of --steps points from 0 to --max-rytov, its
output and exit codes included, then prints each pair's first and last value
from the CSV it wrote.
"""

import argparse
from pathlib import Path

from hgspdc.cli import main as hgspdc_main
from hgspdc.serialization import parse_matrix_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", default="00:00 00:01",
                        help="pair tokens 'ss:ii', space separated")
    parser.add_argument("--max-rytov", type=float, default=0.1)
    parser.add_argument("--steps", type=int, default=11)
    parser.add_argument("--output", default="turbulence_sweep.csv")
    args = parser.parse_args()
    if args.steps < 2:
        parser.error(f"--steps must be at least 2, got {args.steps}")
    if args.max_rytov < 0:
        parser.error(f"--max-rytov must be at least 0, got {args.max_rytov}")

    grid = [args.max_rytov * k / (args.steps - 1) for k in range(args.steps)]
    # the = forms keep a value that starts with "-" a value
    code = hgspdc_main(["sweep", "--grid=" + ",".join(map(repr, grid)),
                        "--pairs=" + args.pairs, "--output=" + args.output])
    if code:
        raise SystemExit(code)

    # a sweep CSV reads as a matrix CSV whose rows are the grid points
    doc = parse_matrix_csv(Path(args.output).read_text())
    rows = doc["matrix"]
    print(f"wrote {args.output} ({len(rows)} grid points, {len(doc['ordering'])} pairs)")
    for k, name in enumerate(doc["ordering"]):
        print(f"  {name}: {rows[0][k]:.5f} -> {rows[-1][k]:.5f}")


if __name__ == "__main__":
    main()
