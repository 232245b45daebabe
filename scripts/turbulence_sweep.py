#!/usr/bin/env python3
"""Sweep joint probabilities over turbulence strength and write a plot-ready
CSV: column 1 is the Rytov variance, one column per mode pair.

Default pairs: the retained (00,00) channel and the leaking (00,01) channel.
"""

import argparse

from hgspdc import reference
from hgspdc.cli import EXIT_NUMERICAL, EXIT_PARAMS, _emit, _parse_pair, _sweep_series
from hgspdc.engine import NORMALIZATION_CALIBRATED
from hgspdc.errors import DomainError, NumericalError
from hgspdc.serialization import sweep_params, sweep_to_csv


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

    grid = [args.max_rytov * k / (args.steps - 1) for k in range(args.steps)]

    cfg = reference.reference_config()
    try:
        pairs = [_parse_pair(token) for token in args.pairs.split()]
        series = _sweep_series(cfg, grid, pairs, NORMALIZATION_CALIBRATED)
    except DomainError as exc:
        parser.error(str(exc))
    except NumericalError as exc:
        parser.exit(EXIT_NUMERICAL, f"error: numerical failure: {exc}\n")

    text = sweep_to_csv(grid, series, sweep_params(cfg, NORMALIZATION_CALIBRATED))
    try:
        _emit(text, args.output)
    except DomainError as exc:
        parser.exit(EXIT_PARAMS, f"error: invalid parameters: {exc}\n")
    print(f"wrote {args.output} ({len(grid)} grid points, {len(pairs)} pairs)")
    for name, values in series.items():
        print(f"  {name}: {values[0]:.5f} -> {values[-1]:.5f}")


if __name__ == "__main__":
    main()
