#!/usr/bin/env python3
"""Recompute the two reference probability matrices and report deviations.

Prints the calibrated vacuum and weak-turbulence (rytov 0.02) tables next to
the stored reference values, with per-table maximum absolute deviation.
"""

import argparse

from hgspdc import reference
from hgspdc.channel import TurbulenceSpec
from hgspdc.engine import build_matrix
from hgspdc.serialization import format_matrix_table


def build(rytov: float):
    return build_matrix(reference.reference_config(), TurbulenceSpec.from_rytov(rytov))


def compare(matrix, golden, decimals):
    dev = max(abs(matrix.values[i][j] - golden[i][j])
              for i in range(10) for j in range(10))
    print(format_matrix_table(matrix, decimals=decimals))
    print(f"max |deviation| from reference: {dev:.3e}")
    return dev


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rytov", type=float, default=reference.REFERENCE_RYTOV,
                        help="turbulence strength for the second table")
    args = parser.parse_args()

    print("== vacuum ==")
    compare(build(0.0), reference.VACUUM_MATRIX, 5)
    print(f"\n== rytov {args.rytov} ==")
    matrix = build(args.rytov)
    if args.rytov == reference.REFERENCE_RYTOV:
        compare(matrix, reference.TURBULENCE_MATRIX, 4)
    else:
        print(format_matrix_table(matrix, decimals=4))
    print(f"\ncalibration factor: {matrix.normalization.calibration_factor:.10g}"
          f"  raw (00,00): {matrix.normalization.raw_reference_value:.10g}")


if __name__ == "__main__":
    main()
