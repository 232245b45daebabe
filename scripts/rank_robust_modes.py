#!/usr/bin/env python3
"""Rank mode pairs by robustness to turbulence.

Allowed pairs are ranked by retention (turbulent over vacuum probability),
forbidden pairs by absolute leaked probability. Useful for picking an
alphabet that keeps crosstalk low over a given channel. Runs
`hgspdc rank --rytov R --max-sum S`, its output and exit codes included.
"""

import argparse

from hgspdc.cli import main as hgspdc_main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rytov", type=float, default=0.02)
    parser.add_argument("--max-sum", type=int, default=3,
                        help="include modes with m+n up to this")
    args = parser.parse_args()
    raise SystemExit(hgspdc_main(["rank", "--rytov", repr(args.rytov),
                                  "--max-sum", str(args.max_sum)]))


if __name__ == "__main__":
    main()
