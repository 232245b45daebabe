#!/usr/bin/env python3
"""Rank mode pairs by robustness to turbulence.

Allowed pairs are ranked by retention (turbulent over vacuum probability),
forbidden pairs by absolute leaked probability. Useful for picking an
alphabet that keeps crosstalk low over a given channel.
"""

import argparse

from hgspdc.channel import TurbulenceSpec
from hgspdc.cli import RunConfig, cmd_rank
from hgspdc.engine import expand_modes


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rytov", type=float, default=0.02)
    parser.add_argument("--max-sum", type=int, default=3,
                        help="include modes with m+n up to this")
    args = parser.parse_args()

    cfg = RunConfig(turbulence=TurbulenceSpec.from_rytov(args.rytov),
                    modes=tuple(expand_modes(args.max_sum)))
    raise SystemExit(cmd_rank(cfg))


if __name__ == "__main__":
    main()
