#!/usr/bin/env python3
"""Reproduce the predicted-versus-effective rate table.

Runs `klms compare` on the four benchmark problems and writes one CSV per
problem, <out-prefix><point>.csv. Every other flag (--n-max, --replicates,
--seed, --noise, --table-step) is passed to `klms compare` unchanged.
"""

import argparse
import sys

from klms import cli, harness

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-prefix", default="rates_point")
    args, rest = parser.parse_known_args()
    for point in harness.TABLE_POINTS:
        print(f"--- point {point}")
        code = cli.main(["compare", "--point", str(point),
                         "--out", f"{args.out_prefix}{point}.csv", *rest])
        if code:
            sys.exit(code)
