#!/usr/bin/env python3
"""Reproduce the optimal-step-size experiment.

Runs `klms gamma-sweep` on configs/gamma_sweep.cfg (order-1 spline kernel,
B_2 target, 30 replicates) and writes gamma_sweep.csv; the fitted slope of
the best constant step should be close to the theory's -1/2. Further flags
(--config, --out, --grid-min/--grid-max/--grid-points) are passed to
`klms gamma-sweep` and override these defaults.
"""

import sys
from pathlib import Path

from klms.cli import main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "gamma_sweep.cfg"

if __name__ == "__main__":
    sys.exit(main(["gamma-sweep", "--config", str(CONFIG), "--out", "gamma_sweep.csv",
                   *sys.argv[1:]]))
