"""Golden outputs of the experiment layer, pinned at rtol 1e-10.

The values in ``golden.json`` were produced by this module's ``compute``
and are the reference any refactor of the recursions, the averaging or the
risk evaluation must reproduce. Regenerate them only when an output is meant
to change:

    PYTHONPATH=src python tests/golden/test_golden.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from klms.harness import (ALGORITHM_NAMES, TABLE_POINTS, ExperimentConfig, _algorithm_curve,
                          _make_context, _TABLE_STEP_EXPONENTS, compare_algorithms,
                          default_gamma_grid, gamma_sweep, replicate_seed, sample_stream)

GOLDEN = Path(__file__).with_name("golden.json")
RTOL = 1e-10
N_MAX = 300
REPLICATES = 2


def _curves() -> dict:
    """Per (point, replicate): the finite-horizon curve of every algorithm,
    the online curve of ours, and ours with the table step exponent."""
    out = {}
    for point, (m, k) in TABLE_POINTS.items():
        cfg = ExperimentConfig(kernel_order_m=m, target_index_k=k, n_max=N_MAX,
                               replicates=REPLICATES)
        gamma0 = cfg.effective_gamma0()
        cps = cfg.checkpoints()
        for rep in range(REPLICATES):
            xs, ys = sample_stream(replicate_seed(0, rep, cfg.stream_digest()),
                                   k, cfg.noise_sigma, N_MAX)
            ctx = _make_context(m, k, xs, ys)
            runs = [(name, name, "finite_horizon", None) for name in ALGORITHM_NAMES]
            runs += [("ours/online", "ours", "online", None),
                     ("ours/table_step", "ours", "finite_horizon",
                      _TABLE_STEP_EXPONENTS[(m, k)])]
            for label, name, setting, expo in runs:
                curve = _algorithm_curve(name, m, k, gamma0, setting, ctx, cps,
                                         step_exponent=expo)
                out[f"p{point}/rep{rep}/{label}"] = [float(v) for v in curve]
    return out


def _sweep() -> dict:
    cfg = ExperimentConfig(kernel_order_m=1, target_index_k=2, n_max=N_MAX,
                           replicates=REPLICATES)
    rows = gamma_sweep(cfg, default_gamma_grid(cfg.R_sq))
    return {f"n={row.n}": [row.best_gamma, row.mean_excess_risk] for row in rows}


def _compare_slopes() -> dict:
    """The effective slope of every algorithm in `compare_algorithms`."""
    return {f"p{point}/{row.algorithm}": row.effective_slope
            for point in TABLE_POINTS
            for row in compare_algorithms(point, n_max=N_MAX, replicates=REPLICATES)}


def compute() -> dict:
    return {"compare_slopes": _compare_slopes(), "curves": _curves(), "gamma_sweep": _sweep()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def _assert_matches(got: dict, want: dict):
    assert sorted(got) == sorted(want)
    for key, values in want.items():
        np.testing.assert_allclose(got[key], values, rtol=RTOL, atol=0, err_msg=key)


def test_algorithm_curves(golden):
    _assert_matches(_curves(), golden["curves"])


def test_gamma_sweep(golden):
    _assert_matches(_sweep(), golden["gamma_sweep"])


def test_compare_slopes(golden):
    _assert_matches(_compare_slopes(), golden["compare_slopes"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(compute(), handle, indent=1)
        handle.write("\n")
