"""Golden outputs of the experiment layer, pinned at rtol 1e-10.

The values in ``golden.json`` were produced by this module's ``compute``
and are the reference any refactor of the recursions, the averaging or the
risk evaluation must reproduce. ``--write`` adds the entries of ``compute``
that ``golden.json`` lacks and leaves every pinned entry as it is, byte for
byte; to re-pin an entry whose output is meant to change, delete it from
``golden.json`` first:

    PYTHONPATH=src python tests/golden/test_golden.py --write
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from klms.estimator import FiniteHorizon
from klms.harness import (ALGORITHM_NAMES, TABLE_POINTS, ExperimentConfig, _algorithm_spec,
                          _replicate_runs, _TABLE_STEP_EXPONENTS, compare_algorithms,
                          default_gamma_grid, gamma_sweep, run_replicates)

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
        presets = {name: _algorithm_spec(cfg, name) for name in ALGORITHM_NAMES}
        table_step = FiniteHorizon(cfg.effective_gamma0(), _TABLE_STEP_EXPONENTS[point])
        runs = {**_replicate_runs(cfg, presets),
                "ours/online": run_replicates(dataclasses.replace(cfg, setting="online")),
                "ours/table_step": _replicate_runs(cfg, {"ours": table_step})["ours"]}
        for label, run in runs.items():
            for rep, curve in enumerate(run.per_replicate):
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
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for section, values in compute().items():
        for key, value in values.items():
            pinned.setdefault(section, {}).setdefault(key, value)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1)
        handle.write("\n")
