"""The three benchmark workloads, their pinned references and their layer map.

Every workload is a closed loop over *units*: one unit runs, is checked,
and only then does the next one start. A unit is drawn from a fixed pool
whose outputs at the baseline commit are pinned in ``refs/<workload>.json``;
the run's ``--seed`` picks the order in which pool entries are visited, so
every unit of every seed is checked against a pinned value.

* ``rate-table``: one pass of ``klms compare --point p`` for p = 1..4 at
  n_max = 3162, one replicate per point, master seed = pool entry.
* ``gamma-sweep``: ``klms gamma-sweep`` on (m=1, k=2, sigma=0.1) at
  n_max = 3162 with the default 59-point grid, one replicate, master seed =
  pool entry.
* ``oracles``: two random expansions (n = 50, one with m = 1 and one with
  m = 2, k in {1, 2, 3}) scored by the closed form, Fourier (J = 1e5) and
  quadrature (1e5 points) oracles, plus 16 kernel-series and 16
  Bernoulli-Fourier identity points.

An operation is one (point, algorithm) slope, one sweep row or one oracle
comparison. It fails when the call raises, the CLI exits non-zero, or the
output misses the pinned value by more than REF_RTOL (and, for oracle
comparisons, when two oracles disagree by more than the acceptance-suite
tolerance).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import traceback
from pathlib import Path

from tracer import Target, busy_time, call_counts, layer_self_times

BENCH_DIR = Path(__file__).resolve().parent
REFS_DIR = BENCH_DIR / "refs"

WORKLOADS = ("rate-table", "gamma-sweep", "oracles")

N_MAX = 3162
POINTS = (1, 2, 3, 4)
POOL_SIZE = {"rate-table": 10, "gamma-sweep": 24, "oracles": 40}

# Pinned values are bitwise repeatable on one machine; 1e-8 relative still
# admits reordered BLAS sums and rewritten kernel algebra (both move these
# outputs by ~1e-12 or less) while any change of algorithm or schedule
# moves slopes and risks by orders of magnitude more.
REF_RTOL = 1e-8
REF_ATOL = 1e-12

# Oracle agreement tolerances of the acceptance suite (c01, c03).
AGREEMENT_TOL = {"fourier": 1e-8, "quadrature": 1e-5, "series": 1e-8, "bernoulli": 1e-6}

ORACLE_N = 50
ORACLE_J = 10**5
ORACLE_GRID = 10**5
SERIES_POINTS = 16


def unit_order(workload: str, seed: int):
    """Endless sequence of pool entries: a seeded shuffle, reshuffled on
    every pass through the pool."""
    rng = random.Random(f"{workload}:{seed}")
    pool = list(range(POOL_SIZE[workload]))
    while True:
        rng.shuffle(pool)
        yield from pool


def load_refs(workload: str) -> dict:
    with open(REFS_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)["units"]


# ---------------------------------------------------------------------------
# running one unit
# ---------------------------------------------------------------------------

class UnitRunner:
    """Runs units of one workload through klms's public entry points.

    ``run(unit)`` returns (outputs, errors), where outputs maps an operation
    key to its tuple of values and errors holds one message per failed call.
    """

    def __init__(self, workload: str, scratch: Path):
        import numpy
        import klms.bernoulli
        import klms.cli
        import klms.estimator
        import klms.kernels
        import klms.risk
        self.np = numpy
        self.klms = klms
        self.workload = workload
        self.scratch = scratch

    def run(self, unit: int):
        return getattr(self, "_" + self.workload.replace("-", "_"))(unit)

    def _cli(self, argv, errors) -> bool:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.klms.cli.main(argv)
        except Exception:
            errors.append(f"klms {' '.join(argv)} raised:\n{traceback.format_exc()}")
            return False
        if code != 0:
            errors.append(f"klms {' '.join(argv)} exited {code}")
        return code == 0

    def _rate_table(self, unit: int):
        outputs, errors = {}, []
        for point in POINTS:
            out = self.scratch / f"compare-p{point}.csv"
            out.unlink(missing_ok=True)
            if self._cli(["compare", "--point", str(point), "--n-max", str(N_MAX),
                          "--replicates", "1", "--seed", str(unit), "--out", str(out)],
                         errors):
                for row in _read_csv(out):
                    outputs[f"p{point}/{row['algorithm']}"] = (
                        float(row["effective_slope"]), float(row["residual_rms"]))
        return outputs, errors

    def _gamma_sweep(self, unit: int):
        config = self.scratch / f"sweep-{unit}.cfg"
        config.write_text(f"kernel_order_m = 1\ntarget_index_k = 2\nnoise_sigma = 0.1\n"
                          f"n_max = {N_MAX}\nreplicates = 1\nmaster_seed = {unit}\n",
                          encoding="utf-8")
        out = self.scratch / "sweep.csv"
        out.unlink(missing_ok=True)
        errors: list = []
        outputs = {}
        if self._cli(["gamma-sweep", "--config", str(config), "--out", str(out)], errors):
            for row in _read_csv(out):
                outputs[f"n={row['n']}"] = (float(row["best_gamma"]),
                                            float(row["mean_excess_risk"]))
        return outputs, errors

    def _oracles(self, unit: int):
        np = self.np
        bernoulli, kernels, risk = self.klms.bernoulli, self.klms.kernels, self.klms.risk
        rng = np.random.default_rng([2024, unit])
        # one expansion per kernel order, so every unit costs the same
        expansions = [(m, int(rng.integers(1, 4)), self.klms.estimator.KernelExpansion(
            rng.random(ORACLE_N), rng.uniform(-1.0, 1.0, ORACLE_N))) for m in (1, 2)]
        # c01 grids, so s == t (the zeta-tail branch) and x on grid nodes occur
        grid = np.linspace(0.0, 1.0, 51, endpoint=False)
        series = [(int(rng.integers(1, 3)), float(rng.choice(grid)), float(rng.choice(grid)))
                  for _ in range(SERIES_POINTS)]
        xgrid = np.linspace(0.0, 1.0, 101, endpoint=False)
        poly = []
        while len(poly) < SERIES_POINTS:
            k, x = int(rng.integers(1, 9)), float(rng.choice(xgrid))
            if not (k == 1 and x == 0.0):
                poly.append((k, x))

        outputs, errors = {}, []
        try:
            for m, k, expansion in expansions:
                closed = risk.excess_risk_closed(expansion, m, k)
                outputs[f"fourier/m{m}"] = (
                    closed, risk.excess_risk_fourier(expansion, m, k, ORACLE_J))
                outputs[f"quadrature/m{m}"] = (
                    closed, risk.excess_risk_mc(expansion, m, k, ORACLE_GRID))
            for i, (m, s, t) in enumerate(series):
                outputs[f"series/{i}"] = (float(kernels.spline_kernel(m, s, t)),
                                          kernels.spline_kernel_series(m, s, t, ORACLE_J))
            for i, (k, x) in enumerate(poly):
                outputs[f"bernoulli/{i}"] = (bernoulli.bernoulli_poly(k, x),
                                             bernoulli.bernoulli_fourier_eval(k, x, ORACLE_J))
        except Exception:
            errors.append(f"oracle unit {unit} raised:\n{traceback.format_exc()}")
        return outputs, errors


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REF_ATOL + REF_RTOL * abs(want)


def check_unit(outputs: dict, pinned: dict) -> list:
    """Keys of the failed operations of one unit.

    Every pinned operation is attempted; a missing output, a value off its
    pinned value, an oracle pair that disagrees, or an output with no pinned
    value fails.
    """
    failed = []
    for key, want in pinned.items():
        got = outputs.get(key)
        if got is None or len(got) != len(want) or not all(map(_close, got, want)):
            failed.append(key)
            continue
        tol = AGREEMENT_TOL.get(key.split("/", 1)[0])
        if tol is not None and not abs(got[0] - got[1]) <= tol:
            failed.append(key)
    failed.extend(sorted(set(outputs) - set(pinned)))
    return failed


# ---------------------------------------------------------------------------
# layer map: the lookup sites the tracer wraps
# ---------------------------------------------------------------------------

def _gram_entries(args, kwargs, result):
    return {"kernels.entries_computed": result.size}


def _steps(args, kwargs, result):
    checkpoints = args[3] if len(args) > 3 else kwargs["checkpoints"]
    return {"estimator.steps_executed": list(checkpoints)[-1]}


def _grid_rows(args, kwargs, result):
    import numpy
    return {"estimator.grid_rows": result.shape[0],
            "estimator.grid_rows_diverged":
                int(numpy.count_nonzero(~numpy.isfinite(result).all(axis=1)))}


def _quad_entries(args, kwargs, result):
    return {"risk.quad_entries": len(args[1]) ** 2}


def _fourier_bytes(args, kwargs, result):
    return {"risk.oracle_bytes_computed": 16 * args[3] * len(args[0])}


def _quadrature_bytes(args, kwargs, result):
    return {"risk.oracle_bytes_computed": 8 * args[3] * len(args[0])}


def _sites(span: str, attr: str, owners, meter=None):
    return [Target(owner, attr, span, meter) for owner in owners]


# Each function is wrapped at every module its callers look it up in; a call
# passes through exactly one of those sites, so nothing is counted twice.
# The private harness helpers are optional: when a refactor removes them
# their spans are reported as zero with a note.
TARGETS = [
    *_sites("cli.main", "main", ["klms.cli"]),
    *_sites("harness.compare_algorithms", "compare_algorithms", ["klms.harness"]),
    *_sites("harness.gamma_sweep", "gamma_sweep", ["klms.harness"]),
    *_sites("harness.sample_stream", "sample_stream", ["klms.harness"]),
    *_sites("harness.fit_rate", "fit_rate", ["klms.harness"]),
    *_sites("harness.make_context", "_make_context", ["klms.harness"]),
    *_sites("harness.snapshot_risk", "_snapshot_risk", ["klms.harness"], _quad_entries),
    *_sites("estimator.sgd_run", "sgd_run", ["klms.harness", "klms.estimator"], _steps),
    *_sites("estimator.sgd_constant_grid", "sgd_constant_grid",
            ["klms.harness", "klms.estimator"], _grid_rows),
    *_sites("kernels.gram", "gram", ["klms.kernels:PeriodicSplineKernel"], _gram_entries),
    *_sites("kernels.doubled_gram", "doubled_gram", ["klms.kernels:PeriodicSplineKernel"],
            _gram_entries),
    *_sites("kernels.spline_kernel", "spline_kernel", ["klms.kernels"]),
    *_sites("kernels.spline_kernel_series", "spline_kernel_series", ["klms.kernels"]),
    *_sites("risk.kernel_target_inner", "kernel_target_inner", ["klms.risk"]),
    *_sites("risk.target_norm_sq", "target_norm_sq", ["klms.risk"]),
    *_sites("risk.excess_risk_closed", "excess_risk_closed", ["klms.risk"]),
    *_sites("risk.excess_risk_fourier", "excess_risk_fourier", ["klms.risk"], _fourier_bytes),
    *_sites("risk.excess_risk_mc", "excess_risk_mc", ["klms.risk"], _quadrature_bytes),
    *_sites("bernoulli.bernoulli_poly", "bernoulli_poly",
            ["klms.bernoulli", "klms.kernels", "klms.risk", "klms.harness"]),
    *_sites("bernoulli.frac", "frac", ["klms.bernoulli", "klms.kernels", "klms.risk"]),
    *_sites("bernoulli.bernoulli_fourier_eval", "bernoulli_fourier_eval", ["klms.bernoulli"]),
]

LAYERS = ("bernoulli", "kernels", "estimator", "risk", "harness", "cli")

# Per-layer metrics: name -> (unit, better). Times and counts are per unit
# of the workload (mean over the traced units of a run).
PER_LAYER = {
    "kernels.gram.busy_s": ("s", "lower"),
    "kernels.gram.calls": ("count", "lower"),
    "kernels.doubled_gram.busy_s": ("s", "lower"),
    "kernels.doubled_gram.calls": ("count", "lower"),
    "kernels.spline_kernel_series.busy_s": ("s", "lower"),
    "kernels.entries_computed": ("count", "lower"),
    "kernels.self_s": ("s", "lower"),
    "bernoulli.bernoulli_poly.busy_s": ("s", "lower"),
    "bernoulli.frac.busy_s": ("s", "lower"),
    "bernoulli.bernoulli_fourier_eval.busy_s": ("s", "lower"),
    "bernoulli.self_s": ("s", "lower"),
    "estimator.sgd_run.busy_s": ("s", "lower"),
    "estimator.sgd_run.calls": ("count", "lower"),
    "estimator.steps_executed": ("count", "lower"),
    "estimator.step_reuse_ratio": ("ratio", "higher"),
    "estimator.sgd_constant_grid.busy_s": ("s", "lower"),
    "estimator.self_s": ("s", "lower"),
    "risk.kernel_target_inner.busy_s": ("s", "lower"),
    "risk.excess_risk_closed.busy_s": ("s", "lower"),
    "risk.excess_risk_fourier.busy_s": ("s", "lower"),
    "risk.excess_risk_mc.busy_s": ("s", "lower"),
    "risk.quad_entries": ("count", "lower"),
    "risk.oracle_bytes_computed": ("B", "lower"),
    "risk.self_s": ("s", "lower"),
    "harness.make_context.busy_s": ("s", "lower"),
    "harness.snapshot_risk.busy_s": ("s", "lower"),
    "harness.snapshot_risk.calls": ("count", "lower"),
    "harness.sample_stream.busy_s": ("s", "lower"),
    "harness.fit_rate.busy_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "process.cpu_s": ("s", "lower"),
    "process.cpu_util": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.coverage_ratio": ("ratio", "higher"),
}


# Computed like the per-layer metrics but kept in the result file only: no
# workload makes a grid row diverge, so this reads 0 everywhere.
DIAGNOSTICS = ("estimator.grid_rows_diverged_ratio",)


def steps_needed(workload: str, pinned: dict) -> int:
    """Recursion steps a unit needs: n_max per (point, algorithm) slope, each
    from one replicate. Only the rate-table runs ``sgd_run``."""
    return N_MAX * len(pinned) if workload == "rate-table" else 0


def layer_metrics(tracer, units: int, steps_needed: int) -> dict:
    """Per-unit layer metrics from the spans and counters of ``units``
    traced units. ``steps_needed`` is n_max per (algorithm, replicate)
    summed over those units."""
    spans = tracer.spans
    calls = call_counts(spans)
    own = layer_self_times(spans)
    counts = tracer.counts
    out = {}
    for name in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if kind == "busy_s":
            out[name] = busy_time(spans, stem) / units
        elif kind == "calls":
            out[name] = calls.get(stem, 0) / units
        elif kind == "self_s" and stem in LAYERS:
            out[name] = own.get(stem, 0.0) / units
    for name in ("kernels.entries_computed", "estimator.steps_executed",
                 "risk.quad_entries", "risk.oracle_bytes_computed"):
        out[name] = counts.get(name, 0) / units
    executed = counts.get("estimator.steps_executed", 0)
    # nothing executed means nothing wasted
    out["estimator.step_reuse_ratio"] = steps_needed / executed if executed else 1.0
    rows = counts.get("estimator.grid_rows", 0)
    out["estimator.grid_rows_diverged_ratio"] = (
        counts.get("estimator.grid_rows_diverged", 0) / rows if rows else 0.0)
    return out
