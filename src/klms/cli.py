"""Command-line surface.

Subcommands:
  theory       print step exponents, predicted rates and the regime for (alpha, r)
  simulate     run replicates for a config file, write per-replicate CSV
  gamma-sweep  best constant step per sample size, write CSV
  compare      four-algorithm rate comparison on a benchmark point, write CSV
  bound-check  mean excess risk against the finite-horizon bound, CSV to stdout
  selfcheck    run the oracle-equivalence suites
  bernoulli    evaluate B_k(x)

Exit codes: 0 success, 2 configuration error, 3 numerical divergence,
4 selfcheck failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from functools import cache

import numpy as np

from . import bernoulli, harness, kernels, risk, theory
from .errors import ConfigurationError, DivergenceError
from .estimator import (FiniteHorizon, KernelExpansion, averaged_coefficients, finite_dim_sgd,
                        first_divergence, prefix_iterate, sgd_run)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_SELFCHECK = 4


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _cmd_theory(args) -> int:
    setting = args.setting
    expo = theory.step_exponent(args.alpha, args.r, setting)
    print(f"alpha = {_fmt(args.alpha)}  r = {_fmt(args.r)}  setting = {setting}")
    print(f"step_exponent     = {_fmt(expo)}")
    print(f"predicted_rate    = {_fmt(theory.predicted_rate(args.alpha, args.r, setting))}")
    print(f"competitor_rate   = {_fmt(theory.competitor_rate(args.r))}")
    print(f"regime            = {theory.classify_regime(args.alpha, args.r, setting).value}")
    return EXIT_OK


def _check_out(path) -> None:
    """Raise ConfigurationError now, before any replicate runs, if the file
    at `path` (when given) cannot be opened for writing. It is written only
    after the run: an existing file keeps its contents until then, and a
    run that fails creates none."""
    if not path:
        return
    existed = os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as err:
        raise ConfigurationError(f"cannot write {path}: {err}") from None
    if not existed:
        os.remove(path)


def _write_csv(path, header, rows) -> None:
    """Write a table through `harness.write_csv` to the file at `path`, or to
    stdout when no path is given; a path that cannot be written is a
    ConfigurationError (`_check_out` finds most such paths before the run)."""
    if not path:
        harness.write_csv(sys.stdout, header, rows)
        return
    try:
        with open(path, "w", encoding="utf-8") as out:
            harness.write_csv(out, header, rows)
    except OSError as err:
        raise ConfigurationError(f"cannot write {path}: {err}") from None
    print(f"wrote {path}")


def _write_rows(path, cls, rows) -> None:
    """`_write_csv` of dataclass rows, one column per field of `cls`."""
    _write_csv(path, [f.name for f in dataclasses.fields(cls)], map(dataclasses.astuple, rows))


def _cmd_simulate(args) -> int:
    config = harness.parse_config(args.config)
    _check_out(args.out)
    run = harness.run_replicates(config)
    if args.out:
        _write_csv(args.out, ("n", "replicate", "excess_risk"),
                   ((n, rep, risks[ci])
                    for rep, risks in enumerate(run.per_replicate)
                    for ci, n in enumerate(run.checkpoints)))
    else:
        _write_csv(None, ("n", "mean_excess_risk"), zip(run.checkpoints, run.mean))
    return EXIT_OK


def _cmd_gamma_sweep(args) -> int:
    config = harness.parse_config(args.config)
    # the best-gamma slope is fitted over one row per checkpoint
    harness.check_fit_points(len(config.checkpoints()))
    bounds = (args.grid_min, args.grid_max, args.grid_points)
    if all(v is None for v in bounds):
        grid = harness.default_gamma_grid(config.R_sq)
    elif any(v is None for v in bounds):
        raise ConfigurationError("give all of --grid-min, --grid-max, --grid-points or none")
    elif not 0 < args.grid_min < args.grid_max < np.inf or args.grid_points < 1:
        raise ConfigurationError("need 0 < grid-min < grid-max < inf and grid-points >= 1")
    else:
        grid = np.geomspace(args.grid_min, args.grid_max, args.grid_points)
    _check_out(args.out)
    rows = harness.gamma_sweep(config, grid)
    _write_rows(args.out, harness.SweepRow, rows)
    fit = harness.fit_rate([(row.n, row.best_gamma) for row in rows])
    print(f"best-gamma slope over second half: {_fmt(fit.slope)}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    _check_out(args.out)
    rows = harness.compare_algorithms(args.point, n_max=args.n_max,
                                      replicates=args.replicates,
                                      noise_sigma=args.noise,
                                      master_seed=args.seed,
                                      use_table_step=args.table_step)
    if args.out:
        _write_rows(args.out, harness.ComparisonRow, rows)
    for row in rows:
        print(f"{row.algorithm:12s} predicted {row.predicted_slope:+.3f}  "
              f"effective {row.effective_slope:+.3f}  (rms {row.residual_rms:.3f})")
    return EXIT_OK


def _cmd_bound_check(args) -> int:
    rows = harness.bound_check(replicates=args.replicates, master_seed=args.seed)
    _write_rows(None, harness.BoundRow, rows)
    return EXIT_OK


def _cmd_bernoulli(args) -> int:
    # a non-finite x, or a large one that overflows, gives a non-finite value
    with np.errstate(over="ignore", invalid="ignore"):
        value = bernoulli.bernoulli_poly(args.k, args.x)
    if not np.isfinite(value):
        raise ConfigurationError(f"B_{args.k}(x) is not finite in float64 at x = {args.x}")
    print(_fmt(value))
    return EXIT_OK


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def _check_kernel_series() -> tuple[bool, str]:
    grid = np.linspace(0.0, 1.0, 21, endpoint=False)
    s, t = grid[:, None], grid[None, ::4]
    worst = 0.0
    for m in (1, 2):
        gap = np.abs(kernels.spline_kernel(m, s, t)
                     - kernels.spline_kernel_series(m, s, t, 10**5))
        worst = max(worst, float(np.max(gap)))
    return worst <= 1e-8, f"max |closed - series| = {worst:.2e}"


def _check_bernoulli_fourier() -> tuple[bool, str]:
    xs = np.linspace(0.0, 1.0, 25, endpoint=False)
    worst = 0.0
    for k in range(1, 9):
        # k = 1 excludes the jump at x = 0
        x = xs[1:] if k == 1 else xs
        gap = np.abs(bernoulli.bernoulli_fourier_eval(k, x, 10**5)
                     - bernoulli.bernoulli_poly(k, x))
        worst = max(worst, float(np.max(gap)))
    return worst <= 1e-6, f"max |series - poly| = {worst:.2e}"


def _check_eigen() -> tuple[bool, str]:
    worst = 0.0
    for m in (1, 2):
        for i in (1, 2, 3):
            for s in (0.0, 0.3):
                for sine in (False, True):
                    lhs, rhs = kernels.eigen_check(m, i, s, 10**4, sine=sine)
                    if abs(rhs) < 1e-12:
                        worst = max(worst, abs(lhs))
                    else:
                        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst <= 1e-6, f"max eigen residual = {worst:.2e}"


def _averaged_iterate(gram, ys, step, n: int) -> np.ndarray:
    """The averaged iterate after the first n steps of one `sgd_run` schedule
    on one checkpoint, so one grid row; a divergence raises."""
    [(rows, shrinks, _)] = sgd_run(gram, ys, [step], [n])
    [bad_step], [value] = first_divergence(rows, shrinks)
    if bad_step <= n:
        raise DivergenceError(int(bad_step), float(value))
    return prefix_iterate(rows[0], n, True, shrinks)


def _check_risk_oracles() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    worst_f, worst_q = 0.0, 0.0
    for _ in range(20):
        m = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 31))
        exp = KernelExpansion(rng.random(n), rng.uniform(-1, 1, n))
        closed = risk.excess_risk_closed(exp, m, k)
        worst_f = max(worst_f, abs(closed - risk.excess_risk_fourier(exp, m, k, 10**5)))
        worst_q = max(worst_q, abs(closed - risk.excess_risk_mc(exp, m, k, 10**5)))
    # a production-size expansion: ours' averaged iterate on replicate 0 of
    # point 2 at n = 3162, against the closed form the harness reports
    m, k = harness.TABLE_POINTS[2]
    cfg = harness.ExperimentConfig(kernel_order_m=m, target_index_k=k,
                                   noise_sigma=harness.POINT_NOISE[2], n_max=3162, replicates=1)
    ctx = next(harness._replicate_contexts(cfg))
    averaged = _averaged_iterate(ctx.gram, ctx.ys, harness._algorithm_spec(cfg, "ours"), cfg.n_max)
    exp = KernelExpansion(ctx.xs, averaged)
    closed = float(ctx.excess_risk(averaged))
    rel_f = abs(risk.excess_risk_fourier(exp, m, k, 2000) / closed - 1.0)
    rel_q = abs(risk.excess_risk_mc(exp, m, k, 10**5) / closed - 1.0)
    ok = worst_f <= 1e-8 and worst_q <= 1e-5 and rel_f <= 1e-8 and rel_q <= 1e-6
    return ok, (f"fourier gap {worst_f:.2e}, quadrature gap {worst_q:.2e}; "
                f"n = {cfg.n_max} relative gaps {rel_f:.2e}, {rel_q:.2e}")


def _check_averaging() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for regularized in (False, True):
        n = 60
        a = rng.uniform(-1, 1, n)
        shrinks = 1.0 - 0.01 * rng.random(n) if regularized else np.ones(n)
        got = averaged_coefficients(a, shrinks if regularized else None)
        # brute force: materialize every iterate's coefficient vector
        coeffs = np.zeros(n)
        acc = np.zeros(n)
        for i in range(n):
            coeffs[:i] *= shrinks[i]
            coeffs[i] = a[i]
            acc += coeffs
        brute = acc / (n + 1)
        worst = max(worst, float(np.max(np.abs(got - brute))))
    return worst <= 1e-12, f"max averaging gap = {worst:.2e}"


def _check_finite_dim() -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    n, d = 50, 2
    xs = rng.standard_normal((n, d))
    ys = xs @ np.array([0.5, -1.0]) + 0.1 * rng.standard_normal(n)
    gamma = 0.05
    theta_bar = finite_dim_sgd((xs, ys), gamma)
    averaged = _averaged_iterate(xs @ xs.T, ys, FiniteHorizon(gamma), n)
    test_points = rng.standard_normal((5, d))
    worst = max(abs(float(theta_bar @ p) - float(averaged @ (xs @ p)))
                for p in test_points)
    return worst <= 1e-10, f"max primal/expansion gap = {worst:.2e}"


_SELFCHECKS = [
    ("spline kernel closed form vs Fourier series", _check_kernel_series),
    ("Bernoulli polynomials vs Fourier series", _check_bernoulli_fourier),
    ("covariance eigenpairs by quadrature", _check_eigen),
    ("risk oracle triple agreement", _check_risk_oracles),
    ("averaged coefficients vs brute force", _check_averaging),
    ("finite-dimensional vs expansion recursion", _check_finite_dim),
]


def _cmd_selfcheck(_args) -> int:
    failures = 0
    for name, fn in _SELFCHECKS:
        ok, detail = fn()
        print(f"{'PASS' if ok else 'FAIL'}  {name} ({detail})")
        if not ok:
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_SELFCHECK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: `main` runs
    many times in one process under the tests and the benchmark."""
    parser = argparse.ArgumentParser(prog="klms", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory", help="step exponents, rates and regime")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--setting", choices=theory.SETTINGS, default="finite_horizon")
    p.set_defaults(fn=_cmd_theory)

    p = sub.add_parser("simulate", help="run replicates from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("gamma-sweep", help="best constant step per sample size")
    p.add_argument("--config", required=True)
    p.add_argument("--grid-min", type=float, default=None)
    p.add_argument("--grid-max", type=float, default=None)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gamma_sweep)

    p = sub.add_parser("compare", help="four-algorithm rate comparison")
    p.add_argument("--point", type=int, choices=sorted(harness.TABLE_POINTS), required=True)
    p.add_argument("--n-max", type=int, default=3162)
    p.add_argument("--replicates", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=None,
                   help="noise level (default: per-point calibration)")
    p.add_argument("--table-step", action="store_true",
                   help="use the published table's step exponent for ours")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("bound-check", help="empirical risk against the finite-horizon bound")
    p.add_argument("--replicates", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_bound_check)

    p = sub.add_parser("selfcheck", help="run the oracle-equivalence suites")
    p.set_defaults(fn=_cmd_selfcheck)

    p = sub.add_parser("bernoulli", help="evaluate B_k(x)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(fn=_cmd_bernoulli)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DivergenceError as err:
        for each in (err, *err.also):
            print(f"numerical divergence: {each}", file=sys.stderr)
        return EXIT_DIVERGED
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
