"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 6 and 7 are stochastic end-to-end reproductions (minutes of
runtime); everything else runs in seconds. Run with ``pytest -s`` to see the
per-criterion lines as they complete.
"""

import math

import numpy as np

from klms.bernoulli import bernoulli_fourier_eval, bernoulli_poly
from klms.estimator import (FiniteHorizon, KernelExpansion, averaged_coefficients,
                            finite_dim_sgd, prefix_iterate, ridge_solve, sgd_run)
from klms.harness import (POINT_NOISE, TABLE_POINTS, ExperimentConfig, bound_check,
                          compare_algorithms, default_gamma_grid, fit_rate, gamma_sweep,
                          replicate_seed, sample_stream)
from klms.kernels import SplineGram, eigen_check, spline_kernel, spline_kernel_series
from klms.risk import (ClosedFormRisk, excess_risk_closed, excess_risk_finite_dim,
                       excess_risk_fourier, excess_risk_mc)
from klms.theory import step_exponent

PAPER_EFFECTIVE = {1: -0.7, 2: -0.71, 3: -0.69, 4: -0.29}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c01_kernel_and_bernoulli_identities():
    grid = np.linspace(0.0, 1.0, 51, endpoint=False)
    s, t = grid[:, None], grid[None, :]
    worst_kernel = 0.0
    for m in (1, 2):
        gap = np.abs(spline_kernel(m, s, t) - spline_kernel_series(m, s, t, 10**5))
        worst_kernel = max(worst_kernel, float(np.max(gap)))
    worst_poly = 0.0
    xs = np.linspace(0.0, 1.0, 101, endpoint=False)
    for k in range(1, 9):
        # k = 1 excludes the jump at x = 0
        x = xs[1:] if k == 1 else xs
        gap = np.abs(bernoulli_fourier_eval(k, x, 10**5) - bernoulli_poly(k, x))
        worst_poly = max(worst_poly, float(np.max(gap)))
    ok = worst_kernel <= 1e-8 and worst_poly <= 1e-6
    _report("c01 kernel/Bernoulli identities", ok,
            f"max kernel gap {worst_kernel:.2e} (tol 1e-8), "
            f"max polynomial gap {worst_poly:.2e} (tol 1e-6)")


def test_c02_spectral_check():
    worst = 0.0
    for m in (1, 2):
        for i in range(1, 6):
            for s in (0.03, 0.09):
                for sine in (False, True):
                    lhs, rhs = eigen_check(m, i, s, 10**4, sine=sine)
                    worst = max(worst, abs(lhs - rhs) / abs(rhs))
    _report("c02 covariance eigenpairs", worst <= 1e-6,
            f"max relative error {worst:.2e} over i <= 5, m in {{1,2}} (tol 1e-6)")


def test_c03_risk_oracle_triple_agreement():
    rng = np.random.default_rng(2024)
    worst_fourier = 0.0
    worst_quad = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 51))
        exp = KernelExpansion(rng.random(n), rng.uniform(-1.0, 1.0, n))
        closed = excess_risk_closed(exp, m, k)
        worst_fourier = max(worst_fourier,
                            abs(closed - excess_risk_fourier(exp, m, k, 10**5)))
        worst_quad = max(worst_quad,
                         abs(closed - excess_risk_mc(exp, m, k, 10**5)))
    ok = worst_fourier <= 1e-8 and worst_quad <= 1e-5
    _report("c03 risk oracle triple agreement", ok,
            f"200 expansions: |closed-fourier| <= {worst_fourier:.2e} (tol 1e-8), "
            f"|closed-quadrature| <= {worst_quad:.2e} (tol 1e-5)")


def test_c04_averaging_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    cases = [(n, reg) for n in (1, 2, 3, 17, 64, 200) for reg in (False, True)]
    cases += [(int(rng.integers(1, 201)), bool(rng.integers(2))) for _ in range(30)]
    for n, regularized in cases:
        a = rng.uniform(-1.0, 1.0, n)
        shrinks = 1.0 - 0.05 * rng.random(n) if regularized else np.ones(n)
        got = averaged_coefficients(a, shrinks if regularized else None)
        coeffs = np.zeros(n)
        acc = np.zeros(n)
        for i in range(n):
            coeffs[:i] *= shrinks[i]
            coeffs[i] = a[i]
            acc += coeffs
        worst = max(worst, float(np.max(np.abs(got - acc / (n + 1)))))
    _report("c04 averaging oracle", worst <= 1e-12,
            f"max gap vs brute-force iterate average {worst:.2e} (tol 1e-12, n <= 200)")


def test_c05_consistency_constant_step():
    # constant gamma = 1/(4 R^2) on (m=1, k=2, sigma=0.1): risk must drop
    # from n=100 to n=3162
    cfg = ExperimentConfig(kernel_order_m=1, target_index_k=2, noise_sigma=0.1,
                           n_max=3162, replicates=15, master_seed=0)
    gamma = 1.0 / (4.0 * cfg.R_sq)
    risks = np.zeros(2)
    for rep in range(cfg.replicates):
        xs, ys = sample_stream(replicate_seed(0, rep, cfg.stream_digest()),
                               2, 0.1, cfg.n_max)
        [(rows, _, _)] = sgd_run(SplineGram(1, xs), ys, [FiniteHorizon(gamma)], [100, 3162])
        averaged = np.zeros((2, 3162))
        averaged[0, :100] = prefix_iterate(rows[0], 100, True)
        averaged[1] = prefix_iterate(rows[0], 3162, True)
        risks += ClosedFormRisk(1, 2, xs)(averaged)
    risks /= cfg.replicates
    _report("c05 consistency", risks[1] < risks[0],
            f"mean excess risk {risks[0]:.3e} at n=100 -> {risks[1]:.3e} at n=3162")


def test_c06_gamma_sweep_slope():
    cfg = ExperimentConfig(kernel_order_m=1, target_index_k=2, noise_sigma=0.1,
                           algorithm="ours", n_max=3162, replicates=30,
                           master_seed=0)
    rows = gamma_sweep(cfg, default_gamma_grid(cfg.R_sq))
    fit = fit_rate([(row.n, row.best_gamma) for row in rows])
    ok = abs(fit.slope - (-0.5)) <= 0.15
    _report("c06 gamma-sweep slope", ok,
            f"best-gamma slope {fit.slope:+.3f} (want -0.5 +/- 0.15; "
            f"published run: -0.51)")


def test_c07_rate_table_reproduction():
    details = []
    ok = True
    for point in sorted(TABLE_POINTS):
        rows = compare_algorithms(point, n_max=3162, replicates=15, master_seed=0)
        slopes = {row.algorithm: row.effective_slope for row in rows}
        band_ok = abs(slopes["ours"] - PAPER_EFFECTIVE[point]) <= 0.12
        comp_ok = True
        if point in (1, 2, 3):
            comp_ok = all(slopes[name] >= slopes["ours"] - 0.03
                          for name in ("zhang", "ying_pontil", "tarres_yao"))
        ok = ok and band_ok and comp_ok
        details.append(
            f"p{point} ours {slopes['ours']:+.3f} (target {PAPER_EFFECTIVE[point]:+.2f}"
            f"+/-0.12 {'ok' if band_ok else 'FAIL'})"
            + ("" if point == 4 else f" competitors {'ok' if comp_ok else 'FAIL'}"))
    _report("c07 rate table", ok, "; ".join(details))


def test_c08_bound_domination():
    # m=1, k=2, 15 replicates at n_max=3162, gamma0 = 1/(4 R^2), r_eval = 0.95 r
    rows = bound_check(replicates=15, master_seed=0)
    worst = float(np.max([row.ratio for row in rows]))
    _report("c08 bound domination", worst <= 2.0,
            f"max empirical/bound ratio {worst:.4f} over {len(rows)} checkpoints "
            f"(allowed 2.0)")


def test_c09_finite_dimensional_bound():
    d, sigma = 5, 0.5
    theta_star = np.ones(d) / math.sqrt(d)
    R_sq = d + 2.0                     # E[||x||^2 x x'] <= R^2 I for N(0, I_d)
    gamma = 1.0 / (4.0 * R_sq)
    bound_const = 4.0 * (sigma * math.sqrt(d) + math.sqrt(R_sq)) ** 2
    details = []
    ok = True
    for n in (100, 1000, 10000):
        risks = []
        for rep in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([77, rep, n]))
            xs = rng.standard_normal((n, d))
            ys = xs @ theta_star + sigma * rng.standard_normal(n)
            theta_bar = finite_dim_sgd((xs, ys), gamma)
            risks.append(excess_risk_finite_dim(theta_bar, theta_star, np.eye(d)))
        mean = float(np.mean(risks))
        ok = ok and mean <= bound_const / n
        details.append(f"n={n}: {mean:.3e} <= {bound_const / n:.3e}")
    _report("c09 finite-dimensional bound", ok, "; ".join(details))


def test_c10_ridge_baseline():
    rng = np.random.default_rng(5)

    # (a) solver residual at system size 200
    worst_resid = 0.0
    for _ in range(5):
        xs = rng.random(200)
        ys = bernoulli_poly(2, xs) + 0.1 * rng.standard_normal(200)
        lam = 10.0 ** rng.uniform(-4, 0)
        coeffs = ridge_solve(SplineGram(1, xs)[:, :], ys, lam)
        mat = SplineGram(1, xs)[:, :] + lam * np.eye(200)
        worst_resid = max(worst_resid, float(np.linalg.norm(mat @ coeffs - ys)))

    # (b) matched regularization: lambda = 1/(gamma n) in the 1/n-normalized
    # objective, i.e. the linear system uses n * lambda = 1/gamma
    cfg = ExperimentConfig(kernel_order_m=1, target_index_k=2,
                           noise_sigma=POINT_NOISE[1])
    n = 1000
    gamma = cfg.effective_gamma0() * n ** step_exponent(cfg.alpha, cfg.r)
    lam = 1.0 / (gamma * n)
    ridge_risks, sgd_risks = [], []
    for rep in range(10):
        xs, ys = sample_stream(replicate_seed(0, rep, cfg.stream_digest()),
                               2, cfg.noise_sigma, n)
        gram, score = SplineGram(1, xs), ClosedFormRisk(1, 2, xs)
        ridge_risks.append(score(ridge_solve(gram[:, :], ys, n * lam)))
        [(rows, _, _)] = sgd_run(gram, ys, [FiniteHorizon(gamma)], [n])
        sgd_risks.append(score(prefix_iterate(rows[0], n, True)))
    ratio = float(np.mean(ridge_risks)) / float(np.mean(sgd_risks))
    ok = worst_resid <= 1e-8 and (1.0 / 3.0) <= ratio <= 3.0
    _report("c10 ridge baseline", ok,
            f"max residual {worst_resid:.2e} (tol 1e-8); "
            f"ridge/SGD risk ratio {ratio:.3f} at n=1000 (allowed within 3x)")
