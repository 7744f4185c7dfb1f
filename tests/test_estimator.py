import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from klms import estimator
from klms.errors import ConfigurationError, DivergenceError
from klms.estimator import (FiniteHorizon, KernelExpansion, Online, TarresYao,
                            averaged_coefficients, finite_dim_sgd, first_divergence,
                            prefix_iterate, ridge_solve, sgd_constant_grid, sgd_run)
from klms.harness import default_gamma_grid
from klms.kernels import SplineGram, kernel_sup_sq, spline_kernel
from klms.theory import competitor_rate


def G1(xs):
    # dense: test_gram_must_cover_the_run indexes a row of it
    return SplineGram(1, xs)[:, :]


# the same kernel as a function of two points, for the naive oracles
R1 = partial(spline_kernel, 1)


def run_stacks(gram, ys, schedules, cps):
    """`sgd_run`'s answer per schedule as zero-padded (last, averaged)
    (len(cps), N) stacks, row c the iterate after cps[c] steps in its
    leading cps[c] entries; or the DivergenceError of the first checkpoint
    whose row diverged within its steps."""
    out = []
    for rows, shrinks, row_of in sgd_run(gram, ys, schedules, cps):
        step, value = first_divergence(rows, shrinks)
        bad = [row for row, n in zip(row_of, cps) if step[row] <= n]
        if bad:
            out.append(DivergenceError(int(step[bad[0]]), float(value[bad[0]])))
            continue
        stacks = np.zeros((2, len(cps), cps[-1]))
        for c, (row, n) in enumerate(zip(row_of, cps)):
            for stack, averaged in zip(stacks, (False, True)):
                stack[c, :n] = prefix_iterate(rows[row], n, averaged, shrinks)
        out.append(tuple(stacks))
    return out


def naive_run(kernel, xs, ys, step_fn, lam_fn, n):
    """Straight-line re-implementation of the recursion: full coefficient
    list per step, explicit shrink of every old coefficient, brute-force
    average of the materialized iterates. Shares no code with the package."""
    coeffs = []
    iterates = [np.zeros(0)]
    for i in range(1, n + 1):
        pred = sum(a * kernel(x, xs[i - 1]) for x, a in zip(xs[: i - 1], coeffs))
        g = step_fn(i)
        lam = lam_fn(i)
        coeffs = [(1.0 - g * lam) * a for a in coeffs]
        coeffs.append(-g * (pred - ys[i - 1]))
        iterates.append(np.array(coeffs))
    acc = np.zeros(n)
    for it in iterates:
        acc[: len(it)] += it
    return np.array(coeffs), acc / (n + 1)


def tarres_yao_fns(r, a=4.0, n0=1):
    """The TarresYao step and regularization at step i, restated from its
    definition for `naive_run`."""
    return (lambda i: a * (n0 + i) ** (-2.0 * r / (2.0 * r + 1.0)),
            lambda i: (n0 + i) ** (-1.0 / (2.0 * r + 1.0)) / a)


def stepwise_grid(gram, ys, gammas, shrinks=None):
    """The recursion one step at a time, for every row at once: step i
    predicts from gram[i, :i] and appends one coefficient per row. Reference
    for the blocked solver of `sgd_constant_grid`; shares no code with it."""
    n = ys.shape[0]
    g = np.asarray(gammas, dtype=float)
    if g.ndim == 1:
        g = g[:, None]
    steps = np.broadcast_to(g, (g.shape[0], n))
    scales = np.ones(n) if shrinks is None else np.cumprod(shrinks)
    coeffs = np.zeros((g.shape[0], n))
    prev = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            preds = prev * (coeffs[:, :i] @ gram[i, :i])
            coeffs[:, i] = -steps[:, i] * (preds - ys[i]) / scales[i]
            prev = scales[i]
    return coeffs


class TestSchedules:
    def test_finite_horizon_constant(self):
        s = FiniteHorizon(0.5)
        assert s.at(1) == s.at(100) == 0.5
        assert np.array_equal(s.at([1, 10, 100]), [0.5, 0.5, 0.5])
        t = FiniteHorizon(2.0, -0.5)
        assert t.at(1) == 2.0
        assert t.at(100) == pytest.approx(0.2)
        assert np.allclose(t.at([4, 16]), [1.0, 0.5])

    def test_finite_horizon_rows_deduplicated(self):
        # one constant row per distinct step, each checkpoint mapped to its row
        steps, shrinks, row_of = FiniteHorizon(2.0, -0.5).rows([1, 4, 16])
        assert np.array_equal(steps, [0.5, 1.0, 2.0])
        assert shrinks is None and row_of.tolist() == [2, 1, 0]
        steps, shrinks, row_of = FiniteHorizon(0.5).rows([3, 10, 40])
        assert np.array_equal(steps, [0.5])
        assert shrinks is None and row_of.tolist() == [0, 0, 0]

    def test_online_decay(self):
        steps, shrinks, row_of = Online(2.0, -0.5).rows([2, 4])
        assert steps.shape == (1, 4)
        assert steps[0, 0] == 2.0
        assert steps[0, 3] == pytest.approx(1.0)
        assert shrinks is None and row_of.tolist() == [0, 0]

    def test_tarres_yao_pairing(self):
        r = 0.75
        steps, shrinks, row_of = TarresYao(competitor_rate(r)).rows([10, 49])
        step_fn, lam_fn = tarres_yao_fns(r)
        i = np.arange(1, 50)
        assert steps.shape == (1, 49) and row_of.tolist() == [0, 0]
        assert np.allclose(steps[0], [step_fn(j) for j in i], rtol=1e-14)
        assert np.allclose(1.0 - shrinks, [step_fn(j) * lam_fn(j) for j in i], rtol=1e-13)
        # gamma_i lambda_i = 1 / (n0 + i)
        assert np.allclose(1.0 - shrinks, 1.0 / (1 + i), rtol=1e-13)

    def test_validation(self):
        for bad in ((0.0,), (np.inf,), (np.nan,), (1.0, np.nan), (1.0, -np.inf)):
            with pytest.raises(ConfigurationError):
                FiniteHorizon(*bad)
        # a non-finite parameter is a bad config, not a divergence at step 1
        for bad in ((1.0, -1.0), (1.0, 0.5), (np.inf, -0.5), (np.nan, -0.5), (1.0, np.nan)):
            with pytest.raises(ConfigurationError):
                Online(*bad)
        for bad in (-1.0, 0.0, 0.5, -np.inf, np.nan):
            with pytest.raises(ConfigurationError):
                TarresYao(exponent=bad)
        # the exponents are theory's signed slopes: a constant online step is 0
        assert np.array_equal(Online(2.0, 0.0).rows([3])[0], [[2.0, 2.0, 2.0]])


class TestRecursion:
    def test_single_step_base_case(self):
        xs = np.array([0.3])
        [(last, avg)] = run_stacks(G1(xs), np.array([2.0]), [FiniteHorizon(0.7)], [1])
        assert last[0, 0] == pytest.approx(0.7 * 2.0)
        assert avg[0, 0] == pytest.approx(0.7 * 2.0 / 2.0)

    def test_zero_targets_stay_zero(self):
        xs = np.random.default_rng(1).random(20)
        [(last, avg)] = run_stacks(G1(xs), np.zeros(20), [FiniteHorizon(1.0)], [20])
        assert np.all(last == 0.0)
        assert np.all(avg == 0.0)

    def test_transcript_oracle_unregularized(self):
        rng = np.random.default_rng(5)
        xs, ys = rng.random(5), rng.standard_normal(5)
        [(last, avg)] = run_stacks(G1(xs), ys, [FiniteHorizon(3.0)], [5])
        nc, nav = naive_run(R1, xs, ys, lambda i: 3.0, lambda i: 0.0, 5)
        assert np.allclose(last[0], nc, atol=1e-14)
        assert np.allclose(avg[0], nav, atol=1e-14)

    def test_transcript_oracle_regularized(self):
        rng = np.random.default_rng(6)
        xs, ys = rng.random(40), rng.standard_normal(40)
        ty = TarresYao(competitor_rate(0.75))
        [(last, avg)] = run_stacks(G1(xs), ys, [ty], [40])
        nc, nav = naive_run(R1, xs, ys, *tarres_yao_fns(0.75), 40)
        assert np.allclose(last[0], nc, atol=1e-13)
        assert np.allclose(avg[0], nav, atol=1e-13)

    def test_finite_horizon_step_per_checkpoint(self):
        # checkpoint N is a run of horizon N with the constant step g0 * N**e
        rng = np.random.default_rng(15)
        xs, ys = rng.random(40), rng.standard_normal(40)
        step = FiniteHorizon(6.0, -0.5)
        [(last, avg)] = run_stacks(G1(xs), ys, [step], [9, 40])
        for c, n in enumerate([9, 40]):
            nc, nav = naive_run(R1, xs, ys, lambda i: 6.0 * n**-0.5, lambda i: 0.0, n)
            assert np.allclose(last[c, :n], nc, atol=1e-13)
            assert np.allclose(avg[c, :n], nav, atol=1e-13)

    def test_finite_horizon_divergence_is_per_checkpoint(self):
        # with K(x, x) = 1/12, the step 1e6 / N**3 grows each coefficient
        # 665-fold per step at N = 5 and is stable at N = 60: the longer
        # run's own row never diverges, the shorter one does
        xs = np.full(60, 0.5)
        ys = np.full(60, 1.0)
        step = FiniteHorizon(1e6, -3.0)
        [(last, _)] = run_stacks(G1(xs), ys, [step], [60])
        assert last.shape == (1, 60)
        [err] = run_stacks(G1(xs), ys, [step], [5, 60])
        assert isinstance(err, DivergenceError)

    def test_repeated_finite_horizon_step_runs_once(self, monkeypatch):
        # exponent 0 gives every checkpoint the same step: one grid row
        # serves them all, matching one row per checkpoint to rounding
        rng = np.random.default_rng(16)
        xs, ys = rng.random(300), rng.standard_normal(300)
        cps = [50, 120, 300]
        gram = SplineGram(2, xs)[:, :]
        rows = sgd_constant_grid(gram, ys, [(np.full(len(cps), 0.3), None)])
        ran = []

        def grid(*args, **kwargs):
            ran.append(sum(len(steps) for steps, _ in args[2]))
            return sgd_constant_grid(*args, **kwargs)

        monkeypatch.setattr(estimator, "sgd_constant_grid", grid)
        step = FiniteHorizon(0.3)
        [got] = run_stacks(gram, ys, [step], cps)
        assert ran == [1]
        for c, (row, n) in enumerate(zip(rows, cps)):
            for stack, averaged in zip(got, (False, True)):
                want = prefix_iterate(row, n, averaged)
                assert np.abs(stack[c, :n] - want).max() <= 1e-14 * np.abs(want).max()
                assert np.all(stack[c, n:] == 0.0)

    def test_online_schedule_matches_naive(self):
        rng = np.random.default_rng(7)
        xs, ys = rng.random(30), rng.standard_normal(30)
        [(last, _)] = run_stacks(G1(xs), ys, [Online(3.0, -0.5)], [30])
        nc, _ = naive_run(R1, xs, ys, lambda i: 3.0 / i**0.5, lambda i: 0.0, 30)
        assert np.allclose(last[0], nc, atol=1e-13)

    def test_checkpoint_snapshots_prefix_property(self):
        rng = np.random.default_rng(8)
        xs, ys = rng.random(50), rng.standard_normal(50)
        [((short, full), _)] = run_stacks(G1(xs), ys, [FiniteHorizon(2.0)], [10, 50])
        assert np.allclose(short[:10], full[:10], atol=1e-15)

    def test_determinism(self):
        rng = np.random.default_rng(9)
        xs, ys = rng.random(25), rng.standard_normal(25)
        step = FiniteHorizon(1.5)
        [(a, _)] = run_stacks(G1(xs), ys, [step], [25])
        [(b, _)] = run_stacks(G1(xs), ys, [step], [25])
        assert np.array_equal(a, b)

    def test_leading_block_of_longer_gram(self):
        # the harness passes the Gram matrix of the whole stream; a run up
        # to N reads only its leading (N, N) block
        rng = np.random.default_rng(10)
        xs, ys = rng.random(60), rng.standard_normal(60)
        step = FiniteHorizon(2.0)
        [(long_last, long_avg)] = run_stacks(G1(xs), ys, [step], [30])
        [(last, avg)] = run_stacks(G1(xs[:30]), ys[:30], [step], [30])
        assert np.array_equal(long_last, last)
        assert np.array_equal(long_avg, avg)

    def test_gram_must_cover_the_run(self):
        rng = np.random.default_rng(17)
        xs, ys = rng.random(300), rng.standard_normal(300)
        step = FiniteHorizon(1.0)
        for gram in (G1(xs[:200]), G1(xs)[:, :200], G1(xs)[0]):
            with pytest.raises(ConfigurationError, match="Gram matrix"):
                sgd_run(gram, ys, [step], [100, 300])
        assert len(run_stacks(G1(xs[:200]), ys, [step], [100, 200])[0][0]) == 2

    def test_divergence_diagnostic_names_step(self):
        xs = np.full(60, 0.5)
        ys = np.full(60, 1.0)
        step = FiniteHorizon(100.0)
        [err] = run_stacks(G1(xs), ys, [step], [60])
        assert isinstance(err, DivergenceError)
        assert err.step > 1

    def test_checkpoint_validation(self):
        xs, ys = np.array([0.1, 0.2]), np.array([0.0, 0.0])
        step = FiniteHorizon(1.0)
        with pytest.raises(ConfigurationError):
            sgd_run(G1(xs), ys, [step], [])
        with pytest.raises(ConfigurationError):
            sgd_run(G1(xs), ys, [step], [3])
        with pytest.raises(ConfigurationError):
            sgd_run(G1(xs), ys, [step], [2, 2])
        with pytest.raises(ConfigurationError):
            sgd_run(G1(xs), ys, [step], [2, 1])
        with pytest.raises(ConfigurationError):
            sgd_run(G1(xs), ys, [step], [0, 2])


class TestAveraging:
    def test_single_coefficient(self):
        assert averaged_coefficients(np.array([4.0]))[0] == pytest.approx(2.0)

    def test_zero_coefficients(self):
        assert np.all(averaged_coefficients(np.zeros(7)) == 0.0)

    def test_unregularized_weights(self):
        a = np.array([1.0, 1.0, 1.0])
        got = averaged_coefficients(a)
        assert np.allclose(got, [3 / 4, 2 / 4, 1 / 4])

    def test_no_shrinks_is_unit_shrinks(self):
        a = np.random.default_rng(14).uniform(-1.0, 1.0, 3162)
        assert np.array_equal(averaged_coefficients(a), averaged_coefficients(a, np.ones(3162)))

    @given(st.integers(1, 200), st.booleans(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_brute_force_oracle(self, n, regularized, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, n)
        shrinks = 1.0 - 0.02 * rng.random(n) if regularized else np.ones(n)
        got = averaged_coefficients(a, shrinks if regularized else None)
        coeffs = np.zeros(n)
        acc = np.zeros(n)
        for i in range(n):
            coeffs[:i] *= shrinks[i]
            coeffs[i] = a[i]
            acc += coeffs
        assert np.allclose(got, acc / (n + 1), atol=1e-12)

    def test_shrink_via_scale_equals_naive_products(self):
        # 100-step regularized run: the O(1) global-scale path must match a
        # naive per-coefficient multiplication at every step
        rng = np.random.default_rng(12)
        xs, ys = rng.random(100), rng.standard_normal(100)
        ty = TarresYao(competitor_rate(0.375))
        [(last, avg)] = run_stacks(G1(xs), ys, [ty], [100])
        nc, nav = naive_run(R1, xs, ys, *tarres_yao_fns(0.375), 100)
        assert np.allclose(last[0], nc, atol=1e-12)
        assert np.allclose(avg[0], nav, atol=1e-12)


class TestEvaluate:
    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            KernelExpansion(np.array([0.1, 0.2]), np.array([1.0]))


class TestRidge:
    def test_scalar_solve(self):
        xs = np.array([0.3])
        coeffs = ridge_solve(G1(xs), np.array([2.0]), 0.5)
        assert coeffs[0] == pytest.approx(2.0 / (1 / 12 + 0.5))

    def test_large_lambda_shrinks(self):
        rng = np.random.default_rng(0)
        xs, ys = rng.random(15), rng.standard_normal(15)
        lam = 1e6
        coeffs = ridge_solve(G1(xs), ys, lam)
        assert np.linalg.norm(coeffs) <= np.linalg.norm(ys) / lam

    def test_residual(self):
        rng = np.random.default_rng(1)
        xs, ys = rng.random(10), rng.standard_normal(10)
        lam = 0.05
        coeffs = ridge_solve(G1(xs), ys, lam)
        mat = G1(xs) + lam * np.eye(10)
        assert np.linalg.norm(mat @ coeffs - ys) <= 1e-8

    def test_singular_at_zero_lambda(self):
        xs = np.array([0.3, 0.3, 0.7])
        ys = np.array([1.0, 2.0, 0.0])
        with pytest.raises(np.linalg.LinAlgError):
            ridge_solve(G1(xs), ys, 0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            ridge_solve(G1(np.array([0.1])), np.array([1.0]), -0.1)

    def test_gram_must_match_the_points(self):
        rng = np.random.default_rng(2)
        xs, ys = rng.random(10), rng.standard_normal(10)
        for gram in (G1(xs[:9]), G1(np.append(xs, 0.5)), G1(xs)[:, :9],
                     G1(xs)[0], SplineGram(1, xs[:9]), SplineGram(1, np.append(xs, 0.5))):
            with pytest.raises(ConfigurationError, match="Gram matrix"):
                ridge_solve(gram, ys, 0.1)

    def test_lazy_gram_solves_as_dense(self):
        # ridge takes the Gram argument of sgd_run, lazy or dense
        rng = np.random.default_rng(4)
        xs, ys = rng.random(10), rng.standard_normal(10)
        assert np.array_equal(ridge_solve(SplineGram(2, xs), ys, 0.1),
                              ridge_solve(SplineGram(2, xs)[:, :], ys, 0.1))

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ConfigurationError):
            ridge_solve(G1(np.array([0.1])), np.array([1.0]), lam)


class TestFiniteDim:
    def test_zero_targets(self):
        xs = np.random.default_rng(2).standard_normal((30, 3))
        assert np.all(finite_dim_sgd((xs, np.zeros(30)), 0.1) == 0.0)

    def test_hand_computed_two_steps(self):
        xs = np.array([[1.0], [2.0]])
        ys = np.array([1.0, 0.0])
        g = 0.1
        # theta_1 = g*1*[1] = [0.1]; theta_2 = theta_1 - g*(0.2 - 0)*[2] = [0.06]
        want = (0.0 + 0.1 + 0.06) / 3.0
        got = finite_dim_sgd((xs, ys), g)
        assert got[0] == pytest.approx(want, abs=1e-15)

    def test_representer_equivalence(self):
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((50, 2))
        ys = xs @ np.array([1.0, -0.5]) + 0.05 * rng.standard_normal(50)
        gamma = 0.05
        theta_bar = finite_dim_sgd((xs, ys), gamma)
        [(_, avg)] = run_stacks(xs @ xs.T, ys, [FiniteHorizon(gamma)], [50])
        for p in rng.standard_normal((10, 2)):
            assert abs(float(theta_bar @ p) - float(avg[0] @ (xs @ p))) <= 1e-10

    def test_divergence_guard(self):
        xs = np.ones((50, 1)) * 3.0
        ys = np.ones(50)
        with pytest.raises(DivergenceError):
            finite_dim_sgd((xs, ys), 10.0)


class TestConstantGrid:
    def test_matches_individual_runs(self):
        rng = np.random.default_rng(4)
        xs, ys = rng.random(40), rng.standard_normal(40)
        grid = np.array([0.5, 2.0, 6.0])
        coeffs = sgd_constant_grid(G1(xs), ys, [(grid, None)])
        for gi, gamma in enumerate(grid):
            last, _ = naive_run(R1, xs, ys, lambda i: gamma, lambda i: 0.0, 40)
            assert np.allclose(coeffs[gi], last, atol=1e-12)

    def test_divergent_row_isolated(self):
        # every point in one bin: on the lazy Gram matrix every prediction
        # comes from the near field
        xs = np.full(300, 0.5)
        ys = np.full(300, 1.0)
        grid = np.array([1.0, 500.0])
        for gram in (G1(xs), SplineGram(1, xs)):
            coeffs = sgd_constant_grid(gram, ys, [(grid, None)])
            assert np.all(np.isfinite(coeffs[0]))
            assert np.max(np.abs(coeffs[0])) < 1e3
            # the unstable row blows past any useful magnitude and overflows,
            # without contaminating the stable row
            assert not np.all(np.isfinite(coeffs[1]))

    def test_peak_within_three_grids(self):
        # the sweep's 59 rows at n = 20000: the grid (9.4 MB) and the
        # predictor's slotted copy of it are the only arrays of one entry
        # per row and step, so the call peaks at 2.91-2.97 grids (seeds
        # 0-4; the block plan's O(n) integers add 0.02), against 4.55 with
        # per-step copies of the schedule
        sgd_constant_grid(SplineGram(1, np.linspace(0, 1, 200)), np.zeros(200),
                          [(np.ones(2), None)])
        rng = np.random.default_rng(0)
        xs, ys = rng.random(20000), rng.standard_normal(20000)
        grid = default_gamma_grid(kernel_sup_sq(1))
        tracemalloc.start()
        try:
            coeffs = sgd_constant_grid(SplineGram(1, xs), ys, [(grid, None)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coeffs.shape == (59, 20000) and peak <= 3 * coeffs.nbytes

    def test_divergence_criterion_peaks_within_a_third_over_the_grid(self):
        # first_divergence holds |a| of the rows and one boolean mask, no
        # copy with an extra column: at most 1.3 grids of 59 x 20000 (1.125
        # measured, against 2.0 with the column), with and without shrinks,
        # and its answers are the straightforward scan's
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((59, 20000))
        rows[3, 5], rows[7, 300:], rows[9, 1999] = np.nan, -np.inf, 1e300
        rows[11, 0] = estimator.DIVERGENCE_LIMIT
        shrinks = 1.0 - 0.01 * rng.random(20000)
        first_divergence(rows[:2, :10])
        for scale in (None, shrinks):
            tracemalloc.start()
            try:
                step, value = first_divergence(rows, scale)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.3 * rows.nbytes
            created = np.abs(rows if scale is None else rows * np.cumprod(scale))
            for row, s, v in zip(created, step, value):
                bad = np.flatnonzero(~(row <= estimator.DIVERGENCE_LIMIT))
                want = (bad[0] + 1, row[bad[0]]) if bad.size else (20001, 0.0)
                assert (s, v) == want or (s == want[0] and np.isnan(v) and np.isnan(want[1]))
            assert step[[3, 7, 9, 11]].tolist() == [6, 301, 2000, 20001]


@pytest.fixture(scope="module", params=[(1, False), (2, False), (1, True), (2, True)],
                ids=["m1", "m2", "m1-lazy", "m2-lazy"])
def production(request):
    """A kernel order, a 3162-point stream and its Gram matrix, dense or
    lazy, as one replicate of the rate table."""
    m, lazy = request.param
    rng = np.random.default_rng(20 + m)
    xs, ys = rng.random(3162), rng.standard_normal(3162)
    return m, xs, ys, SplineGram(m, xs) if lazy else SplineGram(m, xs)[:, :]


class TestBlockedSolver:
    """`sgd_constant_grid` solves in blocks of _TIME_BLOCK steps, predicting
    from Gram strips on a dense matrix and from bins on a lazy `SplineGram`;
    the stepwise recursion on the dense matrix is the reference, at
    production size and across the block boundaries."""

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300, 3162])
    @pytest.mark.parametrize("kind", ["sweep", "online", "tarres_yao"])
    def test_rows_match_stepwise(self, production, kind, n):
        m, _, ys, gram = production
        R_sq = kernel_sup_sq(m)
        ty = TarresYao(competitor_rate(0.75))
        steps, shrinks = {"sweep": (default_gamma_grid(R_sq), None),
                          "online": Online(1.0 / R_sq, -0.5).rows([n])[:2],
                          "tarres_yao": ty.rows([n])[:2]}[kind]
        dense = gram[:n, :n]
        # a lazy Gram matrix of the whole stream serves the prefix as well
        got = sgd_constant_grid(gram if isinstance(gram, SplineGram) else dense,
                                ys[:n], [(steps, shrinks)])
        want = stepwise_grid(dense, ys[:n], steps, shrinks)
        err = np.linalg.norm(got - want, axis=1)
        assert np.all(err <= 1e-11 * np.linalg.norm(want, axis=1))

    def test_rows_stop_at_their_horizon(self, production):
        # the second grid has no live row in its last blocks
        _, _, ys, gram = production
        for horizons in ([3162, 1, 128, 129, 700], [1, 128, 129, 700, 700]):
            rows = sgd_constant_grid(gram, ys, [(np.full(5, 0.5), None)],
                                     horizons=np.array(horizons))
            for row, h in zip(rows, horizons):
                stop = -(-h // estimator._TIME_BLOCK) * estimator._TIME_BLOCK
                assert np.all(row[:stop] != 0.0)
                assert np.all(row[stop:] == 0.0)

    def test_trimmed_rows_equal_full_rows(self, production):
        # 20 finite-horizon checkpoints: sgd_run stops each row at its own
        # checkpoint; every prefix it reads matches the full row
        m, _, ys, gram = production
        cps = np.unique(np.geomspace(10, 3162, 20).astype(int))
        step = FiniteHorizon(1.0 / kernel_sup_sq(m), -0.5)
        [got] = run_stacks(gram, ys, [step], cps)
        full = sgd_constant_grid(gram, ys, [(step.at(cps), None)])
        for c, (row, n) in enumerate(zip(full, cps)):
            for stack, averaged in zip(got, (False, True)):
                want = prefix_iterate(row, n, averaged)
                assert np.abs(stack[c, :n] - want).max() <= 1e-14 * np.abs(want).max()
                assert np.all(stack[c, n:] == 0.0)

    def test_unstable_grid_diverges_at_the_same_steps(self, production):
        m, _, ys, gram = production
        grid = np.geomspace(1.0, 1e4, 30) / kernel_sup_sq(m)
        step, value = first_divergence(sgd_constant_grid(gram, ys, [(grid, None)]))
        want_step, want_value = first_divergence(stepwise_grid(gram[:, :], ys, grid))
        assert np.count_nonzero(step <= 3162) >= 25
        assert np.array_equal(step, want_step)
        assert np.allclose(value, want_value, rtol=1e-12, atol=0.0)


class TestStreamedGram:
    """The recursion reads only the lower triangle of a dense Gram matrix,
    one strip of rows per time block; on a lazy `SplineGram` it reads the
    diagonal blocks and predicts from bins. n = 300 spans three blocks."""

    @pytest.fixture
    def stream(self):
        rng = np.random.default_rng(18)
        xs, ys = rng.random(300), rng.standard_normal(300)
        return xs, ys, SplineGram(2, xs)[:, :]

    def test_upper_triangle_is_never_read(self, stream):
        xs, ys, gram = stream
        poisoned = gram.copy()
        poisoned[np.triu_indices(300, 1)] = np.nan
        steps, shrinks, _ = TarresYao(competitor_rate(0.75)).rows([300])
        for group in ((default_gamma_grid(kernel_sup_sq(2)), None), (steps, shrinks)):
            assert np.array_equal(sgd_constant_grid(poisoned, ys, [group]),
                                  sgd_constant_grid(gram, ys, [group]))
        schedules = [FiniteHorizon(2.0, -0.5), Online(3.0, -0.5), TarresYao(-0.6)]
        for (got, _, _), (want, _, _) in zip(sgd_run(poisoned, ys, schedules, [10, 129, 300]),
                                             sgd_run(gram, ys, schedules, [10, 129, 300])):
            assert np.array_equal(got, want)

    def test_lazy_gram_equals_dense(self, stream):
        # the bins sum the earlier points in another order than one GEMM
        # over a Gram strip: equal to 1e-11 of each row's norm (measured at
        # most 1.8e-14 here, on the sweep grid)
        xs, ys, gram = stream

        def close(got, want):
            err = np.linalg.norm(got - want, axis=-1)
            return np.all(err <= 1e-11 * np.linalg.norm(want, axis=-1))

        grid = default_gamma_grid(kernel_sup_sq(2))
        assert close(sgd_constant_grid(SplineGram(2, xs), ys, [(grid, None)]),
                     sgd_constant_grid(gram, ys, [(grid, None)]))
        schedules = [FiniteHorizon(2.0, -0.5), TarresYao(-0.6)]
        for got, want in zip(run_stacks(SplineGram(2, xs), ys, schedules, [50, 300]),
                             run_stacks(gram, ys, schedules, [50, 300])):
            assert all(close(g, w) for g, w in zip(got, want))


class TestMergedSchedules:
    """`sgd_run` runs every schedule it is given in one grid pass and
    answers per schedule."""

    def test_each_schedule_as_if_alone(self):
        # inside one time block a merged row is bitwise its run alone; over
        # several blocks the merged GEMM has more rows, which can reorder
        # BLAS sums (measured on x86-64 OpenBLAS: at most 5e-16 of a row's
        # norm)
        rng = np.random.default_rng(19)
        xs, ys = rng.random(400), rng.standard_normal(400)
        gram = SplineGram(1, xs)[:, :]
        schedules = [FiniteHorizon(6.0, -0.5), Online(3.0, -0.5),
                     TarresYao(competitor_rate(0.75)), FiniteHorizon(4.0)]
        for cps in ([5, 60, 128], [5, 60, 400]):
            merged = run_stacks(gram, ys, schedules, cps)
            assert len(merged) == len(schedules)
            for step, got in zip(schedules, merged):
                [want] = run_stacks(gram, ys, [step], cps)
                for g, w in zip(got, want):
                    if cps[-1] <= estimator._TIME_BLOCK:
                        assert np.array_equal(g, w)
                    err = np.linalg.norm(g - w, axis=1)
                    assert np.all(err <= 1e-13 * np.linalg.norm(w, axis=1))

    def test_divergence_is_per_schedule(self):
        # the unstable schedule's entry is its DivergenceError; the stable
        # one's stacks are bitwise its run alone
        xs, ys = np.full(100, 0.5), np.full(100, 1.0)
        stable, unstable = FiniteHorizon(1.0), FiniteHorizon(100.0)
        bad, good = run_stacks(G1(xs), ys, [unstable, stable], [20, 100])
        [alone] = run_stacks(G1(xs), ys, [stable], [20, 100])
        [err] = run_stacks(G1(xs), ys, [unstable], [20, 100])
        assert isinstance(bad, DivergenceError) and isinstance(err, DivergenceError)
        assert (bad.step, bad.value) == (err.step, err.value)
        assert all(np.array_equal(g, w) for g, w in zip(good, alone))

    def test_no_schedule_rejected(self):
        xs, ys = np.array([0.1, 0.2]), np.array([0.0, 1.0])
        with pytest.raises(ConfigurationError, match="schedule"):
            sgd_run(G1(xs), ys, [], [2])


class TestTriangularOracle:
    """The raw coefficients b of a grid row (a_i = S_i b_i, S the running
    product of the shrinks) solve the lower-triangular system

        (diag(S) + diag(gamma * S_prev) tril(K, -1)) b = gamma * y,

    with S_prev = (1, S_1, ..., S_{n-1}). The recursion itself solves this
    system by BLAS triangular solves, so LAPACK's forward substitution
    checks the algebra rather than giving an independent implementation;
    the independent oracles are `stepwise_grid` and `naive_run`. n up to
    300 crosses the first time-block boundary."""

    @given(n=st.integers(1, 300), kind=st.sampled_from(["constant", "online", "tarres_yao"]),
           m=st.integers(1, 2), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_solve_the_triangular_system(self, n, kind, m, seed):
        rng = np.random.default_rng(seed)
        xs, ys = rng.random(n), rng.standard_normal(n)
        gram = SplineGram(m, xs)[:, :]
        shrinks = None
        if kind == "constant":
            # several constant rows in one pass, stable up to gamma R^2 = 1
            steps = rng.uniform(0.05, 1.0, 3) / kernel_sup_sq(m)
            coeffs = sgd_constant_grid(gram, ys, [(steps, None)])
            steps = np.repeat(steps[:, None], n, axis=1)
        else:
            if kind == "online":
                sched = Online(rng.uniform(0.05, 1.0) / kernel_sup_sq(m), -rng.uniform(0, 0.9))
            else:
                sched = TarresYao(competitor_rate(rng.uniform(0.25, 2.0)))
            steps, shrinks, _ = sched.rows([n])
            coeffs = sgd_constant_grid(gram, ys, [(steps, shrinks)])
        scales = np.ones(n) if shrinks is None else np.cumprod(shrinks)
        prev = np.concatenate([[1.0], scales[:-1]])
        for row, b in zip(steps, coeffs):
            system = np.diag(scales) + (row * prev)[:, None] * np.tril(gram, -1)
            want = solve_triangular(system, row * ys, lower=True)
            assert np.linalg.norm(b - want) <= 1e-12 * np.linalg.norm(want)

    def test_sgd_run_is_one_row(self):
        rng = np.random.default_rng(13)
        xs, ys = rng.random(80), rng.standard_normal(80)
        ty = TarresYao(competitor_rate(0.75))
        [(last, _)] = run_stacks(G1(xs), ys, [ty], [80])
        steps, shrinks, _ = ty.rows([80])
        b = sgd_constant_grid(G1(xs), ys, [(steps, shrinks)])[0]
        assert np.array_equal(last[0], np.cumprod(shrinks)[-1] * b)
        # sgd_run answers with the raw row, the shrinks and the row per checkpoint
        [(rows, got_shrinks, row_of)] = sgd_run(G1(xs), ys, [ty], [20, 80])
        assert np.array_equal(rows, b[None, :]) and np.array_equal(got_shrinks, shrinks)
        assert row_of.tolist() == [0, 0]
