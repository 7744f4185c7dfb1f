import itertools
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import klms.risk
from klms.bernoulli import (_fourier_plan, _FourierPlan, _inverse_power, bernoulli_fourier_eval,
                            bernoulli_poly, bernoulli_poly_coeffs, zeta_tail)
from klms.errors import ConfigurationError
from klms.estimator import KernelExpansion, prefix_iterate, sgd_constant_grid, sgd_run
from klms.harness import (POINT_NOISE, TABLE_POINTS, ExperimentConfig, _algorithm_spec,
                          _replicate_contexts, default_gamma_grid)
from klms.kernels import (SUPPORTED_ORDERS, SplineGram, _SplineSum, _w_coeffs_exact, spline_kernel,
                          spline_kernel_series)
from klms.risk import (ClosedFormRisk, excess_risk_closed, excess_risk_finite_dim,
                       excess_risk_fourier, excess_risk_mc, kernel_target_inner,
                       target_norm_sq)

EMPTY = KernelExpansion(np.zeros(0), np.zeros(0))


def direct_fourier_risk(expansion, m, k, J, include_target_tail):
    """The Fourier oracle summed directly: J x n cosines and sines."""
    w = expansion.coeffs
    omega = 2.0 * np.pi * np.arange(1, J + 1, dtype=float)
    kfac = float(math.factorial(k))
    t_cos = -np.sqrt(2.0) * kfac * (1, 0, -1, 0)[k % 4] / omega**k
    t_sin = -np.sqrt(2.0) * kfac * (0, 1, 0, -1)[k % 4] / omega**k
    phases = omega[:, None] * expansion.centers[None, :]
    sect = omega ** (-2.0 * m)
    a = np.sqrt(2.0) * sect * (np.cos(phases) @ w)
    b = np.sqrt(2.0) * sect * (np.sin(phases) @ w)
    total = float(np.sum((a - t_cos) ** 2 + (b - t_sin) ** 2))
    if include_target_tail:
        total += 2.0 * kfac**2 * zeta_tail(2 * k, J)
    return total


def dense_quadrature_risk(expansion, m, k, grid_size):
    """The quadrature oracle from the dense n x (grid_size + 1) kernel
    matrix of `spline_kernel`."""
    ts = np.linspace(0.0, 1.0, grid_size + 1)
    diff = expansion.coeffs @ spline_kernel(m, expansion.centers[:, None], ts)
    diff -= bernoulli_poly(k, ts)
    return float(np.trapezoid(diff * diff, ts))


def random_expansion(rng, max_centers=50):
    n = int(rng.integers(1, max_centers + 1))
    return KernelExpansion(rng.random(n), rng.uniform(-1.0, 1.0, n))


class TestTargetNorm:
    def test_identity_matches_double_integral(self):
        # the product-integral identity against integral_0^1 B_k^2 summed
        # term by term over the exact coefficients, both rounded once
        for k in range(1, 17):
            c = bernoulli_poly_coeffs(k)
            integral = sum(ci * cj / Fraction(i + j + 1)
                           for i, ci in enumerate(c) for j, cj in enumerate(c))
            assert target_norm_sq(k) == float(integral), k

    @pytest.mark.parametrize("k", [0, 17])
    def test_rejects_unsupported_index(self, k):
        with pytest.raises(ConfigurationError):
            target_norm_sq(k)

    def test_exact_values(self):
        assert target_norm_sq(1) == pytest.approx(1 / 12, abs=1e-17)
        assert target_norm_sq(2) == pytest.approx(1 / 180, abs=1e-18)
        assert target_norm_sq(3) == pytest.approx(1 / 840, abs=1e-18)

    def test_parseval_cross_check(self):
        # 2 (k!)^2 sum_j (2 pi j)^{-2k}
        j = np.arange(1, 10**6, dtype=float)
        for k in (1, 2, 3):
            parseval = 2.0 * math.factorial(k) ** 2 * np.sum((2 * np.pi * j) ** (-2 * k))
            tol = 1e-7 if k == 1 else 1e-12
            assert target_norm_sq(k) == pytest.approx(parseval, abs=tol)


class TestKernelTargetInner:
    def test_known_values(self):
        assert kernel_target_inner(1, 2, 0.0) == pytest.approx(1 / 360, abs=1e-15)
        assert kernel_target_inner(1, 1, 0.5) == pytest.approx(0.0, abs=1e-16)

    def test_fourier_oracle(self):
        # independent inner product: sum_j a_j(K_x) a_j(B_k) + b_j(K_x) b_j(B_k)
        J = 10**5
        j = np.arange(1, J + 1, dtype=float)
        omega = 2 * np.pi * j
        rng = np.random.default_rng(0)
        for m in (1, 2):
            for k in (1, 2, 3):
                kfac = math.factorial(k)
                for x in rng.random(3):
                    a_kx = np.sqrt(2.0) * omega ** (-2.0 * m) * np.cos(omega * x)
                    b_kx = np.sqrt(2.0) * omega ** (-2.0 * m) * np.sin(omega * x)
                    t_c = -np.sqrt(2.0) * kfac * math.cos(k * np.pi / 2) / omega**k
                    t_s = -np.sqrt(2.0) * kfac * math.sin(k * np.pi / 2) / omega**k
                    oracle = float(np.sum(a_kx * t_c + b_kx * t_s))
                    assert kernel_target_inner(m, k, x) == pytest.approx(
                        oracle, abs=1e-9), (m, k, x)

    def test_vectorized(self):
        xs = np.linspace(0, 1, 5, endpoint=False)
        vec = kernel_target_inner(2, 3, xs)
        for x, v in zip(xs, vec):
            assert v == pytest.approx(kernel_target_inner(2, 3, float(x)), abs=1e-16)


class TestClosedForm:
    def test_empty_expansion_gives_target_norm(self):
        assert excess_risk_closed(EMPTY, 1, 2) == pytest.approx(1 / 180, abs=1e-15)
        assert excess_risk_closed(EMPTY, 1, 1) == pytest.approx(1 / 12, abs=1e-15)

    def test_three_way_agreement(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = int(rng.integers(1, 3))
            k = int(rng.integers(1, 4))
            exp = random_expansion(rng)
            closed = excess_risk_closed(exp, m, k)
            assert closed == pytest.approx(
                excess_risk_fourier(exp, m, k, 10**5), abs=1e-8)
            assert closed == pytest.approx(
                excess_risk_mc(exp, m, k, 10**5), abs=1e-5)

    def test_non_negative(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            exp = random_expansion(rng, max_centers=20)
            assert excess_risk_closed(exp, 1, 2) >= -1e-10

    def test_rejects_more_coefficients_than_points(self):
        # the error of `DoubledForm.quad`, raised before the target inner
        # products could fail to broadcast, for one vector and for a stack
        risk = ClosedFormRisk(SplineGram(1, np.random.default_rng(31).random(20)), 2)
        for coeffs in (np.ones(21), np.ones((3, 21))):
            with pytest.raises(ConfigurationError, match="21 coefficients on a stream of 20"):
                risk(coeffs)

    def test_precomputed_paths_match(self):
        # excess_risk_closed is the ClosedFormRisk of the centers' SplineGram,
        # bit for bit, at every supported order; an order-5 Gram matrix
        # exists (order 10 is its doubled form), but its risk does not
        rng = np.random.default_rng(29)
        for m in SUPPORTED_ORDERS:
            for k in (1, 2, 3, 4):
                exp = random_expansion(rng, max_centers=20)
                risk = ClosedFormRisk(SplineGram(m, exp.centers), k)
                assert excess_risk_closed(exp, m, k) == risk(exp.coeffs)
        with pytest.raises(ConfigurationError):
            excess_risk_closed(exp, 5, 1)
        with pytest.raises(ConfigurationError):
            ClosedFormRisk(SplineGram(5, exp.centers), 1)


def long_double_quad(order, xs, w):
    """w'Dw, D_ij = R_order(x_i, x_j), with every kernel value evaluated in
    np.longdouble from the exact rational coefficients in w = u(1 - u),
    summed over row blocks of D."""
    coeffs = [np.longdouble(c.numerator) / np.longdouble(c.denominator)
              for c in reversed(_w_coeffs_exact(order))]
    x, wl = xs.astype(np.longdouble), w.astype(np.longdouble)
    total = np.longdouble(0)
    for i in range(0, x.size, 256):
        d = np.abs(x[i:i + 256, None] - x)
        u = d * (1 - d)
        values = np.full_like(u, coeffs[0])
        for c in coeffs[1:]:
            values = values * u + c
        total += wl[i:i + 256] @ (values @ wl)
    return total


class TestClosedFormAtProductionSize:
    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than float64 here")
    def test_against_long_double_reference(self):
        # point 2, ours, the n = 3162 averaged iterate of 3 replicates: the
        # error of w'Dw relative to the risk (~2e-5), binned and dense.
        # Measured on x86-64: binned at most 1.9e-11, dense at most 2.8e-11
        m, k = TABLE_POINTS[2]
        cfg = ExperimentConfig(kernel_order_m=m, target_index_k=k,
                               noise_sigma=POINT_NOISE[2], n_max=3162, replicates=3)
        for ctx in _replicate_contexts(cfg):
            [(rows, _, _)] = sgd_run(ctx.gram, ctx.ys, [_algorithm_spec(cfg, "ours")],
                                     [cfg.n_max])
            w = prefix_iterate(rows[0], cfg.n_max, True)
            reference = long_double_quad(2 * m, ctx.gram.xs, w)
            parts = ctx.excess_risk
            risk = float(reference - 2.0 * np.longdouble(w @ parts.inner) + parts.norm_sq)
            binned = parts.form.quad(w)
            dense = w @ SplineGram(2 * m, ctx.gram.xs)[:, :] @ w
            assert abs(float(binned - reference)) <= 1e-10 * risk
            assert abs(float(dense - reference)) <= 1e-10 * risk

    def test_stacked_rows_are_scored_alone(self):
        # a gamma_sweep stack: the 59 grid rows at several prefixes, three of
        # them poisoned. Only those turn non-finite, and every other row's
        # risk is its risk computed alone
        cfg = ExperimentConfig(kernel_order_m=1, target_index_k=2, n_max=3162, replicates=1)
        ctx = next(_replicate_contexts(cfg))
        coeffs = sgd_constant_grid(ctx.gram, ctx.ys, [(default_gamma_grid(cfg.R_sq), None)])
        bad = [3, 7, 9]
        for n in (1, 30, 379, 3162):
            stack = prefix_iterate(coeffs, n, True)
            stack[3, n // 2], stack[7, 0], stack[9] = np.inf, np.nan, -np.inf
            with np.errstate(invalid="ignore", over="ignore"):
                risks = ctx.excess_risk(stack)
            assert np.flatnonzero(~np.isfinite(risks)).tolist() == bad
            alone = [ctx.excess_risk(row) for i, row in enumerate(stack) if i not in bad]
            np.testing.assert_allclose(np.delete(risks, bad), alone, rtol=1e-14, atol=0)


class TestFourierOracle:
    def test_zero_expansion_parseval(self):
        assert excess_risk_fourier(EMPTY, 1, 2, 10**5) == pytest.approx(1 / 180, abs=1e-10)

    def test_factored_sum_equals_direct_sum(self):
        # squares, non-squares and primes J, so the last row of the sqrt(J)
        # phase tables is full, partial or a single frequency
        rng = np.random.default_rng(31)
        for J in (1, 2, 3, 4, 7, 99, 100, 101, 1000):
            for n in (0, 1, 20):
                exp = KernelExpansion(rng.random(n), rng.uniform(-1.0, 1.0, n))
                for m in (1, 2):
                    for k in (1, 2, 3):
                        direct = direct_fourier_risk(exp, m, k, J, True)
                        assert excess_risk_fourier(exp, m, k, J) == pytest.approx(
                            direct, rel=1e-13, abs=0.0), (J, n, m, k)
        # two row chunks of center sums, each squared in place, from one
        # point chunk's phase tables or from tables made again per row chunk
        J = 40000
        assert len(_fourier_plan(J).row_chunks) == 2
        for n in (1, _fourier_plan(J).point_chunk + 1):
            exp = KernelExpansion(rng.random(n), rng.uniform(-1.0, 1.0, n))
            for m, k in itertools.product((1, 2), (1, 2, 3)):
                direct = direct_fourier_risk(exp, m, k, J, True)
                assert excess_risk_fourier(exp, m, k, J) == pytest.approx(
                    direct, rel=1e-13, abs=0.0), (J, n, m, k)

    def test_k1_needs_tail(self):
        # the k = 1 target tail beyond 1e5 frequencies is ~5e-7 and the
        # corrected oracle absorbs it
        bare = direct_fourier_risk(EMPTY, 1, 1, 10**5, False)
        full = excess_risk_fourier(EMPTY, 1, 1, 10**5)
        assert abs(bare - 1 / 12) > 1e-8
        assert full == pytest.approx(1 / 12, abs=1e-10)

    def test_plan_reuse_cannot_be_observed(self):
        # every oracle value is bitwise the same call's on a fresh plan, over
        # interleaved J and point counts up to one past a point chunk, and
        # interleaved powers that push weight tables out of the plan and
        # build them again in the space of another: every chunk view is cut
        # to its call, no workspace is sized for another J and no table
        # keeps the values of another power
        rng = np.random.default_rng(53)
        for J in (10**5, 101, 4000, 10**5):
            for n in (0, 1, 20, _fourier_plan(J).point_chunk + 1):
                exp = KernelExpansion(rng.random(n), rng.uniform(-1.0, 1.0, n))
                xs, x = rng.random(n), float(rng.random())
                calls = [lambda: excess_risk_fourier(exp, 2, 1, J),
                         lambda: excess_risk_fourier(exp, 1, 2, J),
                         lambda: bernoulli_fourier_eval(3, xs, J),
                         lambda: bernoulli_fourier_eval(2, x, J),
                         lambda: bernoulli_fourier_eval(4, 0.0, J),
                         lambda: spline_kernel_series(1, xs, x, J)]
                for k in (2, 5, 8, 3, 2):
                    calls += [lambda k=k: bernoulli_fourier_eval(k, x, J),
                              lambda: excess_risk_fourier(exp, 2, 3, J),
                              lambda k=k: bernoulli_fourier_eval(k, xs, J),
                              lambda: excess_risk_fourier(exp, 1, 1, J)]
                reused = [np.asarray(call()) for call in calls]
                for i, (call, value) in enumerate(zip(calls, reused)):
                    _fourier_plan.cache_clear()
                    assert value.tobytes() == np.asarray(call()).tobytes(), (J, n, i)

    def test_plan_keeps_two_read_only_weight_tables(self):
        # 1 / (2 pi j) and the weights of the last two powers read: 24 J
        # bytes of J-length tables after any calls, and none writable
        J = 4000
        plan = _fourier_plan(J)
        for k in range(1, 9):
            bernoulli_fourier_eval(k, 0.3, J)
            assert plan.weights(k) is plan.weights(k)
        assert plan.weights(1) is plan.inverse
        assert sorted(plan._weights) == [7, 8]
        for table in (plan.inverse, plan.weights(8), plan.weights(2)):
            with pytest.raises(ValueError):
                table[1, 1] = 0.0
        assert len(plan._weights) == 2
        tables = (plan.inverse, *plan._weights.values())
        assert sum(table.nbytes for table in tables) == 24 * plan.inverse.size
        assert _fourier_plan(J) is plan

    @pytest.mark.parametrize("order", [list(range(1, 9)), [4, 8], [3, 6], [2, 4, 8],
                                       [8, 4, 2, 1], [3, 6, 7, 5, 4, 8, 2, 6, 3],
                                       [5, 2, 7, 4, 8, 1, 6, 3]])
    def test_weight_tables_are_the_powers_of_a_fresh_plan(self, order):
        # tables built from a kept table on the power's square-and-multiply
        # chain (8 from 4, 6 from 3), from 1 / (2 pi j), or into the space
        # of the table a read evicts: after each read, every table the plan
        # holds is bitwise the power squared from a fresh plan's 1 / (2 pi j)
        # alone, and the plan holds 24 J bytes of tables
        J = 4000
        _fourier_plan.cache_clear()
        plan = _fourier_plan(J)
        fresh = _FourierPlan(J).inverse
        for k in order:
            table = plan.weights(k)
            assert table is (plan.inverse if k == 1 else plan._weights[k])
            for power, kept in ((1, plan.inverse), *plan._weights.items()):
                want = _inverse_power(fresh, power, np.empty(plan.shape))
                assert kept.tobytes() == want.tobytes(), (order, k, power)
        tables = (plan.inverse, *plan._weights.values())
        assert sum(table.nbytes for table in tables) == 24 * plan.inverse.size

    def test_inverse_power_continues_from_the_latest_kept_chain_power(self):
        # the chain of k (7: 1, 2, 3, 6, 7) starts at its latest kept power
        # before k: tables of 2s make the kept bases visible, and a table
        # may be both the base and the output
        inv = np.full(3, 0.5)
        twos = np.full(3, 2.0)
        for k, kept, want in ((8, {4: twos, 2: np.ones(3)}, 4.0), (8, {2: twos}, 16.0),
                              (6, {3: twos}, 4.0), (7, {3: twos}, 2.0), (7, {6: twos}, 1.0),
                              (5, {4: twos, 3: np.ones(3)}, 1.0), (3, {2: twos}, 1.0),
                              (5, {3: twos}, 2.0**-5), (1, {1: twos}, 0.5)):
            assert np.all(_inverse_power(inv, k, np.empty(3), kept) == want), (k, kept)
        base = twos.copy()
        assert np.all(_inverse_power(inv, 12, base, {6: base}) == 4.0)

    @pytest.mark.parametrize("n, J, limit", [(20000, 4000, 2.5e6), (50, 10**5, 4e6)])
    def test_memory_is_bounded_by_the_chunks(self, n, J, limit):
        # phase tables and center sums one chunk at a time, besides the
        # 1 / (2 pi j) table and the weights of the two powers; the traced
        # call builds its own plan, so its tables and workspaces count:
        # measured 0.84 and 3.58 MB, against 61.3 and 8.5 MB with whole
        # n x sqrt(J) tables and J-length weights
        rng = np.random.default_rng(47)
        exp = KernelExpansion(rng.random(n), rng.uniform(-1.0, 1.0, n))
        excess_risk_fourier(exp, 2, 2, J)
        _fourier_plan.cache_clear()
        tracemalloc.start()
        try:
            excess_risk_fourier(exp, 2, 2, J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    def test_oracles_load_no_scipy(self):
        # the Fourier tails are Euler-Maclaurin sums, not scipy.special.zeta,
        # and no oracle reaches for scipy.linalg: after the CLI's imports,
        # one call of each of the five loads no scipy module at all
        src = str(Path(klms.risk.__file__).resolve().parent.parent)
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy as np\n"
                "import klms.cli\n"
                "from klms.bernoulli import bernoulli_fourier_eval\n"
                "from klms.estimator import KernelExpansion\n"
                "from klms.kernels import spline_kernel_series\n"
                "from klms.risk import excess_risk_closed, excess_risk_fourier, excess_risk_mc\n"
                "exp = KernelExpansion(np.array([0.2, 0.7]), np.array([1.0, -0.5]))\n"
                "excess_risk_closed(exp, 1, 1)\n"
                "excess_risk_fourier(exp, 1, 1, 100)\n"
                "excess_risk_mc(exp, 2, 3, 1000)\n"
                "bernoulli_fourier_eval(2, np.array([0.0, 0.3]), 100)\n"
                "spline_kernel_series(2, 0.0, 0.0, 100)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize("point", sorted(TABLE_POINTS))
    def test_production_scale_averaged_iterate(self, point):
        # the averaged iterate of ours after n = 3162 steps on replicate 0 of
        # a table point: the closed form the harness reports against the
        # Fourier oracle
        m, k = TABLE_POINTS[point]
        cfg = ExperimentConfig(kernel_order_m=m, target_index_k=k,
                               noise_sigma=POINT_NOISE[point], n_max=3162, replicates=1)
        ctx = next(_replicate_contexts(cfg))
        [(rows, _, _)] = sgd_run(ctx.gram, ctx.ys, [_algorithm_spec(cfg, "ours")],
                                 [cfg.n_max])
        w = prefix_iterate(rows[0], cfg.n_max, True)
        assert len(w) == 3162
        exp = KernelExpansion(ctx.gram.xs, w)
        closed = ctx.excess_risk(w)
        assert closed == pytest.approx(excess_risk_fourier(exp, m, k, 2000), rel=1e-8)
        # and against the quadrature oracle: measured gaps at most 3.1e-8
        assert closed == pytest.approx(excess_risk_mc(exp, m, k, 10**5), rel=1e-6)


    @pytest.mark.parametrize("point", sorted(TABLE_POINTS))
    def test_n20000_averaged_iterate_against_fourier(self, point):
        # ours' averaged iterate after n = 20000 steps, scored by the closed
        # form and by the Fourier oracle at J = 16000, whose own truncation
        # is below 3e-12 here. Pins today's accuracy of the closed form
        # (ROADMAP item 13), measured on x86-64 with one and two BLAS
        # threads: 2.6e-12 and 1.5e-12 relative at m = 1 (points 1, 3),
        # 6.7e-10 and 4.9e-11 at m = 2 (points 2, 4)
        m, k = TABLE_POINTS[point]
        cfg = ExperimentConfig(kernel_order_m=m, target_index_k=k,
                               noise_sigma=POINT_NOISE[point], n_max=20000, replicates=1)
        ctx = next(_replicate_contexts(cfg))
        [(rows, _, _)] = sgd_run(ctx.gram, ctx.ys, [_algorithm_spec(cfg, "ours")],
                                 [cfg.n_max])
        w = prefix_iterate(rows[0], cfg.n_max, True)
        fourier = excess_risk_fourier(KernelExpansion(ctx.gram.xs, w), m, k, 16000)
        assert ctx.excess_risk(w) == pytest.approx(fourier, rel=1e-11 if m == 1 else 2e-9)


def quadrature_cases(rng):
    """Expansions that probe the piecewise-polynomial form: random centers,
    centers on the nodes of a 1000-interval grid and at 0, duplicates,
    centers outside [0, 1), one center and none."""
    nodes = np.linspace(0.0, 1.0, 1001)
    on_nodes = np.append(rng.choice(nodes[:-1], 8), 0.0)
    dupes = np.repeat(rng.random(4), 3)
    outside = np.array([-0.3, 1.7, 2.0, -1.0, 0.25 - 3.0, 5.5])
    for xs in (rng.random(40), on_nodes, dupes, outside, rng.random(1), np.zeros(0)):
        yield KernelExpansion(xs, rng.uniform(-1.0, 1.0, xs.shape[0]))


class TestQuadratureOracle:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_piecewise_polynomial_matches_dense_kernel(self, m):
        # every node, t = 1 included, against the dense kernel matrix
        rng = np.random.default_rng(37 + m)
        ts = np.linspace(0.0, 1.0, 1001)
        for exp in quadrature_cases(rng):
            dense = exp.coeffs @ spline_kernel(m, exp.centers[:, None], ts)
            got = _SplineSum(m, exp.centers, exp.coeffs)(ts)
            assert got.shape == ts.shape
            scale = np.max(np.abs(dense), initial=0.0)
            np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12 * scale)
            # f is periodic: the last node is the first
            assert got[-1] == pytest.approx(got[0], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_dense_oracle(self, m):
        rng = np.random.default_rng(41 + m)
        for exp in quadrature_cases(rng):
            for k in (1, 2, 3):
                assert excess_risk_mc(exp, m, k, 1000) == pytest.approx(
                    dense_quadrature_risk(exp, m, k, 1000), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("grid", [1000, 2**14 + 1, 10**5])
    def test_chunk_sums_match_the_trapezoid_rule(self, grid):
        # each chunk's trapezoid summed as (sum y - (y_first + y_last) / 2)
        # / grid, against np.trapezoid over the whole np.linspace grid
        rng = np.random.default_rng(59)
        ts = np.linspace(0.0, 1.0, grid + 1)
        for m, k in itertools.product(range(1, 5), range(1, 5)):
            exp = KernelExpansion(rng.random(20), rng.uniform(-1.0, 1.0, 20))
            diff = _SplineSum(m, exp.centers, exp.coeffs)(ts) - bernoulli_poly(k, ts)
            want = float(np.trapezoid(diff * diff, ts))
            assert excess_risk_mc(exp, m, k, grid) == pytest.approx(
                want, rel=1e-13, abs=0.0), (m, k)

    def test_memory_is_linear_in_grid_and_centers(self):
        # a few grid-length arrays and O(n) work space: no (grid, 2m + 1)
        # table of coefficients and no n x grid kernel block
        n, grid = 3162, 10**5
        rng = np.random.default_rng(43)
        exp = KernelExpansion(rng.random(n), rng.uniform(-1.0, 1.0, n))
        excess_risk_mc(exp, 4, 2, grid)
        tracemalloc.start()
        try:
            excess_risk_mc(exp, 4, 2, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (7 * (grid + 1) + 16 * n)

    def test_zero_expansion(self):
        assert excess_risk_mc(EMPTY, 1, 1, 10**5) == pytest.approx(1 / 12, abs=1e-6)

    def test_perfect_fit_is_zero(self):
        # expansion equal to the target cannot be built finitely; a zero
        # target difference can: fit nothing against B_k and subtract
        got = excess_risk_mc(EMPTY, 2, 2, 10**4)
        assert got - target_norm_sq(2) == pytest.approx(0.0, abs=1e-8)

    def test_rejects_small_grid(self):
        with pytest.raises(ConfigurationError):
            excess_risk_mc(EMPTY, 1, 1, 10)

    def test_rejects_unsupported_order(self):
        # all three oracles check the kernel order
        exp = KernelExpansion(np.array([0.3]), np.array([1.0]))
        for oracle, size in ((excess_risk_mc, 1000), (excess_risk_fourier, 100)):
            with pytest.raises(ConfigurationError):
                oracle(exp, 5, 1, size)
        with pytest.raises(ConfigurationError):
            excess_risk_closed(exp, 5, 1)


class TestFiniteDimRisk:
    def test_zero_distance(self):
        theta = np.array([1.0, 2.0])
        assert excess_risk_finite_dim(theta, theta, np.eye(2)) == 0.0

    def test_identity_covariance_unit_vector(self):
        assert excess_risk_finite_dim(
            np.array([1.0, 0.0]), np.array([0.0, 0.0]), np.eye(2)) == pytest.approx(1.0)

    def test_naive_triple_loop(self):
        rng = np.random.default_rng(31)
        d = 6
        a = rng.standard_normal((d, d))
        cov = a @ a.T
        t1, t2 = rng.standard_normal(d), rng.standard_normal(d)
        naive = sum((t1[i] - t2[i]) * cov[i, j] * (t1[j] - t2[j])
                    for i in range(d) for j in range(d))
        assert excess_risk_finite_dim(t1, t2, cov) == pytest.approx(naive, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            excess_risk_finite_dim(np.zeros(2), np.zeros(3), np.eye(3))

