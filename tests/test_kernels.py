import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klms import kernels
from klms.bernoulli import bernoulli_poly, frac
from klms.errors import ConfigurationError
from klms.estimator import FiniteHorizon, sgd_run
from klms.kernels import (DoubledForm, SplineGram, _far_field_blocks, _power_table, _spline_w,
                          _taylor_coeffs, eigen_check, kernel_sup_sq, spline_kernel,
                          spline_kernel_series)
from klms.risk import ClosedFormRisk


def bernoulli_form(order, u):
    """The closed form as a polynomial in u = {s - t}: the oracle for the
    evaluation in w = u(1 - u)."""
    sign = 1.0 if order % 2 == 1 else -1.0
    return sign * bernoulli_poly(2 * order, u) / math.factorial(2 * order)


class TestClosedForm:
    def test_values(self):
        assert spline_kernel(1, 0.0, 0.0) == pytest.approx(1 / 12, abs=1e-16)
        assert spline_kernel(1, 0.1, 0.6) == pytest.approx(-1 / 24, abs=1e-15)
        assert spline_kernel(2, 0.0, 0.0) == pytest.approx(1 / 720, abs=1e-17)

    def test_symmetry_and_translation(self):
        rng = np.random.default_rng(0)
        for m in (1, 2, 3, 4):
            for _ in range(20):
                s, t = rng.random(2)
                assert spline_kernel(m, s, t) == pytest.approx(
                    spline_kernel(m, t, s), abs=1e-15)
                assert spline_kernel(m, s + 1.0, t) == pytest.approx(
                    spline_kernel(m, s, t), abs=1e-15)

    def test_boundedness(self):
        for m in (1, 2):
            sup = kernel_sup_sq(m)
            grid = np.linspace(0.0, 1.0, 200, endpoint=False)
            vals = spline_kernel(m, grid, 0.0)
            assert np.all(np.abs(vals) <= sup + 1e-15)

    def test_unsupported_order(self):
        with pytest.raises(ConfigurationError):
            spline_kernel(5, 0.0, 0.0)

    def test_sup_sq(self):
        assert kernel_sup_sq(1) == pytest.approx(1 / 12)
        assert kernel_sup_sq(2) == pytest.approx(1 / 720)
        assert 1.0 / kernel_sup_sq(1) == pytest.approx(12.0)


class TestWPolynomial:
    U = np.concatenate([np.linspace(0.0, 1.0, 2001), [1e-15, 0.5, 1.0 - 1e-15]])

    @pytest.mark.parametrize("order", range(1, 9))
    def test_matches_bernoulli_polynomial(self, order):
        got = _spline_w(order, self.U * (1.0 - self.U))
        assert np.abs(got - bernoulli_form(order, self.U)).max() <= 1e-15

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_series(self, order):
        for u in self.U[::40]:
            closed = _spline_w(order, u * (1.0 - u))
            assert abs(closed - spline_kernel_series(order, float(u), 0.0, 10**5)) <= 1e-8


class TestSeriesOracle:
    def test_diagonal_values(self):
        assert spline_kernel_series(1, 0.0, 0.0, 10**5) == pytest.approx(1 / 12, abs=1e-8)
        assert spline_kernel_series(2, 0.3, 0.3, 10) == pytest.approx(1 / 720, abs=1e-7)

    def test_half_period(self):
        assert spline_kernel_series(1, 0.75, 0.25, 10**5) == pytest.approx(-1 / 24, abs=1e-8)

    def test_grid_agreement(self):
        grid = np.linspace(0.0, 1.0, 51, endpoint=False)
        s, t = grid[:, None], grid[None, ::10]
        for m in (1, 2):
            gap = np.abs(spline_kernel(m, s, t) - spline_kernel_series(m, s, t, 10**5))
            i, j = np.unravel_index(np.argmax(gap), gap.shape)
            assert gap[i, j] <= 1e-8, (m, s[i, 0], t[0, j])

    def test_array_call_equals_scalar_calls(self):
        # bitwise: every point is summed by the same operations, alone or not
        grid = np.linspace(0.0, 1.0, 11, endpoint=False)
        for m in (1, 2):
            for J in (7, 10**5):
                series = spline_kernel_series(m, grid[:, None], grid[None, ::3], J)
                assert series.shape == (11, 4)
                for (i, j), value in np.ndenumerate(series):
                    scalar = spline_kernel_series(m, float(grid[i]), float(grid[3 * j]), J)
                    assert type(scalar) is float
                    assert scalar == value, (m, J, i, j)

    def test_rejects_orders_past_eight_by_their_own_name(self):
        # m = 9 reads B_18, past MAX_DEGREE: the error names m, not 2m
        with pytest.raises(ConfigurationError, match=r"one of \(1, 2, 3, 4, 5, 6, 7, 8\), got 9$"):
            spline_kernel_series(9, 0.1, 0.2, 10)
        for m in (0, 2.5):
            with pytest.raises(ConfigurationError, match=f"got {m}$"):
                spline_kernel_series(m, 0.1, 0.2, 10)
        with pytest.raises(ConfigurationError, match="need J >= 1"):
            spline_kernel_series(2, 0.1, 0.2, 0)


class TestZeroMean:
    @pytest.mark.parametrize("m", [1, 2])
    def test_integral_vanishes(self, m):
        ts = np.linspace(0.0, 1.0, 10**4 + 1)
        for s in np.linspace(0.0, 1.0, 11):
            vals = spline_kernel(m, s, ts)
            assert abs(np.trapezoid(vals, ts)) <= 1e-8


class TestGram:
    def test_single_point(self):
        g = SplineGram(1, [0.3])[:, :]
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(1 / 12)

    def test_duplicate_points_singular(self):
        g = SplineGram(1, [0.3, 0.3])[:, :]
        assert abs(np.linalg.det(g)) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2])
    def test_positive_semidefinite(self, m):
        rng = np.random.default_rng(42)
        xs = rng.random(50)
        g = SplineGram(m, xs)[:, :]
        eigs = np.linalg.eigvalsh(g)
        assert eigs.min() >= -1e-10
        assert eigs.min() >= -1e-9 * np.trace(g)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_rows_equal_pairwise_columns(self, m):
        # the recursion reads row i of the Gram matrix as the kernel column
        # of x_i against the earlier points, bit for bit
        xs = np.random.default_rng(m).random(40)
        g = SplineGram(m, xs)[:, :]
        for i in range(1, 40):
            assert np.array_equal(g[i, :i], spline_kernel(m, xs[:i], xs[i]))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_exactly_symmetric(self, m):
        g = SplineGram(m, np.random.default_rng(m).random(300))[:, :]
        assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_production_size_matches_bernoulli_form(self, m):
        # n = 3162 as in the experiments; the oracle is the closed form as a
        # polynomial in u = {x_j - x_i}, built in row blocks to bound memory
        xs = np.random.default_rng(10 + m).random(3162)
        for order in (m, 2 * m):
            got = SplineGram(order, xs)[:, :]
            worst = 0.0
            for i in range(0, xs.size, 500):
                want = bernoulli_form(order, frac(xs[None, :] - xs[i:i + 500, None]))
                worst = max(worst, float(np.abs(got[i:i + 500] - want).max()))
            assert worst <= 1e-12 * np.abs(got).max()


class TestSplineGram:
    @pytest.mark.parametrize("order", [1, 2, 4, 8])
    def test_strips_are_gram_entries(self, order):
        # every strip of six time blocks holds bit for bit the entries of
        # the whole matrix, though a narrower strip fills more rows per row
        # block
        xs = np.random.default_rng(order).uniform(-2.0, 3.0, 700)
        lazy = SplineGram(order, xs)
        dense = lazy[:, :]
        assert lazy.shape == dense.shape == (700, 700)
        for s in range(0, 700, 128):
            e = min(s + 128, 700)
            assert np.array_equal(lazy[s:e, :e], dense[s:e, :e])

    @pytest.mark.parametrize("order", [1, 2])
    def test_predictions_match_strips(self, order):
        # B = round(sqrt(n)) = 141 bins, more than the 128 targets of a
        # block, points on every bin edge b/B, 0 and just below 1, and rows
        # leaving the live set: the binned predictions of every 25th block
        # against one GEMM with its Gram strip (measured at most 2.4e-15 of
        # a row's norm)
        n = 20000
        rng = np.random.default_rng(order)
        xs = rng.random(n)
        bins = round(math.sqrt(n))
        xs[rng.choice(n, bins + 1, replace=False)] = [*(np.arange(bins) / bins),
                                                      np.nextafter(1.0, 0.0)]
        coeffs = rng.standard_normal((4, n))
        horizons = np.array([n, 6000, n, 300])
        lazy = SplineGram(order, xs)
        predict = lazy.predictions(n, 4, 128)
        for s in range(0, n, 128):
            e = min(s + 128, n)
            live = np.flatnonzero(horizons > s)
            got = predict(coeffs, live, s, e)
            if s // 128 % 25 == 1:
                want = coeffs[live, :s] @ lazy[s:e, :s].T
                err = np.linalg.norm(got - want, axis=1)
                assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1))

    @staticmethod
    def assert_plan_matches_unique(xs, block):
        # each block's touched bins, depth and slots against the per-block
        # np.unique grouping the plan replaces
        n = len(xs)
        predict = SplineGram(1, xs).predictions(n, 1, block)
        layout = predict._layout
        for b, s in enumerate(range(0, n, block)):
            e = min(s + block, n)
            touched = predict._touched[predict._first[b]:predict._first[b + 1]]
            depth, slot = predict._depth[b], predict._slot[s:e]
            label = layout.label[s:e]
            want, first, group = np.unique(label, return_index=True, return_inverse=True)
            place = layout.rank[s:e] - layout.rank[s + first][group]
            assert np.array_equal(touched, want)
            assert depth == place.max() + 1
            assert np.array_equal(slot, group * depth + place)
        assert predict._first[-1] == predict._touched.size

    @settings(max_examples=60, deadline=None)
    @given(xs=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=700),
           repeats=st.integers(0, 40), block=st.sampled_from([1, 5, 128]))
    def test_block_plan_matches_unique(self, xs, repeats, block):
        # n < 128 and n not a multiple of it, a run of duplicates of the
        # first point, and bins first entered inside a block
        xs = np.array(xs + xs[:1] * repeats)
        self.assert_plan_matches_unique(xs, block)

    def test_block_plan_with_more_bins_than_steps(self):
        # n = 20000: B = 141 bins, more than a block's 128 targets
        self.assert_plan_matches_unique(np.random.default_rng(7).random(20000), 128)

    def test_indexing(self):
        xs = np.random.default_rng(3).random(20)
        lazy = SplineGram(2, xs)
        dense = lazy[:, :]
        rows, cols = np.array([4, 0, 19]), np.array([7, 7])
        assert np.array_equal(lazy[rows, cols], dense[np.ix_(rows, cols)])
        assert np.array_equal(lazy[5, :], dense[5, :])
        assert np.array_equal(lazy[:3, 9], dense[:3, 9])
        assert lazy[2, 11].shape == () and lazy[2, 11] == dense[2, 11]
        assert lazy[4:4, :].shape == (0, 20)

    def test_order_validation(self):
        for order in (0, 9):
            with pytest.raises(ConfigurationError):
                SplineGram(order, [0.1])


class TestSectionInner:
    def test_order_doubling_against_series(self):
        # <K_x, K_y> via truncated Fourier of both sections
        J = 10**5
        j = np.arange(1, J + 1, dtype=float)
        rng = np.random.default_rng(3)
        for m in (1, 2):
            lam = (2.0 * np.pi * j) ** (-2.0 * m)
            for _ in range(5):
                x, y = rng.random(2)
                inner_fourier = float(np.sum(
                    2.0 * lam**2 * np.cos(2.0 * np.pi * j * (x - y))))
                doubled = SplineGram(2 * m, np.array([x, y]))[0, 1]
                assert doubled == pytest.approx(inner_fourier, abs=1e-8)

    def test_matches_doubled_gram(self):
        # order doubling: the section Gram of the order-2 kernel is the
        # order-4 kernel at every pair of points
        xs = np.array([0.1, 0.4, 0.9])
        g2 = SplineGram(2 * 2, xs)[:, :]
        assert np.allclose(g2, spline_kernel(4, xs[:, None], xs[None, :]), rtol=0, atol=1e-16)


def edge_stream(n, seed):
    """n points with, as far as n allows, x = 0, x just below 1, every bin
    edge b/B of `DoubledForm` (B = round(sqrt(n))) and repeated points
    (one of them on a bin edge) among uniform ones."""
    bins = round(math.sqrt(n))
    special = [0.0, np.nextafter(1.0, 0.0), *(np.arange(1, bins) / bins)]
    xs = np.random.default_rng(seed).random(n)
    xs[:len(special)] = special[:n]
    if n >= 50:
        xs[-4:-2] = xs[len(special)]
        xs[-2:] = special[2]
    return xs


class TestDoubledForm:
    # w'Dw against the dense order-doubled Gram matrix; the gap is pinned
    # relative to |w|'|D||w|, the size of the rounding of any evaluation
    # order (measured at most 3.5e-16 over these cases)
    RTOL = 1e-14

    def test_quad_holds_no_stack_copy(self):
        # an 80-row stack at n = 20000 (12.8 MB) is read in place: each
        # chunk of bins gathers its slots' weights and computes its near
        # blocks, so the call peaks at 2.2 MB (m = 2), against 28.8 MB with
        # a transposed copy of the stack beside the stored near blocks
        xs = np.random.default_rng(2).random(20000)
        form = DoubledForm(SplineGram(2, xs))
        w = np.random.default_rng(5).standard_normal((80, 20000))
        tracemalloc.start()
        try:
            form.quad(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("m", [1, 2])
    def test_retains_no_far_table(self, m):
        # at n = 20000 (141 bins) the form keeps the slot layout, the
        # slots' centred powers and a view of the cached (L, 2 B L) table:
        # no (B L)^2 far table and no near blocks, which `quad` computes per
        # call. Measured 1.8 and 2.7 MB for m = 1, 2, against 37.7 and
        # 36.2 MB with stored near blocks padded to the fullest bin
        xs = np.random.default_rng(m).random(20000)
        tracemalloc.start()
        try:
            form = DoubledForm(SplineGram(m, xs))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert form.n == 20000 and retained < 5e6

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 3162])
    def test_matches_dense_form(self, m, n):
        xs = edge_stream(n, 100 * m + n)
        dense = SplineGram(2 * m, xs)[:, :]
        form = DoubledForm(SplineGram(m, xs))
        w = np.random.default_rng(n).standard_normal((4, n))
        # whole stream, prefixes of it, and the empty prefix
        for size in sorted({n, n - 1, n // 3, 1, 0}):
            stack, block = w[:, :size], dense[:size, :size]
            want = np.einsum("pi,pi->p", stack @ block, stack)
            scale = np.einsum("pi,pi->p", np.abs(stack) @ np.abs(block), np.abs(stack))
            assert np.all(np.abs(form.quad(stack) - want) <= self.RTOL * scale), size
            single = form.quad(stack[0])
            assert np.ndim(single) == 0
            assert abs(single - want[0]) <= self.RTOL * scale[0]

    @pytest.mark.parametrize("m", [1, 2])
    def test_prefix_reads_its_own_bins(self, m):
        # a prefix that fills fewer than all bins multiplies only their
        # windows of the far table; it matches the same rows zero-padded to
        # the whole stream, which read the whole table (measured at most
        # 1.3e-15 relative)
        n = 3162
        form = DoubledForm(SplineGram(m, np.random.default_rng(m).random(n)))
        w = np.random.default_rng(7).standard_normal((59, n))
        for size in (1, 10, 45, 100):
            assert form._layout.bins[size - 1] < round(math.sqrt(n))
            padded = np.zeros((59, n))
            padded[:, :size] = w[:, :size]
            np.testing.assert_allclose(form.quad(w[:, :size]), form.quad(padded),
                                       rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    @pytest.mark.parametrize("bins", [1, 2, 3, 14, 113])
    def test_far_field_table_matches_rational_reference(self, order, bins):
        # every entry Q_{p+q}(s / bins) (-1)^q C(p + q, q), evaluated in
        # Fraction arithmetic and rounded once, bit for bit, laid out with
        # block (bins - j) mod bins in column group j = 0..2 bins - 1
        deg = 2 * order
        want = np.zeros((bins, deg + 1, deg + 1))
        for shift in range(1, bins):
            u = Fraction(shift, bins)
            at = [sum(c * u**r for r, c in enumerate(coeffs))
                  for coeffs in _taylor_coeffs(order)]
            for p in range(deg + 1):
                for q in range(deg + 1 - p):
                    want[shift, p, q] = float(at[p + q] * (-1) ** q * math.comb(p + q, q))
        want = want[(bins - np.arange(2 * bins)) % bins].transpose(1, 0, 2).reshape(deg + 1, -1)
        got = _far_field_blocks(order, bins)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_repeated_points_only(self):
        # every point in one bin: the form is the near field alone
        xs = np.full(30, 0.3)
        w = np.random.default_rng(4).standard_normal(30)
        assert DoubledForm(SplineGram(1, xs)).quad(w) == pytest.approx(
            w.sum() ** 2 * spline_kernel(2, 0.0, 0.0), rel=1e-14)

    def test_rejects_more_coefficients_than_points(self):
        with pytest.raises(ConfigurationError):
            DoubledForm(SplineGram(1, np.random.default_rng(0).random(10))).quad(np.ones(11))

    def test_shares_the_layout_of_a_gram(self):
        # the form is built from the Gram matrix of its points and reads
        # its bins: it holds the matrix's layout itself, the one the
        # recursion reads
        gram = SplineGram(2, np.random.default_rng(8).random(500))
        form = DoubledForm(gram)
        assert form._layout is gram._layout and form.n == 500
        assert form._order == 4

    def test_one_layout_for_every_run_length(self, monkeypatch):
        # a run over a prefix of the stream and the form of the whole
        # stream read the one layout of its Gram matrix
        built = []

        def counting(xs):
            built.append(len(xs))
            return layout(xs)

        layout = kernels._BinLayout
        monkeypatch.setattr(kernels, "_BinLayout", counting)
        rng = np.random.default_rng(9)
        gram = SplineGram(1, rng.random(300))
        sgd_run(gram, rng.standard_normal(300), [FiniteHorizon(1.0, -0.5)], [10, 150])
        ClosedFormRisk(gram, 2)
        assert built == [300]


class TestPowerTable:
    def test_running_products_against_exact_powers_and_pow(self):
        # both binned evaluators take centred powers up to 16 of offsets
        # |d| <= 1/2. Against the exact powers rounded once, the running
        # products are exact up to the square and within 4 ulp relative up
        # to power 16 (3.0 measured); numpy's vectorised `**` is within 1
        # ulp of them but not correctly rounded, even at the square
        rng = np.random.default_rng(41)
        d = np.concatenate([rng.uniform(-0.5, 0.5, 2000), [0.0, -0.0, 0.5, -0.5, 2.0**-30]])
        got = _power_table(d, 17)
        exact = np.array([[float(Fraction(x) ** p) for p in range(17)] for x in d])
        eps = np.finfo(float).eps
        assert np.array_equal(got[:, :3], exact[:, :3])
        assert np.all(np.abs(got - exact) <= 4 * eps * np.abs(exact))
        powers = d[:, None] ** np.arange(17)
        assert np.all(np.abs(got - powers) <= 5 * eps * np.abs(powers))

    def test_new_axis(self):
        d = np.random.default_rng(42).uniform(-0.5, 0.5, (6, 7))
        got = _power_table(d, 5, axis=1)
        assert got.shape == (6, 5, 7) and got.flags.c_contiguous
        assert np.array_equal(got, _power_table(d.T, 5).transpose(1, 2, 0))

    @pytest.mark.parametrize("shape, count, axis, dtype, into", [
        ((1,), 317, -1, complex, True), ((51,), 316, -1, complex, True),
        ((3162,), 5, -1, float, False), ((56, 83), 9, 1, float, False)])
    def test_one_fill_path_is_the_repeated_table_bitwise(self, shape, count, axis, dtype, into):
        # the Fourier phase tables (into their workspaces), the predictor's
        # centred powers and the form's (bins, L, width) slot powers, against
        # d repeated along the new axis, its first entry set to 1, and
        # accumulated
        rng = np.random.default_rng(44)
        d = rng.uniform(-0.5, 0.5, shape)
        if dtype is complex:
            d = np.exp(2j * np.pi * d)
        want = np.repeat(np.expand_dims(d, axis), count, axis=axis)
        np.moveaxis(want, axis, 0)[0] = 1.0
        np.multiply.accumulate(want, axis=axis, out=want)
        out = np.full(want.shape, np.nan, dtype=dtype) if into else None
        got = _power_table(d, count, axis=axis, out=out)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert out is None or got is out

    def test_rejects_an_axis_before_the_last_two(self):
        with pytest.raises(ValueError):
            _power_table(np.zeros((2, 3)), 4, axis=0)


class TestEigenCheck:
    def test_cosine_zero(self):
        lhs, rhs = eigen_check(1, 1, 0.25, 10**4)
        assert rhs == pytest.approx(0.0, abs=1e-15)
        assert abs(lhs) <= 1e-8

    def test_relative_error(self):
        lhs, rhs = eigen_check(1, 2, 0.1, 10**4)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-6

    def test_order_two_at_zero(self):
        lhs, rhs = eigen_check(2, 1, 0.0, 10**4)
        assert rhs == pytest.approx((2 * np.pi) ** -4 * np.sqrt(2.0), abs=1e-18)
        assert abs(lhs - rhs) <= 1e-9

    def test_sine_analogue(self):
        lhs, rhs = eigen_check(1, 1, 0.15, 10**4, sine=True)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-6

    def test_preconditions(self):
        with pytest.raises(ConfigurationError):
            eigen_check(1, 0, 0.1, 10**4)
        with pytest.raises(ConfigurationError):
            eigen_check(1, 1, 0.1, 100)
