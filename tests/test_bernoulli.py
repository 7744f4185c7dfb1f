import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klms.bernoulli
from klms.bernoulli import (_fourier_plan, _horner, bernoulli_fourier_eval, bernoulli_numbers,
                            bernoulli_poly, bernoulli_poly_coeffs, frac, zeta_tail)
from klms.errors import ConfigurationError


class TestNumbers:
    def test_base_cases(self):
        assert bernoulli_numbers(1) == [Fraction(1), Fraction(-1, 2)]

    def test_known_values(self):
        b = bernoulli_numbers(8)
        assert b[2] == Fraction(1, 6)
        assert b[4] == Fraction(-1, 30)
        assert b[6] == Fraction(1, 42)
        assert b[8] == Fraction(-1, 30)

    def test_defining_recurrence(self):
        b = bernoulli_numbers(12)
        for n in range(1, 12):
            acc = sum(Fraction(math.comb(n + 1, j)) * b[j] for j in range(n + 1))
            assert acc == 0

    def test_odd_numbers_vanish(self):
        b = bernoulli_numbers(15)
        for n in range(3, 16, 2):
            assert b[n] == 0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            bernoulli_numbers(-1)


class TestPolynomials:
    def test_published_low_orders(self):
        # B_1 = x - 1/2, B_2 = x^2 - x + 1/6, B_3 = x^3 - 3/2 x^2 + 1/2 x
        assert bernoulli_poly(1, 0.0) == -0.5
        assert bernoulli_poly(2, 0.0) == pytest.approx(1 / 6, abs=1e-15)
        assert bernoulli_poly(3, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert bernoulli_poly_coeffs(2) == (Fraction(1, 6), Fraction(-1), Fraction(1))
        assert bernoulli_poly_coeffs(3) == (
            Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(1))

    @pytest.mark.parametrize("k", range(1, 17))
    def test_monic(self, k):
        assert bernoulli_poly_coeffs(k)[-1] == 1

    @pytest.mark.parametrize("k", range(2, 17))
    def test_endpoint_symmetry_exact(self, k):
        c = bernoulli_poly_coeffs(k)
        at_zero = c[0]
        at_one = sum(c)
        assert at_zero == at_one

    @pytest.mark.parametrize("k", range(1, 17))
    def test_zero_mean_exact(self, k):
        c = bernoulli_poly_coeffs(k)
        assert sum(cj / Fraction(j + 1) for j, cj in enumerate(c)) == 0

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0.0, 1.0, 7)
        vec = bernoulli_poly(4, xs)
        for x, v in zip(xs, vec):
            assert v == pytest.approx(bernoulli_poly(4, float(x)), abs=1e-15)

    def test_horner_is_numpy_polyval_bitwise(self):
        # the same products and sums in the same order as numpy's polyval,
        # at scalars and arrays, for every degree and one constant
        xs = np.random.default_rng(13).uniform(-1.5, 1.5, 500)
        for k in range(1, 17):
            coeffs = [float(c) for c in bernoulli_poly_coeffs(k)]
            for x in (xs, xs[7], np.float64(-0.0), 0.5):
                want = np.polynomial.polynomial.polyval(x, coeffs)
                assert np.asarray(_horner(coeffs, x)).tobytes() == np.asarray(want).tobytes()
        assert np.array_equal(_horner([0.25], xs), np.polynomial.polynomial.polyval(xs, [0.25]))

    def test_package_never_loads_numpy_polynomial(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy as np\n"
                "import klms.cli\n"
                "from klms.bernoulli import bernoulli_poly\n"
                "from klms.estimator import KernelExpansion\n"
                "from klms.risk import excess_risk_mc\n"
                "bernoulli_poly(3, np.array([0.1, 0.7]))\n"
                "excess_risk_mc(KernelExpansion(np.array([0.2]), np.array([1.0])), 2, 1, 1000)\n"
                "print('numpy.polynomial' in sys.modules)")
        src = str(Path(klms.bernoulli.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "False"

    def test_degree_cap(self):
        with pytest.raises(ConfigurationError):
            bernoulli_poly_coeffs(17)


class TestFrac:
    def test_examples(self):
        assert frac(0.25) == 0.25
        assert frac(-0.25) == 0.75
        assert frac(3.0) == 0.0

    def test_result_type_and_interval(self):
        assert isinstance(frac(1.7), float)
        arr = frac(np.array([-0.5, 0.0, 2.25]))
        assert np.all((arr >= 0.0) & (arr < 1.0))

    @given(st.floats(-1e6, 1e6), st.integers(-1000, 1000))
    @settings(max_examples=200, deadline=None)
    def test_periodicity(self, x, n):
        # compare as points on the circle: adding n can round x + n to an
        # exact integer, which wraps the fractional part from 1- to 0
        d = abs(frac(x + n) - frac(x))
        assert min(d, 1.0 - d) <= 1e-9

    @given(st.floats(-1e9, 1e9, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_range(self, x):
        r = frac(x)
        assert 0.0 <= r < 1.0


def direct_fourier_eval(k, x, J):
    """The B_k series summed directly at one point, J cosines, with the same
    two tails as `bernoulli_fourier_eval`."""
    u = frac(x)
    j = np.arange(1, J + 1, dtype=float)
    kfac = float(math.factorial(k))
    s = -2.0 * kfac * float(np.sum(np.cos(2.0 * np.pi * j * u - k * np.pi / 2.0)
                                   / (2.0 * np.pi * j) ** k))
    if u == 0.0 and k >= 2:
        s += -2.0 * kfac * (1, 0, -1, 0)[k % 4] * zeta_tail(k, J)
    elif k == 1 and u != 0.0:
        full_im = float(np.imag(np.log(1.0 - np.exp(2j * np.pi * u))))
        s += (full_im - np.pi * s) / np.pi
    return s


class TestFourierSeries:
    def test_grid_agreement(self):
        # 101-point grid of [0, 1); k = 1 excludes the jump at x = 0
        xs = np.linspace(0.0, 1.0, 101, endpoint=False)
        for k in range(1, 9):
            tol = 1e-6
            x = xs[1:] if k == 1 else xs
            gap = np.abs(bernoulli_fourier_eval(k, x, 10**5) - bernoulli_poly(k, x))
            assert np.max(gap) <= tol, (k, x[np.argmax(gap)])

    def test_factored_sum_equals_direct_sum(self):
        # u = 0 takes the zeta tail (k >= 2) or none (k = 1), u != 0 with
        # k = 1 the log tail; x outside [0, 1) is reduced first. The gap is
        # measured against 2 k! sum_j (2 pi j)^{-k}, the size of the terms,
        # since the value itself vanishes at u = 0 or 1/2 for odd k.
        xs = np.concatenate([[0.0, 0.5, 0.25, -0.3, 1.7],
                             np.random.default_rng(5).random(10)])
        for J in (1, 2, 3, 4, 7, 99, 100, 101, 1000):
            for k in range(1, 9):
                scale = 2.0 * math.factorial(k) * np.sum(
                    (2.0 * np.pi * np.arange(1, J + 1)) ** -float(k))
                got = bernoulli_fourier_eval(k, xs, J)
                for x, value in zip(xs, got):
                    gap = abs(value - direct_fourier_eval(k, x, J))
                    assert gap <= 1e-13 * scale, (J, k, x)

    def test_array_call_equals_scalar_calls(self):
        # bitwise: every point is summed by the same operations, alone or not
        xs = np.concatenate([[0.0, 0.5, 1.0, -0.25],
                             np.random.default_rng(3).random(20)])
        for J in (1, 7, 100, 10**5):
            for k in range(1, 9):
                grid = bernoulli_fourier_eval(k, xs.reshape(4, 6), J)
                assert grid.shape == (4, 6)
                for x, value in zip(xs, grid.ravel()):
                    scalar = bernoulli_fourier_eval(k, float(x), J)
                    assert type(scalar) is float
                    assert scalar == value, (J, k, x)

    def test_spec_examples(self):
        assert bernoulli_fourier_eval(2, 0.3, 10**5) == pytest.approx(
            bernoulli_poly(2, 0.3), abs=1e-8)
        assert bernoulli_fourier_eval(3, 0.2, 10**5) == pytest.approx(
            bernoulli_poly(3, 0.2), abs=1e-9)
        # odd symmetry: the k = 1 series vanishes at x = 1/2 for any J
        for J in (1, 10, 1000):
            assert bernoulli_fourier_eval(1, 0.5, J) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            bernoulli_fourier_eval(0, 0.3, 10)
        with pytest.raises(ConfigurationError):
            bernoulli_fourier_eval(2, 0.3, 0)

    def test_odd_orders_vanish_at_integers_with_no_tail(self, monkeypatch):
        # cos(k pi / 2) is exactly 0 for odd k, so no zeta tail is computed
        # (math.cos(3 pi / 2) = -1.8e-16 used to scale one) and every phase
        # at an integer is exactly 1
        def no_tail(s, J):
            raise AssertionError("zeta_tail called for an odd order")

        monkeypatch.setattr(klms.bernoulli, "zeta_tail", no_tail)
        assert bernoulli_fourier_eval(3, 0.0, 10**5) == 0.0
        for k in (3, 5, 7):
            assert np.all(bernoulli_fourier_eval(k, np.array([0.0, 1.0, -2.0]), 1000) == 0.0)

    def test_memory_is_bounded_by_the_chunks(self):
        # 1000 points at J = 1e5: phase tables one chunk at a time, no
        # n x sqrt(J) table, and one J-length table of weights. The traced
        # call builds its own plan, so its workspaces, its 1 / (2 pi j)
        # table and the weights of k = 2 count. Measured 2.43 MB, against
        # 20.3 MB with whole tables
        xs = np.random.default_rng(11).random(1000)
        bernoulli_fourier_eval(2, xs, 10**5)
        _fourier_plan.cache_clear()
        tracemalloc.start()
        try:
            bernoulli_fourier_eval(2, xs, 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


def exact_zeta_tail(s, J):
    """zeta(s, J + 1) for integer s as an exact rational, far below one ulp
    from the true value: the terms up to M - 1 = max(J, s + 59) summed
    exactly, then Euler-Maclaurin at M with 12 corrections, whose first
    omitted one is below 1e-29 of the sum (independent of the 8 corrections
    from s + 30 that `zeta_tail` uses)."""
    M = max(J + 1, s + 60)
    total = sum(Fraction(1, j**s) for j in range(J + 1, M))
    total += Fraction(1, (s - 1) * M ** (s - 1)) + Fraction(1, 2 * M**s)
    b = bernoulli_numbers(24)
    rising = s
    for k in range(1, 13):
        total += b[2 * k] / math.factorial(2 * k) * Fraction(rising, M ** (s + 2 * k - 1))
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return total


class TestZetaTail:
    @pytest.mark.parametrize("J", [1, 2, 19, 20, 100, 10**5])
    def test_within_4_ulp_of_exact_sums(self, J):
        # measured at most 2 ulp over s = 2..32; scipy.special.zeta stays
        # as a second, independent oracle (measured within 4 ulp)
        from scipy.special import zeta

        for s in range(2, 33):
            want = (2.0 * math.pi) ** -s * float(exact_zeta_tail(s, J))
            assert abs(zeta_tail(s, J) - want) <= 4 * math.ulp(want), s
            assert zeta_tail(s, J) == pytest.approx(
                (2.0 * math.pi) ** -s * float(zeta(s, J + 1)), rel=1e-14, abs=0.0), s
