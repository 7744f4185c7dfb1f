import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klms.errors import ConfigurationError
from klms.theory import (BoundParams, Regime, classify_regime, competitor_rate,
                         finite_horizon_bound, predicted_rate,
                         source_norm_sq_truncated, spectral_s_sq, step_exponent)

alphas = st.floats(1.01, 8.0)
rs = st.floats(0.01, 3.0)

# the four table points (alpha, r) -> exact values per setting
TABLE_VALUES = {
    (2, 0.75): {"finite_horizon": (-0.5, -0.75, Regime.OPTIMAL_REGION),
                "online": (-0.5, -0.75, Regime.OPTIMAL_REGION)},
    (4, 0.375): {"finite_horizon": (0.0, -0.75, Regime.OPTIMAL_REGION),
                 "online": (0.0, -0.75, Regime.OPTIMAL_REGION)},
    (2, 1.25): {"finite_horizon": (-0.6, -0.8, Regime.SATURATION),
                "online": (-0.5, -0.75, Regime.SATURATION)},
    (4, 0.125): {"finite_horizon": (0.0, -0.25, Regime.BIAS_DOMINATED_CONSTANT_STEP),
                 "online": (0.0, -0.25, Regime.BIAS_DOMINATED_CONSTANT_STEP)},
}


class TestStepExponents:
    def test_finite_horizon_table_values(self):
        assert step_exponent(2, 0.75) == pytest.approx(-0.5)
        assert step_exponent(4, 0.375) == pytest.approx(0.0)
        # saturated problem: the formula says -3/5 (the published table lists
        # -3/7 for this cell; the harness takes an override flag for that)
        assert step_exponent(2, 1.25) == pytest.approx(-3 / 5)
        for (alpha, r), by_setting in TABLE_VALUES.items():
            for setting, (expo, _, _) in by_setting.items():
                assert step_exponent(alpha, r, setting) == expo
        assert step_exponent(2, 0.75) == step_exponent(2, 0.75, "finite_horizon")

    def test_online_cases(self):
        assert step_exponent(2, 0.75, "online") == pytest.approx(-0.5)
        assert step_exponent(2, 1.25, "online") == pytest.approx(-0.5)
        assert step_exponent(4, 0.125, "online") == pytest.approx(0.0)
        # saturated online steps are exactly -1/2; at the last alpha the
        # formula evaluated at the cap gives -0.4999999999999999
        for alpha in (2.0, 4.0, 6.0, 8.0, 1.0814707353676838):
            for r in ((2 * alpha - 1) / (2 * alpha) + 1e-9, 1.0, 3.0):
                assert step_exponent(alpha, r, "online") == -0.5

    def test_online_continuous_at_upper_threshold(self):
        for alpha in (2.0, 3.0, 4.0):
            r = (2 * alpha - 1) / (2 * alpha)
            formula = (-2 * alpha * r - 1 + alpha) / (2 * alpha * r + 1)
            assert formula == pytest.approx(-0.5, abs=1e-12)

    @given(alphas, rs)
    @settings(max_examples=200, deadline=None)
    def test_exponents_non_positive(self, alpha, r):
        assert step_exponent(alpha, r) <= 0.0
        assert -0.5 <= step_exponent(alpha, r, "online") <= 0.0

    def test_preconditions(self):
        with pytest.raises(ConfigurationError):
            step_exponent(1.0, 0.5)
        with pytest.raises(ConfigurationError):
            step_exponent(2.0, 0.0, "online")

    @pytest.mark.parametrize("alpha, r", [(math.inf, 0.5), (math.nan, 0.5),
                                          (2.0, math.inf), (2.0, math.nan),
                                          (1e308, 0.3), (2.0, 1e308)])
    def test_non_finite_rejected(self, alpha, r):
        # a finite alpha or r whose double overflows counts as non-finite
        for fn in (step_exponent, predicted_rate, classify_regime):
            for setting in ("finite_horizon", "online"):
                with pytest.raises(ConfigurationError):
                    fn(alpha, r, setting)

    @pytest.mark.parametrize("alpha, r", [(8.9e307, 0.3), (8.9e307, 1.0), (2.0, 8.9e307)])
    def test_largest_accepted_inputs_stay_finite(self, alpha, r):
        for setting in ("finite_horizon", "online"):
            assert math.isfinite(step_exponent(alpha, r, setting))
            assert math.isfinite(predicted_rate(alpha, r, setting))
        assert math.isfinite(competitor_rate(r))


class TestPredictedRates:
    def test_table_values(self):
        assert predicted_rate(2, 0.75, "finite_horizon") == pytest.approx(-0.75)
        assert predicted_rate(2, 1.25, "finite_horizon") == pytest.approx(-0.8)
        assert predicted_rate(4, 0.125, "finite_horizon") == pytest.approx(-0.25)
        assert predicted_rate(4, 0.375, "finite_horizon") == pytest.approx(-0.75)
        for (alpha, r), by_setting in TABLE_VALUES.items():
            for setting, (_, rate, _) in by_setting.items():
                assert predicted_rate(alpha, r, setting) == rate

    def test_online_saturation_cap(self):
        # beyond r = (2 alpha - 1)/(2 alpha) the online rate freezes
        assert predicted_rate(2, 0.75, "online") == pytest.approx(-0.75)
        assert predicted_rate(2, 2.0, "online") == pytest.approx(-0.75)
        assert predicted_rate(2, 2.0, "finite_horizon") == pytest.approx(-0.8)

    def test_boundary_consistency(self):
        # at r = (alpha-1)/(2 alpha) both branch formulas coincide
        for alpha in (2.0, 3.0, 4.0):
            r = (alpha - 1) / (2 * alpha)
            assert -2 * r == pytest.approx(
                -2 * alpha * r / (2 * alpha * r + 1), abs=1e-12)
            assert predicted_rate(alpha, r, "finite_horizon") == pytest.approx(-2 * r, abs=1e-12)

    @given(alphas, rs, rs)
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_r(self, alpha, r1, r2):
        lo, hi = sorted((r1, r2))
        assert (predicted_rate(alpha, hi, "finite_horizon")
                <= predicted_rate(alpha, lo, "finite_horizon") + 1e-12)

    @given(alphas, alphas, rs)
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_alpha_inside_region(self, a1, a2, r):
        lo, hi = sorted((a1, a2))
        # rate only improves with a stronger capacity assumption when the
        # bias branch is not active for either alpha
        if r >= (hi - 1) / (2 * hi) and r >= (lo - 1) / (2 * lo):
            assert (predicted_rate(hi, r, "finite_horizon")
                    <= predicted_rate(lo, r, "finite_horizon") + 1e-12)

    @given(alphas, rs)
    @settings(max_examples=300, deadline=None)
    def test_strict_improvement_over_competitors(self, alpha, r):
        if (alpha - 1) / (2 * alpha) < r < 1:
            assert predicted_rate(alpha, r, "finite_horizon") < competitor_rate(r)

    def test_competitor_values(self):
        assert competitor_rate(0.75) == pytest.approx(-0.6)
        assert competitor_rate(0.375) == pytest.approx(-3 / 7)
        assert competitor_rate(1.25) == pytest.approx(-5 / 7)

    @pytest.mark.parametrize("r", [0.0, math.inf, math.nan, 1e308])
    def test_competitor_rejects_bad_r(self, r):
        with pytest.raises(ConfigurationError):
            competitor_rate(r)


class TestRegimes:
    def test_four_benchmark_points(self):
        assert classify_regime(2, 0.75, "finite_horizon") is Regime.OPTIMAL_REGION
        assert classify_regime(4, 0.375, "finite_horizon") is Regime.OPTIMAL_REGION
        assert classify_regime(2, 1.25, "finite_horizon") is Regime.SATURATION
        assert classify_regime(4, 0.125, "finite_horizon") is Regime.BIAS_DOMINATED_CONSTANT_STEP
        for (alpha, r), by_setting in TABLE_VALUES.items():
            for setting, (_, _, regime) in by_setting.items():
                assert classify_regime(alpha, r, setting) is regime

    def test_boundaries_assigned_to_optimal(self):
        assert classify_regime(2, 0.25, "finite_horizon") is Regime.OPTIMAL_REGION
        assert classify_regime(2, 1.0, "finite_horizon") is Regime.OPTIMAL_REGION
        assert classify_regime(2, 0.75, "online") is Regime.OPTIMAL_REGION

    def test_online_saturates_earlier(self):
        assert classify_regime(2, 0.9, "online") is Regime.SATURATION
        assert classify_regime(2, 0.9, "finite_horizon") is Regime.OPTIMAL_REGION

    @given(alphas, rs)
    @settings(max_examples=200, deadline=None)
    def test_exactly_one_class(self, alpha, r):
        assert classify_regime(alpha, r, "finite_horizon") in Regime
        assert classify_regime(alpha, r, "online") in Regime

    def test_setting_validation(self):
        # in every region: below the threshold (0.25 at alpha = 2), inside
        # and saturated
        for r in (0.1, 0.5, 2.0):
            for fn in (step_exponent, predicted_rate, classify_regime):
                with pytest.raises(ConfigurationError):
                    fn(2, r, "batch")


class TestFiniteHorizonBound:
    PARAMS = BoundParams(alpha=2.0, r=0.75, s_sq=math.pi**-2, sigma_sq=0.01,
                         R_sq=1 / 12, source_norm_sq=1.0)

    def test_vanishes_without_noise_and_source(self):
        p = BoundParams(alpha=2.0, r=0.75, s_sq=math.pi**-2, sigma_sq=0.0,
                        R_sq=1 / 12, source_norm_sq=0.0)
        for n in (1, 10, 1000):
            assert finite_horizon_bound(n, 0.5, p) == 0.0

    def test_q_equals_one_at_half(self):
        # r = 1/2 makes the residual exponent zero, so q = 1 and the bias
        # term carries the factor 4 * 2
        p = BoundParams(alpha=2.0, r=0.5, s_sq=math.pi**-2, sigma_sq=0.0,
                        R_sq=1 / 12, source_norm_sq=1.0)
        n, gamma = 100, 0.5
        assert finite_horizon_bound(n, gamma, p) == pytest.approx(
            8.0 / (gamma * n), rel=1e-12)

    def test_frozen_independent_evaluation(self):
        # computed once by a straight-line evaluation of the displayed
        # formula (independent of the implementation) and frozen
        gamma = 12.0 * 1000 ** -0.5
        got = finite_horizon_bound(1000, gamma, self.PARAMS)
        assert got == pytest.approx(0.001068753172977208, rel=1e-12)

    def test_step_size_precondition(self):
        with pytest.raises(ConfigurationError):
            finite_horizon_bound(100, 12.0, self.PARAMS)

    def test_monotone_in_n_without_noise(self):
        p = BoundParams(alpha=2.0, r=0.75, s_sq=math.pi**-2, sigma_sq=0.0,
                        R_sq=1 / 12, source_norm_sq=2.0)
        vals = [finite_horizon_bound(n, 1.0, p) for n in (1, 3, 10, 30, 100, 1000)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_gamma_without_source(self):
        p = BoundParams(alpha=2.0, r=0.75, s_sq=math.pi**-2, sigma_sq=0.5,
                        R_sq=1 / 12, source_norm_sq=0.0)
        gammas = np.linspace(0.1, 2.9, 12)
        vals = [finite_horizon_bound(500, float(g), p) for g in gammas]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n, gamma", [(10, 0.01), (10**6, 2.0)])
    def test_large_r_overflow_is_a_config_error(self, n, gamma):
        # gamma^(2r) underflows to 0 at gamma = 0.01; q's power overflows at
        # n = 1e6, gamma = 2; both once raised ZeroDivisionError or
        # OverflowError
        p = BoundParams(alpha=2, r=200, s_sq=0.1, sigma_sq=0.01, R_sq=1 / 12,
                        source_norm_sq=1)
        with pytest.raises(ConfigurationError, match="overflows"):
            finite_horizon_bound(n, gamma, p)

    def test_params_validation(self):
        with pytest.raises(ConfigurationError):
            BoundParams(alpha=1.0, r=0.5, s_sq=1, sigma_sq=1, R_sq=1, source_norm_sq=1)
        with pytest.raises(ConfigurationError):
            BoundParams(alpha=2.0, r=0.5, s_sq=-1, sigma_sq=1, R_sq=1, source_norm_sq=1)


class TestSpectralConstants:
    def test_tight_envelope(self):
        assert spectral_s_sq(1) == pytest.approx(math.pi**-2)
        assert spectral_s_sq(2) == pytest.approx(math.pi**-4)
        # at m = 1 this equals 4 (1/2 pi)^2 exactly
        assert spectral_s_sq(1) == pytest.approx(4 * (1 / (2 * math.pi)) ** 2)

    @pytest.mark.parametrize("m", [1, 2])
    def test_envelope_holds_and_is_tight(self, m):
        # doubled eigenvalues (2 pi j)^{-2m}, sorted non-increasingly:
        # position 2j-1 and 2j both hold (2 pi j)^{-2m}
        i = np.arange(1, 201)
        mu = (2 * np.pi * np.ceil(i / 2)) ** (-2.0 * m)
        ratios = i ** (2.0 * m) * mu
        s2 = spectral_s_sq(m)
        assert np.all(ratios <= s2 + 1e-15)
        assert ratios.max() == pytest.approx(s2, rel=1e-12)
        # any smaller constant fails at the even positions
        assert np.any(ratios > 0.999 * s2)


class TestSourceNorm:
    def test_convergent_case_stabilizes(self):
        lo = source_norm_sq_truncated(1, 2, 0.5, 10**4)
        mid = source_norm_sq_truncated(1, 2, 0.5, 10**5)
        hi = source_norm_sq_truncated(1, 2, 0.5, 10**6)
        assert hi - mid < mid - lo
        assert hi - mid < 3e-6
        assert hi == pytest.approx(mid, rel=1e-4)

    def test_boundary_case_diverges(self):
        # at r = (2k-1)/(4m) the series is harmonic
        vals = [source_norm_sq_truncated(1, 2, 0.75, J) for J in (10**3, 10**4, 10**5)]
        assert vals[1] - vals[0] > 0.1 * (vals[2] - vals[1])
        assert vals[2] - vals[1] > 1e-3

    def test_small_r_convergent(self):
        a = source_norm_sq_truncated(1, 1, 0.1, 10**5)
        b = source_norm_sq_truncated(1, 1, 0.1, 10**6)
        assert b == pytest.approx(a, rel=1e-3)

    def test_leading_term(self):
        # single-frequency truncation is the j = 1 Parseval weight
        got = source_norm_sq_truncated(1, 2, 0.5, 1)
        want = 2 * math.factorial(2) ** 2 * (2 * math.pi) ** (4 * 0.5 - 4)
        assert got == pytest.approx(want, rel=1e-14)

    def test_preconditions(self):
        with pytest.raises(ConfigurationError):
            source_norm_sq_truncated(1, 2, 0.0, 100)
        with pytest.raises(ConfigurationError):
            source_norm_sq_truncated(1, 2, 0.5, 0)
