"""Closed-form theory: step-size exponents, predicted rates, regime
classification, the evaluable finite-horizon error bound, and the spectral
constants of the spline testbed.

Conventions. alpha > 1 is the eigenvalue decay exponent of the covariance
operator (mu_i <= s^2 / i^alpha) and r > 0 the source smoothness of the best
predictor (finite ||T^{-r} g||). Exponents and rates are signed log-log slopes
(rate -0.75: excess risk ~ n^{-0.75}), taken as they are by the schedules of
`estimator`; `_regime` sets them all in each of the SETTINGS (Dieuleveut & Bach, 2014).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

SETTINGS = ("finite_horizon", "online")


def _check_r(r: float) -> None:
    # every formula doubles alpha and r; past float64's range inf / inf is NaN
    if not (math.isfinite(2.0 * r) and r > 0):
        raise ConfigurationError("r must be positive, with 2 r finite")


def _check_alpha_r(alpha: float, r: float) -> None:
    if not (math.isfinite(2.0 * alpha) and alpha > 1):
        raise ConfigurationError("alpha must exceed 1, with 2 alpha finite")
    _check_r(r)


class Regime(enum.Enum):
    """Where (alpha, r) falls relative to the optimality region."""

    BIAS_DOMINATED_CONSTANT_STEP = "bias_dominated_constant_step"
    OPTIMAL_REGION = "optimal_region"
    SATURATION = "saturation"


@dataclass(frozen=True)
class BoundParams:
    """All constants of the finite-horizon bound.

    s_sq is the eigenvalue envelope constant, sigma_sq the noise constant,
    R_sq the kernel sup, and source_norm_sq = ||T^{-r} g||^2.
    """

    alpha: float
    r: float
    s_sq: float
    sigma_sq: float
    R_sq: float
    source_norm_sq: float

    def __post_init__(self):
        _check_alpha_r(self.alpha, self.r)
        for name in ("s_sq", "sigma_sq", "R_sq", "source_norm_sq"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


def _regime(alpha: float, r: float, setting: str) -> tuple[Regime, float]:
    """The Regime of (alpha, r) in `setting` and c = min(r, cap): a plain
    constant step below the threshold r = (alpha-1)/(2 alpha), saturation
    above the cap, 1 with a finite horizon and (2 alpha - 1)/(2 alpha)
    online. Both boundaries belong to the optimal region."""
    _check_alpha_r(alpha, r)
    caps = dict(zip(SETTINGS, (1.0, (2.0 * alpha - 1.0) / (2.0 * alpha))))
    if setting not in caps:
        raise ConfigurationError(f"setting must be one of {list(caps)}, got {setting!r}")
    c = min(r, caps[setting])
    if r < (alpha - 1.0) / (2.0 * alpha):
        return Regime.BIAS_DOMINATED_CONSTANT_STEP, c
    # r > c exactly when r exceeds the cap
    return (Regime.SATURATION if r > c else Regime.OPTIMAL_REGION), c


def step_exponent(alpha: float, r: float, setting: str = "finite_horizon") -> float:
    """log-log slope of the optimal constant step Gamma(N) of a run of horizon
    N ("finite_horizon"), or of the horizon-free steps gamma_n ("online").

    Zero below the threshold; otherwise (-2 alpha c - 1 + alpha) /
    (2 alpha c + 1), which vanishes at the threshold and is -1/2 at the
    online cap, where the formula can miss -1/2 by an ulp; saturated online
    steps return -1/2 exactly.
    """
    regime, c = _regime(alpha, r, setting)
    if regime is Regime.BIAS_DOMINATED_CONSTANT_STEP:
        return 0.0
    if regime is Regime.SATURATION and setting == "online":
        return -0.5
    return (-2.0 * alpha * c - 1.0 + alpha) / (2.0 * alpha * c + 1.0)


def predicted_rate(alpha: float, r: float, setting: str = "finite_horizon") -> float:
    """Predicted log-log slope of the excess risk under the optimal step.

    -2r in the bias-dominated region; otherwise -2 alpha c / (2 alpha c + 1).
    The two formulas coincide at the threshold.
    """
    regime, c = _regime(alpha, r, setting)
    if regime is Regime.BIAS_DOMINATED_CONSTANT_STEP:
        return -2.0 * r
    return -2.0 * alpha * c / (2.0 * alpha * c + 1.0)


def competitor_rate(r: float) -> float:
    """-2r/(2r+1), both the rate shared by the benchmark competitors, which
    do not exploit the eigenvalue decay, and the log-log slope of their
    finite-horizon step gamma0 N**(-2r/(2r+1)) (Ying & Pontil, 2008)."""
    _check_r(r)
    return -2.0 * r / (2.0 * r + 1.0)


def classify_regime(alpha: float, r: float, setting: str = "finite_horizon") -> Regime:
    """Classify (alpha, r); boundary values belong to the optimal region."""
    return _regime(alpha, r, setting)[0]


def finite_horizon_bound(n: int, gamma: float, params: BoundParams) -> float:
    """Evaluable excess-risk bound for the averaged iterate at horizon n with
    constant step gamma (requires gamma R^2 <= 1/4):

        4 sigma^2 / n (1 + (s^2 gamma n)^{1/alpha})
          + 4 (1 + q) ||T^{-r} g||^2 / (gamma^{2r} n^{2 min(r,1)}),

    with q = (R^{2 alpha} gamma^{1+alpha} n s^2)^{(2r-1)/alpha} for r >= 1/2
    and q = 0 otherwise. A bound past float64's range (a large r can
    underflow gamma^{2r} or overflow q) is a ConfigurationError.
    """
    if n < 1:
        raise ConfigurationError("n must be at least 1")
    if not gamma > 0:
        raise ConfigurationError("gamma must be positive")
    if gamma * params.R_sq > 0.25 + 1e-12:
        raise ConfigurationError(
            f"bound requires gamma * R^2 <= 1/4 (got {gamma * params.R_sq:.4f})"
        )
    alpha, r = params.alpha, params.r
    c = _regime(alpha, r, "finite_horizon")[1]
    try:
        variance = 4.0 * params.sigma_sq / n * (1.0 + (params.s_sq * gamma * n) ** (1.0 / alpha))
        if r >= 0.5:
            q = (params.R_sq**alpha * gamma ** (1.0 + alpha) * n * params.s_sq) ** (
                (2.0 * r - 1.0) / alpha)
        else:
            q = 0.0
        bound = variance + 4.0 * (1.0 + q) * params.source_norm_sq / (
            gamma ** (2.0 * r) * n ** (2.0 * c))
    except (OverflowError, ZeroDivisionError):
        bound = math.inf
    if not math.isfinite(bound):
        raise ConfigurationError(f"the bound overflows float64 at n = {n}, "
                                 f"gamma = {gamma:.6g}, r = {r:.6g}")
    return bound


def spectral_s_sq(m: int) -> float:
    """Tight envelope constant of the spline testbed's spectrum.

    The operator eigenvalues are (2 pi j)^{-2m}, each of multiplicity 2;
    listing them in non-increasing order, sup_i i^{2m} mu_i is attained at
    the even positions i = 2j and equals pi^{-2m}.
    """
    if m < 1:
        raise ConfigurationError("m must be at least 1")
    return math.pi ** (-2 * m)


def source_norm_sq_truncated(m: int, k: int, r_eval: float, J: int) -> float:
    """Truncation of ||T^{-r_eval} B_k||^2 to the first J frequencies:

        sum_{j<=J} 2 (k!)^2 (2 pi j)^{4 m r_eval - 2k}.

    The full series converges exactly when 2k - 4 m r_eval > 1; at
    r_eval = (2k - 1) / (4m) the sum is harmonic and diverges with J, which
    is why the bound evaluator asks for an explicit r_eval and J instead of
    guessing.
    """
    if r_eval <= 0 or J < 1:
        raise ConfigurationError("need r_eval > 0 and J >= 1")
    j = np.arange(1, J + 1, dtype=float)
    expo = 4.0 * m * r_eval - 2.0 * k
    kfac = float(math.factorial(k))
    return float(2.0 * kfac**2 * np.sum((2.0 * np.pi * j) ** expo))
