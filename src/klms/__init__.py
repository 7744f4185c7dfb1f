"""Averaged kernel least-mean-squares regression on a spline testbed.

The package has six pieces: exact Bernoulli polynomials (`bernoulli`),
periodic spline kernels with their spectral checks (`kernels`), the
stochastic-approximation recursions and the ridge baseline (`estimator`),
closed-form excess risk with independent oracles (`risk`), the step-size
and rate theory (`theory`), and the experiment harness with its CLI
(`harness`, `cli`).
"""

from .bernoulli import (bernoulli_fourier_eval, bernoulli_numbers, bernoulli_poly,
                        bernoulli_poly_coeffs, frac)
from .errors import ConfigurationError, DivergenceError
from .estimator import (FiniteHorizon, KernelExpansion, Online, TarresYao,
                        averaged_coefficients, finite_dim_sgd, ridge_solve, sgd_run)
from .harness import (ComparisonRow, ExperimentConfig, RateFit, SweepRow,
                      compare_algorithms, fit_rate, gamma_sweep, parse_config,
                      run_replicates, sample_stream)
from .kernels import (SplineGram, eigen_check, kernel_sup_sq, spline_kernel,
                      spline_kernel_series)
from .risk import (excess_risk_closed, excess_risk_finite_dim, excess_risk_fourier,
                   excess_risk_mc, kernel_target_inner, target_norm_sq)
from .theory import (BoundParams, Regime, classify_regime, competitor_rate,
                     finite_horizon_bound, predicted_rate, source_norm_sq_truncated,
                     spectral_s_sq, step_exponent)

__version__ = "0.1.0"
