"""Exact excess-risk evaluation on the circle testbed.

For the uniform design, the excess prediction error of any f is the squared
L2 distance to the regression target B_k. For a kernel expansion
f = sum_i w_i K_{x_i} this distance has a closed form built from three
ingredients:

  * <K_x, K_y>   = R_{2m}(x, y)                       (order doubling),
  * <K_x, B_k>   = (-1)^m k!/(2m+k)! B_{2m+k}({x})    (`kernel_target_inner`),
  * ||B_k||^2    = exact rational integral            (`target_norm_sq`).

The first gives ||f||^2 = w'Dw with D the order-doubled Gram matrix, which
`kernels.DoubledForm` evaluates exactly from per-bin moments of w without
building D; `closed_form_risk` is the one closed form, for single
expansions, prefixes of a stream and stacks of coefficient vectors.

None of these formulas is taken on faith: the module ships a truncated
Fourier evaluator and a quadrature evaluator of the same quantity, and the
test suite requires three-way agreement before the experiment harness is
allowed to rely on the closed form. The Fourier evaluator sums its
frequencies 1..J through the sqrt(J) phase tables of
`bernoulli._phase_tables` (j = qB + r, B = isqrt(J): one matrix product
instead of J x n cosines and sines) and adds the target's tail beyond its
last frequency through `bernoulli.zeta_tail`, so this module imports no
scipy. The quadrature evaluator builds no kernel matrix: between two
consecutive sorted centers the expansion is one polynomial of degree 2m,
so `kernels._spline_sum` gives it exactly on the whole trapezoid grid from
prefix and suffix sums over the centers, O(n log n + grid m) work in
O(n + grid) memory. An expansion without centers is the zero function in
all three evaluators, with no special case.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .bernoulli import (_inverse_powers, _phase_tables, bernoulli_poly, bernoulli_poly_coeffs,
                        frac, zeta_tail)
from .errors import ConfigurationError
from .kernels import DoubledForm, _check_order, _spline_sum

_SQRT2 = math.sqrt(2.0)


def target_norm_sq(k: int) -> float:
    """integral_0^1 B_k(x)^2 dx, integrated exactly in rational arithmetic."""
    c = bernoulli_poly_coeffs(k)
    total = Fraction(0)
    for i, ci in enumerate(c):
        for j, cj in enumerate(c):
            total += ci * cj / Fraction(i + j + 1)
    return float(total)


def kernel_target_inner(m: int, k: int, x):
    """L2 inner product <K_x, B_k> = (-1)^m k!/(2m+k)! B_{2m+k}({x}).

    Derived by matching the cosine expansions of the kernel section and the
    target; validated against the truncated-Fourier inner product in the
    test suite. Vectorized over x.
    """
    _check_order(m)
    scale = (-1.0) ** m * math.factorial(k) / math.factorial(2 * m + k)
    return scale * bernoulli_poly(2 * m + k, frac(x))


def closed_form_risk(coeffs, form: DoubledForm, inner: np.ndarray, norm_sq: float):
    """w'Dw - 2 w'i + ||B_k||^2 for coefficients w on the first n centers.

    `form` is the `kernels.DoubledForm` of a stream (w'Dw, D the
    order-doubled Gram matrix) and i the vector of target inner products of
    that stream; both may cover a longer stream than w, in which case only
    its first n = w.shape[-1] points are read, so one cached full-stream
    pair serves every prefix. ``coeffs`` is one coefficient vector (giving
    a scalar) or a (p, n) stack of them (giving p risks). A row's risk is
    bitwise its risk computed alone: w'i is summed row by row, as
    `DoubledForm.quad` keeps rows apart.
    """
    w = np.asarray(coeffs, dtype=float)
    n = w.shape[-1]
    return form.quad(w) - 2.0 * (w * inner[:n]).sum(axis=-1) + norm_sq


def excess_risk_closed(expansion, m: int, k: int) -> float:
    """Closed-form squared L2 distance between the expansion and B_k.

    Builds the expansion's `DoubledForm`: about n^1.5 / 2 kernel values for
    n spread-out centers (n^2 when they crowd into one bin), against n^2 for
    the dense order-doubled Gram matrix. Callers evaluating many expansions
    over the same centers call `closed_form_risk` with the cached form and
    target inner products instead.
    """
    xs = expansion.centers
    return float(closed_form_risk(expansion.coeffs, DoubledForm(m, xs),
                                  kernel_target_inner(m, k, xs), target_norm_sq(k)))


def excess_risk_fourier(expansion, m: int, k: int, J: int,
                        include_target_tail: bool = True) -> float:
    """Independent Fourier oracle for the excess risk.

    Sums (A_j - T_j^c)^2 + (B_j - T_j^s)^2 over frequencies 1..J, where
    (A_j, B_j) are the expansion's coordinates on sqrt(2) cos(2 pi j .) and
    sqrt(2) sin(2 pi j .), each center contributing (2 pi j)^{-2m} times its
    trig values, and (T_j^c, T_j^s) are the target's coordinates. The
    center sums sum_i w_i e^{2 pi i j x_i} come from the phase tables of
    `bernoulli._phase_tables`: about 2 sqrt(J) exponentials per center and
    one matrix product, with no J x n array. By default
    the target's coordinate tail beyond J (a zeta value) is added as well,
    since for k = 1 it decays too slowly to ignore; the expansion's own tail
    is negligible at the orders handled here. With
    ``include_target_tail=False`` the value is the bare partial sum, which is
    non-decreasing in J.
    """
    _check_order(m)
    if k < 1 or J < 1:
        raise ConfigurationError("need k >= 1 and J >= 1")
    kfac = float(math.factorial(k))
    target = _inverse_powers(k, J)[1:J + 1]
    t_cos = (-_SQRT2 * kfac * math.cos(k * np.pi / 2.0)) * target
    t_sin = (-_SQRT2 * kfac * math.sin(k * np.pi / 2.0)) * target
    # S_j = sum_i w_i e^{2 pi i j x_i} for j = 0..QB-1, one (Q, B) product
    phase_q, phase_r = _phase_tables(expansion.centers, J)
    sums = ((phase_q * expansion.coeffs[:, None]).T @ phase_r).ravel()[1:J + 1]
    sect = _inverse_powers(2 * m, J)[1:J + 1]
    a = _SQRT2 * sect * sums.real
    b = _SQRT2 * sect * sums.imag
    total = float(np.sum((a - t_cos) ** 2 + (b - t_sin) ** 2))
    if include_target_tail:
        total += 2.0 * kfac**2 * zeta_tail(2 * k, J)
    return total


def excess_risk_mc(expansion, m: int, k: int, grid_size: int) -> float:
    """Quadrature oracle: trapezoid rule for integral (f - B_k)^2 on [0, 1].

    The grid has grid_size subintervals. The target is evaluated as a plain
    polynomial on [0, 1] (not periodized), so the endpoint jump of the k = 1
    target is integrated correctly; the expansion itself is periodic. The
    expansion is evaluated on the grid as a piecewise polynomial by
    `kernels._spline_sum`, with no centers x grid kernel values.
    """
    _check_order(m)
    if grid_size < 1000:
        raise ConfigurationError("grid_size must be at least 1000")
    ts = np.linspace(0.0, 1.0, grid_size + 1)
    diff = _spline_sum(m, expansion.centers, expansion.coeffs, ts)
    diff -= bernoulli_poly(k, ts)
    return float(np.trapezoid(diff * diff, ts))


def excess_risk_finite_dim(theta, theta_star, covariance) -> float:
    """(theta - theta*)' Sigma (theta - theta*) for the linear-kernel case."""
    theta = np.asarray(theta, dtype=float)
    theta_star = np.asarray(theta_star, dtype=float)
    cov = np.asarray(covariance, dtype=float)
    if theta.shape != theta_star.shape or cov.shape != (theta.shape[0], theta.shape[0]):
        raise ConfigurationError("dimension mismatch")
    d = theta - theta_star
    return float(d @ cov @ d)
