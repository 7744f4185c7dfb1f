"""Periodic spline kernels on [0, 1), a linear kernel, and their Gram matrices.

The order-m spline kernel is the reproducing kernel of zero-mean 1-periodic
functions with m-th derivative in L2. It is translation invariant with the
closed form

    R_m(s, t) = (-1)^(m-1) / (2m)! * B_{2m}({s - t}),

and the equivalent Fourier form sum_j 2 cos(2 pi j (s-t)) / (2 pi j)^{2m},
which `spline_kernel_series` truncates and which the test suite uses as an
independent oracle. Under the uniform design on [0, 1) the associated
covariance operator has eigenfunctions sqrt(2) cos(2 pi i t) and
sqrt(2) sin(2 pi i t), both with eigenvalue (2 pi i)^{-2m};
`eigen_check` verifies that numerically by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

from .bernoulli import bernoulli_poly, frac
from .errors import ConfigurationError

SUPPORTED_ORDERS = (1, 2, 3, 4)

_SQRT2 = math.sqrt(2.0)


def _check_order(m: int) -> None:
    if m not in SUPPORTED_ORDERS:
        raise ConfigurationError(
            f"spline kernel order must be one of {SUPPORTED_ORDERS}, got {m!r}"
        )


def _closed_form(order: int, u):
    """(-1)^(order-1) B_{2 order}(u) / (2 order)! for u already in [0, 1).

    Valid for any order with 2*order <= 16; public entry points restrict the
    KERNEL order to SUPPORTED_ORDERS, but the order-doubled form (used for L2
    inner products of kernel sections) needs orders up to 8.
    """
    sign = 1.0 if order % 2 == 1 else -1.0
    return sign * bernoulli_poly(2 * order, u) / math.factorial(2 * order)


def spline_kernel(m: int, s, t):
    """Closed-form R_m(s, t)."""
    _check_order(m)
    return _closed_form(m, frac(np.asarray(s, float) - np.asarray(t, float)))


def spline_kernel_series(m: int, s: float, t: float, J: int) -> float:
    """Truncated Fourier form of R_m(s, t), summed over frequencies 1..J.

    At s - t integer all cosines are 1 and the slowly decaying tail is added
    exactly via the Hurwitz zeta function; elsewhere oscillation makes the
    plain truncation accurate (see `bernoulli_fourier_eval` for the same
    treatment of the target series).
    """
    if m < 1 or J < 1:
        raise ConfigurationError("need m >= 1 and J >= 1")
    u = frac(s - t)
    j = np.arange(1, J + 1, dtype=float)
    val = float(np.sum(2.0 * np.cos(2.0 * np.pi * j * u) / (2.0 * np.pi * j) ** (2 * m)))
    if u == 0.0:
        val += 2.0 * (2.0 * np.pi) ** (-2 * m) * float(_hurwitz_zeta(2 * m, J + 1))
    return val


def kernel_sup_sq(m: int) -> float:
    """sup_x K(x, x) = R_m(0, 0); the step-size scale 1/R^2 comes from here."""
    return float(spline_kernel(m, 0.0, 0.0))


@dataclass(frozen=True)
class PeriodicSplineKernel:
    """Spline kernel of smoothness order m on the circle [0, 1)."""

    m: int

    def __post_init__(self):
        _check_order(self.m)

    def __call__(self, s, t):
        return _closed_form(self.m, frac(np.asarray(s, float) - np.asarray(t, float)))

    def pairwise(self, xs: np.ndarray, x) -> np.ndarray:
        """Vector of K(xs[i], x)."""
        return _closed_form(self.m, frac(np.asarray(xs, float) - x))

    def gram(self, xs: np.ndarray) -> np.ndarray:
        """K(x_i, x_j), evaluated at {x_j - x_i}: for m >= 2 the closed form
        is symmetric only up to rounding, and this way row gram[i, :i] (what
        the recursion reads) equals pairwise(xs[:i], xs[i]) bit for bit."""
        xs = np.asarray(xs, dtype=float)
        return _closed_form(self.m, frac(xs[None, :] - xs[:, None]))

    def doubled_gram(self, xs: np.ndarray) -> np.ndarray:
        """Matrix of section inner products <K_{x_i}, K_{x_j}> in L2.

        By matching Fourier coefficients this is the order-doubled closed
        form R_{2m}(x_i, x_j); the test suite validates the identity against
        the truncated series before anything downstream relies on it.
        """
        xs = np.asarray(xs, dtype=float)
        return _closed_form(2 * self.m, frac(xs[:, None] - xs[None, :]))


@dataclass(frozen=True)
class LinearKernel:
    """K(u, v) = u . v on R^d; ordinary parametric least squares."""

    dim: int

    def __call__(self, u, v) -> float:
        return float(np.dot(u, v))

    def pairwise(self, xs: np.ndarray, x) -> np.ndarray:
        return np.asarray(xs, float) @ np.asarray(x, float)

    def gram(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return xs @ xs.T


def eigen_check(m: int, i: int, s: float, quad_points: int, sine: bool = False):
    """Quadrature check of the eigenpair (phi_i, (2 pi i)^{-2m}).

    Returns (lhs, rhs) with lhs the composite-trapezoid value of
    integral_0^1 R_m(s, t) phi_i(t) dt on quad_points subintervals and
    rhs = (2 pi i)^{-2m} phi_i(s), where phi_i is sqrt(2) cos(2 pi i .)
    or the sine analogue. The integrand is periodic, so the trapezoid
    rule converges fast despite the kink of low-order kernels.
    """
    _check_order(m)
    if i < 1 or quad_points < 1000:
        raise ConfigurationError("need i >= 1 and quad_points >= 1000")
    ts = np.linspace(0.0, 1.0, quad_points + 1)
    trig = np.sin if sine else np.cos
    phi = _SQRT2 * trig(2.0 * np.pi * i * ts)
    vals = _closed_form(m, frac(s - ts)) * phi
    lhs = float(np.trapezoid(vals, ts))
    rhs = (2.0 * np.pi * i) ** (-2 * m) * _SQRT2 * float(trig(2.0 * np.pi * i * s))
    return lhs, rhs
