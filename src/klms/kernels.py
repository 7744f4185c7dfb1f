"""Periodic spline kernels on [0, 1) and their Gram matrices.

The order-m spline kernel is the reproducing kernel of zero-mean 1-periodic
functions with m-th derivative in L2. It is translation invariant with the
closed form

    R_m(s, t) = (-1)^(m-1) / (2m)! * B_{2m}({s - t}),

and the equivalent Fourier form sum_j 2 cos(2 pi j (s-t)) / (2 pi j)^{2m},
the B_{2m} series of `bernoulli.bernoulli_fourier_eval` with the same scale.
`spline_kernel_series` truncates it, over arrays of points as well, and the
test suite uses it as an independent oracle. Under the uniform design on
[0, 1) the associated covariance operator has eigenfunctions
sqrt(2) cos(2 pi i t) and sqrt(2) sin(2 pi i t), both with eigenvalue
(2 pi i)^{-2m}; `eigen_check` verifies that numerically by quadrature.

The closed form is evaluated without a polynomial in u = {s - t}. B_{2m} is
symmetric about 1/2, so it is a degree-m polynomial in w = u(1 - u)
(B_2 = 1/6 - w, B_4 = w^2 - 1/30), and w = |d|(1 - |d|) for the difference
d in (-1, 1) of two points reduced into [0, 1) by `frac`. The coefficients in
w are derived once per order in exact rational arithmetic (`_w_coeffs`), and
every kernel value in the package, Gram matrices included, is one Horner pass
in w (`_spline_w`). A Gram matrix is built in row blocks that stay in cache,
and one block of w serves every order asked for (`_spline_grams`): the Gram
and order-doubled Gram matrices of a stream share it. |d| makes every Gram
matrix exactly symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bernoulli import bernoulli_fourier_eval, bernoulli_poly_coeffs, frac
from .errors import ConfigurationError

SUPPORTED_ORDERS = (1, 2, 3, 4)

_SQRT2 = math.sqrt(2.0)

# entries of w per Gram row block: 512 KB, small enough to stay in cache
# through the Horner passes of every order
_BLOCK_ENTRIES = 1 << 16


def _check_order(m: int) -> None:
    if m not in SUPPORTED_ORDERS:
        raise ConfigurationError(
            f"spline kernel order must be one of {SUPPORTED_ORDERS}, got {m!r}"
        )


@lru_cache(maxsize=None)
def _w_coeffs(order: int) -> tuple[float, ...]:
    """Coefficients, highest degree first, of the degree-`order` polynomial P
    with P(u(1 - u)) = (-1)^(order-1) B_{2 order}(u) / (2 order)!.

    B_{2 order}(1/2 + v) is even in v, and v^2 = 1/4 - w; both substitutions
    are done in exact rational arithmetic. Valid for 2*order <= 16: public
    entry points restrict the KERNEL order to SUPPORTED_ORDERS, but the
    order-doubled form (used for L2 inner products of kernel sections)
    needs orders up to 8.
    """
    b = bernoulli_poly_coeffs(2 * order)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    even = [sum(b[j] * math.comb(j, 2 * i) * half ** (j - 2 * i)
                for j in range(2 * i, 2 * order + 1)) for i in range(order + 1)]
    scale = Fraction((-1) ** (order - 1), math.factorial(2 * order))
    poly = [scale * sum(even[i] * math.comb(i, l) * quarter ** (i - l) * (-1) ** l
                        for i in range(l, order + 1)) for l in range(order + 1)]
    return tuple(float(c) for c in reversed(poly))


def _spline_w(order: int, w, out=None):
    """R_order at the kernel arguments whose w = u(1 - u) is given: Horner's
    rule in w, written into `out` (an array of w's shape) when given."""
    c = _w_coeffs(order)
    out = np.multiply(w, c[0], out=out)
    out += c[1]
    for ck in c[2:]:
        out *= w
        out += ck
    return out


def _circle_w(d: np.ndarray) -> np.ndarray:
    """w = |d|(1 - |d|) in place over the differences d in (-1, 1) of two
    points reduced into [0, 1) by `frac`."""
    np.abs(d, out=d)
    d *= 1.0 - d
    return d


def _kernel_values(order: int, s, t):
    """R_order(s, t), broadcast over s and t; a float for scalar arguments."""
    d = np.asarray(frac(s) - frac(t))
    out = _spline_w(order, _circle_w(d))
    return float(out) if np.ndim(out) == 0 else out


def _spline_grams(orders, xs) -> list[np.ndarray]:
    """The matrix R_order(x_i, x_j) for each order in `orders`, built block of
    rows by block of rows from one w per block, which every order reads."""
    xs = frac(xs)
    n = xs.shape[0]
    grams = [np.empty((n, n)) for _ in orders]
    rows = max(1, _BLOCK_ENTRIES // max(n, 1))
    for i in range(0, n, rows):
        w = _circle_w(np.subtract.outer(xs[i:i + rows], xs))
        for order, gram in zip(orders, grams):
            _spline_w(order, w, out=gram[i:i + rows])
    return grams


def spline_kernel(m: int, s, t):
    """Closed-form R_m(s, t)."""
    _check_order(m)
    return _kernel_values(m, s, t)


def spline_kernel_series(m: int, s, t, J: int):
    """Truncated Fourier form of R_m(s, t), summed over frequencies 1..J:
    the B_{2m} series of `bernoulli_fourier_eval` at s - t, scaled by
    (-1)^(m-1) / (2m)!, with its exact tail at integer s - t. Broadcast over
    array s and t; a float for scalar arguments."""
    if m < 1 or J < 1:
        raise ConfigurationError("need m >= 1 and J >= 1")
    scale = (-1) ** (m - 1) / math.factorial(2 * m)
    return scale * bernoulli_fourier_eval(2 * m, s - t, J)


def kernel_sup_sq(m: int) -> float:
    """sup_x K(x, x) = R_m(0, 0); the step-size scale 1/R^2 comes from here."""
    return float(spline_kernel(m, 0.0, 0.0))


@dataclass(frozen=True)
class PeriodicSplineKernel:
    """Spline kernel of smoothness order m on the circle [0, 1)."""

    m: int

    def __post_init__(self):
        _check_order(self.m)

    def gram(self, xs: np.ndarray) -> np.ndarray:
        """Matrix K(x_i, x_j), the input of every solver in `estimator`; row
        gram[i, :i] (what the recursion reads) equals
        spline_kernel(m, xs[:i], xs[i]) bit for bit."""
        return _spline_grams((self.m,), xs)[0]

    def doubled_gram(self, xs: np.ndarray) -> np.ndarray:
        """Matrix of section inner products <K_{x_i}, K_{x_j}> in L2.

        By matching Fourier coefficients this is the order-doubled closed
        form R_{2m}(x_i, x_j); the test suite validates the identity against
        the truncated series before anything downstream relies on it.
        """
        return _spline_grams((2 * self.m,), xs)[0]


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
    vals = _kernel_values(m, s, ts) * phi
    lhs = float(np.trapezoid(vals, ts))
    rhs = (2.0 * np.pi * i) ** (-2 * m) * _SQRT2 * float(trig(2.0 * np.pi * i * s))
    return lhs, rhs
