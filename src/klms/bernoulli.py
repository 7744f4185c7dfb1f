"""Bernoulli numbers and polynomials in exact rational arithmetic.

The polynomials B_k are the workhorse of the whole package: B_{2m} gives the
closed form of the periodic spline kernels, and low-order B_k serve as
regression targets on the circle. Coefficients are generated once by the
defining recurrence with ``fractions.Fraction``, so the only rounding in the
pipeline happens at evaluation time.

The 1-periodic extension of B_k has the Fourier expansion

    B_k({x}) = -2 k! * sum_{j>=1} cos(2 pi j x - k pi / 2) / (2 pi j)^k,

valid pointwise for k >= 2 (and for k = 1 away from the jump at integer x).
``bernoulli_fourier_eval`` sums this series and is used throughout the test
suite as an oracle that is independent of the polynomial coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

# B_8 is needed by the order-4 spline kernel and B_16 by its order-doubled
# companion; nothing in the package evaluates beyond that.
MAX_DEGREE = 16


def bernoulli_numbers(max_n: int) -> list[Fraction]:
    """Bernoulli numbers b_0 .. b_max_n (convention b_1 = -1/2).

    They are produced by the defining recurrence
    ``sum_{j=0}^{n} C(n+1, j) b_j = 0`` for n >= 1, with b_0 = 1.
    """
    if max_n < 0:
        raise ConfigurationError("max_n must be non-negative")
    out = [Fraction(1)]
    for n in range(1, max_n + 1):
        acc = sum(Fraction(math.comb(n + 1, j)) * out[j] for j in range(n))
        out.append(-acc / (n + 1))
    return out


@lru_cache(maxsize=None)
def bernoulli_poly_coeffs(k: int) -> tuple[Fraction, ...]:
    """Exact coefficients of B_k, ascending in degree."""
    if not 1 <= k <= MAX_DEGREE:
        raise ConfigurationError(f"degree must be in 1..{MAX_DEGREE}, got {k}")
    b = bernoulli_numbers(k)
    return tuple(Fraction(math.comb(k, j)) * b[k - j] for j in range(k + 1))


@lru_cache(maxsize=None)
def _float_coeffs(k: int) -> np.ndarray:
    return np.array([float(c) for c in bernoulli_poly_coeffs(k)])


def bernoulli_poly(k: int, x):
    """Value of the degree-k Bernoulli polynomial at x (not periodized).

    Accepts scalars or arrays; scalar input gives a plain float.
    """
    out = np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), _float_coeffs(k))
    if np.ndim(x) == 0:
        return float(out)
    return out


def frac(x):
    """Fractional part x - floor(x), always in [0, 1) and 1-periodic.

    Exact integers map to 0.0; tiny negative inputs whose fractional part
    rounds up to 1.0 are wrapped back to 0.0.
    """
    arr = np.asarray(x, dtype=float)
    r = arr - np.floor(arr)
    r = np.where(r == 1.0, 0.0, r)
    if arr.ndim == 0:
        return float(r)
    return r


def zeta_tail(s: float, J: int) -> float:
    """The tail sum_{j>J} (2 pi j)^{-s} = (2 pi)^{-s} zeta(s, J + 1) of the
    Fourier series on the circle, for s > 1."""
    # scipy.special costs ~0.35 s to import; only the Fourier oracles need it
    from scipy.special import zeta

    return (2.0 * np.pi) ** (-s) * float(zeta(s, J + 1))


def bernoulli_fourier_eval(k: int, x: float, J: int) -> float:
    """Fourier partial sum (frequencies 1..J) of the periodized B_k, with the
    slowly converging tail components added in closed form.

    For k >= 2 away from integer x the bare truncation error decays like
    J^{-k} with extra cancellation from the oscillating cosines, and nothing
    needs fixing. Two tails decay too slowly to ignore at J ~ 1e5 and are
    therefore evaluated exactly, by routes independent of the polynomial
    coefficients: at integer x every term is cos(k pi / 2) / (2 pi j)^k and
    the tail is a Hurwitz zeta value; for k = 1 the tail of the sine series
    sum sin(2 pi j x) / j (which converges like 1/(J sin pi x)) comes from
    the imaginary part of log(1 - e^{2 pi i x}).
    """
    if k < 1 or J < 1:
        raise ConfigurationError("need k >= 1 and J >= 1")
    u = frac(x)
    j = np.arange(1, J + 1, dtype=float)
    kfac = float(math.factorial(k))
    s = -2.0 * kfac * float(np.sum(np.cos(2.0 * np.pi * j * u - k * np.pi / 2.0)
                                   / (2.0 * np.pi * j) ** k))
    if u == 0.0 and k >= 2:
        phase = math.cos(k * np.pi / 2.0)
        if phase != 0.0:
            s += -2.0 * kfac * phase * zeta_tail(k, J)
    elif k == 1 and u != 0.0:
        # bare sum is -(1/pi) sum_{j<=J} sin(2 pi j u) / j, and the full sine
        # sum equals -Im log(1 - e^{2 pi i u}); add the exact tail difference
        full_im = float(np.imag(np.log(1.0 - np.exp(2j * np.pi * u))))
        partial_im = -np.pi * s
        tail_im = -full_im - partial_im
        s += -tail_im / np.pi
    return s
