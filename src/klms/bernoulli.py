"""Bernoulli numbers and polynomials in exact rational arithmetic.

The polynomials B_k are the workhorse of the whole package: B_{2m} gives the
closed form of the periodic spline kernels, and low-order B_k serve as
regression targets on the circle. Coefficients are generated once by the
defining recurrence with ``fractions.Fraction``, so the only rounding in the
pipeline happens at evaluation time.

The 1-periodic extension of B_k has the Fourier expansion

    B_k({x}) = -2 k! * sum_{j>=1} cos(2 pi j x - k pi / 2) / (2 pi j)^k,

valid pointwise for k >= 2 (and for k = 1 away from the jump at integer x).
``bernoulli_fourier_eval`` sums this series, at a point or over an array of
points, and is used throughout the test suite as an oracle that is
independent of the polynomial coefficients.

Every truncated Fourier sum over frequencies 1..J in the package (this
series and the Fourier risk oracle in `risk`) factors its phases through
`_phase_tables`: with B = isqrt(J), j = qB + r splits e^{2 pi i j x} into
e^{2 pi i qB x} e^{2 pi i r x}, so about 2 sqrt(J) complex exponentials per
point and one matrix product replace J cosines per point. Their weights
(2 pi j)^{-k} come from one cached array of 1 / (2 pi j), kept for the last
J only, by `_inverse_powers`, with no float pow over the J frequencies.
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


# b_0, b_1, ... as far as any call of `bernoulli_numbers` has asked
_NUMBERS = [Fraction(1)]


def bernoulli_numbers(max_n: int) -> list[Fraction]:
    """Bernoulli numbers b_0 .. b_max_n (convention b_1 = -1/2), as a new list.

    They are produced by the defining recurrence
    ``sum_{j=0}^{n} C(n+1, j) b_j = 0`` for n >= 1, with b_0 = 1, run once
    per process: the exact values are kept and extended as needed.
    """
    if max_n < 0:
        raise ConfigurationError("max_n must be non-negative")
    for n in range(len(_NUMBERS), max_n + 1):
        acc = sum(Fraction(math.comb(n + 1, j)) * _NUMBERS[j] for j in range(n))
        _NUMBERS.append(-acc / (n + 1))
    return _NUMBERS[:max_n + 1]


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


def _table_shape(J: int) -> tuple[int, int]:
    """(Q, B) of the phase tables for the frequencies 0..J: B = isqrt(J),
    Q = J // B + 1."""
    b = math.isqrt(J)
    return J // b + 1, b


@lru_cache(maxsize=1)
def _inverse_frequencies(J: int) -> np.ndarray:
    """1 / (2 pi j) at index j = 1..J of a read-only array laid out as the
    (Q, B) frequencies j = qB + r of `_phase_tables`, zero at j = 0 and past
    J. Only the last J's array is kept, whatever the powers asked of it."""
    q, b = _table_shape(J)
    inv = np.zeros(q * b)
    inv[1:J + 1] = 1.0 / (2.0 * np.pi * np.arange(1, J + 1, dtype=float))
    inv.setflags(write=False)
    return inv


def _inverse_powers(k: int, J: int) -> np.ndarray:
    """(2 pi j)^{-k}, k >= 1, in the layout of `_inverse_frequencies(J)`:
    squared and multiplied along the bits of k, at most 2 log2 k array
    products, a fraction of the cost of one float pow over the array."""
    inv = _inverse_frequencies(J)
    out = inv.copy()
    for bit in bin(k)[3:]:
        out *= out
        if bit == "1":
            out *= inv
    return out


def _phase_tables(x: np.ndarray, J: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase tables (U, V) of the 1-D points x for the frequencies 0..J.

    With B = isqrt(J) and Q = J // B + 1, every j = qB + r with 0 <= q < Q
    and 0 <= r < B is one frequency, and they cover 0..J, so
    e^{2 pi i j x_n} = U[n, q] * V[n, r] with U[n, q] = e^{2 pi i qB x_n}
    (n x Q) and V[n, r] = e^{2 pi i r x_n} (n x B). A sum over j of weights
    laid out as a (Q, B) array is then a matrix product with V followed by
    a sum against U.
    """
    q, b = _table_shape(J)
    u = np.exp(2j * np.pi * np.multiply.outer(x, np.arange(q) * float(b)))
    v = np.exp(2j * np.pi * np.multiply.outer(x, np.arange(b, dtype=float)))
    return u, v


def bernoulli_fourier_eval(k: int, x, J: int):
    """Fourier partial sum (frequencies 1..J) of the periodized B_k, with the
    slowly converging tail components added in closed form.

    Accepts a scalar x (giving a float) or an array (giving an array of its
    shape); a scalar call returns exactly the matching element of an array
    call, since every point is summed by the same sequence of operations.
    The weights (2 pi j)^{-k} are laid out as a (Q, B) array and summed
    through `_phase_tables`, one matrix product per point, and the phase
    e^{-i k pi / 2} is applied once to the sum. An array call holds a few
    complex arrays of sqrt(J) entries per point.

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
    u = np.asarray(frac(x))
    n = u.size
    phase_q, phase_r = _phase_tables(u.ravel(), J)
    q, b = phase_q.shape[1], phase_r.shape[1]
    # one (Q, B) @ (B, 2) product per point, on the real and imaginary parts
    # of its row of V, so a point's sum does not depend on the others
    partial = _inverse_powers(k, J).reshape(q, b) @ phase_r.view(float).reshape(n, b, 2)
    sums = np.sum(phase_q * partial.view(complex).reshape(n, q), axis=1).reshape(u.shape)
    # Re(e^{-i k pi / 2} S), exactly
    rotated = (sums.real, sums.imag, -sums.real, -sums.imag)[k % 4]
    kfac = float(math.factorial(k))
    s = -2.0 * kfac * rotated
    if k >= 2:
        phase = math.cos(k * np.pi / 2.0)
        if phase != 0.0 and np.any(u == 0.0):
            s = np.where(u == 0.0, s + -2.0 * kfac * phase * zeta_tail(k, J), s)
    elif np.any(u != 0.0):
        # bare sum is -(1/pi) sum_{j<=J} sin(2 pi j u) / j, and the full sine
        # sum equals -Im log(1 - e^{2 pi i u}); add the exact tail difference
        # (u = 1/2 stands in at u = 0, where the log diverges and no tail is
        # added)
        full_im = np.imag(np.log(1.0 - np.exp(2j * np.pi * np.where(u != 0.0, u, 0.5))))
        partial_im = -np.pi * s
        tail_im = -full_im - partial_im
        s = np.where(u != 0.0, s + -tail_im / np.pi, s)
    return float(s) if s.ndim == 0 else s
