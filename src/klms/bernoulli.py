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
point and one matrix product replace J cosines per point. Both walk the
points in chunks and the (Q, B) frequency layout in chunks of rows
(`_frequency_rows`), each chunk at most _PHASE_ENTRIES entries, so no call
holds an array of n sqrt(J) phases or a J-length copy of weights: a row
chunk's weights (2 pi j)^{-k} are squared from the rows of one cached table
of 1 / (2 pi j), kept for the last J only (`_inverse_power`), with no float
pow. `zeta_tail` adds the tail beyond J by Euler-Maclaurin summation, so
the package needs no `scipy.special`.
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


# frequencies per chunk of the Fourier sums: points x (Q + B) phases, or
# rows x B weights of the (Q, B) layout; 512 KB of complex phases
_PHASE_ENTRIES = 1 << 15

# Euler-Maclaurin corrections of `zeta_tail`, and the argument from which
# they apply: at a >= s + 30 the first omitted one is below 1e-17 of the sum
_EM_TERMS = 8
_EM_START = 30


@lru_cache(maxsize=1)
def _em_coeffs() -> tuple[float, ...]:
    """B_2k / (2k)!, k = 1.._EM_TERMS, each rounded once from the exact
    Bernoulli numbers."""
    b = bernoulli_numbers(2 * _EM_TERMS)
    return tuple(float(b[2 * k] / math.factorial(2 * k)) for k in range(1, _EM_TERMS + 1))


def zeta_tail(s: float, J: int) -> float:
    """The tail sum_{j>J} (2 pi j)^{-s} = (2 pi)^{-s} zeta(s, J + 1) of the
    Fourier series on the circle, for s > 1.

    The terms j^{-s} are summed directly until j reaches s + _EM_START; the
    rest is the Euler-Maclaurin sum at that a: the integral
    a^{1-s} / (s - 1), the half term a^{-s} / 2 and _EM_TERMS corrections
    B_2k / (2k)! s (s + 1) ... (s + 2k - 2) a^{-s-2k+1}. All of them are
    added by `math.fsum`, so the result is within a few ulp of the exact
    tail."""
    s = float(s)
    a = max(J + 1, math.ceil(s + _EM_START))
    terms = [float(j) ** -s for j in range(J + 1, a)]
    a = float(a)
    power = a ** -s
    terms += [a ** (1.0 - s) / (s - 1.0), 0.5 * power]
    rising, power, inv_sq = s, power / a, 1.0 / (a * a)
    for k, c in enumerate(_em_coeffs(), start=1):
        terms.append(c * rising * power)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        power *= inv_sq
    return (2.0 * math.pi) ** -s * math.fsum(terms)


def _table_shape(J: int) -> tuple[int, int]:
    """(Q, B) of the phase tables for the frequencies 0..J: B = isqrt(J),
    Q = J // B + 1."""
    b = math.isqrt(J)
    return J // b + 1, b


def _row_chunks(J: int) -> list[slice]:
    """The Q rows of the (Q, B) layout of `_phase_tables` in slices of at
    most _PHASE_ENTRIES frequencies."""
    q, b = _table_shape(J)
    step = max(1, _PHASE_ENTRIES // b)
    return [slice(start, min(start + step, q)) for start in range(0, q, step)]


@lru_cache(maxsize=1)
def _inverse_frequencies(J: int) -> np.ndarray:
    """1 / (2 pi j) at the frequencies j = qB + r of the (Q, B) layout of
    `_phase_tables`, zero at j = 0 and past J, read-only. Only the last J's
    table is kept: the Fourier sums read their weights from it a row chunk
    at a time, since a division per frequency would cost a scalar
    `bernoulli_fourier_eval` more than all the rest of its work."""
    q, b = _table_shape(J)
    inv = np.zeros(q * b)
    inv[1:J + 1] = 1.0 / (2.0 * np.pi * np.arange(1, J + 1, dtype=float))
    inv.setflags(write=False)
    return inv.reshape(q, b)


def _frequency_rows(J: int, *powers: int):
    """Yields (rows, w_1, ...) for each slice `rows` of `_row_chunks(J)`, w_i
    the (rows, B) weights (2 pi j)^{-p_i} of its frequencies for each of the
    given powers, 0 at j = 0 and past J. The chunks reuse the same arrays,
    so a chunk's weights are valid until the next one."""
    inv = _inverse_frequencies(J)
    chunks = _row_chunks(J)
    weights = [np.empty((chunks[0].stop, inv.shape[1])) for _ in powers]
    for rows in chunks:
        size = rows.stop - rows.start
        yield (rows, *(_inverse_power(inv[rows], k, w[:size]) for k, w in zip(powers, weights)))


def _inverse_power(inv: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """inv**k, k >= 1, written into `out`: squared and multiplied along the
    bits of k, at most 2 log2 k array products, a fraction of the cost of
    one float pow."""
    np.copyto(out, inv)
    for bit in bin(k)[3:]:
        out *= out
        if bit == "1":
            out *= inv
    return out


def _point_chunk(J: int) -> int:
    """Points per chunk of phase tables for the frequencies 0..J."""
    return max(1, _PHASE_ENTRIES // sum(_table_shape(J)))


def _power_table(d: np.ndarray, count: int, axis: int = -1) -> np.ndarray:
    """d**0, ..., d**(count - 1) stacked along a new `axis`, as running
    products: correctly rounded up to the square, within about (p - 1)/2
    ulp at power p, and several times faster than `**`, which calls pow."""
    table = np.repeat(np.expand_dims(d, axis), count, axis=axis)
    np.moveaxis(table, axis, 0)[0] = 1.0
    return np.multiply.accumulate(table, axis=axis, out=table)


def _phase_tables(x: np.ndarray, J: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase tables (U, V) of the 1-D points x for the frequencies 0..J.

    With B = isqrt(J) and Q = J // B + 1, every j = qB + r with 0 <= q < Q
    and 0 <= r < B is one frequency, and they cover 0..J, so
    e^{2 pi i j x_n} = U[n, q] * V[n, r] with U[n, q] = e^{2 pi i qB x_n}
    (n x Q) and V[n, r] = e^{2 pi i r x_n} (n x B). A sum over j of weights
    laid out as a (Q, B) array is then a matrix product with V followed by
    a sum against U. Each table is the running powers (`_power_table`) of
    one complex exponential per point, e^{2 pi i B x_n} or e^{2 pi i x_n}:
    the q-th power adds about q ulp, no more than the rounding of the angle
    2 pi qB x_n that an exponential per entry would carry, at a fraction of
    its cost.
    """
    q, b = _table_shape(J)
    return (_power_table(np.exp(2j * np.pi * (x * float(b))), q),
            _power_table(np.exp(2j * np.pi * x), b))


def bernoulli_fourier_eval(k: int, x, J: int):
    """Fourier partial sum (frequencies 1..J) of the periodized B_k, with the
    slowly converging tail components added in closed form.

    Accepts a scalar x (giving a float) or an array (giving an array of its
    shape); a scalar call returns exactly the matching element of an array
    call, since every point is summed by the same sequence of operations.
    The points go through `_phase_tables` in chunks of `_point_chunk(J)`,
    and each chunk meets the weights (2 pi j)^{-k} one row chunk of the
    (Q, B) layout at a time (`_frequency_rows`): one matrix product per
    point and row chunk fills that point's partial sums over r, which one
    sum against its row of U turns into S. The phase e^{-i k pi / 2} is
    applied once to S, by quarter turns. Besides its points, a call holds
    O(_PHASE_ENTRIES) phases and weights.

    For k >= 2 away from integer x the bare truncation error decays like
    J^{-k} with extra cancellation from the oscillating cosines, and nothing
    needs fixing. Two tails decay too slowly to ignore at J ~ 1e5 and are
    therefore evaluated exactly, by routes independent of the polynomial
    coefficients: at integer x every term is cos(k pi / 2) / (2 pi j)^k and
    the tail is a Hurwitz zeta value (none for odd k, whose cosine is 0);
    for k = 1 the tail of the sine series sum sin(2 pi j x) / j (which
    converges like 1/(J sin pi x)) comes from the imaginary part of
    log(1 - e^{2 pi i x}).
    """
    if k < 1 or J < 1:
        raise ConfigurationError("need k >= 1 and J >= 1")
    u = np.asarray(frac(x))
    points = u.ravel()
    sums = np.empty(points.shape, dtype=complex)
    step = _point_chunk(J)
    for start in range(0, points.size, step):
        chunk = slice(start, start + step)
        phase_q, phase_r = _phase_tables(points[chunk], J)
        # one (rows, B) @ (B, 2) product per point and row chunk, on the real
        # and imaginary parts of its row of V, so a point's sum does not
        # depend on the others
        pairs = phase_r.view(float).reshape(phase_r.shape + (2,))
        partial = np.empty(phase_q.shape, dtype=complex)
        partial_pairs = partial.view(float).reshape(phase_q.shape + (2,))
        for rows, weights in _frequency_rows(J, k):
            np.matmul(weights, pairs, out=partial_pairs[:, rows])
        sums[chunk] = np.sum(phase_q * partial, axis=1)
    sums = sums.reshape(u.shape)
    # Re(e^{-i k pi / 2} S), exactly
    rotated = (sums.real, sums.imag, -sums.real, -sums.imag)[k % 4]
    kfac = float(math.factorial(k))
    s = -2.0 * kfac * rotated
    if k >= 2:
        phase = (1, 0, -1, 0)[k % 4]
        if phase and np.any(u == 0.0):
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
