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

Every truncated Fourier sum over frequencies 1..J in the package runs on
the `_FourierPlan` of J (`_fourier_plan`): with B = isqrt(J), j = qB + r
splits e^{2 pi i j x} into e^{2 pi i qB x} e^{2 pi i r x}, so about
2 sqrt(J) complex exponentials per point and one matrix product replace J
cosines per point. The plan computes both sums over points itself:
`center_sums(centers, coeffs)` yields the weighted sums S_j of the Fourier
risk oracle in `risk` one row chunk of frequencies at a time, and
`point_sums(points, k)` gives this series at each point. Both walk the
points in chunks and the (Q, B) frequency layout in chunks of rows, each
chunk at most _PHASE_ENTRIES entries, so no call holds an array of
n sqrt(J) phases. The weights (2 pi j)^{-k} are the plan's read-only
tables `weights(k)`, squared once from its table of 1 / (2 pi j)
(`_inverse_power`), with no float pow; the tables of the last two powers
read are kept. A missing power is squared straight into the table it
reuses, with no copy pass, and starts from a kept power on its
square-and-multiply chain when there is one, so every table has the bits
of a build from 1 / (2 pi j) alone. Each phase table is filled and
accumulated in place by the one path of `_power_table`. Only the last J's
plan is kept, with the workspaces these sums write into: 24 J bytes of
J-length tables (1 / (2 pi j) and the weights of two powers) and four
chunk workspaces, 3.7 MB at J = 1e5.
Repeated calls at one J allocate no J-length array once two powers are
kept: the weights of a new power are built in the space of the least
recently read. A workspace is valid until the next Fourier call, so the
package makes these calls from one thread; parallel runs use processes.
`zeta_tail` adds the tail beyond J by Euler-Maclaurin summation, so the
package needs no `scipy.special`. Every polynomial, every kernel value of
`kernels` included, is evaluated by `_horner`, so the package never loads
`numpy.polynomial`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

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


def _horner(coeffs, x, out=None) -> np.ndarray:
    """sum_i coeffs[i] x^i, coefficients ascending, by Horner's rule, written
    into `out` (an array of x's shape) when it is given: the products and
    sums of numpy's ``polyval`` in its order, so bit for bit its value at
    finite x, without loading `numpy.polynomial`. The first step multiplies
    x into `out`, so no pass fills it first; one coefficient is a constant
    fill."""
    if len(coeffs) == 1:
        out = np.empty(np.shape(x)) if out is None else out
        out.fill(coeffs[0])
        return out
    out = np.multiply(x, coeffs[-1], out=out)
    out += coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= x
        out += c
    return out


def bernoulli_poly(k: int, x):
    """Value of the degree-k Bernoulli polynomial at x (not periodized).

    Accepts scalars or arrays; scalar input gives a plain float.
    """
    out = _horner(_float_coeffs(k), np.asarray(x, dtype=float))
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


def _power_table(d: np.ndarray, count: int, axis: int = -1, out=None) -> np.ndarray:
    """d**0, ..., d**(count - 1) stacked along a new `axis`, the table's last
    or next-to-last, as running products: correctly rounded up to the
    square, within about (p - 1)/2 ulp at power p, and several times faster
    than `**`, which calls pow. Written into `out` when it is given, of the
    table's shape. Either way one path fills it: the `swapaxes` view of
    the table with the new axis last lists d's axes in order, so ones and
    then d are written into that view and the products accumulated in
    place: no copy of d into a repeated table and no axis moved, a few
    microseconds of fixed cost per call, which the one-point phase tables
    of a scalar Fourier call pay twice."""
    at = axis % (d.ndim + 1)
    if at < d.ndim - 1:
        raise ValueError("the powers go on the table's last or next-to-last axis")
    table = np.empty(d.shape[:at] + (count,) + d.shape[at:], d.dtype) if out is None else out
    view = table.swapaxes(at, -1)
    view[..., 0] = 1.0
    view[..., 1:] = d[..., None]
    return np.multiply.accumulate(table, axis=at, out=table)


def _inverse_power(inv: np.ndarray, k: int, out: np.ndarray, kept=None) -> np.ndarray:
    """inv**k, k >= 1, written into `out`: squared and multiplied along the
    bits of k, at most 2 log2 k array products, a fraction of the cost of
    one float pow. The chain of powers runs 1, then per bit after the
    leading one its double and, for a 1, one more (7: 1, 2, 3, 6, 7). It
    starts from inv, or from the latest power before k on it with a table
    in `kept` (power -> table, built on this chain, so of the same bits),
    and its first product writes into `out`, so no pass copies a table
    first. `out` may be a table of `kept`, the one the chain starts from
    included: every product is elementwise."""
    if k == 1:
        np.copyto(out, inv)
        return out
    kept = {**(kept or {}), 1: inv}
    chain = [1]
    for bit in bin(k)[3:]:
        chain += [2 * chain[-1], 2 * chain[-1] + 1] if bit == "1" else [2 * chain[-1]]
    start = max(i for i, power in enumerate(chain[:-1]) if power in kept)
    table = kept[chain[start]]
    for before, power in zip(chain[start:], chain[start + 1:]):
        np.multiply(table, table if power == 2 * before else inv, out=out)
        table = out
    return out


class _FourierPlan:
    """The (Q, B) layout of the frequencies 0..J, shared by every truncated
    Fourier sum of the package, its tables of weights, the two sums over
    points that run on it, and the workspaces they write into.

    With B = isqrt(J) and Q = J // B + 1, every j = qB + r with 0 <= q < Q
    and 0 <= r < B is one frequency, and they cover 0..J, so
    e^{2 pi i j x_n} = U[n, q] * V[n, r] with U[n, q] = e^{2 pi i qB x_n}
    and V[n, r] = e^{2 pi i r x_n} (`_phase_tables`). A sum over j of
    weights laid out as a (Q, B) array is then a matrix product with V
    followed by a sum against U. `center_sums(centers, coeffs)` yields the
    weighted sums S_j over points one row chunk of frequencies at a time,
    `point_sums(points, k)` gives the sum over j at every point with the
    weights (2 pi j)^{-k}. Both walk the points `point_chunk` at a time and
    the rows in the slices `row_chunks`, each chunk at most _PHASE_ENTRIES
    entries.

    `inverse` is the read-only (Q, B) table of 1 / (2 pi j), zero at j = 0
    and past J, and `weights(k)` the read-only table of (2 pi j)^{-k},
    squared from it once (`_inverse_power`, continuing from a kept table
    on the chain of k when there is one), since a division or a pow per
    frequency would cost a scalar `bernoulli_fourier_eval` more than all
    the rest of its work. Besides `inverse`, the tables of the last two
    powers read are kept, as a risk call reads two: the plan holds 24 J
    bytes of J-length tables, whatever the calls.

    The workspaces are made on first use and reused by every later call
    at this J: the U and V rows of one point chunk, one point chunk's
    (rows, Q) partial sums and one row chunk's complex sums. So the sums
    `center_sums` yields are a workspace, valid until the next chunk, and
    a table of `weights` is valid until the next Fourier call: the package
    runs these sums on one thread.
    """

    def __init__(self, J: int):
        b = math.isqrt(J)
        q = J // b + 1
        self.shape = (q, b)
        step = max(1, _PHASE_ENTRIES // b)
        self.row_chunks = [slice(start, min(start + step, q)) for start in range(0, q, step)]
        self.point_chunk = max(1, _PHASE_ENTRIES // (q + b))
        inv = np.zeros(q * b)
        inv[1:J + 1] = 1.0 / (2.0 * np.pi * np.arange(1, J + 1, dtype=float))
        inv.setflags(write=False)
        self.inverse = inv.reshape(q, b)
        # power -> its table, the last read last; at most two
        self._weights: dict[int, np.ndarray] = {}

    @cached_property
    def _phases(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(np.empty((self.point_chunk, size), dtype=complex) for size in self.shape)

    @cached_property
    def _partial(self) -> np.ndarray:
        return np.empty((self.point_chunk, self.shape[0]), dtype=complex)

    @cached_property
    def _rows(self) -> np.ndarray:
        # the complex sums of the largest row chunk
        return np.empty(self.row_chunks[0].stop * self.shape[1], dtype=complex)

    def weights(self, k: int) -> np.ndarray:
        """The read-only (Q, B) table of (2 pi j)^{-k}, k >= 1, 0 at j = 0
        and past J: `inverse` at k = 1, else the kept table of k, or one
        built by `_inverse_power` straight into new space or that of the
        least recently read of two, with no copy pass, from the latest
        power on the square-and-multiply chain of k that has a kept table,
        the one it replaces included (8 from 4, 7 from 6 or 3), else from
        `inverse`: bitwise the table a fresh plan would build."""
        if k == 1:
            return self.inverse
        table = self._weights.pop(k, None)
        if table is None:
            kept = dict(self._weights)
            if len(kept) < 2:
                table = np.empty(self.shape)
            else:
                table = self._weights.pop(next(iter(self._weights)))
                table.setflags(write=True)
            _inverse_power(self.inverse, k, table, kept)
            table.setflags(write=False)
        self._weights[k] = table
        return table

    def _phase_tables(self, points: np.ndarray):
        """Yields (chunk, U, V) for each slice `chunk` of at most
        `point_chunk` of the 1-D points, U and V its phase tables. Each
        table is the running powers (`_power_table`) of one complex
        exponential per point, e^{2 pi i B x_n} or e^{2 pi i x_n}: the q-th
        power adds about q ulp, no more than the rounding of the angle
        2 pi qB x_n that an exponential per entry would carry, at a fraction
        of its cost. The chunks reuse the same space."""
        (q, b), step = self.shape, self.point_chunk
        phase_q, phase_r = self._phases
        for start in range(0, points.shape[0], step):
            x = points[start:start + step]
            yield (slice(start, start + step),
                   _power_table(np.exp(2j * np.pi * (x * float(b))), q, out=phase_q[:x.shape[0]]),
                   _power_table(np.exp(2j * np.pi * x), b, out=phase_r[:x.shape[0]]))

    def center_sums(self, centers: np.ndarray, coeffs: np.ndarray):
        """Yields (rows, S) for each slice `rows` of `row_chunks`, S the
        (rows, B) sums S_j = sum_i w_i e^{2 pi i j x_i} of its frequencies,
        w = coeffs and x = centers, in the plan's row chunk workspace, so
        valid until the next chunk. Each chunk of centers scales its U by
        its weights and meets V in one product: the first chunk's is
        written into S, the others' added to it. When the centers fit one
        point chunk, its phase tables serve every row chunk; else they are
        made again for each row chunk, so that no temporary exceeds a
        chunk."""
        b = self.shape[1]

        def scaled_tables():
            for chunk, phase_q, phase_r in self._phase_tables(centers):
                yield np.multiply(phase_q, coeffs[chunk, None], out=phase_q), phase_r

        tables = list(scaled_tables()) if centers.shape[0] <= self.point_chunk else None
        for rows in self.row_chunks:
            sums = self._rows[:(rows.stop - rows.start) * b].reshape(-1, b)
            if centers.shape[0] == 0:
                sums.fill(0.0)
            for i, (phase_q, phase_r) in enumerate(scaled_tables() if tables is None else tables):
                if i == 0:
                    np.matmul(phase_q[:, rows].T, phase_r, out=sums)
                else:
                    sums += phase_q[:, rows].T @ phase_r
            yield rows, sums

    def point_sums(self, points: np.ndarray, k: int) -> np.ndarray:
        """S = sum_{j=1..J} e^{2 pi i j x} (2 pi j)^{-k} at each of the 1-D
        points x. Per point chunk, one (rows, B) @ (B, 2) product per row
        chunk of the table `weights(k)`, on the real and imaginary parts of
        each point's row of V, so that a point's sum does not depend on the
        others, fills the point's partial sums over r, which one sum
        against its row of U turns into S."""
        weights = self.weights(k)
        sums = np.empty(points.shape, dtype=complex)
        for chunk, phase_q, phase_r in self._phase_tables(points):
            pairs = phase_r.view(float).reshape(phase_r.shape + (2,))
            partial = self._partial[:phase_q.shape[0]]
            partial_pairs = partial.view(float).reshape(phase_q.shape + (2,))
            for rows in self.row_chunks:
                np.matmul(weights[rows], pairs, out=partial_pairs[:, rows])
            sums[chunk] = np.sum(np.multiply(phase_q, partial, out=partial), axis=1)
        return sums


@lru_cache(maxsize=1)
def _fourier_plan(J: int) -> _FourierPlan:
    """The `_FourierPlan` of the frequencies 0..J; only the last J's plan,
    and so its workspaces, is kept."""
    return _FourierPlan(J)


def bernoulli_fourier_eval(k: int, x, J: int):
    """Fourier partial sum (frequencies 1..J) of the periodized B_k, with the
    slowly converging tail components added in closed form.

    Accepts a scalar x (giving a float) or an array (giving an array of its
    shape); a scalar call returns exactly the matching element of an array
    call, since every point is summed by the same sequence of operations.
    The sums S = sum_j e^{2 pi i j x} (2 pi j)^{-k} are the `point_sums`
    of the `_FourierPlan` of J, against its table `weights(k)`, a point
    chunk and a row chunk of the (Q, B) layout at a time, and the phase
    e^{-i k pi / 2} is applied once to S, by quarter turns. Besides its
    points, a call writes only into the plan's workspaces and, for a power
    whose weights are not kept, one table of weights.

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
    sums = _fourier_plan(J).point_sums(u.ravel(), k).reshape(u.shape)
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
