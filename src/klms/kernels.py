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
in w (`_spline_w`). Every Gram entry comes from `_gram_entries`, which fills
row blocks of w that stay in cache. The runs read `SplineGram`, a lazy Gram
matrix that stores only the points and computes the strips of rows the
recursion asks for, so no run holds an (n, n) array; `gram_matrix` builds
the same entries densely, for `ridge_solve` and the test oracles, and |d|
makes it exactly symmetric.

The order-doubled Gram matrix D_ij = R_2m(x_i, x_j) of a stream is never
built outside the tests, where `gram_matrix(2 * m, xs)` is the dense oracle:
`DoubledForm` gives the quadratic form w'Dw exactly from per-bin moments of
w, as R_2m is a polynomial in {s - t}, and dense blocks of the pairs inside
one bin.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bernoulli import bernoulli_fourier_eval, bernoulli_poly_coeffs, frac
from .errors import ConfigurationError

SUPPORTED_ORDERS = (1, 2, 3, 4)

_SQRT2 = math.sqrt(2.0)

# entries of w per Gram row block: 512 KB, small enough to stay in cache
# through the Horner pass
_BLOCK_ENTRIES = 1 << 16

# coefficient vectors per product in DoubledForm.quad
_ROW_BLOCK = 32


def _check_order(m: int) -> None:
    if m not in SUPPORTED_ORDERS:
        raise ConfigurationError(
            f"spline kernel order must be one of {SUPPORTED_ORDERS}, got {m!r}"
        )


@lru_cache(maxsize=None)
def _w_coeffs(order: int) -> tuple[float, ...]:
    """`_w_coeffs_exact`, each rounded once to a float."""
    return tuple(float(c) for c in _w_coeffs_exact(order))


@lru_cache(maxsize=None)
def _spline_poly(order: int) -> tuple[Fraction, ...]:
    """Exact ascending coefficients of P with P({s - t}) = R_order(s, t), order
    1..8: B_{2 order} times (-1)^(order-1) / (2 order)!, the last (B is monic)."""
    scale = Fraction((-1) ** (order - 1), math.factorial(2 * order))
    return tuple(scale * c for c in bernoulli_poly_coeffs(2 * order))


@lru_cache(maxsize=None)
def _w_coeffs_exact(order: int) -> tuple[Fraction, ...]:
    """Coefficients, highest degree first, of the degree-`order` polynomial
    Q with Q(u(1 - u)) = P(u), P the polynomial of `_spline_poly(order)`.

    B_{2 order}(1/2 + v) is even in v, and v^2 = 1/4 - w; both substitutions
    are done in exact rational arithmetic."""
    b = _spline_poly(order)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    even = [sum(b[j] * math.comb(j, 2 * i) * half ** (j - 2 * i)
                for j in range(2 * i, 2 * order + 1)) for i in range(order + 1)]
    poly = [sum(even[i] * math.comb(i, l) * quarter ** (i - l) * (-1) ** l
                for i in range(l, order + 1)) for l in range(order + 1)]
    return tuple(reversed(poly))


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


@lru_cache(maxsize=16)
def _far_field_blocks(order: int, bins: int) -> np.ndarray:
    """The (bins, L, L) blocks, L = 2 order + 1, of the far-field form of
    `DoubledForm`: block s holds P^(p+q)(s / bins) (-1)^q / (p! q!) at
    (p, q), P the polynomial of `_spline_poly(order)`, and block 0 is zero.
    s / bins = frac(c_b' - c_b) for two bins s apart is exact, so every
    entry is computed in rational arithmetic and rounded once."""
    deg = 2 * order
    poly = _spline_poly(order)
    # ascending coefficients of P^(s), s = 0..deg
    derivs = [[poly[k + s] * math.perm(k + s, s) for k in range(deg + 1 - s)]
              for s in range(deg + 1)]
    weights = [[Fraction((-1) ** q, math.factorial(p) * math.factorial(q))
                for q in range(deg + 1 - p)] for p in range(deg + 1)]
    blocks = np.zeros((bins, deg + 1, deg + 1))
    for shift in range(1, bins):
        u = Fraction(shift, bins)
        at = []
        for coeffs in derivs:
            value = Fraction(0)
            for c in reversed(coeffs):
                value = value * u + c
            at.append(value)
        for p, row in enumerate(weights):
            blocks[shift, p, :len(row)] = [float(at[p + q] * f) for q, f in enumerate(row)]
    blocks.setflags(write=False)
    return blocks


def _check_gram_order(order: int) -> None:
    if order not in range(1, 2 * max(SUPPORTED_ORDERS) + 1):
        raise ConfigurationError(
            f"Gram matrix order must lie in 1..{2 * max(SUPPORTED_ORDERS)}, got {order!r}")


def _gram_entries(order: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (len(rows), len(cols)) matrix R_order(rows[i], cols[j]) of points
    already reduced by `frac`, filled block of rows by block of rows so that
    each block of w stays in cache: the one source of Gram entries."""
    out = np.empty((rows.shape[0], cols.shape[0]))
    step = max(1, _BLOCK_ENTRIES // max(cols.shape[0], 1))
    for i in range(0, rows.shape[0], step):
        _spline_w(order, _circle_w(np.subtract.outer(rows[i:i + step], cols)),
                  out=out[i:i + step])
    return out


def gram_matrix(order: int, xs) -> np.ndarray:
    """The dense matrix R_order(x_i, x_j) of the points xs: the input of
    `ridge_solve`, the dense oracle of `SplineGram` in the tests and, at
    twice a supported order, of `DoubledForm`. Row gram[i, :i] equals
    spline_kernel(order, xs[:i], xs[i]) bit for bit."""
    _check_gram_order(order)
    xs = frac(xs)
    return _gram_entries(order, xs, xs)


class SplineGram:
    """The Gram matrix R_order(x_i, x_j) of the points xs, never stored:
    ``gram[rows, cols]`` computes just those entries, bitwise the entries of
    `gram_matrix(order, xs)`. The recursion reads it one strip of rows at a
    time. Rows and columns are indexed independently (a slice, an integer
    or an index array each, as with `np.ix_`), so ``gram[:, :]`` is the
    whole matrix."""

    def __init__(self, order: int, xs):
        _check_gram_order(order)
        self.order = order
        self._xs = frac(np.asarray(xs, dtype=float))
        self.shape = (self._xs.shape[0], self._xs.shape[0])

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = (self._xs[k] for k in key)
        out = _gram_entries(self.order, np.atleast_1d(rows), np.atleast_1d(cols))
        return out.reshape(np.shape(rows) + np.shape(cols))


class DoubledForm:
    """The quadratic form w'Dw of the order-doubled Gram matrix
    D_ij = R_2m(x_i, x_j) of a stream, for coefficient vectors on any prefix
    of it, without D: w'Dw is the squared L2 norm of sum_i w_i K_{x_i}.

    The points go into B = round(2 sqrt(n)) equal bins [b/B, (b+1)/B) with
    centres c_b. For x_i in bin b' and x_j in another bin b,
    frac(x_i - x_j) = frac(c_b' - c_b) + d_i - d_j with d = x - c never
    wraps, and R_2m is a polynomial P in it, so Taylor's formula, exact for
    a polynomial, splits those pairs into per-bin moments
    mu_{b,q} = sum_{j in b} w_j d_j^q, q = 0..4m:

        sum_{p,q} mu_{b',p} mu_{b,q} P^(p+q)(frac(c_b' - c_b)) (-1)^q / (p! q!),

    one (B L, B L) table, L = 4m + 1, of the blocks of `_far_field_blocks`.
    Pairs inside one bin read the dense entries of `_spline_w`, bitwise the
    entries of `gram_matrix`, from per-bin blocks padded to the fullest
    bin. Empty bins are dropped, the others are laid out in the order the
    stream first enters them, and a bin keeps its points in stream order,
    so a prefix of n' points fills the leading slots of the leading bins
    and its form reads only those: the cost follows the prefix.
    """

    def __init__(self, m: int, xs):
        _check_order(m)
        order = 2 * m
        xs = frac(np.asarray(xs, dtype=float))
        n = self.n = xs.shape[0]
        bins = max(1, round(2.0 * math.sqrt(n)))
        # label the occupied bins 0, 1, ... in the order the stream enters them
        bin_of = np.minimum((xs * bins).astype(np.intp), bins - 1)
        occupied, first, bin_of = np.unique(bin_of, return_index=True, return_inverse=True)
        entered = np.argsort(first)
        occupied = occupied[entered]
        bin_of = np.argsort(entered)[bin_of]
        counts = np.bincount(bin_of, minlength=occupied.size)
        rank = np.empty(n, dtype=np.intp)
        rank[np.argsort(bin_of, kind="stable")] = (
            np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts))
        # slot (b, r) holds the index of the r-th point of bin b, or n
        self._slots = np.full((occupied.size, int(counts.max(initial=0))), n)
        self._slots[bin_of, rank] = np.arange(n)
        # the bins and the slots of each bin that a prefix of n' points fills
        self._bins = np.maximum.accumulate(bin_of) + 1
        self._widths = np.maximum.accumulate(rank) + 1
        # padding slots read x = 0; their weight is always 0
        x = np.append(xs, 0.0)[self._slots]
        d = x - (occupied[:, None] + 0.5) / bins
        self._powers = d[:, None, :] ** np.arange(2 * order + 1)[:, None]
        self._near = _spline_w(order, _circle_w(x[:, :, None] - x[:, None, :]))
        blocks = _far_field_blocks(order, bins)[(occupied[:, None] - occupied) % bins]
        size = occupied.size * (2 * order + 1)
        self._far = blocks.transpose(0, 2, 1, 3).reshape(size, size)

    def quad(self, coeffs):
        """w'Dw for coefficients w on the first n' = w.shape[-1] points, or
        for each row of a (p, n') stack.

        Rows go through the products _ROW_BLOCK at a time, zero rows
        padding the last block, so every row meets products of one shape
        and its value does not depend on the other rows: a non-finite row
        spoils only its own value."""
        w = np.asarray(coeffs, dtype=float)
        n = w.shape[-1]
        if n > self.n:
            raise ConfigurationError(f"{n} coefficients on a stream of {self.n} points")
        rows = w.reshape(math.prod(w.shape[:-1]), n)
        count = rows.shape[0]
        bins, width = (self._bins[n - 1], self._widths[n - 1]) if n else (0, 0)
        # slots past the prefix read the zero row n of `columns`
        slots = np.minimum(self._slots[:bins, :width], n)
        near = self._near[:bins, :width, :width]
        powers = self._powers[:bins, :, :width]
        size = bins * powers.shape[1]
        far = self._far[:size, :size]
        columns = np.zeros((n + 1, -(-count // _ROW_BLOCK) * _ROW_BLOCK))
        columns[:n, :count] = rows.T
        out = np.empty(columns.shape[1])
        for s in range(0, count, _ROW_BLOCK):
            # (B, width, block) weights per slot
            slotted = columns[:, s:s + _ROW_BLOCK][slots]
            moments = powers @ slotted
            far_part = far @ moments.reshape(size, _ROW_BLOCK)
            # per bin, then pairwise over the bins along each row's own
            # contiguous partial sums
            per_bin = ((slotted * (near @ slotted)).sum(axis=1)
                       + (moments * far_part.reshape(moments.shape)).sum(axis=1))
            out[s:s + _ROW_BLOCK] = np.ascontiguousarray(per_bin.T).sum(axis=1)
        return out[:count].reshape(w.shape[:-1])


def spline_kernel(m: int, s, t):
    """Closed-form R_m(s, t)."""
    _check_order(m)
    return _kernel_values(m, s, t)


def spline_kernel_series(m: int, s, t, J: int):
    """Truncated Fourier form of R_m(s, t), summed over frequencies 1..J:
    the B_{2m} series of `bernoulli_fourier_eval` at s - t, scaled as in
    `_spline_poly` (m <= 8), with its exact tail at integer s - t. Broadcast
    over array s and t; a float for scalar arguments."""
    if m < 1 or J < 1:
        raise ConfigurationError("need m >= 1 and J >= 1")
    return float(_spline_poly(m)[-1]) * bernoulli_fourier_eval(2 * m, s - t, J)


def kernel_sup_sq(m: int) -> float:
    """sup_x K(x, x) = R_m(0, 0); the step-size scale 1/R^2 comes from here."""
    return float(spline_kernel(m, 0.0, 0.0))


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
