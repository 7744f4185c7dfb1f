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
every kernel value in the package is one Horner pass in w (`_spline_w`).
Outside `DoubledForm` and the near field of `SplineGram.predictions` it is
read through `spline_kernel`, pointwise and broadcast over arrays, or
`SplineGram`, the one Gram matrix, which stores only the points and
computes the entries asked for in row blocks of w that stay in cache;
``gram[:, :]`` is the dense matrix, exactly symmetric as |d| is.

An expansion f = sum_j c_j R_m(x_j, .) needs no kernel values at all on a
grid: with the centers sorted in [0, 1), frac(t - x_j) is t - x_j for
x_j <= t and t - x_j + 1 otherwise, so between two consecutive centers

    f(t) = sum_b t^b (sum_{x_j <= t} c_j Q_b(-x_j) + sum_{x_j > t} c_j Q_b(1 - x_j)),

Q_b = P^(b) / b! the Taylor coefficients of P, one polynomial of degree 2m
whose coefficients are a prefix and a suffix sum over the centers (periodic
splines are piecewise polynomials, Wahba 1990; sorted by x, the kernel
matrix is semiseparable). `_spline_sum` evaluates it, in powers of t - 1/2,
for the quadrature risk oracle in O(n log n + grid m) work.

Two evaluators read a stream in the round(sqrt(n)) bins of one `_BinLayout`
instead of kernel rows: the recursion's predictions (`SplineGram.predictions`;
a run reads only the diagonal blocks of its Gram matrix) and w'Dw for the
order-doubled Gram matrix D_ij = R_2m(x_i, x_j) (`DoubledForm`; only the
tests build D, as `SplineGram(2 * m, xs)[:, :]`). R_m is one polynomial in
{s - t}, so the pairs of two bins are exact Taylor sums over per-bin
moments (Greengard & Rokhlin's fast multipole method with no truncation)
through the one exact table of `_far_field_blocks`, and the pairs inside a
bin read dense `_spline_w` entries, computed per call a few bins at a time
and never stored. No run holds an (n, n) array or any other array of
n^1.5 entries, and a run's work grows as n^1.5.
"""

from __future__ import annotations

import math
import operator
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

# slotted coefficients gathered per near-field product of the recursion's
# predictions: 1 MB
_GATHER_ENTRIES = 1 << 17


def _check_order(m: int, orders=SUPPORTED_ORDERS) -> None:
    if m not in orders:
        raise ConfigurationError(f"spline kernel order must be one of {tuple(orders)}, got {m!r}")


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


def _power_table(d: np.ndarray, count: int, axis: int = -1) -> np.ndarray:
    """d**0, ..., d**(count - 1) stacked along a new `axis`, as running
    products: correctly rounded up to the square, within about (p - 1)/2
    ulp at power p, and several times faster than `**`, which calls pow."""
    table = np.repeat(np.expand_dims(d, axis), count, axis=axis)
    np.moveaxis(table, axis, 0)[0] = 1.0
    return np.multiply.accumulate(table, axis=axis, out=table)


@lru_cache(maxsize=None)
def _taylor_coeffs(order: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact ascending coefficients of Q_b = P^(b) / b!, b = 0..2 order, P the
    polynomial of `_spline_poly(order)`: Taylor's formula, exact for a
    polynomial, reads P(y + t) = sum_b Q_b(y) t^b."""
    poly = _spline_poly(order)
    deg = 2 * order
    return tuple(tuple(poly[b + r] * math.comb(b + r, b) for r in range(deg + 1 - b))
                 for b in range(deg + 1))


def _spline_sum(order: int, centers, coeffs, ts: np.ndarray) -> np.ndarray:
    """f(t) = sum_j coeffs_j R_order(centers_j, t) at the ascending points ts
    in [0, 1], exactly, from the piecewise-polynomial form of f in the
    module docstring: no centers x ts array is built, and the work is
    O(n log n + len(ts) order).

    The polynomials are taken in powers of s = t - 1/2, and the wrapped
    terms through P(u) = P(1 - u), so on the interval after the i-th sorted
    center the coefficient of s^b is

        sum_{j < i} c_j Q_b(1/2 - x_j) + (-1)^b sum_{j >= i} c_j Q_b(x_j - 1/2),

    Q_b of `_taylor_coeffs`: every argument of Q_b and every s stays within
    1/2 (against 1 to 3/2 in powers of t), which keeps the cancellation
    between the terms near rounding. A node equal to a center lies in the
    interval after it, the frac(0) = 0 branch of `spline_kernel`. The
    coefficients are built one power of s at a time, repeated over the run
    of nodes in each interval and folded into Horner's rule, so memory
    stays O(n + len(ts)).
    """
    xs = frac(np.asarray(centers, dtype=float))
    perm = np.argsort(xs, kind="stable")
    xs, c = xs[perm], np.asarray(coeffs, dtype=float)[perm]
    n = xs.shape[0]
    # nodes per interval: interval i starts at the first node >= the i-th center
    counts = np.diff(np.searchsorted(ts, xs), prepend=0, append=ts.shape[0])
    s = ts - 0.5
    out = np.zeros(s.shape)
    column = np.empty(n + 1)
    for b, taylor in reversed(list(enumerate(_taylor_coeffs(order)))):
        q = [float(a) for a in taylor]
        column[0] = 0.0
        np.cumsum(c * np.polynomial.polynomial.polyval(0.5 - xs, q), out=column[1:])
        suffix = c * np.polynomial.polynomial.polyval(xs - 0.5, q)
        column[:n] += (-1) ** b * np.cumsum(suffix[::-1])[::-1]
        out *= s
        out += np.repeat(column, counts)
    return out


@lru_cache(maxsize=16)
def _far_field_blocks(order: int, bins: int) -> np.ndarray:
    """The far field of both binned evaluators over the `bins` bins of a
    `_BinLayout`. For x_i in bin b' and x_j in another bin b, s = (b' - b)
    mod bins, frac(x_i - x_j) = s / bins + d_i - d_j never wraps (d = x - c,
    c the bin centre), and R_order is a polynomial P in it, so Taylor's
    formula, exact for a polynomial, reads the pairs of the two bins from
    per-bin moments mu_{b,q} = sum_{j in b} w_j d_j^q of weights w:

        sum_{p,q} d_i^p P^(p+q)(s / bins) (-1)^q / (p! q!) mu_{b,q}.

    The table is (L, 2 bins L), L = 2 order + 1, and column (j, q) of row p
    holds block (bins - j) mod bins at (p, q), so bin b''s window, column
    groups bins - b' .. 2 bins - 1 - b', holds its blocks against bins 0, 1,
    ... Block s holds the factor above, Q_{p+q}(s / bins) (-1)^q C(p + q, q)
    with Q of `_taylor_coeffs`, and block 0 is zero, so a bin's own pairs
    drop out. Every entry is an exact rational rounded once: over the common
    denominator den bins^(2 order), den that of the coefficients of Q, each
    Q_b(s / bins) has an integer numerator, and Python's int / int division
    rounds each entry correctly."""
    deg = 2 * order
    weights = [[(-1) ** q * math.comb(p + q, q) for q in range(deg + 1 - p)]
               for p in range(deg + 1)]
    taylor = _taylor_coeffs(order)
    den = math.lcm(*(c.denominator for coeffs in taylor for c in coeffs))
    numerators = [[int(c * den) * bins ** (deg - r) for r, c in enumerate(coeffs)]
                  for coeffs in taylor]
    total = den * bins ** deg
    blocks = np.zeros((bins, deg + 1, deg + 1))
    for shift in range(1, bins):
        powers = [shift**r for r in range(deg + 1)]
        at = [sum(map(operator.mul, coeffs, powers)) for coeffs in numerators]
        for p, row in enumerate(weights):
            blocks[shift, p, :len(row)] = [at[p + q] * f / total for q, f in enumerate(row)]
    table = blocks[(bins - np.arange(2 * bins)) % bins].transpose(1, 0, 2).reshape(deg + 1, -1)
    table.setflags(write=False)
    return table


class _BinLayout:
    """The n points xs in [0, 1) in B = max(1, round(sqrt(n))) equal bins
    [b/B, (b+1)/B), as both binned evaluators read them. Empty bins are
    dropped and the others labelled 0, 1, ... in the order the stream first
    enters them, and a bin keeps its points in stream order, so a prefix of
    n' points fills the leading slots of the leading bins.

    Per point: its bin's `label`, its `offsets` x - c from the bin centre
    and its `rank` in stream order inside the bin. Per label: the bin's
    index in `cells`. Slot (b, r) of `slots` holds the index of the r-th
    point of bin b, or n, and `slot_xs` and `slot_offsets` its x and offset:
    padding slots read x = 0 and offset 0. The first n' points fill
    `bins[n' - 1]` bins and `widths[n' - 1]` slots of each."""

    def __init__(self, xs: np.ndarray):
        n = xs.shape[0]
        count = self.count = max(1, round(math.sqrt(n)))
        cell = np.minimum((xs * count).astype(np.intp), count - 1)
        cells, first, cell = np.unique(cell, return_index=True, return_inverse=True)
        entered = np.argsort(first)
        self.cells = cells[entered]
        self.label = np.argsort(entered)[cell]
        self.offsets = xs - ((self.cells + 0.5) / count)[self.label]
        sizes = np.bincount(self.label, minlength=cells.size)
        self.rank = np.empty(n, dtype=np.intp)
        self.rank[np.argsort(self.label, kind="stable")] = (
            np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes))
        self.slots = np.full((cells.size, int(sizes.max(initial=0))), n)
        self.slots[self.label, self.rank] = np.arange(n)
        self.slot_xs = np.append(xs, 0.0)[self.slots]
        self.slot_offsets = np.append(self.offsets, 0.0)[self.slots]
        self.bins = np.maximum.accumulate(self.label) + 1
        self.widths = np.maximum.accumulate(self.rank) + 1


class SplineGram:
    """The Gram matrix R_order(x_i, x_j) of the points xs, order 1..8, never
    stored: ``gram[rows, cols]`` computes just those entries. The recursion
    reads its diagonal blocks and predicts from its bins (`predictions`).
    Rows and columns are indexed independently (a slice, an integer or an
    index array each, as with `np.ix_`), so ``gram[:, :]`` is the whole
    matrix. Row gram[i, :i] equals spline_kernel(order, xs[:i], xs[i]) bit
    for bit."""

    def __init__(self, order: int, xs):
        _check_order(order, range(1, 2 * max(SUPPORTED_ORDERS) + 1))
        self.order = order
        self._xs = frac(np.asarray(xs, dtype=float))
        self.shape = (self._xs.shape[0], self._xs.shape[0])

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = (self._xs[k] for k in key)
        shape = np.shape(rows) + np.shape(cols)
        rows, cols = np.atleast_1d(rows), np.atleast_1d(cols)
        out = np.empty((rows.shape[0], cols.shape[0]))
        # blocks of rows small enough that their w stays in cache
        step = max(1, _BLOCK_ENTRIES // max(cols.shape[0], 1))
        for i in range(0, rows.shape[0], step):
            _spline_w(self.order, _circle_w(np.subtract.outer(rows[i:i + step], cols)),
                      out=out[i:i + step])
        return out.reshape(shape)

    def predictions(self, n: int, rows: int) -> _BinnedPredictions:
        """The block predictor of `estimator.sgd_constant_grid` over the
        first n points for a grid of `rows` coefficient rows, from bins
        instead of Gram strips (see `_BinnedPredictions`)."""
        return _BinnedPredictions(self.order, self._xs[:n], rows)


class _BinnedPredictions:
    """The predictions sum_{j < s} K(x_t, x_j) b_j of every live row b of a
    coefficient grid at the steps t of a block [s, e) of the recursion
    (see `estimator.sgd_constant_grid`), computed from the B bins of a
    `_BinLayout`, not from Gram rows.

    The far field, from the other bins, is one product of the (block, B L)
    table E of the targets with the per-bin moments
    mu_{b,q} = sum_{j in b, j < s} b_j d_j^q of each row, L = 2 order + 1:
    row t of E is t's centred powers d_t^p times the window of t's bin in
    the table of `_far_field_blocks`. The near field covers the earlier
    points of t's own bin: the entries of `_spline_w`, bitwise those of
    `SplineGram`, over the bin's slots, against the coefficients kept in
    the same slot layout, one batched product over the bins the block
    touches. Each call first folds the coefficients of the steps since the
    last call into the moments and slots of the live rows; a row that has
    left the live set is never read again.
    """

    def __init__(self, order: int, xs: np.ndarray, rows: int):
        self._order, self._xs = order, xs
        layout = self._layout = _BinLayout(xs)
        self._size = size = 2 * order + 1
        self._powers = _power_table(layout.offsets, size)
        self._far = _far_field_blocks(order, layout.count)
        # moments per bin index and slotted coefficients (0 in padding slots)
        # of the live rows only, in the order of `_rows`
        self._rows = np.arange(rows)
        self._moments = np.zeros((layout.count, size, rows))
        self._slotted = np.zeros(layout.slots.shape + (rows,))
        self._last = None

    def __call__(self, coeffs: np.ndarray, live: np.ndarray, s: int, e: int) -> np.ndarray:
        """The (live rows, e - s) predictions at steps s..e-1 of the rows
        `live` of `coeffs`. The calls run over consecutive blocks, the first
        at s = 0, and `live` only ever loses rows; the coefficients of the
        block of the previous call are solved."""
        if live.size < self._rows.size:
            keep = np.searchsorted(self._rows, live)
            self._rows, self._moments, self._slotted = (
                live, self._moments[..., keep], self._slotted[..., keep])
        if self._last is not None:
            self._fold(coeffs, *self._last)
        layout, steps, count = self._layout, slice(s, e), self._layout.count
        # the block's targets by bin, each at its place among them there
        label = layout.label[steps]
        touched, first, group = np.unique(label, return_index=True, return_inverse=True)
        place = layout.rank[steps] - layout.rank[s + first][group]
        self._last = (steps, touched, group, place)
        if s == 0:
            return np.zeros((live.size, e - s))
        # the far field
        rolled = self._powers[steps] @ self._far
        windows = np.lib.stride_tricks.sliding_window_view(
            rolled, count * self._size, axis=1)[:, ::self._size]
        table = windows[np.arange(e - s), count - layout.cells[label]]
        out = table @ self._moments.reshape(table.shape[1], -1)
        # the near field
        targets = np.zeros((touched.size, int(place.max()) + 1))
        targets[group, place] = self._xs[steps]
        width = layout.widths[s - 1]
        kernel = _spline_w(self._order, _circle_w(
            targets[:, :, None] - layout.slot_xs[touched, :width][:, None, :]))
        near = np.empty(kernel.shape[:2] + (live.size,))
        step = max(1, _GATHER_ENTRIES // max(width * live.size, 1))
        for b in range(0, touched.size, step):
            near[b:b + step] = kernel[b:b + step] @ self._slotted[touched[b:b + step], :width]
        out += near[group, place]
        return out.T

    def _fold(self, coeffs: np.ndarray, steps: slice, touched, group, place) -> None:
        """Add the coefficients of the block `steps`, its targets grouped as
        in `__call__`, to the moments and slots of the live rows."""
        layout = self._layout
        new = coeffs[self._rows, steps].T
        self._slotted[layout.label[steps], layout.rank[steps]] = new
        shape = (touched.size, int(place.max()) + 1)
        powers = np.zeros(shape + (self._powers.shape[1],))
        powers[group, place] = self._powers[steps]
        padded = np.zeros(shape + (new.shape[1],))
        padded[group, place] = new
        self._moments[layout.cells[touched]] += powers.transpose(0, 2, 1) @ padded


class DoubledForm:
    """The quadratic form w'Dw of the order-doubled Gram matrix
    D_ij = R_2m(x_i, x_j) of a stream, for coefficient vectors on any prefix
    of it, without D: w'Dw is the squared L2 norm of sum_i w_i K_{x_i}.

    The points go into the B bins of a `_BinLayout`. The pairs of two
    different bins read the per-bin moments mu_{b,q} = sum_{j in b} w_j d_j^q
    through `_far_field_blocks` of order 2m, L = 4m + 1: for each bin b' one
    product of its (L, B L) window, a strided view of the table, with the
    moments of all B bins by bin index (zero in empty bins), summed against
    mu_{b',p} over p. Pairs inside one bin read the dense entries of
    `_spline_w`, bitwise those of `SplineGram`, over the bin's slots; a
    prefix of n' points fills the leading slots of the leading bins, and
    its near field reads only those. The form keeps the slot layout, the
    slots' centred powers and the window view, O(n L) in all: each `quad`
    computes the near blocks of its own prefix, a few bins at a time.
    """

    def __init__(self, m: int, xs):
        _check_order(m)
        self._order = order = 2 * m
        xs = frac(np.asarray(xs, dtype=float))
        self.n = xs.shape[0]
        layout = _BinLayout(xs)
        self._slots, self._bins, self._widths = layout.slots, layout.bins, layout.widths
        self._cells, self._slot_xs = layout.cells, layout.slot_xs
        size = 2 * order + 1
        self._powers = _power_table(layout.slot_offsets, size, axis=1)
        # the window of each bin b, by bin index (see `_far_field_blocks`)
        self._far = np.lib.stride_tricks.sliding_window_view(
            _far_field_blocks(order, layout.count), layout.count * size,
            axis=1)[:, ::size].transpose(1, 0, 2)[layout.count:0:-1]

    def quad(self, coeffs):
        """w'Dw for coefficients w on the first n' = w.shape[-1] points, or
        for each row of a (p, n') stack.

        Rows go through the products _ROW_BLOCK at a time, zero rows
        padding the last block, so every row meets products of one shape
        and its value does not depend on the other rows: a non-finite row
        spoils only its own value. The near blocks are computed once per
        call, in chunks of bins whose w and the temporary of `_circle_w`
        together fit in _BLOCK_ENTRIES entries, and each chunk serves every
        row block; the weights of a chunk's slots are gathered from the
        rows, zero in slots outside the prefix."""
        w = np.asarray(coeffs, dtype=float)
        n = w.shape[-1]
        if n > self.n:
            raise ConfigurationError(f"{n} coefficients on a stream of {self.n} points")
        rows = w.reshape(math.prod(w.shape[:-1]), n)
        starts = range(0, rows.shape[0], _ROW_BLOCK)
        bins, width = (self._bins[n - 1], self._widths[n - 1]) if n else (0, 0)
        cells = self._cells[:bins]
        # per row block: (B, L, block) moments by bin index, 0 outside the
        # prefix, and each bin's near-field sum
        moments = np.zeros((len(starts),) + self._far.shape[:2] + (_ROW_BLOCK,))
        near = np.empty((len(starts), bins, _ROW_BLOCK))
        step = max(1, _BLOCK_ENTRIES // max(2 * width ** 2, 1))
        for b in range(0, bins, step):
            chunk = slice(b, min(b + step, bins))
            slots = self._slots[chunk, :width]
            outside = slots >= n
            x = self._slot_xs[chunk, :width]
            kernel = _spline_w(self._order, _circle_w(x[:, :, None] - x[:, None, :]))
            powers = self._powers[chunk, :, :width]
            index = np.where(outside, 0, slots)
            for k, s in enumerate(starts):
                # (bins, width, block) weights per slot, zero rows padding
                # the last block
                slotted = np.zeros(slots.shape + (_ROW_BLOCK,))
                block = rows[s:s + _ROW_BLOCK]
                slotted[..., :block.shape[0]] = block.T[index]
                slotted[outside] = 0.0
                moments[k, cells[chunk]] = powers @ slotted
                near[k, chunk] = (slotted * (kernel @ slotted)).sum(axis=1)
        out = np.empty(len(starts) * _ROW_BLOCK)
        for k, s in enumerate(starts):
            far_part = self._far @ moments[k].reshape(-1, _ROW_BLOCK)
            # per bin, then pairwise over the bins along each row's own
            # contiguous partial sums
            per_bin = (moments[k] * far_part).sum(axis=1)
            per_bin[cells] += near[k]
            out[s:s + _ROW_BLOCK] = np.ascontiguousarray(per_bin.T).sum(axis=1)
        return out[:rows.shape[0]].reshape(w.shape[:-1])


def spline_kernel(m: int, s, t):
    """Closed-form R_m(s, t), broadcast over s and t; a float for scalar
    arguments."""
    _check_order(m)
    out = _spline_w(m, _circle_w(np.asarray(frac(s) - frac(t))))
    return float(out) if np.ndim(out) == 0 else out


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
    vals = spline_kernel(m, s, ts) * phi
    lhs = float(np.trapezoid(vals, ts))
    rhs = (2.0 * np.pi * i) ** (-2 * m) * _SQRT2 * float(trig(2.0 * np.pi * i * s))
    return lhs, rhs
