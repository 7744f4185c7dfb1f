"""Exact excess-risk evaluation on the circle testbed.

For the uniform design, the excess prediction error of any f is the squared
L2 distance to the regression target B_k. For a kernel expansion
f = sum_i w_i K_{x_i} this distance has a closed form built from three
ingredients:

  * <K_x, K_y>   = R_{2m}(x, y)                       (order doubling),
  * <K_x, B_k>   = (-1)^m k!/(2m+k)! B_{2m+k}({x})    (`kernel_target_inner`),
  * ||B_k||^2    = (-1)^(k-1) (k!)^2/(2k)! B_{2k}      (`target_norm_sq`).

The first gives ||f||^2 = w'Dw with D the order-doubled Gram matrix, which
`kernels.DoubledForm` evaluates exactly from per-bin moments of w without
building D. `ClosedFormRisk(gram, k)` builds the three parts of one stream
once from its order-m `kernels.SplineGram`, the one handle of its points,
and is the one place the closed form w'Dw - 2 w'i + ||B_k||^2 is written,
for single expansions, prefixes of a stream and stacks of coefficient
vectors.

None of these formulas is taken on faith: the module ships a truncated
Fourier evaluator and a quadrature evaluator of the same quantity, and the
test suite requires three-way agreement before the experiment harness is
allowed to rely on the closed form. The Fourier evaluator takes its center
sums over the frequencies 1..J from the `center_sums` of the cached
`bernoulli._FourierPlan` of J (j = qB + r, B = isqrt(J): one matrix product
instead of J x n cosines and sines, a chunk of centers and a chunk of
frequency rows at a time), which yields them one row chunk at a time. Each
chunk is turned into its gaps to the target in place, against the plan's
read-only weight tables, and its squares are summed, so it runs at n = 1e5
holding no J-length array besides the plan's 24 J bytes of tables; it adds
the target's tail beyond its last frequency through `bernoulli.zeta_tail`,
with no scipy. The plan's sums and tables are valid until the next Fourier
call, so the oracles run on one thread. The quadrature
evaluator builds no kernel matrix: between two consecutive sorted centers
the expansion is one polynomial of degree 2m, so `kernels._SplineSum` gives
it exactly on the trapezoid grid from prefix and suffix sums over the
centers, a chunk of nodes at a time, O(n log n + grid m) work in O(n)
memory besides a chunk, and sums each chunk's trapezoid from the sum of
its values and its two end values.
An expansion without centers is the zero function in all three
evaluators, with no special case.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .bernoulli import (MAX_DEGREE, _fourier_plan, bernoulli_numbers, bernoulli_poly, frac,
                        zeta_tail)
from .errors import ConfigurationError
from .kernels import _ROW_BLOCK, DoubledForm, SplineGram, _check_order, _SplineSum

# subintervals per chunk of the quadrature oracle's grid
_NODE_CHUNK = 1 << 14


def target_norm_sq(k: int) -> float:
    """integral_0^1 B_k(x)^2 dx = (-1)^(k-1) (k!)^2/(2k)! B_{2k}, the
    Bernoulli product-integral identity, in exact rational arithmetic and
    rounded once; k in 1..16."""
    if not 1 <= k <= MAX_DEGREE:
        raise ConfigurationError(f"degree must be in 1..{MAX_DEGREE}, got {k}")
    scale = Fraction((-1) ** (k - 1) * math.factorial(k) ** 2, math.factorial(2 * k))
    return float(scale * bernoulli_numbers(2 * k)[-1])


def kernel_target_inner(m: int, k: int, x):
    """L2 inner product <K_x, B_k> = (-1)^m k!/(2m+k)! B_{2m+k}({x}).

    Derived by matching the cosine expansions of the kernel section and the
    target; validated against the truncated-Fourier inner product in the
    test suite. Vectorized over x.
    """
    _check_order(m)
    scale = (-1.0) ** m * math.factorial(k) / math.factorial(2 * m + k)
    return scale * bernoulli_poly(2 * m + k, frac(x))


class ClosedFormRisk:
    """The closed-form excess risk w'Dw - 2 w'i + ||B_k||^2 of coefficients
    w on the points of `gram`, a `kernels.SplineGram` of order m, or on any
    prefix of them.

    Holds the three parts of the stream, built once: ``form``, the
    `kernels.DoubledForm` of `gram` (w'Dw, D the order-doubled Gram matrix,
    read through the bin layout of `gram`), ``inner``, the target inner
    products i of `kernel_target_inner` at ``gram.xs``, and ``norm_sq`` =
    ||B_k||^2 of `target_norm_sq`. A call reads only the first
    n = w.shape[-1] points, so one full-stream object serves every prefix;
    more coefficients than points raise the `ConfigurationError` of
    `DoubledForm.quad`, which runs first.
    It takes one coefficient vector (giving a scalar) or a (p, n) stack of
    them (giving p risks); a row's risk is bitwise its risk computed alone,
    as w'i is summed row by row and `DoubledForm.quad` keeps rows apart.
    The products w_j i_j are formed _ROW_BLOCK rows at a time, so a stack
    is never copied whole.
    """

    def __init__(self, gram: SplineGram, k: int):
        self.form = DoubledForm(gram)
        self.inner = kernel_target_inner(gram.order, k, gram.xs)
        self.norm_sq = target_norm_sq(k)

    def __call__(self, coeffs):
        w = np.asarray(coeffs, dtype=float)
        quad = self.form.quad(w)
        n = w.shape[-1]
        rows = w.reshape(math.prod(w.shape[:-1]), n)
        inner = np.empty(rows.shape[0])
        for s in range(0, rows.shape[0], _ROW_BLOCK):
            inner[s:s + _ROW_BLOCK] = (rows[s:s + _ROW_BLOCK] * self.inner[:n]).sum(axis=-1)
        return quad - 2.0 * inner.reshape(w.shape[:-1]) + self.norm_sq


def excess_risk_closed(expansion, m: int, k: int) -> float:
    """Closed-form squared L2 distance between the expansion and B_k.

    Builds the `ClosedFormRisk` of the order-m `SplineGram` of the
    expansion's centers: about n^1.5 kernel values for n spread-out
    centers (n^2 when they crowd into one bin), against n^2 for the dense
    order-doubled Gram matrix. Callers evaluating many expansions over the
    same centers keep one `ClosedFormRisk` instead.
    """
    _check_order(m)
    return float(ClosedFormRisk(SplineGram(m, expansion.centers), k)(expansion.coeffs))


def excess_risk_fourier(expansion, m: int, k: int, J: int) -> float:
    """Independent Fourier oracle for the excess risk.

    Sums (A_j - T_j^c)^2 + (B_j - T_j^s)^2 over frequencies 1..J, where
    (A_j, B_j) are the expansion's coordinates on sqrt(2) cos(2 pi j .) and
    sqrt(2) sin(2 pi j .), each center contributing (2 pi j)^{-2m} times its
    trig values, and (T_j^c, T_j^s) are the target's coordinates, whose
    quarter-turn phase cos / sin(k pi / 2) is exactly 0 or +-1. The center
    sums S_j = sum_i w_i e^{2 pi i j x_i} come from the `center_sums` of the
    `bernoulli._FourierPlan` of J, one row chunk of its (Q, B) layout at a
    time (one matrix product per chunk of centers and row chunk), and each
    chunk is squared in place, against the plan's `weights` of 2m and k:
    a call writes only into the plan's row chunk of sums, its
    O(_PHASE_ENTRIES) phases and at most two tables of weights, whatever n.
    The target's coordinate tail beyond J (a zeta value) is added as well,
    since for k = 1 it decays too slowly to ignore; the expansion's own
    tail is negligible at the orders handled here.
    """
    _check_order(m)
    if k < 1 or J < 1:
        raise ConfigurationError("need k >= 1 and J >= 1")
    plan = _fourier_plan(J)
    kfac = float(math.factorial(k))
    # A_j + i B_j = sqrt(2) (2 pi j)^{-2m} S_j, and the target has one
    # coordinate, sqrt(2) c (2 pi j)^{-k} with c = -k! (1, 1, -1, -1)[k % 4],
    # on the cosine (even k) or the sine (odd k), the other exactly 0. So
    # each gap is sqrt(2) c times a coordinate of (2 pi j)^{-2m} S_j / c,
    # less (2 pi j)^{-k} on the target's, and the risk is 2 (k!)^2 times
    # their sum of squares, plus the target's tail
    scale = 1.0 / (-kfac * (1, 1, -1, -1)[k % 4])
    w_a, w_t = plan.weights(2 * m), plan.weights(k)
    total = 0.0
    for rows, sums in plan.center_sums(expansion.centers, expansion.coeffs):
        sums *= w_a[rows]
        sums *= scale
        hit = sums.imag if k % 2 else sums.real
        hit -= w_t[rows]
        pairs = sums.view(float)
        total += float(np.vdot(pairs, pairs))
    return 2.0 * kfac**2 * (total + zeta_tail(2 * k, J))


def excess_risk_mc(expansion, m: int, k: int, grid_size: int) -> float:
    """Quadrature oracle: trapezoid rule for integral (f - B_k)^2 on [0, 1].

    The grid has grid_size subintervals. The target is evaluated as a plain
    polynomial on [0, 1] (not periodized), so the endpoint jump of the k = 1
    target is integrated correctly; the expansion itself is periodic. The
    expansion is evaluated on the grid as a piecewise polynomial by
    `kernels._SplineSum`, with no centers x grid kernel values, _NODE_CHUNK
    subintervals at a time: a call holds no grid-length array, only a few
    arrays of one chunk. A chunk's trapezoid on its squared gaps y is
    (sum y - (y_first + y_last) / 2) / grid_size, the rule on equal steps
    1 / grid_size, with no step or average temporaries: within about 1 ulp
    of `np.trapezoid` on the nodes, whose steps differ from 1 / grid_size
    by rounding.
    """
    _check_order(m)
    if grid_size < 1000:
        raise ConfigurationError("grid_size must be at least 1000")
    spline = _SplineSum(m, expansion.centers, expansion.coeffs)
    total = 0.0
    for start in range(0, grid_size, _NODE_CHUNK):
        # nodes start..stop of np.linspace(0, 1, grid_size + 1), bit for bit
        stop = min(start + _NODE_CHUNK, grid_size)
        nodes = np.arange(start, stop + 1) * (1.0 / grid_size)
        if stop == grid_size:
            nodes[-1] = 1.0
        diff = spline(nodes)
        diff -= bernoulli_poly(k, nodes)
        diff *= diff
        total += (diff.sum() - 0.5 * (diff[0] + diff[-1])) / grid_size
    return float(total)


def excess_risk_finite_dim(theta, theta_star, covariance) -> float:
    """(theta - theta*)' Sigma (theta - theta*) for the linear-kernel case."""
    theta = np.asarray(theta, dtype=float)
    theta_star = np.asarray(theta_star, dtype=float)
    cov = np.asarray(covariance, dtype=float)
    if theta.shape != theta_star.shape or cov.shape != (theta.shape[0], theta.shape[0]):
        raise ConfigurationError("dimension mismatch")
    d = theta - theta_star
    return float(d @ cov @ d)
