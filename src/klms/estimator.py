"""Stochastic gradient recursions in coefficient form, plus the ridge baseline.

Starting from g_0 = 0, each observation (x_n, y_n) appends one coefficient

    a_n = -gamma_n (g_{n-1}(x_n) - y_n),

so g_n = sum_i a_i K_{x_i}. A regularized variant additionally shrinks all
previous coefficients by (1 - gamma_n lambda_n); that multiplication is
carried in a single global scale factor. The averaged output is
g_bar_n = (g_0 + ... + g_n) / (n + 1), read off the same coefficients.
The kernel enters only through the Gram matrix K_ij = K(x_i, x_j) of the
stream, so every solver here takes that matrix rather than a kernel.

The coefficients of a run are the solution of one lower-triangular system,
row i being step i, so a run reads only the lower triangle of the Gram
matrix. `sgd_constant_grid` is the one solver, for a grid of runs that
share one stream: forward substitution in blocks of _TIME_BLOCK steps, each
block first predicting from the earlier steps and then solved by one BLAS
triangular solve per run on its diagonal Gram block. The predictions are
one GEMM with the block's strip of Gram rows on a dense array; on a lazy
`kernels.SplineGram` they come from bins, a far field of exact per-bin
moments and a near field over each step's own bin, with no strip, so a run
holds no (n, n) array and its work grows as n^1.5, not n^2. A run stops at
its horizon, the last step anyone reads. `sgd_run` runs several
step schedules through one grid pass, each row up to the last checkpoint
that reads it, and returns per schedule its raw rows, its shrinks and the
row serving each checkpoint. Callers test the rows with `first_divergence`
and form only the iterates they read, off a row prefix with
`prefix_iterate`; which iterate an algorithm reports is the harness's
business.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .kernels import SplineGram

DIVERGENCE_LIMIT = 1e12

# steps per block of the recursion's forward substitution (see sgd_constant_grid)
_TIME_BLOCK = 128

# TarresYao's scale a (the smallest the source analysis allows, a >= 4) and
# index shift n0 (gamma_i lambda_i = 1 / (n0 + i), so n0 = 1 keeps every
# shrink factor 1 - gamma_i lambda_i at least 1/2)
_TY_A = 4.0
_TY_N0 = 1


# ---------------------------------------------------------------------------
# step-size and regularization schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteHorizon:
    """Constant step gamma0 * N**exponent for a run of horizon N."""

    gamma0: float
    exponent: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.gamma0) and self.gamma0 > 0 and np.isfinite(self.exponent)):
            raise ConfigurationError("need a finite positive step size and a finite exponent")

    def at(self, horizons) -> np.ndarray:
        """The constant step of a run of horizon N, for each N in `horizons`."""
        return self.gamma0 * np.asarray(horizons, dtype=float)**self.exponent

    def rows(self, cps: Sequence[int]):
        """The distinct steps `at(N)` over the checkpoints N, ascending, one
        constant row each (see `sgd_run`); checkpoints with the same step
        share a row."""
        steps, row_of = np.unique(self.at(cps), return_inverse=True)
        return steps, None, row_of


@dataclass(frozen=True)
class Online:
    """Horizon-free steps gamma_i = gamma0 * i**exponent, exponent in (-1, 0]."""

    gamma0: float
    exponent: float

    def __post_init__(self):
        if not (np.isfinite(self.gamma0) and self.gamma0 > 0):
            raise ConfigurationError("gamma0 must be finite and positive")
        if not -1.0 < self.exponent <= 0.0:
            raise ConfigurationError("exponent must lie in (-1, 0]")

    def rows(self, cps: Sequence[int]):
        """One row gamma_1 .. gamma_N, N the last checkpoint, serving every
        checkpoint (see `sgd_run`)."""
        steps = self.gamma0 / np.arange(1.0, cps[-1] + 1) ** -self.exponent
        return steps[None, :], None, np.zeros(len(cps), dtype=int)


@dataclass(frozen=True)
class TarresYao:
    """Paired per-step schedules of the regularized recursion:

    gamma_i  = a (n0 + i)^exponent,
    lambda_i = (1/a) (n0 + i)^{-exponent - 1},

    with a = _TY_A = 4, n0 = _TY_N0 = 1 and the exponent a signed log-log
    slope in (-1, 0); -2r/(2r+1) in the benchmark (`theory.competitor_rate`).
    """

    exponent: float

    def __post_init__(self):
        if not -1.0 < self.exponent < 0.0:
            raise ConfigurationError("exponent must lie in (-1, 0)")

    def rows(self, cps: Sequence[int]):
        """One row gamma_1 .. gamma_N, N the last checkpoint, with the
        shrinks 1 - gamma_i lambda_i, serving every checkpoint (see `sgd_run`)."""
        shift = _TY_N0 + np.arange(1.0, cps[-1] + 1)
        steps = _TY_A * shift ** self.exponent
        shrinks = 1.0 - steps * (shift ** (-self.exponent - 1.0) / _TY_A)
        return steps[None, :], shrinks, np.zeros(len(cps), dtype=int)


StepSchedule = Union[FiniteHorizon, Online, TarresYao]


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------

@dataclass
class KernelExpansion:
    """g(x) = sum_i coeffs[i] K(centers[i], x), the input of the risk
    oracles of `risk`: coefficients with the centers they sit on."""

    centers: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=float)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.centers.shape[0] != self.coeffs.shape[0]:
            raise ConfigurationError("centers and coeffs must have equal length")

    def __len__(self) -> int:
        return self.coeffs.shape[0]


def averaged_coefficients(coeffs, shrinks=None) -> np.ndarray:
    """Coefficients of the uniform average of iterates g_0 .. g_n.

    `coeffs` holds each a_i as created at its own step i; `shrinks` holds the
    per-step factors (1 - gamma_k lambda_k) applied to older coefficients at
    step k (all ones when unregularized). With p the running product of the
    shrinks, the average weighs a_i by (p_i + ... + p_n) / (p_i (n + 1)),
    which is (n + 1 - i) / (n + 1) without shrinks. A (p, n) stack of
    coefficient vectors is averaged row by row; diverged rows are not
    detected here (see `prefix_iterate`).
    """
    a = np.asarray(coeffs, dtype=float)
    n = a.shape[-1]
    if shrinks is None:  # p = 1: exact integer weights, no running sums
        return a * (np.arange(n, 0, -1) / (n + 1.0))
    p = np.cumprod(np.asarray(shrinks, dtype=float))
    if p.shape[0] != n:
        raise ConfigurationError("coeffs and shrinks must have equal length")
    suffix = np.cumsum(p[::-1])[::-1]
    return a * (suffix / (p * (n + 1)))


# ---------------------------------------------------------------------------
# the recursion
# ---------------------------------------------------------------------------

def sgd_run(gram, ys, schedules: Sequence[StepSchedule], checkpoints: Sequence[int]) -> list:
    """Run the recursion with each of the step `schedules` over the responses
    ys of a stream whose Gram matrix is `gram` (dense or a lazy
    `SplineGram`), up to the last checkpoint N (see `check_checkpoints`).

    One `sgd_constant_grid` call runs every schedule's `rows(checkpoints)`,
    (steps, shrinks, row_of), as one group of rows, each run up to the last
    checkpoint it serves; only the leading (N, N) lower triangle of `gram`
    is read. Returns that triple per schedule with the steps replaced by its
    (rows, N) raw coefficients, a view of the one grid. Callers judge the
    rows with `first_divergence` and form each iterate they read with
    `prefix_iterate`.
    """
    ys = np.asarray(ys, dtype=float)
    cps = check_checkpoints(checkpoints, ys.shape[0])
    n_run = cps[-1]
    if len(np.shape(gram)) != 2 or min(np.shape(gram)) < n_run:
        raise ConfigurationError(f"the Gram matrix must cover the first {n_run} points, "
                                 f"got shape {np.shape(gram)}")
    parts = [step.rows(cps) for step in schedules]
    if not parts:
        raise ConfigurationError("need at least one step schedule")
    horizons = []
    for steps, _, row_of in parts:
        horizons.append(np.zeros(steps.shape[0], dtype=int))
        np.maximum.at(horizons[-1], row_of, cps)
    rows = sgd_constant_grid(gram, ys[:n_run], [(steps, shrinks) for steps, shrinks, _ in parts],
                             horizons=np.concatenate(horizons))
    ends = np.cumsum([len(h) for h in horizons])[:-1]
    return [(own,) + part[1:] for own, part in zip(np.split(rows, ends), parts)]


def check_checkpoints(checkpoints: Sequence[int], n: int) -> list[int]:
    """The checkpoints as a list, if non-empty, strictly increasing and in 1..n."""
    cps = list(checkpoints)
    if not cps or any(c2 <= c1 for c1, c2 in zip(cps, cps[1:])):
        raise ConfigurationError("checkpoints must be non-empty and strictly increasing")
    if cps[0] < 1 or cps[-1] > n:
        raise ConfigurationError(f"checkpoints must lie within 1..{n}")
    return cps


def sgd_constant_grid(gram, ys: np.ndarray, groups: Sequence, *,
                      horizons: Optional[Sequence[int]] = None) -> np.ndarray:
    """The kernel recursion for a grid of step-size schedules on one stream;
    every run in the package goes through this solver.

    `groups` is a list of (steps, shrinks) groups of rows, stacked in order.
    `steps` holds one constant step per row, shape (rows,): the step-size
    sweep, or the finite-horizon steps gamma0 * N**expo with one row per
    horizon N. Or it holds per-step sizes, shape (rows, n): the
    horizon-free schedules. `shrinks` is None or an (n,) array shared by
    the group's rows: step i multiplies every older coefficient by
    shrinks[i]. `sgd_run` passes each schedule's rows as one group,
    `harness.gamma_sweep` its grid as [(grid, None)]. Each block writes
    its diagonals shrinks / steps and its targets group by group into two
    (rows, block) buffers, so no array of the solver but the result (and
    the binned predictor's slotted copy of it) has one entry per row and
    step.
    The product S_i = shrinks[0] * ... * shrinks[i] is carried as one global
    scale per row, so the (rows, n) result holds raw coefficients b:
    a_i = S_i b_i was created at step i and S_N b[:N] is the last iterate
    after N steps (without shrinks, b = a). `prefix_iterate` reads the last
    or averaged iterate off a row prefix.

    Step i of a row is row i of the lower-triangular system
    (diag(S) + diag(gamma * S_prev) tril(K, -1)) b = gamma * y, with
    S_prev = (1, S_0, ..., S_{n-2}). Divided by gamma_i S_{i-1} (S_{-1} = 1),
    row i reads (shrinks_i / gamma_i) b_i + sum_{j<i} K_ij b_j = y_i / S_{i-1},
    and the system is solved by forward substitution over blocks of _TIME_BLOCK
    steps. Block [s, e) first gets the predictions of every live row from
    all earlier coefficients, the block predictor picked once per call: one
    GEMM with the strip gram[s:e, :s] of a dense array, or the bins of
    `SplineGram.predictions` for a lazy `SplineGram`, which computes no
    strip. Then one BLAS triangular solve per row on the diagonal block
    gram[s:e, s:e] covers the block; only the lower triangle of a dense
    array is ever used, and no (n, n) array need exist. Rows differ only in
    the diagonal, so one Fortran-ordered diagonal block (a dense array's
    copy, or a `SplineGram`'s exactly symmetric block read transposed)
    serves them all, its diagonal rewritten per row through a strided view.

    `horizons`, one per row, says how many leading entries of the row are
    read; a row stops at the end of the block that reaches its horizon, and
    its later entries stay zero. Without `horizons` every row runs all n
    steps. The first N entries of a row depend only on the first N
    observations. A run with an unstable step grows inside its own row
    until it overflows to non-finite values, never touching the other rows;
    callers test rows with `first_divergence` and raise or exclude.
    """
    # scipy.linalg costs ~0.07 s to import; only the recursion needs it
    from scipy.linalg.blas import dtrsv

    n = ys.shape[0]
    # per group, its rows, a (rows, n) view of its steps and its (n,)
    # shrinks and targets y_i / S_{i-1}, the running products taken left to
    # right; an unshrunk group divides 1 and reads ys, as y / 1 = y
    parts, rows = [], 0
    for steps, shrinks in groups:
        steps = np.asarray(steps, dtype=float)
        size = steps.shape[0]
        if shrinks is None:
            shrunk, target = np.broadcast_to(1.0, n), ys
        else:
            shrunk = np.asarray(shrinks, dtype=float)
            target = ys / np.concatenate([[1.0], np.cumprod(shrunk)[:-1]])
        parts.append((slice(rows, rows + size),
                      np.broadcast_to(steps[:, None] if steps.ndim == 1 else steps, (size, n)),
                      shrunk, target))
        rows += size
    horizons = np.full(rows, n) if horizons is None else np.asarray(horizons)
    coeffs = np.zeros((rows, n))
    lazy = isinstance(gram, SplineGram)
    predict = (gram.predictions(n, rows, _TIME_BLOCK) if lazy
               else partial(_strip_predictions, gram))
    # every row's diagonal shrunk / steps and target in the current block
    diagonals, targets = np.empty((2, rows, min(_TIME_BLOCK, n)))
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n, _TIME_BLOCK):
            e = min(s + _TIME_BLOCK, n)
            live = np.flatnonzero(horizons > s)
            for part, steps, shrunk, target in parts:
                np.divide(shrunk[s:e], steps[:, s:e], out=diagonals[part, :e - s])
                targets[part, :e - s] = target[s:e]
            rhs = targets[live, :e - s] - predict(coeffs, live, s, e)
            # a SplineGram's block is exactly symmetric: its transpose is Fortran-ordered
            block = gram[s:e, s:e]
            block = block.T if lazy else np.array(block, dtype=float, order="F")
            diagonal = np.einsum("ii->i", block)
            for row, r in zip(live, rhs):
                diagonal[:] = diagonals[row, :e - s]
                coeffs[row, s:e] = dtrsv(block, r, lower=1)
    return coeffs


def _strip_predictions(gram, coeffs: np.ndarray, live: np.ndarray, s: int, e: int):
    """The predictions at steps s..e-1 of the rows `live` of `coeffs` from
    their first s entries: one GEMM with the Gram strip gram[s:e, :s]."""
    return coeffs[live, :s] @ gram[s:e, :s].T


def prefix_iterate(rows: np.ndarray, n: int, averaged: bool,
                   shrinks: Optional[np.ndarray] = None) -> np.ndarray:
    """Last or averaged iterate after n steps of an `sgd_constant_grid` row,
    or of every row of a (p, N) stack, run with `shrinks`.

    A row that diverged within its first n steps (see `first_divergence`)
    gives a meaningless, possibly non-finite iterate; callers test the rows
    first and raise or exclude them.
    """
    if shrinks is None:
        return averaged_coefficients(rows[..., :n]) if averaged else rows[..., :n].copy()
    scales = np.cumprod(shrinks[:n])
    if averaged:
        return averaged_coefficients(rows[..., :n] * scales, shrinks[:n])
    return scales[-1] * rows[..., :n]


def first_divergence(rows: np.ndarray, shrinks: Optional[np.ndarray] = None):
    """The divergence criterion of every run in the package.

    For an `sgd_constant_grid` row, or each row of a stack, run with
    `shrinks`: the 1-based step and |a| of the first coefficient that is
    non-finite or exceeds DIVERGENCE_LIMIT in absolute value, judged on
    a_i = S_i b_i as created at step i. A row with no such coefficient gets
    step N + 1 (N its length) and |a| = 0, so a row diverged within its
    first n steps exactly when its step is <= n. It holds |a| and a mask.
    """
    created = np.abs(rows)
    if shrinks is not None:
        created *= np.abs(np.cumprod(shrinks))
    if created.shape[-1] == 0:
        return np.ones(created.shape[:-1], dtype=int), np.zeros(created.shape[:-1])
    good = created <= DIVERGENCE_LIMIT
    first = np.argmin(good, axis=-1)[..., None]
    found = ~np.take_along_axis(good, first, axis=-1)[..., 0]
    step = np.where(found, first[..., 0] + 1, created.shape[-1] + 1)
    return step, np.where(found, np.take_along_axis(created, first, axis=-1)[..., 0], 0.0)


# ---------------------------------------------------------------------------
# batch ridge baseline and the finite-dimensional special case
# ---------------------------------------------------------------------------

def ridge_solve(gram, ys, lam: float) -> np.ndarray:
    """The coefficients a of the regularized empirical risk minimizer, the
    solution of (K + lam I) a = y with K = ``gram[:, :]`` the (n, n) Gram
    matrix of the n points whose responses are ys: a dense array or a lazy
    `SplineGram`, as in `sgd_run`.

    With lam = 0 the Gram matrix must be numerically invertible; a singular
    or near-singular system raises numpy's LinAlgError.
    """
    ys = np.asarray(ys, dtype=float)
    n = ys.shape[0]
    if np.shape(gram) != (n, n):
        raise ConfigurationError(f"the Gram matrix must be ({n}, {n}), got {np.shape(gram)}")
    if not (np.isfinite(lam) and lam >= 0):
        raise ConfigurationError("lam must be finite and non-negative")
    mat = gram[:, :] + lam * np.eye(n)
    coeffs = np.linalg.solve(mat, ys)
    resid = float(np.linalg.norm(mat @ coeffs - ys))
    if not np.isfinite(resid) or resid > 1e-6 * (1.0 + float(np.linalg.norm(ys))):
        raise np.linalg.LinAlgError(
            f"system is numerically singular (residual {resid:.3e} at lam={lam})"
        )
    return coeffs


def finite_dim_sgd(stream, gamma: float) -> np.ndarray:
    """Averaged constant-step least-mean-squares in R^d.

    Same recursion as `sgd_run` on the linear Gram matrix xs @ xs.T, but
    maintained as a dense weight vector (O(d) per step), over an (xs, ys)
    stream of arrays. Returns the uniform average of theta_0 = 0, theta_1,
    ..., theta_n; raises DivergenceError when `first_divergence` finds a bad
    coefficient.
    """
    xs, ys = (np.asarray(v, dtype=float) for v in stream)
    n = ys.shape[0]
    theta, total = np.zeros(xs.shape[1]), np.zeros(xs.shape[1])
    created = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            created[i] = -gamma * (float(theta @ xs[i]) - ys[i])
            theta = theta + created[i] * xs[i]
            total += theta
    step, value = first_divergence(created)
    if step <= n:
        raise DivergenceError(int(step), float(value))
    return total / (n + 1)
