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
matrix. `sgd_constant_grid` is the one solver: forward substitution in
blocks of _TIME_BLOCK steps, each reading one strip of Gram rows, with one
GEMM per block for the predictions from earlier steps and one BLAS
triangular solve per run inside the block, for a grid of runs that share
one stream. The strip comes from a dense array or is computed on demand by
a lazy `kernels.SplineGram`, so a run need hold no (n, n) array. A run
stops at its horizon, the last step anyone reads. `sgd_run` runs several
step schedules through one grid pass, each row up to the last checkpoint
that reads it, and returns per schedule both the last and the averaged
iterate at every checkpoint, or the divergence it met; which of them an
algorithm reports is the harness's business.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, DivergenceError

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

    def steps(self, n: int) -> np.ndarray:
        """gamma_1 .. gamma_n."""
        return self.gamma0 / np.arange(1.0, n + 1) ** -self.exponent


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

    def steps(self, n: int) -> np.ndarray:
        """gamma_1 .. gamma_n."""
        return _TY_A * (_TY_N0 + np.arange(1.0, n + 1)) ** self.exponent

    def lams(self, n: int) -> np.ndarray:
        """lambda_1 .. lambda_n."""
        return (_TY_N0 + np.arange(1.0, n + 1)) ** (-self.exponent - 1.0) / _TY_A


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
    p = np.cumprod(np.ones(n) if shrinks is None else np.asarray(shrinks, dtype=float))
    if p.shape[0] != n:
        raise ConfigurationError("coeffs and shrinks must have equal length")
    suffix = np.cumsum(p[::-1])[::-1]
    return a * (suffix / (p * (n + 1)))


# ---------------------------------------------------------------------------
# the recursion
# ---------------------------------------------------------------------------

def sgd_run(gram, ys, schedules: Sequence[StepSchedule], checkpoints: Sequence[int]) -> list:
    """Run the recursion with each of the step `schedules` over the responses
    ys of a stream whose Gram matrix is `gram`, snapshotting at each
    checkpoint.

    One `sgd_constant_grid` call runs every schedule, so each strip of the
    Gram matrix is read once: a `FiniteHorizon` step gives one constant row
    per distinct step `step.at(N)` over the checkpoints N, each up to the
    largest N it serves; an `Online` or `TarresYao` schedule gives one row
    of per-step sizes (with the shrinks of `schedule` for `TarresYao`),
    which serves every checkpoint. Returns one entry per schedule: either
    (last, averaged), two (len(checkpoints), N) arrays, N the last
    checkpoint (see `check_checkpoints`), where row c holds that iterate
    after checkpoints[c] steps in its leading checkpoints[c] entries,
    depending only on the first checkpoints[c] observations, and zeros
    after them; or, if a checkpoint's row meets the `first_divergence`
    criterion within its steps, the DivergenceError naming the step of the
    first such checkpoint. `gram` is a dense array or a lazy `SplineGram`;
    only its leading (N, N) lower triangle is read, so the Gram matrix of a
    longer stream serves as well.
    """
    ys = np.asarray(ys, dtype=float)
    cps = check_checkpoints(checkpoints, ys.shape[0])
    n_run = cps[-1]
    if len(np.shape(gram)) != 2 or min(np.shape(gram)) < n_run:
        raise ConfigurationError(f"the Gram matrix must cover the first {n_run} points, "
                                 f"got shape {np.shape(gram)}")
    parts = [_schedule_rows(step, cps) for step in schedules]
    if not parts:
        raise ConfigurationError("need at least one step schedule")
    rows = sgd_constant_grid(
        gram, ys[:n_run], np.concatenate([steps for steps, *_ in parts]),
        np.concatenate([np.broadcast_to(np.ones(n_run) if shrinks is None else shrinks,
                                        steps.shape) for steps, shrinks, *_ in parts]),
        horizons=np.concatenate([horizons for *_, horizons in parts]))
    ends = np.cumsum([len(horizons) for *_, horizons in parts])[:-1]
    return [_snapshots(own, shrinks, row_of, cps)
            for own, (_, shrinks, row_of, _) in zip(np.split(rows, ends), parts)]


def _schedule_rows(step: StepSchedule, cps: list[int]):
    """The grid rows of one schedule in `sgd_run` up to the last checkpoint
    N: (steps, shrinks, row_of, horizons), with steps of shape (rows, N),
    the schedule's shrinks (None but for `TarresYao`), the row serving each
    checkpoint and the last checkpoint each row serves."""
    if isinstance(step, FiniteHorizon):
        # checkpoints with the same step (exponent 0) share one row
        steps, row_of = np.unique(step.at(cps), return_inverse=True)
        steps, shrinks = np.repeat(steps[:, None], cps[-1], axis=1), None
    else:
        # a single horizon-free row serves every checkpoint
        steps, shrinks = schedule(step, cps[-1])
        row_of = np.zeros(len(cps), dtype=int)
    horizons = np.zeros(steps.shape[0], dtype=int)
    np.maximum.at(horizons, row_of, cps)
    return steps, shrinks, row_of, horizons


def _snapshots(rows: np.ndarray, shrinks: Optional[np.ndarray], row_of, cps: list[int]):
    """The (last, averaged) stacks of one schedule's grid rows at the
    checkpoints `cps`, or the DivergenceError of the first checkpoint whose
    row diverged within its steps."""
    bad_step, bad_value = first_divergence(rows, shrinks)
    for row, n in zip(row_of, cps):
        if bad_step[row] <= n:
            return DivergenceError(int(bad_step[row]), float(bad_value[row]))
    last, averaged = np.zeros((2, len(cps), cps[-1]))
    for c, (row, n) in enumerate(zip(row_of, cps)):
        last[c, :n] = prefix_iterate(rows[row], n, False, shrinks)
        averaged[c, :n] = prefix_iterate(rows[row], n, True, shrinks)
    return last, averaged


def check_checkpoints(checkpoints: Sequence[int], n: int) -> list[int]:
    """The checkpoints as a list, if non-empty, strictly increasing and in 1..n."""
    cps = list(checkpoints)
    if not cps or any(c2 <= c1 for c1, c2 in zip(cps, cps[1:])):
        raise ConfigurationError("checkpoints must be non-empty and strictly increasing")
    if cps[0] < 1 or cps[-1] > n:
        raise ConfigurationError(f"checkpoints must lie within 1..{n}")
    return cps


def schedule(step: Union[Online, TarresYao], n: int):
    """One `sgd_constant_grid` row of per-step sizes gamma_1..gamma_n, shape
    (1, n), and the shrinks 1 - gamma_i lambda_i of a `TarresYao` schedule
    (None for `Online`)."""
    steps = step.steps(n)
    shrinks = 1.0 - steps * step.lams(n) if isinstance(step, TarresYao) else None
    return steps[None, :], shrinks


def sgd_constant_grid(gram, ys: np.ndarray, gammas: np.ndarray,
                      shrinks: Optional[np.ndarray] = None, *,
                      horizons: Optional[Sequence[int]] = None) -> np.ndarray:
    """The kernel recursion for a grid of step-size schedules on one stream;
    every run in the package goes through this solver.

    `gammas` holds one constant step per row, shape (rows,): the step-size
    sweep, or the finite-horizon steps gamma0 * N**expo with one row per
    horizon N. Or it holds per-step sizes, shape (rows, n): the horizon-free
    schedules. `shrinks`, shape (n,) shared by all rows or (rows, n) one per
    row, multiplies every older coefficient by shrinks[i] at step i; the
    product S_i = shrinks[0] * ... * shrinks[i] is carried as one global
    scale per row, so the (rows, n) result holds raw coefficients b:
    a_i = S_i b_i was created at step i and S_N b[:N] is the last iterate
    after N steps (without shrinks, b = a). `prefix_iterate` reads the last
    or averaged iterate off a row prefix.

    Step i of a row is row i of the lower-triangular system
    (diag(S) + diag(gamma * S_prev) tril(K, -1)) b = gamma * y, with
    S_prev = (1, S_0, ..., S_{n-2}). Divided by gamma_i S_{i-1} (S_{-1} = 1),
    row i reads (shrinks_i / gamma_i) b_i + sum_{j<i} K_ij b_j = y_i / S_{i-1},
    and the system is solved by forward substitution over blocks of _TIME_BLOCK
    steps. Block [s, e) reads one strip gram[s:e, :e] of the Gram matrix, a
    dense array or a lazy `SplineGram` that computes the strip on demand, so
    only the lower triangle is ever read and no (n, n) array need exist: one
    GEMM with strip[:, :s] gives the block the predictions of every live row
    from all earlier coefficients, then one BLAS triangular solve per row
    on strip[:, s:e] covers the block. Rows differ only in the diagonal, so
    one Fortran-ordered copy of the diagonal block serves them all.

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
    g = np.asarray(gammas, dtype=float)
    if g.ndim == 1:
        g = g[:, None]
    shrinks = np.ones(n) if shrinks is None else np.asarray(shrinks, dtype=float)
    diags = shrinks / np.broadcast_to(g, (g.shape[0], n))
    prev = np.cumprod(shrinks, axis=-1)[..., :-1]
    targets = np.broadcast_to(
        ys / np.concatenate([np.ones(prev.shape[:-1] + (1,)), prev], axis=-1),
        (g.shape[0], n))
    horizons = np.full(g.shape[0], n) if horizons is None else np.asarray(horizons)
    coeffs = np.zeros((g.shape[0], n))
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n, _TIME_BLOCK):
            e = min(s + _TIME_BLOCK, n)
            live = np.flatnonzero(horizons > s)
            strip = gram[s:e, :e]
            rhs = targets[live, s:e] - coeffs[live, :s] @ strip[:, :s].T
            block = np.array(strip[:, s:e], dtype=float, order="F")
            on_diag = np.arange(e - s)
            for row, r in zip(live, rhs):
                block[on_diag, on_diag] = diags[row, s:e]
                coeffs[row, s:e] = dtrsv(block, r, lower=1)
    return coeffs


def prefix_iterate(rows: np.ndarray, n: int, averaged: bool,
                   shrinks: Optional[np.ndarray] = None) -> np.ndarray:
    """Last or averaged iterate after n steps of an `sgd_constant_grid` row,
    or of every row of a (p, N) stack, run with `shrinks`.

    A row that diverged within its first n steps (see `first_divergence`)
    gives a meaningless, possibly non-finite iterate; callers test the rows
    first and raise or exclude them.
    """
    shrinks = np.ones(n) if shrinks is None else shrinks[:n]
    scales = np.cumprod(shrinks)
    if averaged:
        return averaged_coefficients(rows[..., :n] * scales, shrinks)
    return scales[-1] * rows[..., :n]


def first_divergence(rows: np.ndarray, shrinks: Optional[np.ndarray] = None):
    """The divergence criterion of every run in the package.

    For an `sgd_constant_grid` row, or each row of a stack, run with
    `shrinks`: the 1-based step and |a| of the first coefficient that is
    non-finite or exceeds DIVERGENCE_LIMIT in absolute value, judged on
    a_i = S_i b_i as created at step i. A row with no such coefficient gets
    step N + 1 (N its length) and |a| = 0, so a row diverged within its
    first n steps exactly when its step is <= n.
    """
    created = np.abs(rows if shrinks is None else rows * np.cumprod(shrinks))
    # a zero flagged bad after the last step stops rows that never diverge
    created = np.concatenate([created, np.zeros(created.shape[:-1] + (1,))], axis=-1)
    bad = ~(created <= DIVERGENCE_LIMIT)
    bad[..., -1] = True
    first = np.argmax(bad, axis=-1)
    return first + 1, np.take_along_axis(created, first[..., None], axis=-1)[..., 0]


# ---------------------------------------------------------------------------
# batch ridge baseline and the finite-dimensional special case
# ---------------------------------------------------------------------------

def ridge_solve(gram: np.ndarray, ys, lam: float) -> np.ndarray:
    """The coefficients a of the regularized empirical risk minimizer, the
    solution of (K + lam I) a = y with K = `gram` the dense (n, n) Gram
    matrix of the n points whose responses are ys (`gram_matrix`; a lazy
    `SplineGram` is refused with ConfigurationError).

    With lam = 0 the Gram matrix must be numerically invertible; a singular
    or near-singular system raises numpy's LinAlgError.
    """
    ys = np.asarray(ys, dtype=float)
    n = ys.shape[0]
    if not isinstance(gram, np.ndarray) or gram.shape != (n, n):
        raise ConfigurationError(f"the Gram matrix must be a dense ({n}, {n}) array "
                                 f"(see kernels.gram_matrix), got {type(gram).__name__} "
                                 f"of shape {np.shape(gram)}")
    if not (np.isfinite(lam) and lam >= 0):
        raise ConfigurationError("lam must be finite and non-negative")
    mat = gram + lam * np.eye(n)
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
