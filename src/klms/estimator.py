"""Stochastic gradient recursions in coefficient form, plus the ridge baseline.

Starting from g_0 = 0, each observation (x_n, y_n) appends one coefficient

    a_n = -gamma_n (g_{n-1}(x_n) - y_n),

so g_n = sum_i a_i K_{x_i}. A regularized variant additionally shrinks all
previous coefficients by (1 - gamma_n lambda_n); that multiplication is
carried in a single global scale factor so each step stays O(n). The
averaged output is g_bar_n = (g_0 + ... + g_n) / (n + 1), maintained in
coefficient form as well. `sgd_constant_grid` is the one loop over a kernel
expansion; `sgd_run` and the harness call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, DivergenceError

DIVERGENCE_LIMIT = 1e12

ALGORITHM_NAMES = ("ours", "zhang", "ying_pontil", "tarres_yao")


# ---------------------------------------------------------------------------
# step-size and regularization schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteHorizon:
    """Constant step size, chosen by the caller as a function of the horizon."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ConfigurationError("step size must be positive")

    def step(self, i: int) -> float:
        return self.gamma


@dataclass(frozen=True)
class Online:
    """Horizon-free decreasing steps gamma_i = gamma0 / i**zeta."""

    gamma0: float
    zeta: float

    def __post_init__(self):
        if not self.gamma0 > 0:
            raise ConfigurationError("gamma0 must be positive")
        if not 0.0 <= self.zeta < 1.0:
            raise ConfigurationError("zeta must lie in [0, 1)")

    def step(self, i: int) -> float:
        return self.gamma0 / float(i) ** self.zeta


@dataclass(frozen=True)
class TarresYao:
    """Paired per-step schedules of the regularized recursion:

    gamma_i  = a (n0 + i)^{-2r/(2r+1)},
    lambda_i = (1/a) (n0 + i)^{-1/(2r+1)}.

    The index shift n0 keeps the first steps finite; a >= 4 in the source
    analysis and we default to the smallest allowed value. Since
    gamma_i lambda_i = 1 / (n0 + i), n0 >= 1 keeps every shrink factor
    1 - gamma_i lambda_i at least 1/2.
    """

    r: float
    a: float = 4.0
    n0: int = 1

    def __post_init__(self):
        if not self.r > 0:
            raise ConfigurationError("r must be positive")
        if self.a < 4.0:
            raise ConfigurationError("the schedule requires a >= 4")
        if self.n0 < 1:
            raise ConfigurationError("n0 must be at least 1")

    def step(self, i: int) -> float:
        return self.a * (self.n0 + i) ** (-2.0 * self.r / (2.0 * self.r + 1.0))

    def lam(self, i: int) -> float:
        return (self.n0 + i) ** (-1.0 / (2.0 * self.r + 1.0)) / self.a


StepSchedule = Union[FiniteHorizon, Online, TarresYao]


@dataclass(frozen=True)
class AlgorithmSpec:
    """Which recursion to run: averaging flag, step schedule, regularization.

    The four preset names pin the combinations studied in the benchmarks:
    ours and zhang are averaged and unregularized, ying_pontil is the plain
    last iterate, tarres_yao is the regularized last iterate.
    """

    name: str
    averaged: bool
    step: StepSchedule
    reg: Optional[TarresYao] = None

    def __post_init__(self):
        if self.name not in ALGORITHM_NAMES:
            raise ConfigurationError(f"unknown algorithm {self.name!r}")
        if self.name in ("ours", "zhang") and (not self.averaged or self.reg is not None):
            raise ConfigurationError(f"{self.name} must be averaged and unregularized")
        if self.name == "ying_pontil" and (self.averaged or self.reg is not None):
            raise ConfigurationError("ying_pontil is non-averaged and unregularized")
        if self.name == "tarres_yao" and (self.averaged or self.reg is None):
            raise ConfigurationError("tarres_yao is non-averaged and regularized")


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------

@dataclass
class KernelExpansion:
    """g(x) = sum_i coeffs[i] K(centers[i], x).

    Iterates, averaged iterates and ridge solutions all take this form.
    """

    centers: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=float)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.centers.shape[0] != self.coeffs.shape[0]:
            raise ConfigurationError("centers and coeffs must have equal length")

    def __len__(self) -> int:
        return self.coeffs.shape[0]


def evaluate(expansion, kernel, x) -> float:
    """Value of the expansion at a point; empty expansions are the zero function."""
    if len(expansion) == 0:
        return 0.0
    return float(expansion.coeffs @ kernel.pairwise(expansion.centers, x))


def averaged_coefficients(coeffs, shrinks=None) -> np.ndarray:
    """Coefficients of the uniform average of iterates g_0 .. g_n.

    `coeffs` holds each a_i as created at its own step i; `shrinks` holds the
    per-step factors (1 - gamma_k lambda_k) applied to older coefficients at
    step k (all ones when unregularized, which reduces the formula to
    a_i (n + 1 - i) / (n + 1)). A (p, n) stack of coefficient vectors is
    averaged row by row.
    """
    a = np.asarray(coeffs, dtype=float)
    n = a.shape[-1]
    if n == 0:
        return a.copy()
    if shrinks is None:
        return a * (np.arange(n, 0, -1) / (n + 1))
    p = np.cumprod(np.asarray(shrinks, dtype=float))
    if p.shape[0] != n:
        raise ConfigurationError("coeffs and shrinks must have equal length")
    suffix = np.cumsum(p[::-1])[::-1]
    return a * suffix / (p * (n + 1))


# ---------------------------------------------------------------------------
# the recursion
# ---------------------------------------------------------------------------

def sgd_run(kernel, stream, spec: AlgorithmSpec, checkpoints: Sequence[int],
            *, gram: Optional[np.ndarray] = None):
    """Run one schedule over the stream, snapshotting at each checkpoint.

    A thin wrapper over a one-row `sgd_constant_grid` call with the spec's
    per-step sizes and, for a regularized spec, its shrink factors. Returns
    a list of (last iterate, averaged iterate) KernelExpansion pairs, one
    per checkpoint (checkpoints must be sorted and within 1..len(stream)).
    Each snapshot is a prefix of the run: the checkpoint-n pair depends only
    on the first n observations. When the same stream is run many times,
    pass the precomputed Gram matrix of its inputs; otherwise it is built
    from `kernel.gram`. A non-finite or oversized coefficient at any step up
    to the last checkpoint raises DivergenceError naming that step.
    """
    xs, ys = _split_stream(stream)
    cps = list(checkpoints)
    if not cps or any(c2 <= c1 for c1, c2 in zip(cps, cps[1:])):
        raise ConfigurationError("checkpoints must be non-empty and strictly increasing")
    if cps[0] < 1 or cps[-1] > ys.shape[0]:
        raise ConfigurationError("checkpoints must lie within 1..len(stream)")

    n_run = cps[-1]
    if gram is None:
        gram = kernel.gram(xs[:n_run])
    steps, shrinks = schedule(spec.step, n_run, spec.reg)
    row = sgd_constant_grid(gram, ys[:n_run], steps, shrinks)[0]
    return [(KernelExpansion(xs[:n], prefix_iterate(row, n, False, shrinks)),
             KernelExpansion(xs[:n], prefix_iterate(row, n, True, shrinks)))
            for n in cps]


def schedule(step: StepSchedule, n: int, reg: Optional[TarresYao] = None):
    """One `sgd_constant_grid` row of per-step sizes gamma_1..gamma_n, shape
    (1, n), and the shrinks 1 - gamma_i lambda_i of `reg` (None without)."""
    steps = np.array([[step.step(i) for i in range(1, n + 1)]])
    if reg is None:
        return steps, None
    return steps, 1.0 - steps[0] * np.array([reg.lam(i) for i in range(1, n + 1)])


def sgd_constant_grid(gram: np.ndarray, ys: np.ndarray, gammas: np.ndarray,
                      shrinks: Optional[np.ndarray] = None) -> np.ndarray:
    """The kernel recursion for a grid of step-size schedules on one stream;
    every run in the package goes through this loop.

    `gammas` holds one constant step per row, shape (rows,): the step-size
    sweep, or the finite-horizon steps gamma0 * N**expo with one row per
    horizon N. Or it holds per-step sizes, shape (rows, n): the horizon-free
    schedules. Step i reads the contiguous row gram[i, :i] once for all rows.
    `shrinks`, shared by all rows, multiplies every older coefficient by
    shrinks[i] at step i; the product S_i = shrinks[0] * ... * shrinks[i] is
    carried as one global scale, so the (rows, n) result holds raw
    coefficients b: a_i = S_i b_i was created at step i and S_N b[:N] is the
    last iterate after N steps (without shrinks, b = a). `prefix_iterate`
    reads the last or averaged iterate off a row prefix.

    The first N entries of a row depend only on the first N observations. A
    run with an unstable step grows inside its own row until it overflows to
    non-finite values, never touching the other rows; callers decide whether
    that is an infinite risk or an error.
    """
    n = ys.shape[0]
    g = np.asarray(gammas, dtype=float)
    if g.ndim == 1:
        g = g[:, None]
    steps = np.broadcast_to(g, (g.shape[0], n))
    scales = np.ones(n) if shrinks is None else np.cumprod(shrinks)
    coeffs = np.zeros((g.shape[0], n))
    prev = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            preds = prev * (coeffs[:, :i] @ gram[i, :i])
            coeffs[:, i] = -steps[:, i] * (preds - ys[i]) / scales[i]
            prev = scales[i]
    return coeffs


def prefix_iterate(row: np.ndarray, n: int, averaged: bool,
                   shrinks: Optional[np.ndarray] = None) -> np.ndarray:
    """Last or averaged iterate after n steps of an `sgd_constant_grid` row
    run with `shrinks`; a bad coefficient among the n raises DivergenceError."""
    if shrinks is None:
        _raise_on_divergence(row[:n])
        return averaged_coefficients(row[:n]) if averaged else row[:n]
    scales = np.cumprod(shrinks[:n])
    created = row[:n] * scales
    _raise_on_divergence(created)
    if averaged:
        return averaged_coefficients(created, shrinks[:n])
    return scales[-1] * row[:n]


def _raise_on_divergence(coeffs: np.ndarray) -> None:
    """Raise DivergenceError(step, |a|) for the first coefficient, created at
    that (1-based) step, that is non-finite or exceeds DIVERGENCE_LIMIT."""
    bad = ~(np.abs(coeffs) <= DIVERGENCE_LIMIT)
    if bad.any():
        step = int(np.argmax(bad))
        raise DivergenceError(step + 1, abs(float(coeffs[step])))


def _split_stream(stream):
    """Accept a stream as an (xs, ys) pair of arrays or as an iterable of
    (x, y) observations."""
    if isinstance(stream, tuple) and len(stream) == 2 and np.ndim(stream[0]) >= 1:
        xs, ys = stream
        return np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    pairs = list(stream)
    xs = np.asarray([p[0] for p in pairs], dtype=float)
    ys = np.asarray([p[1] for p in pairs], dtype=float)
    return xs, ys


# ---------------------------------------------------------------------------
# batch ridge baseline and the finite-dimensional special case
# ---------------------------------------------------------------------------

def ridge_solve(kernel, xs, ys, lam: float) -> KernelExpansion:
    """Solve (K + lam I) a = y for the regularized empirical risk minimizer.

    With lam = 0 the Gram matrix must be numerically invertible; a singular
    or near-singular system raises numpy's LinAlgError.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if lam < 0:
        raise ConfigurationError("lam must be non-negative")
    mat = kernel.gram(xs) + lam * np.eye(ys.shape[0])
    coeffs = np.linalg.solve(mat, ys)
    resid = float(np.linalg.norm(mat @ coeffs - ys))
    if not np.isfinite(resid) or resid > 1e-6 * (1.0 + float(np.linalg.norm(ys))):
        raise np.linalg.LinAlgError(
            f"system is numerically singular (residual {resid:.3e} at lam={lam})"
        )
    return KernelExpansion(xs, coeffs)


def finite_dim_sgd(stream, gamma: float) -> np.ndarray:
    """Averaged constant-step least-mean-squares in R^d.

    Same recursion as `sgd_run` with the linear kernel, but maintained as a
    dense weight vector (O(d) per step). Returns the uniform average of
    theta_0 = 0, theta_1, ..., theta_n.
    """
    xs, ys = _split_stream(stream)
    n = ys.shape[0]
    theta, total = np.zeros(xs.shape[1]), np.zeros(xs.shape[1])
    created = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            created[i] = -gamma * (float(theta @ xs[i]) - ys[i])
            theta = theta + created[i] * xs[i]
            total += theta
    _raise_on_divergence(created)
    return total / (n + 1)
