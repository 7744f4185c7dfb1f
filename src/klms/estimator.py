"""Stochastic gradient recursions in coefficient form, plus the ridge baseline.

Starting from g_0 = 0, each observation (x_n, y_n) appends one coefficient

    a_n = -gamma_n (g_{n-1}(x_n) - y_n),

so g_n = sum_i a_i K_{x_i}. A regularized variant additionally shrinks all
previous coefficients by (1 - gamma_n lambda_n); that multiplication is
carried in a single global scale factor so each step stays O(n). The
averaged output is g_bar_n = (g_0 + ... + g_n) / (n + 1), maintained in
coefficient form as well.
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
    analysis and we default to the smallest allowed value.
    """

    r: float
    a: float = 4.0
    n0: int = 1

    def __post_init__(self):
        if not self.r > 0:
            raise ConfigurationError("r must be positive")
        if self.a < 4.0:
            raise ConfigurationError("the schedule requires a >= 4")
        if self.n0 < 0:
            raise ConfigurationError("n0 must be non-negative")

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
    """Run the recursion over the stream, snapshotting at each checkpoint.

    Serves the schedules whose step at a given index does not depend on the
    horizon: decreasing (`Online`) and regularized (`TarresYao`) steps, and
    a single constant step. Constant steps that are chosen per horizon run
    as one `sgd_constant_grid` pass instead.

    Returns a list of (last iterate, averaged iterate) KernelExpansion
    pairs, one per checkpoint (checkpoints must be sorted and within
    1..len(stream)). Each snapshot is a prefix of the run: the checkpoint-n
    pair depends only on the first n observations. When the same stream is
    run many times, pass the precomputed Gram matrix of its inputs to skip
    re-evaluating kernel columns.
    """
    xs, ys = _split_stream(stream)
    n_total = ys.shape[0]
    cps = list(checkpoints)
    if not cps or any(c2 <= c1 for c1, c2 in zip(cps, cps[1:])):
        raise ConfigurationError("checkpoints must be non-empty and strictly increasing")
    if cps[0] < 1 or cps[-1] > n_total:
        raise ConfigurationError("checkpoints must lie within 1..len(stream)")

    n_run = cps[-1]
    raw = np.zeros(n_run)       # b_i = a_i / S_i, so current coefficients are S_n * b
    shrinks = np.ones(n_run)
    scale_hist = np.ones(n_run)
    scale = 1.0
    snapshots = []
    cp_idx = 0

    for n in range(1, n_run + 1):
        gamma = spec.step.step(n)
        if gram is not None:
            # contiguous copy so the dot product reduces exactly like the
            # directly evaluated column would
            col = np.ascontiguousarray(gram[: n - 1, n - 1])
        else:
            col = kernel.pairwise(xs[: n - 1], xs[n - 1])
        pred = scale * float(raw[: n - 1] @ col) if n > 1 else 0.0
        a_n = -gamma * (pred - ys[n - 1])
        if not np.isfinite(a_n) or abs(a_n) > DIVERGENCE_LIMIT:
            raise DivergenceError(n, abs(a_n))
        if spec.reg is not None:
            shrinks[n - 1] = 1.0 - gamma * spec.reg.lam(n)
            scale *= shrinks[n - 1]
            if not scale > 0.0:
                raise DivergenceError(n, scale)
        raw[n - 1] = a_n / scale
        scale_hist[n - 1] = scale

        if n == cps[cp_idx]:
            last = KernelExpansion(xs[:n].copy(), scale * raw[:n])
            avg = KernelExpansion(
                xs[:n].copy(),
                averaged_coefficients(raw[:n] * scale_hist[:n], shrinks[:n]),
            )
            snapshots.append((last, avg))
            cp_idx += 1

    return snapshots


def sgd_constant_grid(gram: np.ndarray, ys: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Unregularized recursions for a whole grid of constant step sizes.

    Serves every constant-step schedule: the step-size sweep, and the
    finite-horizon algorithms whose step gamma0 * N**expo is fixed per
    horizon N (one row per horizon). All runs share one stream, so the
    kernel column of each step is read once from the precomputed Gram
    matrix and reused across the grid.

    Returns the (len(gammas), n) matrix of last-iterate coefficients. A row
    is a prefix-consistent run: its first N entries are the coefficients of
    the last iterate after N steps with that row's step, for every N <= n,
    and `averaged_coefficients` of that prefix is the averaged iterate. A
    run with an unstable step grows without bound inside its own row
    (eventually overflowing to non-finite values) and never touches the
    other rows; callers decide whether that is an infinite risk or an error.
    """
    g = np.asarray(gammas, dtype=float)
    n = ys.shape[0]
    coeffs = np.zeros((g.shape[0], n))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            preds = coeffs[:, :i] @ gram[:i, i]
            coeffs[:, i] = -g * (preds - ys[i])
    return coeffs


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
    d = xs.shape[1]
    theta = np.zeros(d)
    total = np.zeros(d)
    for n in range(ys.shape[0]):
        a_n = -gamma * (float(theta @ xs[n]) - ys[n])
        if not np.isfinite(a_n) or abs(a_n) > DIVERGENCE_LIMIT:
            raise DivergenceError(n + 1, abs(a_n))
        theta = theta + a_n * xs[n]
        total += theta
    return total / (ys.shape[0] + 1)
