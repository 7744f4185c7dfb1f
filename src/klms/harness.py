"""Experiment harness: data generation, replicate orchestration, step-size
sweeps, rate fitting, the four-algorithm comparison, and the bound check.

All randomness flows through numpy SeedSequences built from
(master_seed, replicate_index, stream_digest), so replicates are independent
of execution order and two configs that describe the same data distribution
see the same streams. Excess risks are evaluated with the closed form from
`klms.risk`, amortized per replicate through precomputed Gram matrices.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

from . import risk, theory
from .bernoulli import bernoulli_poly
from .errors import ConfigurationError, DivergenceError
from .estimator import (FiniteHorizon, Online, StepSchedule, TarresYao, check_checkpoints,
                        first_divergence, prefix_iterate, sgd_constant_grid, sgd_run)
from .kernels import PeriodicSplineKernel, _spline_grams, kernel_sup_sq

# The four benchmark problems: point -> (kernel order m, target index k).
TABLE_POINTS = {1: (1, 2), 2: (2, 2), 3: (1, 3), 4: (2, 1)}

# Noise levels for the published-table reproduction. The source experiments
# never state their noise, and the effective slopes over a finite window are
# noise sensitive, so these are calibrated per problem: the flat-spectrum
# problems reproduce with sigma = 0.1, the order-2 kernel with the B_2 target
# needs lower noise for the bias range to show, and the saturated problem
# needs more noise so the non-averaged competitor pays its variance.
POINT_NOISE = {1: 0.1, 2: 0.05, 3: 0.5, 4: 0.1}

# Sample-size grids start at 1, mirroring the source experiments (sizes
# distributed exponentially between 1 and n_max); the second-half fitting
# window then starts near sqrt(n_max).
CHECKPOINT_FLOOR = 1


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    kernel_order_m: int = 1
    target_index_k: int = 2
    noise_sigma: float = 0.1
    algorithm: str = "ours"
    setting: str = "finite_horizon"
    gamma0: Optional[float] = None      # None means 1 / R^2
    n_max: int = 3162
    n_checkpoints: int = 20
    replicates: int = 15
    master_seed: int = 0

    def __post_init__(self):
        if self.kernel_order_m not in (1, 2, 3, 4):
            raise ConfigurationError("kernel_order_m must be in {1, 2, 3, 4}")
        if not 1 <= self.target_index_k <= 4:
            raise ConfigurationError("target_index_k must be in 1..4")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigurationError("noise_sigma must be finite and non-negative")
        if self.setting not in ("finite_horizon", "online"):
            raise ConfigurationError("setting must be finite_horizon or online")
        if self.gamma0 is not None and not (math.isfinite(self.gamma0) and self.gamma0 > 0):
            raise ConfigurationError("gamma0 must be finite and positive")
        if self.n_max < 1 or self.n_checkpoints < 1 or self.replicates < 1:
            raise ConfigurationError("n_max, n_checkpoints and replicates must be >= 1")
        if self.master_seed < 0:
            # numpy's SeedSequence takes only non-negative entropy
            raise ConfigurationError("master_seed must be non-negative")
        _algorithm_spec(self.algorithm, self.kernel_order_m, self.target_index_k,
                        self.effective_gamma0(), self.setting)

    @property
    def alpha(self) -> float:
        return 2.0 * self.kernel_order_m

    @property
    def delta(self) -> float:
        return 2.0 * self.target_index_k

    @property
    def r(self) -> float:
        return (self.delta - 1.0) / (2.0 * self.alpha)

    @property
    def R_sq(self) -> float:
        return kernel_sup_sq(self.kernel_order_m)

    def effective_gamma0(self) -> float:
        return self.gamma0 if self.gamma0 is not None else 1.0 / self.R_sq

    def checkpoints(self) -> list[int]:
        return checkpoint_grid(self.n_max, self.n_checkpoints)

    def stream_digest(self) -> int:
        """Stable hash of the fields that determine the data stream, so runs
        that only differ in the algorithm see identical samples."""
        text = (f"m={self.kernel_order_m};k={self.target_index_k};"
                f"sigma={self.noise_sigma!r};n={self.n_max}")
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


_CONFIG_TYPES = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def parse_config(path: str) -> ExperimentConfig:
    """Read a flat ``key = value`` file with exactly the ExperimentConfig
    field names; unknown keys are errors."""
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = text.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in _CONFIG_TYPES:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _coerce_field(key, raw, path, lineno)
    return ExperimentConfig(**values)


def _coerce_field(key: str, raw: str, path: str, lineno: int):
    if key in ("kernel_order_m", "target_index_k", "n_max", "n_checkpoints",
               "replicates", "master_seed"):
        try:
            return int(raw)
        except ValueError:
            raise ConfigurationError(f"{path}:{lineno}: {key} must be an integer") from None
    if key in ("noise_sigma", "gamma0"):
        if key == "gamma0" and raw.lower() in ("none", "default"):
            return None
        try:
            return float(raw)
        except ValueError:
            raise ConfigurationError(f"{path}:{lineno}: {key} must be a number") from None
    return raw


def checkpoint_grid(n_max: int, count: int) -> list[int]:
    """count log-spaced sample sizes from 1 to n_max, deduplicated."""
    lo = min(CHECKPOINT_FLOOR, n_max)
    vals = np.unique(np.round(np.geomspace(lo, n_max, count)).astype(int))
    vals = vals[(vals >= 1) & (vals <= n_max)]
    return [int(v) for v in vals]


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

def sample_stream(seed, k: int, sigma: float, n: int):
    """(x_i, y_i) with x_i uniform on [0, 1) and y_i = B_k(x_i) + sigma e_i,
    e_i standard Gaussian; fully determined by the seed."""
    if n < 1:
        raise ConfigurationError("n must be at least 1")
    rng = np.random.default_rng(seed)
    xs = rng.random(n)
    ys = bernoulli_poly(k, xs)
    if sigma > 0:
        ys = ys + sigma * rng.standard_normal(n)
    return xs, ys


def replicate_seed(master_seed: int, rep: int, digest: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(master_seed), int(rep), int(digest)])


# ---------------------------------------------------------------------------
# per-replicate context: everything that depends only on the stream
# ---------------------------------------------------------------------------

@dataclass
class _Context:
    kernel: PeriodicSplineKernel
    xs: np.ndarray
    ys: np.ndarray
    gram: np.ndarray
    doubled_gram: np.ndarray
    inner: np.ndarray
    norm_sq: float


def _make_context(m: int, k: int, xs: np.ndarray, ys: np.ndarray) -> _Context:
    # the Gram and doubled Gram matrices share each block of w = u(1 - u)
    gram, doubled_gram = _spline_grams((m, 2 * m), xs)
    return _Context(
        kernel=PeriodicSplineKernel(m),
        xs=xs,
        ys=ys,
        gram=gram,
        doubled_gram=doubled_gram,
        inner=risk.kernel_target_inner(m, k, xs),
        norm_sq=risk.target_norm_sq(k),
    )


def _snapshot_risk(ctx: _Context, expansion) -> float:
    return float(risk.closed_form_risk(expansion.coeffs, ctx.doubled_gram, ctx.inner,
                                       ctx.norm_sq))


# ---------------------------------------------------------------------------
# algorithm presets
# ---------------------------------------------------------------------------

# The algorithms compared in the benchmarks: name -> whether it reports the
# averaged iterate (otherwise the last one). `_algorithm_spec` gives each its
# step schedule.
PRESETS = {"ours": True, "zhang": True, "ying_pontil": False, "tarres_yao": False}
ALGORITHM_NAMES = tuple(PRESETS)


def _algorithm_spec(name: str, m: int, k: int, gamma0: float, setting: str,
                    step_exponent: Optional[float] = None) -> StepSchedule:
    """The step schedule of preset `name` on problem (m, k), alpha = 2m,
    r = (2k - 1)/(4m): tarres_yao's regularized schedule pair, or the
    finite-horizon step gamma0 * N**expo with the optimal exponent for ours
    (or `step_exponent`) and -2r/(2r + 1) for zhang and ying_pontil. Online,
    only ours has a schedule, with the optimal online exponent."""
    if name not in PRESETS:
        raise ConfigurationError(f"algorithm must be one of {ALGORITHM_NAMES}")
    alpha, r = 2.0 * m, (2.0 * k - 1.0) / (4.0 * m)
    if name == "tarres_yao":
        return TarresYao(r=r)
    if setting == "online":
        if name != "ours":
            raise ConfigurationError(f"{name!r} has no online schedule")
        return Online(gamma0, -theory.step_exponent_online(alpha, r))
    if name == "ours":
        return FiniteHorizon(gamma0, step_exponent if step_exponent is not None
                             else theory.step_exponent_finite_horizon(alpha, r))
    return FiniteHorizon(gamma0, -2.0 * r / (2.0 * r + 1.0))


def _algorithm_curve(name: str, m: int, k: int, gamma0: float, setting: str,
                     ctx: _Context, cps: Sequence[int],
                     step_exponent: Optional[float] = None) -> np.ndarray:
    """Excess risk of the algorithm's designated output at each checkpoint,
    for one stream: the averaged iterate of an averaged preset, the last
    iterate otherwise. One `sgd_run` call, which raises DivergenceError at
    the first checkpoint that diverged.
    """
    step = _algorithm_spec(name, m, k, gamma0, setting, step_exponent)
    snapshots = sgd_run(ctx.kernel, (ctx.xs, ctx.ys), step, cps, gram=ctx.gram)
    return np.array([_snapshot_risk(ctx, avg if PRESETS[name] else last)
                     for last, avg in snapshots])


def _replicate_contexts(config: ExperimentConfig):
    """Yield the context of each replicate's stream, seeded by
    (master_seed, replicate index, stream digest)."""
    digest = config.stream_digest()
    for rep in range(config.replicates):
        xs, ys = sample_stream(replicate_seed(config.master_seed, rep, digest),
                               config.target_index_k, config.noise_sigma, config.n_max)
        yield _make_context(config.kernel_order_m, config.target_index_k, xs, ys)


# ---------------------------------------------------------------------------
# replicate orchestration
# ---------------------------------------------------------------------------

@dataclass
class ReplicateRun:
    checkpoints: list[int]
    per_replicate: np.ndarray          # shape (replicates, len(checkpoints))
    diverged: list[tuple[int, str]] = field(default_factory=list)

    @property
    def mean(self) -> np.ndarray:
        return self.per_replicate.mean(axis=0)


def run_replicates(config: ExperimentConfig,
                   checkpoints: Optional[Sequence[int]] = None) -> ReplicateRun:
    """Mean excess risk of the configured algorithm over independent streams.

    A replicate that diverges is recorded (its row becomes NaN and the pair
    (index, message) lands in ``diverged``) rather than silently dropped.
    """
    cps = check_checkpoints(checkpoints if checkpoints is not None else config.checkpoints(),
                            config.n_max)
    gamma0 = config.effective_gamma0()
    rows = np.full((config.replicates, len(cps)), np.nan)
    diverged: list[tuple[int, str]] = []
    for rep, ctx in enumerate(_replicate_contexts(config)):
        try:
            rows[rep] = _algorithm_curve(config.algorithm, config.kernel_order_m,
                                         config.target_index_k, gamma0, config.setting,
                                         ctx, cps)
        except DivergenceError as err:
            diverged.append((rep, str(err)))
    return ReplicateRun(cps, rows, diverged)


# ---------------------------------------------------------------------------
# step-size sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    n: int
    best_gamma: float
    mean_excess_risk: float


def default_gamma_grid(R_sq: float) -> np.ndarray:
    """Log-spaced grid of constant step sizes, 1e-2/R^2 up to 2/R^2, with 25
    points per decade."""
    lo = 1e-2 / R_sq
    hi = 2.0 / R_sq
    count = int(math.ceil(25 * math.log10(hi / lo))) + 1
    return np.geomspace(lo, hi, count)


def gamma_sweep(config: ExperimentConfig, grid: Sequence[float],
                n_values: Optional[Sequence[int]] = None) -> list[SweepRow]:
    """For each sample size n, the grid constant whose averaged iterate attains
    the smallest mean excess risk over the configured replicates.

    The sweep always runs the averaged unregularized recursion (that is the
    estimator whose optimal constant step is under study), one grid row per
    constant, read at each n through `prefix_iterate`. A constant whose run
    diverged within n steps in any replicate (`first_divergence`: a
    coefficient that is non-finite or exceeds DIVERGENCE_LIMIT) is no
    candidate at n; with none left, DivergenceError names the step and |a|
    of the constant that diverged last.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ConfigurationError("grid must be positive and strictly increasing")
    cps = check_checkpoints(n_values if n_values is not None else config.checkpoints(),
                            config.n_max)
    sums = np.zeros((len(cps), grid.size))
    bad_step = np.full(grid.size, config.n_max + 1)
    bad_value = np.zeros(grid.size)
    for ctx in _replicate_contexts(config):
        coeffs = sgd_constant_grid(ctx.gram, ctx.ys, grid)
        step, value = first_divergence(coeffs)
        earlier = step < bad_step
        bad_step[earlier], bad_value[earlier] = step[earlier], value[earlier]
        for ci, n in enumerate(cps):
            with np.errstate(invalid="ignore", over="ignore"):
                sums[ci] += risk.closed_form_risk(prefix_iterate(coeffs, n, True),
                                                  ctx.doubled_gram, ctx.inner, ctx.norm_sq)
    means = sums / config.replicates
    rows = []
    for ci, n in enumerate(cps):
        stable = bad_step > n
        if not stable.any():
            last = int(np.argmax(bad_step))
            raise DivergenceError(int(bad_step[last]), float(bad_value[last]))
        best = int(np.argmin(np.where(stable, means[ci], np.inf)))
        rows.append(SweepRow(n, float(grid[best]), float(means[ci, best])))
    return rows


# ---------------------------------------------------------------------------
# rate fitting and algorithm comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    window: tuple[int, int]            # index range [start, stop) of points used
    residual_rms: float


def fit_rate(points: Sequence[tuple[float, float]]) -> RateFit:
    """Least-squares affine fit of log10(value) against log10(n), restricted
    to the second half of the points (by index); the slope is the effective
    rate."""
    pts = list(points)
    if len(pts) < 4:
        raise ConfigurationError("need at least 4 points to fit a rate")
    start = len(pts) // 2
    window = pts[start:]
    ns = np.array([p[0] for p in window], dtype=float)
    vals = np.array([p[1] for p in window], dtype=float)
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
        raise ConfigurationError("rate fitting needs positive finite values in the window")
    lx = np.log10(ns)
    ly = np.log10(vals)
    design = np.column_stack([lx, np.ones_like(lx)])
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - (slope * lx + intercept)
    return RateFit(float(slope), float(intercept), (start, len(pts)),
                   float(np.sqrt(np.mean(resid**2))))


@dataclass(frozen=True)
class ComparisonRow:
    algorithm: str
    predicted_slope: float
    effective_slope: float
    residual_rms: float


def compare_algorithms(point: int, n_max: int = 3162, replicates: int = 15,
                       noise_sigma: Optional[float] = None, master_seed: int = 0,
                       n_checkpoints: int = 20,
                       use_table_step: bool = False) -> list[ComparisonRow]:
    """Run the four algorithms on one of the benchmark problems and report
    predicted versus fitted log-log slopes.

    All algorithms see the same streams within each replicate. The default
    noise level is the per-problem calibration in POINT_NOISE; pass
    ``noise_sigma`` to override. With ``use_table_step`` the step exponent
    of `ours` follows the published experiment table instead of the
    optimizing formula (they differ for the saturated problem, point 3).
    """
    if point not in TABLE_POINTS:
        raise ConfigurationError(f"point must be one of {sorted(TABLE_POINTS)}")
    if noise_sigma is None:
        noise_sigma = POINT_NOISE[point]
    m, k = TABLE_POINTS[point]
    cfg = ExperimentConfig(kernel_order_m=m, target_index_k=k, noise_sigma=noise_sigma,
                           n_max=n_max, n_checkpoints=n_checkpoints,
                           replicates=replicates, master_seed=master_seed)
    alpha, r = cfg.alpha, cfg.r
    gamma0 = cfg.effective_gamma0()
    override = _TABLE_STEP_EXPONENTS.get((m, k)) if use_table_step else None
    cps = cfg.checkpoints()

    sums = {name: np.zeros(len(cps)) for name in ALGORITHM_NAMES}
    for ctx in _replicate_contexts(cfg):
        for name in ALGORITHM_NAMES:
            sums[name] += _algorithm_curve(name, m, k, gamma0, "finite_horizon",
                                           ctx, cps, step_exponent=override)

    rows = []
    for name in ALGORITHM_NAMES:
        mean = sums[name] / replicates
        fit = fit_rate(list(zip(cps, mean)))
        predicted = (theory.predicted_rate(alpha, r, "fh") if name == "ours"
                     else theory.competitor_rate(r))
        rows.append(ComparisonRow(name, predicted, fit.slope, fit.residual_rms))
    return rows


@dataclass(frozen=True)
class BoundRow:
    n: int
    empirical: float
    bound: float


def bound_check(replicates: int = 15, master_seed: int = 0) -> list[BoundRow]:
    """Mean excess risk of ours next to the evaluable finite-horizon bound at
    every checkpoint.

    Runs the averaged recursion on the order-1 spline problem with the B_2
    target (sigma = 0.1, n_max = 3162), with the finite-horizon step
    exponent and gamma0 = 1/(4 R^2), which satisfies the bound's step-size
    condition at every horizon. The bound's source norm is evaluated just
    below its divergence boundary (r = 0.95 r_true), truncated at 1e6
    frequencies.
    """
    m, k = 1, 2
    R_sq = kernel_sup_sq(m)
    cfg = ExperimentConfig(kernel_order_m=m, target_index_k=k, noise_sigma=0.1,
                           gamma0=1.0 / (4.0 * R_sq), n_max=3162,
                           replicates=replicates, master_seed=master_seed)
    r_eval = 0.95 * cfg.r
    params = theory.BoundParams(
        alpha=cfg.alpha, r=r_eval, s_sq=theory.spectral_s_sq(m),
        sigma_sq=cfg.noise_sigma**2, R_sq=R_sq,
        source_norm_sq=theory.source_norm_sq_truncated(m, k, r_eval, 10**6))
    expo = theory.step_exponent_finite_horizon(cfg.alpha, cfg.r)
    run = run_replicates(cfg)
    return [BoundRow(n, float(emp),
                     theory.finite_horizon_bound(n, cfg.gamma0 * n**expo, params))
            for n, emp in zip(run.checkpoints, run.mean)]


# Step exponents as listed in the published experiment table; the entry for
# (m, k) = (1, 3) differs from the optimizing formula (see the ours override).
_TABLE_STEP_EXPONENTS = {(1, 2): -0.5, (2, 2): 0.0, (1, 3): -3.0 / 7.0, (2, 1): 0.0}


# ---------------------------------------------------------------------------
# CSV surface
# ---------------------------------------------------------------------------

def write_csv(out: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header line and one comma-separated line per row to the text
    stream `out`. Floats are printed as .16e (17 significant digits, so a
    file re-parses to the same values); integers and strings as they are."""
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(f"{v:.16e}" if isinstance(v, float) else str(v)
                           for v in row) + "\n")
