"""Experiment harness: data generation, replicate orchestration, step-size
sweeps, rate fitting, the four-algorithm comparison, and the bound check.

All randomness flows through numpy SeedSequences built from
(master_seed, replicate_index, stream_digest), so replicates are independent
of execution order and two configs that describe the same data distribution
see the same streams. Every preset runs through one driver, `_replicate_runs`:
per replicate it builds one context (the lazy `kernels.SplineGram`, from
whose bins the recursion predicts, and the `risk.ClosedFormRisk` of the
stream, which holds the parts of its closed-form risk) and one `sgd_run`
over all distinct step schedules, so the recursion passes over the stream
once per replicate. Its rows are judged with `first_divergence`, and
`prefix_iterate` writes each preset's iterates into one zero-padded stack,
scored in one closed-form call. A divergence raises after all replicates,
naming its preset and replicate and carrying every other one; the
step-size sweep reads its grid the same way but drops a diverged row. No
run holds an (n, n) array.
"""

from __future__ import annotations

import hashlib
import math
import typing
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

from . import risk, theory
from .bernoulli import bernoulli_poly
from .errors import ConfigurationError, DivergenceError
from .estimator import (FiniteHorizon, Online, StepSchedule, TarresYao, first_divergence,
                        prefix_iterate, sgd_constant_grid, sgd_run)
from .kernels import SUPPORTED_ORDERS, SplineGram, kernel_sup_sq

# The four benchmark problems: point -> (kernel order m, target index k).
TABLE_POINTS = {1: (1, 2), 2: (2, 2), 3: (1, 3), 4: (2, 1)}

# Noise levels for the published-table reproduction. The source experiments
# never state their noise, and the effective slopes over a finite window are
# noise sensitive, so these are calibrated per problem: the flat-spectrum
# problems reproduce with sigma = 0.1, the order-2 kernel with the B_2 target
# needs lower noise for the bias range to show, and the saturated problem
# needs more noise so the non-averaged competitor pays its variance.
POINT_NOISE = {1: 0.1, 2: 0.05, 3: 0.5, 4: 0.1}

# Step exponents of ours as listed in the published experiment table; the
# entry for point 3 differs from the optimizing formula.
_TABLE_STEP_EXPONENTS = {1: -0.5, 2: 0.0, 3: -3.0 / 7.0, 4: 0.0}

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
        if self.kernel_order_m not in SUPPORTED_ORDERS:
            raise ConfigurationError("kernel_order_m must be in {%s}"
                                     % ", ".join(map(str, SUPPORTED_ORDERS)))
        if not 1 <= self.target_index_k <= 4:
            raise ConfigurationError("target_index_k must be in 1..4")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigurationError("noise_sigma must be finite and non-negative")
        if self.setting not in theory.SETTINGS:
            raise ConfigurationError(f"setting must be one of {list(theory.SETTINGS)}")
        if self.gamma0 is not None and not (math.isfinite(self.gamma0) and self.gamma0 > 0):
            raise ConfigurationError("gamma0 must be finite and positive")
        if self.n_max < 1 or self.n_checkpoints < 1 or self.replicates < 1:
            raise ConfigurationError("n_max, n_checkpoints and replicates must be >= 1")
        if self.master_seed < 0:
            # numpy's SeedSequence takes only non-negative entropy
            raise ConfigurationError("master_seed must be non-negative")
        _algorithm_spec(self, self.algorithm)

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
        """Stable hash of the fields that determine the data stream, with sigma
        as a float (0 == -0.0), so runs differing only in algorithm share it."""
        text = (f"m={self.kernel_order_m};k={self.target_index_k};"
                f"sigma={float(self.noise_sigma) + 0.0!r};n={self.n_max}")
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
# a config value's type -> the noun of its error message
_TYPE_NOUNS = {int: "an integer", float: "a number", str: "text"}


def parse_config(path: str) -> ExperimentConfig:
    """Read a flat ``key = value`` file with exactly the ExperimentConfig
    field names; unknown and repeated keys are errors, and so is a path that
    cannot be read as UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeError) as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from None
    values = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = text.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"{path}:{lineno}: repeated key {key!r}")
        values[key] = _coerce_field(key, raw, path, lineno)
    return ExperimentConfig(**values)


def _coerce_field(key: str, raw: str, path: str, lineno: int):
    """`raw` as the type of field `key`; an Optional[X] field reads "none" or
    "default" (any case) as None."""
    kind = _FIELD_TYPES[key]
    if typing.get_origin(kind) is typing.Union:
        if raw.lower() in ("none", "default"):
            return None
        kind = typing.get_args(kind)[0]
    try:
        return kind(raw)
    except ValueError:
        raise ConfigurationError(f"{path}:{lineno}: {key} must be {_TYPE_NOUNS[kind]}") from None


def checkpoint_grid(n_max: int, count: int) -> list[int]:
    """count log-spaced sample sizes from 1 to n_max, deduplicated, the last n_max."""
    grid = np.append(np.geomspace(CHECKPOINT_FLOOR, n_max, count)[:-1], n_max)
    return np.unique(np.round(grid).astype(int)).tolist()


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
    xs: np.ndarray
    ys: np.ndarray
    gram: SplineGram
    # the closed-form excess risk of coefficients on a prefix of the stream,
    # or of each row of a (p, n) stack of them
    excess_risk: risk.ClosedFormRisk


def _make_context(m: int, k: int, xs: np.ndarray, ys: np.ndarray) -> _Context:
    # nothing here is n x n: the recursion predicts from the Gram matrix's bins
    return _Context(xs=xs, ys=ys, gram=SplineGram(m, xs),
                    excess_risk=risk.ClosedFormRisk(m, k, xs))


# ---------------------------------------------------------------------------
# algorithm presets
# ---------------------------------------------------------------------------

# The algorithms compared in the benchmarks: name -> whether it reports the
# averaged iterate (otherwise the last one). `_algorithm_spec` gives each its
# step schedule.
PRESETS = {"ours": True, "zhang": True, "ying_pontil": False, "tarres_yao": False}
ALGORITHM_NAMES = tuple(PRESETS)


def _algorithm_spec(config: ExperimentConfig, name: str) -> StepSchedule:
    """The step schedule of preset `name` in the config's problem and setting,
    its exponent taken unchanged from `theory`: tarres_yao's regularized
    schedule pair and the finite-horizon steps of zhang and ying_pontil read
    `theory.competitor_rate`, ours reads `theory.step_exponent` in either
    setting. Online, only ours has a schedule."""
    if name not in PRESETS:
        raise ConfigurationError(f"algorithm must be one of {ALGORITHM_NAMES}")
    alpha, r, gamma0 = config.alpha, config.r, config.effective_gamma0()
    if name == "tarres_yao":
        return TarresYao(theory.competitor_rate(r))
    if name == "ours":
        return (Online if config.setting == "online" else FiniteHorizon)(
            gamma0, theory.step_exponent(alpha, r, config.setting))
    if config.setting == "online":
        raise ConfigurationError(f"{name!r} has no online schedule")
    return FiniteHorizon(gamma0, theory.competitor_rate(r))


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

    @property
    def mean(self) -> np.ndarray:
        return self.per_replicate.mean(axis=0)


def _replicate_runs(config: ExperimentConfig,
                    presets: dict[str, StepSchedule]) -> dict[str, ReplicateRun]:
    """Curves of the presets, name -> step schedule, at the config's
    checkpoints on its replicates (see `_replicate_curves`). Every
    divergence is collected; after all replicates the first, by preset and
    then replicate, is raised with every later one in its ``also``."""
    cps = config.checkpoints()
    by_step: dict[StepSchedule, list[str]] = {}
    for name, step in presets.items():
        by_step.setdefault(step, []).append(name)
    risks: dict[str, list] = {name: [] for name in presets}
    failed: dict[str, list] = {name: [] for name in presets}
    for rep, ctx in enumerate(_replicate_contexts(config)):
        for name, curve in _replicate_curves(ctx, by_step, cps, rep).items():
            (failed if isinstance(curve, DivergenceError) else risks)[name].append(curve)
    errors = [err for errs in failed.values() for err in errs]
    if errors:
        errors[0].also = tuple(errors[1:])
        raise errors[0]
    return {name: ReplicateRun(cps, np.array(risks[name])) for name in presets}


def _replicate_curves(ctx: _Context, by_step: dict[StepSchedule, list[str]],
                      cps: list[int], rep: int) -> dict:
    """Per preset of `by_step` (schedule -> presets), its risk curve on
    replicate `rep`, or the DivergenceError of its schedule naming the
    preset and replicate. One `sgd_run` runs each distinct schedule once,
    in order of first appearance, and its rows are judged; each preset that
    did not diverge writes its iterate (see PRESETS) at every checkpoint
    into one zero-padded stack, scored in one call. Rows and stack are
    freed on return."""
    curves, picks = {}, []
    runs = sgd_run(ctx.gram, ctx.ys, list(by_step), cps)
    for (rows, shrinks, row_of), group in zip(runs, by_step.values()):
        step, value = first_divergence(rows, shrinks)
        bad = row_of[step[row_of] <= cps]  # the rows of diverged checkpoints, in order
        for name in group:
            if bad.size:
                curves[name] = DivergenceError(int(step[bad[0]]), float(value[bad[0]]),
                                               f"{name}, replicate {rep}")
            else:
                picks.append((name, rows, shrinks, row_of))
    stack = np.zeros((len(picks), len(cps), cps[-1]))
    for (name, rows, shrinks, row_of), out in zip(picks, stack):
        for c, n in enumerate(cps):
            out[c, :n] = prefix_iterate(rows[row_of[c]], n, PRESETS[name], shrinks)
    curves.update((name, curve) for (name, *_), curve in zip(picks, ctx.excess_risk(stack)))
    return curves


def run_replicates(config: ExperimentConfig) -> ReplicateRun:
    """Excess risk of the configured algorithm at the config's checkpoints
    over independent streams. A divergence raises after all replicates (see
    `_replicate_runs`)."""
    name = config.algorithm
    return _replicate_runs(config, {name: _algorithm_spec(config, name)})[name]


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


def gamma_sweep(config: ExperimentConfig, grid: Sequence[float]) -> list[SweepRow]:
    """For each of the config's checkpoints n, the grid constant whose
    averaged iterate attains the smallest mean excess risk over the
    configured replicates.

    The sweep always runs the averaged unregularized recursion (that is the
    estimator whose optimal constant step is under study), one grid row per
    constant, read at each n through `prefix_iterate`. A constant whose run
    diverged within n steps in any replicate (`first_divergence`: a
    coefficient that is non-finite or exceeds DIVERGENCE_LIMIT) is no
    candidate at n; with none left, DivergenceError names the step, |a| and
    gamma of the constant that diverged last.
    """
    grid = np.asarray(grid, dtype=float)
    if (grid.size == 0 or not np.all(np.isfinite(grid)) or np.any(grid <= 0)
            or np.any(np.diff(grid) <= 0)):
        raise ConfigurationError("grid must be finite, positive and strictly increasing")
    cps = config.checkpoints()
    sums = np.zeros((len(cps), grid.size))
    bad_step = np.full(grid.size, config.n_max + 1)
    bad_value = np.zeros(grid.size)
    for ctx in _replicate_contexts(config):
        coeffs = sgd_constant_grid(ctx.gram, ctx.ys, grid)
        step, value = first_divergence(coeffs)
        earlier = step < bad_step
        bad_step[earlier], bad_value[earlier] = step[earlier], value[earlier]
        with np.errstate(invalid="ignore", over="ignore"):
            sums += [ctx.excess_risk(prefix_iterate(coeffs, n, True)) for n in cps]
        del coeffs  # before the next replicate's grid
    means = sums / config.replicates
    rows = []
    for ci, n in enumerate(cps):
        stable = bad_step > n
        if not stable.any():
            last = int(np.argmax(bad_step))
            raise DivergenceError(int(bad_step[last]), float(bad_value[last]),
                                  f"gamma = {grid[last]:.6g}")
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


def check_fit_points(count: int) -> None:
    """Raise ConfigurationError if `count` points are too few for `fit_rate`;
    callers check before computing the points."""
    if count < 4:
        raise ConfigurationError("need at least 4 points to fit a rate")


def fit_rate(points: Sequence[tuple[float, float]]) -> RateFit:
    """Least-squares affine fit of log10(value) against log10(n), restricted
    to the second half of the points (by index); the slope is the effective
    rate."""
    pts = list(points)
    check_fit_points(len(pts))
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
                       use_table_step: bool = False) -> list[ComparisonRow]:
    """Run the four algorithms on one of the benchmark problems and report
    predicted versus fitted log-log slopes.

    All algorithms see the same streams within each replicate (zhang and
    ying_pontil the same run). The default noise level is the per-problem
    calibration in POINT_NOISE; pass ``noise_sigma`` to override. With
    ``use_table_step`` the step exponent of `ours` follows the published
    experiment table instead of the optimizing formula (they differ for the
    saturated problem, point 3). Too few checkpoints to fit a rate raise
    ConfigurationError before any replicate runs. A divergence raises after
    all replicates, naming its preset and replicate, and carries every
    other one.
    """
    if point not in TABLE_POINTS:
        raise ConfigurationError(f"point must be one of {sorted(TABLE_POINTS)}")
    m, k = TABLE_POINTS[point]
    cfg = ExperimentConfig(kernel_order_m=m, target_index_k=k, n_max=n_max,
                           noise_sigma=POINT_NOISE[point] if noise_sigma is None else noise_sigma,
                           replicates=replicates, master_seed=master_seed)
    check_fit_points(len(cfg.checkpoints()))
    presets = {name: _algorithm_spec(cfg, name) for name in ALGORITHM_NAMES}
    if use_table_step:
        presets["ours"] = FiniteHorizon(cfg.effective_gamma0(), _TABLE_STEP_EXPONENTS[point])
    runs = _replicate_runs(cfg, presets)
    rows = []
    for name, run in runs.items():
        fit = fit_rate(list(zip(run.checkpoints, run.mean)))
        predicted = (theory.predicted_rate(cfg.alpha, cfg.r, cfg.setting) if name == "ours"
                     else theory.competitor_rate(cfg.r))
        rows.append(ComparisonRow(name, predicted, fit.slope, fit.residual_rms))
    return rows


@dataclass(frozen=True)
class BoundRow:
    n: int
    empirical: float
    bound: float
    ratio: float                       # empirical / bound


def bound_check(replicates: int = 15, master_seed: int = 0) -> list[BoundRow]:
    """Mean excess risk of ours next to the evaluable finite-horizon bound at
    every checkpoint.

    Runs the averaged recursion on the order-1 spline problem with the B_2
    target (sigma = 0.1, n_max = 3162), with the finite-horizon step
    exponent and gamma0 = 1/(4 R^2), which satisfies the bound's step-size
    condition at every horizon. The bound's source norm is evaluated just
    below its divergence boundary (r = 0.95 r_true), truncated at 1e6
    frequencies. A divergence raises after all replicates, naming its
    replicate, and carries every other one.
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
    run = run_replicates(cfg)
    steps = _algorithm_spec(cfg, cfg.algorithm).at(run.checkpoints)
    bounds = [theory.finite_horizon_bound(n, float(gamma), params)
              for n, gamma in zip(run.checkpoints, steps)]
    return [BoundRow(n, float(emp), bound, float(emp) / bound)
            for n, emp, bound in zip(run.checkpoints, run.mean, bounds)]


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
