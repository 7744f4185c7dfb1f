import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from klms.bernoulli import bernoulli_poly
from klms.errors import ConfigurationError, DivergenceError
from klms.estimator import DIVERGENCE_LIMIT, FiniteHorizon, Online, prefix_iterate, sgd_run
from klms import estimator, harness, kernels
from klms.cli import main
from klms.harness import (ALGORITHM_NAMES, ComparisonRow, ExperimentConfig, _algorithm_spec,
                          _replicate_contexts, _replicate_runs, checkpoint_grid,
                          compare_algorithms, default_gamma_grid, fit_rate, gamma_sweep,
                          parse_config, replicate_seed, run_replicates,
                          sample_stream, write_csv)
from klms.kernels import SplineGram
from klms.theory import SETTINGS, step_exponent


def all_presets(cfg):
    """Every preset's schedule in the config's problem, as compare runs them."""
    return {name: _algorithm_spec(cfg, name) for name in ALGORITHM_NAMES}


class TestSampleStream:
    def test_noiseless_is_exact_target(self):
        xs, ys = sample_stream(0, 2, 0.0, 100)
        assert np.allclose(ys, bernoulli_poly(2, xs), atol=0)

    def test_same_seed_identical(self):
        a = sample_stream(123, 2, 0.1, 50)
        b = sample_stream(123, 2, 0.1, 50)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_noise_variance(self):
        xs, ys = sample_stream(7, 2, 0.1, 10**4)
        resid = ys - bernoulli_poly(2, xs)
        assert np.var(resid) == pytest.approx(0.01, rel=0.05)

    def test_inputs_in_unit_interval(self):
        xs, _ = sample_stream(5, 1, 0.0, 1000)
        assert np.all((xs >= 0.0) & (xs < 1.0))

    def test_replicate_contexts_seed_per_replicate(self):
        cfg = ExperimentConfig(kernel_order_m=2, target_index_k=3, noise_sigma=0.2,
                               n_max=30, replicates=3, master_seed=4)
        contexts = list(_replicate_contexts(cfg))
        assert len(contexts) == 3
        for rep, ctx in enumerate(contexts):
            xs, ys = sample_stream(replicate_seed(4, rep, cfg.stream_digest()), 3, 0.2, 30)
            assert np.array_equal(ctx.xs, xs) and np.array_equal(ctx.ys, ys)
            assert np.array_equal(ctx.gram[:, :], SplineGram(2, xs)[:, :])


class TestConfig:
    def test_derived_quantities(self):
        cfg = ExperimentConfig(kernel_order_m=1, target_index_k=2)
        assert cfg.alpha == 2.0
        assert cfg.delta == 4.0
        assert cfg.r == pytest.approx(0.75)
        assert cfg.effective_gamma0() == pytest.approx(12.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(kernel_order_m=5)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(algorithm="sgd")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(setting="batch")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(algorithm="zhang", setting="online")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(replicates=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(master_seed=-1)
        for bad in (np.nan, np.inf, -0.1):
            with pytest.raises(ConfigurationError):
                ExperimentConfig(noise_sigma=bad)
        for bad in (np.nan, np.inf, 0.0):
            with pytest.raises(ConfigurationError):
                ExperimentConfig(gamma0=bad)

    def test_parse_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "kernel_order_m = 2\n"
            "target_index_k = 1\n"
            "noise_sigma = 0.05\n"
            "algorithm = zhang\n"
            "# a comment\n"
            "gamma0 = none\n"
            "n_max = 500\n"
            "replicates = 3\n"
            "master_seed = 9\n")
        cfg = parse_config(str(path))
        assert cfg.kernel_order_m == 2
        assert cfg.algorithm == "zhang"
        assert cfg.gamma0 is None
        assert cfg.n_max == 500

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("kernel_order = 2\n")
        with pytest.raises(ConfigurationError):
            parse_config(str(path))

    def test_repeated_key_rejected(self, tmp_path):
        # the last value must not win silently
        path = tmp_path / "twice.cfg"
        path.write_text("n_max = 100\nreplicates = 2\nn_max = 200\n")
        with pytest.raises(ConfigurationError) as info:
            parse_config(str(path))
        assert str(info.value) == f"{path}:3: repeated key 'n_max'"

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_max = soon\n")
        with pytest.raises(ConfigurationError):
            parse_config(str(path))
        # each value is read as its field's type, with the same messages
        for line, message in (("n_max = 1.5", "n_max must be an integer"),
                              ("noise_sigma = loud", "noise_sigma must be a number"),
                              ("gamma0 = nothing", "gamma0 must be a number"),
                              ("kernel_order_m = 5", "kernel_order_m must be in {1, 2, 3, 4}")):
            path.write_text(f"\n{line}\n")
            with pytest.raises(ConfigurationError) as info:
                parse_config(str(path))
            assert str(info.value) in (f"{path}:2: {message}", message)
        path.write_text("gamma0 = DEFAULT\nalgorithm = zhang\nn_max = 7\n")
        assert parse_config(str(path)) == ExperimentConfig(algorithm="zhang", n_max=7)

    def test_stream_digest_ignores_algorithm(self):
        a = ExperimentConfig(algorithm="ours").stream_digest()
        b = ExperimentConfig(algorithm="zhang").stream_digest()
        c = ExperimentConfig(algorithm="ours", noise_sigma=0.2).stream_digest()
        assert a == b
        assert a != c

    def test_stream_digest_ignores_the_spelling_of_sigma(self):
        # one distribution, one stream: an int, a float or a negative zero
        for spellings in ((0, 0.0, -0.0), (1, 1.0)):
            digests = {ExperimentConfig(noise_sigma=s).stream_digest() for s in spellings}
            assert len(digests) == 1, spellings
        # float configs keep the streams they had before the normalisation
        assert ExperimentConfig().stream_digest() == 6576167344725927395

    @pytest.mark.parametrize("setting", SETTINGS)
    @pytest.mark.parametrize("point", sorted(harness.TABLE_POINTS))
    def test_ours_takes_theorys_exponent_unchanged(self, point, setting):
        # every setting theory knows is a config setting, and the exponent of
        # ours is theory's, neither negated nor re-derived
        m, k = harness.TABLE_POINTS[point]
        cfg = ExperimentConfig(kernel_order_m=m, target_index_k=k, setting=setting)
        kind = Online if setting == "online" else FiniteHorizon
        assert harness._algorithm_spec(cfg, "ours") == kind(
            cfg.effective_gamma0(), step_exponent(cfg.alpha, cfg.r, setting))


class TestCheckpoints:
    def test_grid_properties(self):
        cps = checkpoint_grid(3162, 20)
        assert cps[0] == 1
        assert cps[-1] == 3162
        assert all(b > a for a, b in zip(cps, cps[1:]))

    def test_small_n_max(self):
        assert checkpoint_grid(5, 10)[-1] == 5

    @pytest.mark.parametrize("n_max", [1, 2, 7, 500, 3162, 10**5])
    def test_last_checkpoint_is_n_max(self, n_max):
        assert checkpoint_grid(n_max, 1) == [n_max]
        for count in range(2, 26):
            cps = checkpoint_grid(n_max, count)
            # unchanged from the plain rounded geometric grid
            want = np.unique(np.round(np.geomspace(1, n_max, count)).astype(int))
            assert cps == want.tolist() and cps[-1] == n_max, count

    def test_single_checkpoint_run_reaches_n_max(self):
        cfg = ExperimentConfig(n_max=500, n_checkpoints=1, replicates=1)
        assert run_replicates(cfg).checkpoints == [500]


class TestFitRate:
    def test_exact_power_law(self):
        ns = np.geomspace(10, 10**4, 12)
        fit = fit_rate([(n, n**-0.5) for n in ns])
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.residual_rms <= 1e-12

    def test_constant_values(self):
        fit = fit_rate([(n, 2.5) for n in (10, 100, 1000, 10000)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_window_is_second_half(self):
        # first half wildly off the law; only the second half is fitted
        pts = [(10, 99.0), (20, 1e-9)] + [(n, n**-0.75) for n in (100, 1000)]
        fit = fit_rate(pts)
        assert fit.window == (2, 4)
        assert fit.slope == pytest.approx(-0.75, abs=1e-12)

    def test_noisy_synthetic(self):
        rng = np.random.default_rng(11)
        ns = np.geomspace(10, 10**4, 24)
        vals = ns**-0.75 * (1.0 + 0.1 * rng.uniform(-1, 1, ns.size))
        fit = fit_rate(list(zip(ns, vals)))
        assert fit.slope == pytest.approx(-0.75, abs=0.05)

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigurationError):
            fit_rate([(10, 1.0), (100, 0.1)])
        with pytest.raises(ConfigurationError):
            fit_rate([(10, 1.0), (20, 1.0), (100, -0.1), (1000, 0.5)])


class TestRunReplicates:
    def test_single_replicate_mean_is_the_run(self):
        cfg = ExperimentConfig(n_max=60, replicates=1, master_seed=4)
        run = run_replicates(cfg)
        assert run.per_replicate.shape == (1, len(run.checkpoints))
        assert np.array_equal(run.mean, run.per_replicate[0])

    def test_deterministic_repeat(self):
        cfg = ExperimentConfig(n_max=80, replicates=3, master_seed=2)
        a = run_replicates(cfg)
        b = run_replicates(cfg)
        assert np.array_equal(a.per_replicate, b.per_replicate)

    def test_replicate_order_free_mean(self):
        cfg = ExperimentConfig(n_max=80, replicates=4, master_seed=3)
        run = run_replicates(cfg)
        permuted = run.per_replicate[::-1].mean(axis=0)
        assert np.allclose(run.mean, permuted, atol=1e-12)

    def test_noiseless_consistency(self):
        cfg = ExperimentConfig(kernel_order_m=1, target_index_k=1, noise_sigma=0.0,
                               algorithm="ours", n_max=1000, n_checkpoints=4,
                               replicates=1, master_seed=0)
        run = run_replicates(cfg)
        assert run.checkpoints == [1, 10, 100, 1000]
        assert run.mean[3] < run.mean[1]

    def test_all_four_algorithms_run(self):
        for name in ("ours", "zhang", "ying_pontil", "tarres_yao"):
            cfg = ExperimentConfig(algorithm=name, n_max=40, n_checkpoints=2,
                                   replicates=1, master_seed=1)
            run = run_replicates(cfg)
            assert run.checkpoints == [1, 40]
            assert np.all(np.isfinite(run.per_replicate))

    def test_online_setting(self):
        cfg = ExperimentConfig(algorithm="ours", setting="online", n_max=60,
                               n_checkpoints=1, replicates=1)
        run = run_replicates(cfg)
        assert run.checkpoints == [60] and np.isfinite(run.mean[0])

    @pytest.mark.parametrize("name", ["ours", "zhang"])
    def test_divergence_recorded_per_replicate(self, name):
        # raised after all replicates: the first replicate's divergence, with
        # the second's in its also
        cfg = ExperimentConfig(algorithm=name, gamma0=1e4, n_max=60, replicates=2)
        with pytest.raises(DivergenceError) as got:
            run_replicates(cfg)
        errors = [got.value, *got.value.also]
        assert [str(err).endswith(f"({name}, replicate {rep})")
                for rep, err in enumerate(errors)] == [True, True]
        assert all("diverged at step" in str(err) for err in errors)

    def test_divergence_names_first_bad_step(self):
        # oracle: one run per horizon, in checkpoint order, each with its own
        # constant step gamma and solved as the triangular system
        # (I + gamma tril(K, -1)) a = gamma y; the first run holding a
        # coefficient beyond the limit names the step
        gamma0 = 1e3
        cfg = ExperimentConfig(n_max=200, gamma0=gamma0, replicates=1)
        cps = cfg.checkpoints()
        ctx = next(_replicate_contexts(cfg))
        expo = step_exponent(cfg.alpha, cfg.r)
        want = None
        for horizon in cps:
            gamma = gamma0 * horizon**expo
            gram = SplineGram(cfg.kernel_order_m, ctx.xs[:horizon])[:, :]
            system = np.eye(horizon) + gamma * np.tril(gram, -1)
            coeffs = solve_triangular(system, gamma * ctx.ys[:horizon], lower=True)
            bad = ~(np.abs(coeffs) <= DIVERGENCE_LIMIT)
            if bad.any():
                want = (int(np.argmax(bad)) + 1, abs(coeffs[np.argmax(bad)]))
                break
        assert want is not None and horizon > cps[0] and want[0] < horizon
        with pytest.raises(DivergenceError) as got:
            run_replicates(cfg)
        assert got.value.step == want[0]
        assert got.value.value == pytest.approx(want[1], rel=1e-9)
        assert got.value.also == () and str(got.value).endswith("(ours, replicate 0)")

    def test_online_competitor_rejected(self):
        # rejected by the config, before any replicate's Gram matrix is built
        with pytest.raises(ConfigurationError):
            cfg = ExperimentConfig(algorithm="zhang", setting="online", n_max=40,
                                   replicates=1)
            run_replicates(cfg)


class TestGammaSweep:
    def test_single_element_grid(self):
        cfg = ExperimentConfig(n_max=50, n_checkpoints=2, replicates=2, master_seed=5)
        rows = gamma_sweep(cfg, [3.0])
        assert [row.n for row in rows] == [1, 50]
        assert [row.best_gamma for row in rows] == [3.0, 3.0]

    def test_noiseless_prefers_largest_stable_step(self):
        cfg = ExperimentConfig(noise_sigma=0.0, n_max=200, n_checkpoints=4, replicates=2,
                               master_seed=6)
        rows = gamma_sweep(cfg, [1.0, 4.0, 12.0])
        assert [row.n for row in rows] == [1, 6, 34, 200]
        assert all(row.best_gamma == 12.0 for row in rows)

    def test_grid_validation(self):
        cfg = ExperimentConfig(n_max=50, replicates=1)
        with pytest.raises(ConfigurationError):
            gamma_sweep(cfg, [])
        with pytest.raises(ConfigurationError):
            gamma_sweep(cfg, [2.0, 1.0])
        # non-finite constants are a bad grid, not a divergence or a winner
        for grid in ([np.nan, 0.5, 1.0], [0.1, np.inf], [0.1, np.inf, np.inf]):
            with pytest.raises(ConfigurationError, match="finite"):
                gamma_sweep(cfg, grid)

    def test_all_points_diverged_names_step_and_value(self):
        # gamma R^2 >= 1e4: every grid point's coefficients pass the limit
        # within the first steps, so no checkpoint has a stable candidate
        cfg = ExperimentConfig(n_max=60, replicates=1)
        ctx = next(_replicate_contexts(cfg))
        for count in (2, 3):
            with pytest.raises(DivergenceError) as got:
                gamma_sweep(dataclasses.replace(cfg, n_checkpoints=count), [1e5, 1e6])
            step = got.value.step
            assert 1 <= step <= 5
            # the smaller step diverges last; its coefficients solve
            # (I + gamma tril(K, -1)) a = gamma y
            gram = SplineGram(cfg.kernel_order_m, ctx.xs[:step])[:, :]
            system = np.eye(step) + 1e5 * np.tril(gram, -1)
            coeffs = solve_triangular(system, 1e5 * ctx.ys[:step], lower=True)
            assert np.all(np.abs(coeffs[:-1]) <= DIVERGENCE_LIMIT)
            assert got.value.value == pytest.approx(abs(coeffs[-1]), rel=1e-9)
            assert got.value.value > DIVERGENCE_LIMIT
            assert str(got.value).endswith("(gamma = 100000)")

    def test_diverged_point_never_selected(self):
        cfg = ExperimentConfig(n_max=60, n_checkpoints=3, replicates=1)
        rows = gamma_sweep(cfg, [1.0, 1e5])
        assert [row.n for row in rows] == [1, 8, 60]
        assert [row.best_gamma for row in rows] == [1.0, 1.0, 1.0]
        assert all(row.mean_excess_risk < 1.0 for row in rows)

    def test_default_grid_shape(self):
        grid = default_gamma_grid(1 / 12)
        assert grid[0] == pytest.approx(0.12)
        assert grid[-1] == pytest.approx(24.0)
        assert np.all(np.diff(np.log(grid)) > 0)


class TestCompare:
    def test_smoke_rows(self):
        rows = compare_algorithms(1, n_max=120, replicates=2, noise_sigma=0.1)
        assert [r.algorithm for r in rows] == ["ours", "zhang", "ying_pontil",
                                               "tarres_yao"]
        ours = rows[0]
        assert ours.predicted_slope == pytest.approx(-0.75)
        assert np.isfinite(ours.effective_slope)
        assert rows[1].predicted_slope == pytest.approx(-0.6)

    def test_invalid_point(self):
        with pytest.raises(ConfigurationError):
            compare_algorithms(5, n_max=50, replicates=1)

    def test_one_run_per_distinct_schedule(self, monkeypatch):
        # one sgd_run call and one grid pass per replicate, carrying the 3
        # distinct schedules (zhang and ying_pontil share one) and answering
        # with the rows of each
        calls, passes = [], []

        def counting(*args, **kwargs):
            runs = sgd_run(*args, **kwargs)
            calls.append((args[2], runs))
            return runs

        def grid(*args, **kwargs):
            passes.append(len(args[2]))
            return grid_pass(*args, **kwargs)

        grid_pass = estimator.sgd_constant_grid
        monkeypatch.setattr(harness, "sgd_run", counting)
        monkeypatch.setattr(estimator, "sgd_constant_grid", grid)
        compare_algorithms(1, n_max=60, replicates=2)
        assert len(calls) == 2 and passes == [3, 3]
        for steps, runs in calls:
            assert len(steps) == len(set(steps)) == len(runs) == 3
            assert all(rows.shape[1] == 60 and len(row_of) == len(checkpoint_grid(60, 20))
                       for rows, _, row_of in runs)

    def test_shared_run_matches_standalone_runs(self):
        # each preset's curve is bitwise its run_replicates curve inside the
        # first time block, where no GEMM reads earlier coefficients
        cfg = ExperimentConfig(kernel_order_m=2, target_index_k=2, n_max=120, replicates=2)
        runs = _replicate_runs(cfg, all_presets(cfg))
        for name in ALGORITHM_NAMES:
            alone = run_replicates(dataclasses.replace(cfg, algorithm=name))
            assert np.array_equal(runs[name].per_replicate, alone.per_replicate)

    def test_shared_run_matches_standalone_runs_over_blocks(self):
        # past the first block the merged grid's GEMM has more rows, which
        # can reorder BLAS sums. Measured on x86-64 OpenBLAS at n_max = 700
        # (6 blocks): at most 8.4e-12 relative, in point 2's small risks
        cfg = ExperimentConfig(kernel_order_m=2, target_index_k=2, n_max=700, replicates=2)
        runs = _replicate_runs(cfg, all_presets(cfg))
        for name in ALGORITHM_NAMES:
            alone = run_replicates(dataclasses.replace(cfg, algorithm=name))
            assert np.allclose(runs[name].per_replicate, alone.per_replicate,
                               rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("point", sorted(harness.TABLE_POINTS))
    def test_presets_scored_together_as_alone(self, point):
        # a replicate scores the snapshots of all its presets in one stacked
        # call; every risk is bitwise the one its preset's own call gives
        m, k = harness.TABLE_POINTS[point]
        cfg = ExperimentConfig(kernel_order_m=m, target_index_k=k, n_max=700, replicates=2)
        presets = all_presets(cfg)
        runs = _replicate_runs(cfg, presets)
        steps = list(dict.fromkeys(presets.values()))
        cps = cfg.checkpoints()
        for rep, ctx in enumerate(_replicate_contexts(cfg)):
            results = dict(zip(steps, sgd_run(ctx.gram, ctx.ys, steps, cps)))
            for name, step in presets.items():
                rows, shrinks, row_of = results[step]
                stack = np.zeros((len(cps), cps[-1]))
                for c, n in enumerate(cps):
                    stack[c, :n] = prefix_iterate(rows[row_of[c]], n, harness.PRESETS[name],
                                                  shrinks)
                alone = ctx.excess_risk(stack)
                assert np.array_equal(runs[name].per_replicate[rep], alone)

    @pytest.mark.parametrize("point", [2, 4])
    def test_power_tables_move_slopes_by_rounding(self, monkeypatch, point):
        # the binned evaluators' centred powers are running products, not
        # libm's pow: the recursion's predictions move by rounding, which
        # the m = 2 points amplify most. Measured on x86-64: slopes moved by
        # at most 4.8e-12 relative here (2.8e-12 with 15 replicates, seeds
        # 0-2), the fits' residuals by 1.4e-11 (2.3e-11)
        got = compare_algorithms(point, n_max=3162, replicates=2)
        monkeypatch.setattr(kernels, "_power_table", lambda d, count, axis=-1: (
            np.ascontiguousarray(np.moveaxis(d[..., None] ** np.arange(count), -1, axis))))
        want = compare_algorithms(point, n_max=3162, replicates=2)
        for g, w in zip(got, want):
            assert g.effective_slope == pytest.approx(w.effective_slope, rel=1e-11, abs=0.0)
            assert g.residual_rms == pytest.approx(w.residual_rms, rel=1e-10, abs=0.0)

    def test_end_to_end_determinism(self):
        a = compare_algorithms(4, n_max=100, replicates=2, noise_sigma=0.1, master_seed=7)
        b = compare_algorithms(4, n_max=100, replicates=2, noise_sigma=0.1, master_seed=7)
        assert a == b


class TestCsv:
    def test_simulate_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "sim.cfg"
        cfg_path.write_text("n_max = 40\nreplicates = 2\nn_checkpoints = 3\nmaster_seed = 8\n")
        run = run_replicates(parse_config(str(cfg_path)))
        path = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(path)]) == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "n,replicate,excess_risk"
        got = {}
        for line in lines[1:]:
            n, rep, val = line.split(",")
            got[(int(n), int(rep))] = float(val)
        for rep in range(2):
            for ci, n in enumerate(run.checkpoints):
                assert got[(n, rep)] == pytest.approx(
                    run.per_replicate[rep, ci], abs=1e-12)

    def test_sweep_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text("n_max = 40\nreplicates = 1\nn_checkpoints = 4\nmaster_seed = 9\n")
        rows = gamma_sweep(parse_config(str(cfg_path)), [1.0, 6.0])
        path = tmp_path / "sweep.csv"
        assert main(["gamma-sweep", "--config", str(cfg_path), "--grid-min", "1",
                     "--grid-max", "6", "--grid-points", "2", "--out", str(path)]) == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "n,best_gamma,mean_excess_risk"
        assert len(lines) == len(rows) + 1
        for line, row in zip(lines[1:], rows):
            n, g, v = line.split(",")
            assert int(n) == row.n
            assert float(g) == row.best_gamma
            assert float(v) == row.mean_excess_risk

    def test_compare_schema(self, tmp_path, monkeypatch, capsys):
        rows = [ComparisonRow("ours", -0.75, -0.73, 0.01)]
        monkeypatch.setattr(harness, "compare_algorithms", lambda *args, **kwargs: rows)
        path = tmp_path / "cmp.csv"
        assert main(["compare", "--point", "1", "--out", str(path)]) == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "algorithm,predicted_slope,effective_slope,residual_rms"
        name, p, e, r = lines[1].split(",")
        assert name == "ours"
        assert float(p) == -0.75
        assert float(e) == -0.73

    def test_write_csv_formats(self):
        out = io.StringIO()
        write_csv(out, ("n", "name", "value"),
                  [(3, "ours", 0.1), (np.int64(4), "zhang", np.float64(-2.5))])
        assert out.getvalue() == ("n,name,value\n"
                                  "3,ours,1.0000000000000001e-01\n"
                                  "4,zhang,-2.5000000000000000e+00\n")


class TestSeeding:
    def test_replicate_seeds_distinct(self):
        s0 = replicate_seed(0, 0, 42)
        s1 = replicate_seed(0, 1, 42)
        a = np.random.default_rng(s0).random(4)
        b = np.random.default_rng(s1).random(4)
        assert not np.allclose(a, b)

    def test_replicate_seed_stable(self):
        a = np.random.default_rng(replicate_seed(3, 1, 7)).random(4)
        b = np.random.default_rng(replicate_seed(3, 1, 7)).random(4)
        assert np.array_equal(a, b)


class TestNoDenseGram:
    """No run holds an (n, n) array: the recursion computes its Gram strips
    on demand. At n = 4000 one n x n float64 array is 128 MB; the peak of
    everything numpy and Python allocate during a run must stay below a
    quarter of it (measured on x86-64 with numpy 2.4: at most 8.6 MB, the
    m = 2 sweep)."""

    N = 4000
    LIMIT = N * N * 8 // 4

    @staticmethod
    def traced_peak(run) -> int:
        # a small run first, so imports and caches stay out of the peak
        gamma_sweep(ExperimentConfig(n_max=200, replicates=1), [1.0])
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("point", sorted(harness.TABLE_POINTS))
    def test_replicate_runs_of_all_presets(self, point):
        m, k = harness.TABLE_POINTS[point]
        cfg = ExperimentConfig(kernel_order_m=m, target_index_k=k, n_max=self.N, replicates=1)
        peak = self.traced_peak(
            lambda: _replicate_runs(cfg, all_presets(cfg)))
        assert peak < self.LIMIT

    @pytest.mark.parametrize("m", [1, 2])
    def test_gamma_sweep(self, m):
        cfg = ExperimentConfig(kernel_order_m=m, n_max=self.N, replicates=1)
        peak = self.traced_peak(lambda: gamma_sweep(cfg, default_gamma_grid(cfg.R_sq)))
        assert peak < self.LIMIT

    def test_compare_replicate_at_n_20000(self):
        # besides the coefficient grid, the predictor's slotted copy of it
        # and the one stack the harness scores, no array of a replicate has
        # one entry per row and step, and none grows as n^1.5: measured
        # 27.1 MB, against 39.5 MB with (last, averaged) stacks per schedule
        # and 95.1 MB with stored near blocks and per-step schedule copies
        peak = self.traced_peak(lambda: compare_algorithms(1, n_max=20000, replicates=1))
        assert peak <= 45e6

    @pytest.mark.parametrize("kind, limit", [("compare", 30e6), ("sweep", 18e6)])
    def test_replicates_share_one_peak(self, kind, limit):
        # a replicate's grid rows (and compare's scored stack) are freed
        # before the next replicate runs, so two replicates peak as one:
        # measured 27.1 -> 27.1 MB for compare at n = 20000 and 16.3 -> 16.7
        # MB for the sweep at n = 10000, against 39.5 -> 48.7 and
        # 16.3 -> 21.4 MB when they outlived it
        def run(replicates):
            if kind == "compare":
                return lambda: compare_algorithms(1, n_max=20000, replicates=replicates)
            cfg = ExperimentConfig(n_max=10000, replicates=replicates)
            return lambda: gamma_sweep(cfg, default_gamma_grid(cfg.R_sq))

        one, two = self.traced_peak(run(1)), self.traced_peak(run(2))
        assert two <= 1.05 * one and two <= limit
