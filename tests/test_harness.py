import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from klms.bernoulli import bernoulli_poly
from klms.errors import ConfigurationError, DivergenceError
from klms.estimator import DIVERGENCE_LIMIT, FiniteHorizon, Online, sgd_run
from klms import harness
from klms.cli import main
from klms.harness import (ALGORITHM_NAMES, ComparisonRow, ExperimentConfig,
                          _replicate_contexts, _replicate_runs, checkpoint_grid,
                          compare_algorithms, default_gamma_grid, fit_rate, gamma_sweep,
                          parse_config, replicate_seed, run_replicates,
                          sample_stream, write_csv)
from klms.kernels import gram_matrix
from klms.theory import SETTINGS, step_exponent


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
            assert np.array_equal(ctx.gram[:, :], gram_matrix(2, xs))


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
                               algorithm="ours", n_max=1000, replicates=1,
                               master_seed=0)
        run = run_replicates(cfg, checkpoints=[10, 1000])
        assert run.mean[1] < run.mean[0]

    def test_all_four_algorithms_run(self):
        for name in ("ours", "zhang", "ying_pontil", "tarres_yao"):
            cfg = ExperimentConfig(algorithm=name, n_max=40, replicates=1,
                                   master_seed=1)
            run = run_replicates(cfg, checkpoints=[10, 40])
            assert np.all(np.isfinite(run.per_replicate))
            assert not run.diverged

    def test_online_setting(self):
        cfg = ExperimentConfig(algorithm="ours", setting="online", n_max=60,
                               replicates=1)
        run = run_replicates(cfg, checkpoints=[60])
        assert np.isfinite(run.mean[0])

    @pytest.mark.parametrize("name", ["ours", "zhang"])
    def test_divergence_recorded_per_replicate(self, name):
        cfg = ExperimentConfig(algorithm=name, gamma0=1e4, n_max=60, replicates=2)
        run = run_replicates(cfg)
        assert [rep for rep, _ in run.diverged] == [0, 1]
        assert all("diverged at step" in str(err) for _, err in run.diverged)
        assert np.all(np.isnan(run.per_replicate))

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
            gram = gram_matrix(cfg.kernel_order_m, ctx.xs[:horizon])
            system = np.eye(horizon) + gamma * np.tril(gram, -1)
            coeffs = solve_triangular(system, gamma * ctx.ys[:horizon], lower=True)
            bad = ~(np.abs(coeffs) <= DIVERGENCE_LIMIT)
            if bad.any():
                want = (int(np.argmax(bad)) + 1, abs(coeffs[np.argmax(bad)]))
                break
        assert want is not None and horizon > cps[0] and want[0] < horizon
        [(_, got)] = _replicate_runs(cfg, ["ours"], cps)["ours"].diverged
        assert got.step == want[0]
        assert got.value == pytest.approx(want[1], rel=1e-9)

    def test_online_competitor_rejected(self):
        # rejected by the config, before any replicate's Gram matrix is built
        with pytest.raises(ConfigurationError):
            cfg = ExperimentConfig(algorithm="zhang", setting="online", n_max=40,
                                   replicates=1)
            run_replicates(cfg, checkpoints=[40])

    @pytest.mark.parametrize("checkpoints", [[10, 100], [40, 10], [0, 10], [10, 10], []])
    def test_bad_checkpoints_rejected(self, checkpoints):
        cfg = ExperimentConfig(n_max=40, replicates=1)
        with pytest.raises(ConfigurationError):
            run_replicates(cfg, checkpoints=checkpoints)

    def test_bad_checkpoints_build_no_context(self, monkeypatch):
        # the checkpoints are checked before any context is built
        def no_context(*args):
            raise AssertionError("context built before the checkpoint check")

        monkeypatch.setattr(harness, "_make_context", no_context)
        with pytest.raises(ConfigurationError):
            run_replicates(ExperimentConfig(replicates=1), checkpoints=[0, 10])
        with pytest.raises(ConfigurationError):
            gamma_sweep(ExperimentConfig(replicates=1), [1.0], n_values=[0, 10])


class TestGammaSweep:
    def test_single_element_grid(self):
        cfg = ExperimentConfig(n_max=50, replicates=2, master_seed=5)
        rows = gamma_sweep(cfg, [3.0], n_values=[10, 50])
        assert [row.best_gamma for row in rows] == [3.0, 3.0]

    def test_noiseless_prefers_largest_stable_step(self):
        cfg = ExperimentConfig(noise_sigma=0.0, n_max=200, replicates=2,
                               master_seed=6)
        rows = gamma_sweep(cfg, [1.0, 4.0, 12.0], n_values=[20, 80, 200])
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
        with pytest.raises(ConfigurationError):
            gamma_sweep(cfg, [1.0], n_values=[999])

    @pytest.mark.parametrize("n_values", [[100, 5], [30, 5], [0, 5], [5, 5], []])
    def test_bad_n_values_rejected(self, n_values):
        cfg = ExperimentConfig(n_max=60, replicates=1)
        with pytest.raises(ConfigurationError):
            gamma_sweep(cfg, [1.0, 2.0], n_values=n_values)

    def test_all_points_diverged_names_step_and_value(self):
        # gamma R^2 >= 1e4: every grid point's coefficients pass the limit
        # within the first steps, so no checkpoint has a stable candidate
        cfg = ExperimentConfig(n_max=60, replicates=1)
        ctx = next(_replicate_contexts(cfg))
        for n_values in ([5, 30], [5, 30, 60]):
            with pytest.raises(DivergenceError) as got:
                gamma_sweep(cfg, [1e5, 1e6], n_values=n_values)
            step = got.value.step
            assert 1 <= step <= 5
            # the smaller step diverges last; its coefficients solve
            # (I + gamma tril(K, -1)) a = gamma y
            gram = gram_matrix(cfg.kernel_order_m, ctx.xs[:step])
            system = np.eye(step) + 1e5 * np.tril(gram, -1)
            coeffs = solve_triangular(system, 1e5 * ctx.ys[:step], lower=True)
            assert np.all(np.abs(coeffs[:-1]) <= DIVERGENCE_LIMIT)
            assert got.value.value == pytest.approx(abs(coeffs[-1]), rel=1e-9)
            assert got.value.value > DIVERGENCE_LIMIT
            assert str(got.value).endswith("(gamma = 100000)")

    def test_diverged_point_never_selected(self):
        cfg = ExperimentConfig(n_max=60, replicates=1)
        rows = gamma_sweep(cfg, [1.0, 1e5], n_values=[5, 30, 60])
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
        # one sgd_run call per replicate, carrying the 3 distinct schedules
        # (zhang and ying_pontil share one)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return sgd_run(*args, **kwargs)

        monkeypatch.setattr(harness, "sgd_run", counting)
        compare_algorithms(1, n_max=60, replicates=2)
        assert len(calls) == 2
        assert all(len(steps) == len(set(steps)) == 3 for steps in calls)

    def test_shared_run_matches_standalone_runs(self):
        # each preset's curve is bitwise its run_replicates curve inside the
        # first time block, where no GEMM reads earlier coefficients
        cfg = ExperimentConfig(kernel_order_m=2, target_index_k=2, n_max=120, replicates=2)
        runs = _replicate_runs(cfg, ALGORITHM_NAMES, cfg.checkpoints())
        for name in ALGORITHM_NAMES:
            alone = run_replicates(dataclasses.replace(cfg, algorithm=name))
            assert np.array_equal(runs[name].per_replicate, alone.per_replicate)

    def test_shared_run_matches_standalone_runs_over_blocks(self):
        # past the first block the merged grid's GEMM has more rows, which
        # can reorder BLAS sums. Measured on x86-64 OpenBLAS at n_max = 700
        # (6 blocks): at most 8.4e-12 relative, in point 2's small risks
        cfg = ExperimentConfig(kernel_order_m=2, target_index_k=2, n_max=700, replicates=2)
        runs = _replicate_runs(cfg, ALGORITHM_NAMES, cfg.checkpoints())
        for name in ALGORITHM_NAMES:
            alone = run_replicates(dataclasses.replace(cfg, algorithm=name))
            assert np.allclose(runs[name].per_replicate, alone.per_replicate,
                               rtol=1e-10, atol=0.0)

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
    quarter of it (measured on x86-64: at most 26.7 MB, the binned form's
    far-field table being the largest part)."""

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
            lambda: _replicate_runs(cfg, ALGORITHM_NAMES, cfg.checkpoints()))
        assert peak < self.LIMIT

    @pytest.mark.parametrize("m", [1, 2])
    def test_gamma_sweep(self, m):
        cfg = ExperimentConfig(kernel_order_m=m, n_max=self.N, replicates=1)
        peak = self.traced_peak(lambda: gamma_sweep(cfg, default_gamma_grid(cfg.R_sq)))
        assert peak < self.LIMIT
