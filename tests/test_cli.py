import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import klms.estimator
from klms import harness
from klms.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, _SELFCHECKS, main)


def test_theory_subcommand(capsys):
    assert main(["theory", "--alpha", "2", "--r", "0.75"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "step_exponent" in out and "-0.5" in out
    assert "optimal_region" in out


def test_theory_finite_horizon_is_the_default(capsys):
    assert main(["theory", "--alpha", "2", "--r", "0.75"]) == EXIT_OK
    default = capsys.readouterr().out
    assert main(["theory", "--alpha", "2", "--r", "0.75",
                 "--setting", "finite_horizon"]) == EXIT_OK
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("argv", ["theory --alpha 2 --r 0.75 --setting fh",
                                  "compare --point 5"])
def test_unlisted_choice_exits_2(capsys, argv):
    # the settings are theory.SETTINGS and the points harness.TABLE_POINTS
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice" in capsys.readouterr().err


def test_theory_online(capsys):
    assert main(["theory", "--alpha", "4", "--r", "0.125", "--setting", "online"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bias_dominated_constant_step" in out


@pytest.mark.parametrize("alpha, r", [("inf", "0.5"), ("nan", "0.5"),
                                      ("2", "inf"), ("2", "nan"),
                                      ("1e308", "1"), ("2", "1e308")])
def test_theory_non_finite_exits_2(capsys, alpha, r):
    # a finite alpha or r whose double overflows is refused too, not printed as nan
    assert main(["theory", "--alpha", alpha, "--r", r]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and "nan" not in captured.out


def test_bernoulli_subcommand(capsys):
    assert main(["bernoulli", "--k", "2", "--x", "0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0.166666666667"


def test_bernoulli_bad_degree_is_config_error(capsys):
    assert main(["bernoulli", "--k", "99", "--x", "0"]) == EXIT_CONFIG
    assert main(["bernoulli", "--k", "20", "--x", "0.5"]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("x", ["inf", "-inf", "nan"])
def test_bernoulli_non_finite_x_exits_2(capsys, x):
    assert main(["bernoulli", "--k", "2", f"--x={x}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and captured.out == ""


@pytest.mark.parametrize("k, x", [("2", "1e308"), ("16", "1e30")])
def test_bernoulli_overflow_exits_2(capsys, k, x):
    # a finite x whose B_k overflows float64 is refused, with no warning
    assert main(["bernoulli", "--k", k, "--x", x]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and captured.out == ""


def test_linalg_error_is_not_a_config_error(monkeypatch):
    # LinAlgError subclasses ValueError; only ConfigurationError exits 2
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular system")

    monkeypatch.setattr(harness, "compare_algorithms", singular)
    with pytest.raises(np.linalg.LinAlgError):
        main(["compare", "--point", "1"])


def test_simulate_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_max = 60\nreplicates = 2\nn_checkpoints = 5\nmaster_seed = 3\n")
    out_csv = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_csv)]) == EXIT_OK
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "n,replicate,excess_risk"
    assert len(lines) > 2


def test_simulate_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon = 60\n")
    assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "gamma-sweep"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_unreadable_config_exits_2(tmp_path, capsys, command, kind):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(b"n_max = 60\n\xff\xfe\n")
    assert main([command, "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"configuration error: cannot read config {path}" in captured.err
    assert captured.out == ""


def test_simulate_divergence_exits_3(tmp_path, capsys):
    # as compare and bound-check: no mean over diverged replicates, no file,
    # one line per (preset, replicate)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algorithm = zhang\ngamma0 = 1e4\nn_max = 60\nreplicates = 2\n")
    out_csv = tmp_path / "out.csv"
    kept = tmp_path / "kept.csv"
    kept.write_text("an earlier table\n")
    for out in ([], ["--out", str(out_csv)], ["--out", str(kept)]):
        assert main(["simulate", "--config", str(cfg), *out]) == EXIT_DIVERGED
        captured = capsys.readouterr()
        assert captured.out == "" and not out_csv.exists()
        # an existing --out file keeps its contents
        assert kept.read_text() == "an earlier table\n"
        lines = captured.err.strip().split("\n")
        assert len(lines) == 2
        for rep, line in enumerate(lines):
            assert line.startswith("numerical divergence: coefficient diverged at step ")
            assert line.endswith(f"(zhang, replicate {rep})")


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{cfg}"],
    ["gamma-sweep", "--config", "{cfg}", "--grid-min", "1", "--grid-max", "6",
     "--grid-points", "2"],
    ["compare", "--point", "1", "--n-max", "40", "--replicates", "1"]])
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, argv):
    # the path is checked before the run: the harness entry point never runs
    def no_run(*args, **kwargs):
        pytest.fail("the run started before --out was checked")

    for entry in ("run_replicates", "gamma_sweep", "compare_algorithms"):
        monkeypatch.setattr(harness, entry, no_run)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_max = 40\nreplicates = 1\nn_checkpoints = 4\n")
    out = tmp_path / "no_such_dir" / "x.csv"
    assert main([arg.format(cfg=cfg) for arg in argv] + ["--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"configuration error: cannot write {out}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("line", ["noise_sigma = nan", "noise_sigma = inf",
                                  "gamma0 = inf", "gamma0 = nan"])
def test_simulate_non_finite_config_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n_max = 30\nreplicates = 1\n{line}\n")
    assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and captured.out == ""


def test_compare_non_finite_noise_exits_2(capsys):
    assert main(["compare", "--point", "1", "--noise", "nan"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and captured.out == ""


def test_negative_seed_exits_2(tmp_path, capsys):
    # numpy's SeedSequence rejects negative entropy; the config must first
    assert main(["compare", "--point", "1", "--n-max", "40", "--replicates", "1",
                 "--seed", "-1"]) == EXIT_CONFIG
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_max = 30\nreplicates = 1\nmaster_seed = -1\n")
    assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.count("configuration error") == 2 and captured.out == ""


def test_bound_check_csv(capsys):
    assert main(["bound-check", "--replicates", "1", "--seed", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,empirical,bound,ratio"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [int(r[0]) for r in rows] == harness.checkpoint_grid(3162, 20)
    for n, emp, bound, ratio in rows:
        assert emp > 0 and bound > 0
        assert ratio == emp / bound


@pytest.mark.parametrize("argv", [["bound-check", "--replicates", "2"],
                                  ["compare", "--point", "1", "--n-max", "60",
                                   "--replicates", "2"]])
def test_mean_reports_exit_3_on_divergence(monkeypatch, capsys, argv):
    # the limit is read at call time; every run now diverges at its first
    # coefficient above 1e-3, and no mean is printed over NaN rows
    monkeypatch.setattr(klms.estimator, "DIVERGENCE_LIMIT", 1e-3)
    assert main(argv) == EXIT_DIVERGED
    captured = capsys.readouterr()
    assert "nan" not in captured.out
    assert re.search(r"numerical divergence: coefficient diverged at step \d+ ", captured.err)
    # ours is the first preset, and it diverges in every replicate
    assert "(ours, replicate 0)" in captured.err
    # every record is printed, one line per (preset, replicate)
    presets = harness.ALGORITHM_NAMES if argv[0] == "compare" else ("ours",)
    lines = captured.err.strip().split("\n")
    assert lines[0].endswith("(ours, replicate 0)")
    assert [line[line.rindex("(") + 1:-1] for line in lines] == [
        f"{name}, replicate {rep}" for name in presets for rep in (0, 1)]
    assert all(line.startswith("numerical divergence: coefficient diverged at step ")
               for line in lines)


def test_gamma_sweep_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_max = 60\nreplicates = 1\nn_checkpoints = 4\n")
    out_csv = tmp_path / "sweep.csv"
    code = main(["gamma-sweep", "--config", str(cfg), "--grid-min", "1",
                 "--grid-max", "12", "--grid-points", "3", "--out", str(out_csv)])
    assert code == EXIT_OK
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "n,best_gamma,mean_excess_risk"


def test_gamma_sweep_all_diverged_exits_3(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_max = 60\nreplicates = 1\n")
    code = main(["gamma-sweep", "--config", str(cfg), "--grid-min", "1e5",
                 "--grid-max", "1e6", "--grid-points", "2"])
    assert code == EXIT_DIVERGED
    captured = capsys.readouterr()
    assert "numerical divergence" in captured.err and captured.out == ""
    step = int(re.search(r"diverged at step (\d+) ", captured.err).group(1))
    assert 1 <= step <= 5


@pytest.mark.parametrize("flags", [
    ["--grid-min", "1", "--grid-points", "0"],
    ["--grid-min", "1"],
    ["--grid-max", "12", "--grid-points", "3"],
    ["--grid-min", "1", "--grid-max", "12", "--grid-points", "0"],
    ["--grid-min", "12", "--grid-max", "1", "--grid-points", "3"],
    ["--grid-min", "nan", "--grid-max", "1", "--grid-points", "3"],
    ["--grid-min", "0.1", "--grid-max", "inf", "--grid-points", "3"],
])
def test_gamma_sweep_partial_grid_is_config_error(tmp_path, capsys, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_max = 60\nreplicates = 1\nn_checkpoints = 4\n")
    assert main(["gamma-sweep", "--config", str(cfg), *flags]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [["gamma-sweep", "--config", "{cfg}", "--out", "{out}"],
                                  ["compare", "--point", "1", "--n-max", "3", "--out", "{out}"]])
def test_too_few_points_to_fit_exits_2_before_running(tmp_path, monkeypatch, capsys, argv):
    # n_max = 3 gives 3 checkpoints, one short of a rate fit: the command
    # fails before it runs a replicate or writes a file
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("n_max = 3\nreplicates = 1\n")
    out = tmp_path / "tiny.csv"
    ran = []

    def contexts(config):
        ran.append(config)
        return iter(())

    monkeypatch.setattr(harness, "_replicate_contexts", contexts)
    assert main([arg.format(cfg=cfg, out=out) for arg in argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "configuration error: need at least 4 points to fit a rate" in captured.err
    assert captured.out == "" and ran == [] and not out.exists()


def test_compare_subcommand(capsys):
    code = main(["compare", "--point", "4", "--n-max", "80", "--replicates", "1",
                 "--noise", "0.1"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    for name in ("ours", "zhang", "ying_pontil", "tarres_yao"):
        assert name in out


def test_selfcheck_functions_individually():
    # the two cheapest selfcheck suites, called directly; test_selfcheck_subcommand
    # runs all six through the CLI
    by_name = {name: fn for name, fn in _SELFCHECKS}
    ok, detail = by_name["averaged coefficients vs brute force"]()
    assert ok, detail
    ok, detail = by_name["finite-dimensional vs expansion recursion"]()
    assert ok, detail


def test_selfcheck_subcommand(capsys):
    assert main(["selfcheck"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(_SELFCHECKS) == 6
    assert all(line.startswith("PASS  ") for line in lines)


def test_cli_import_loads_no_scipy_special_or_linalg():
    # klms imports no scipy.special, and scipy.linalg only in the recursion,
    # on first call
    src = str(Path(klms.estimator.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import klms.cli; "
            "print(sorted(m for m in ('scipy.special', 'scipy.linalg') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
