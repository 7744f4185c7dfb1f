"""The reproduction scripts and the shipped configs, run end to end at small
sizes."""

import runpy
import sys
from pathlib import Path

from klms.harness import parse_config

ROOT = Path(__file__).resolve().parent.parent


def _run_script(monkeypatch, name, *argv):
    """Run scripts/<name> as __main__ with `argv`; its exit code (0 when it
    returns without calling sys.exit)."""
    script = ROOT / "scripts" / name
    monkeypatch.setattr(sys, "argv", [str(script), *argv])
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as done:
        return done.code or 0
    return 0


def test_scripts_and_shipped_configs(tmp_path, monkeypatch, capsys):
    for name in ("example.cfg", "gamma_sweep.cfg"):
        parse_config(str(ROOT / "configs" / name))

    prefix = tmp_path / "r"
    assert _run_script(monkeypatch, "run_rate_table.py", "--n-max", "300",
                       "--replicates", "1", "--out-prefix", str(prefix)) == 0
    for point in (1, 2, 3, 4):
        lines = Path(f"{prefix}{point}.csv").read_text().splitlines()
        assert lines[0] == "algorithm,predicted_slope,effective_slope,residual_rms"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "ours", "zhang", "ying_pontil", "tarres_yao"]

    cfg = tmp_path / "small.cfg"
    cfg.write_text("n_max = 60\nn_checkpoints = 8\nreplicates = 1\n")
    out = tmp_path / "s.csv"
    assert _run_script(monkeypatch, "run_gamma_sweep.py", "--config", str(cfg),
                       "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,best_gamma,mean_excess_risk"
    assert len(lines) > 4
    assert "best-gamma slope" in capsys.readouterr().out
