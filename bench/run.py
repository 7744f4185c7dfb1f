#!/usr/bin/env python3
"""Layer-timed benchmark of klms.

    python3 bench/run.py --workload rate-table --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

One invocation runs one workload (see workloads.py) in this process, as a
closed loop of units for about ``--seconds`` seconds, checks every unit
against the pinned references, writes a result file with a machine
manifest to ``bench/out/``, prints each metric by name and unit, and ends
with one JSON line {"correct", "attempted", "failed", "metrics"}.

With ``--trace 0`` the metrics are the end-to-end ones:
  setup_s      median over SETUP_PROBES fresh processes, spread evenly
               between the run's units, of the time from process start
               to ready (imports, Bernoulli coefficient cache, pinned
               references);
  wall_s       median wall time of one unit;
  peak_rss_mb  peak resident memory of this process.
With ``--trace 1`` every unit runs untraced and traced back to back (order
flipped every unit, at least MIN_TRACE_PAIRS units) and the metrics are the
per-layer ones, per unit, from the traced half; the spans are written to
bench/out/ as JSON lines.

The exit code is 0 only if every operation passed its check.

``--workload all`` runs every workload untraced and traced, each in a fresh
process, prints one table and writes ``bench/out/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracer import Tracer
from workloads import (BENCH_DIR, DIAGNOSTICS, PER_LAYER, TARGETS, WORKLOADS, UnitRunner, check_unit,
                       layer_metrics, load_refs, steps_needed, unit_order)

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 9
MIN_TRACE_PAIRS = 4
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
BLAS_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def setup(workload: str):
    """Everything a run does before its first timed call."""
    if not (SRC / "klms" / "__init__.py").is_file():
        raise SystemExit(f"klms sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import klms.bernoulli
    for k in range(1, klms.bernoulli.MAX_DEGREE + 1):
        klms.bernoulli.bernoulli_poly(k, 0.5)
    refs = load_refs(workload)
    runner = UnitRunner(workload, OUT_DIR / f"scratch-{workload}-{os.getpid()}")
    return runner, refs


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to the end of its setup()."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, "--workload", workload, "--probe-setup"],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"setup probe exited {proc.returncode}")
    return elapsed


def manifest() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_ENV},
        "git_describe": git_describe(),
    }


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(runner, refs, workload: str, seed: int, seconds: float, tracer):
    """Closed loop over units until ``seconds`` of unit time have passed (at
    least one unit). With a tracer each unit runs twice, untraced and traced,
    and at least MIN_TRACE_PAIRS units run. Without one, SETUP_PROBES setup
    probes are spread evenly over the run, between units; their time does
    not count towards ``seconds``."""
    records, errors, probes = [], [], []
    busy = 0.0
    for group, unit in enumerate(unit_order(workload, seed)):
        if tracer is None:
            modes = (False,)
        else:
            modes = (False, True) if group % 2 == 0 else (True, False)
        group_start = time.perf_counter()
        for traced in modes:
            records.append(run_unit(runner, refs, unit, tracer if traced else None, errors))
            records[-1]["group"] = group
        group_time = time.perf_counter() - group_start
        busy += group_time
        done = busy + group_time > seconds
        if tracer is None:
            due = SETUP_PROBES if done else min(SETUP_PROBES, int(SETUP_PROBES * busy / seconds))
            while len(probes) < due:
                probes.append(probe_setup(workload))
        elif group + 1 < MIN_TRACE_PAIRS:
            done = False
        if done:
            return records, errors, probes


def run_unit(runner, refs, unit: int, tracer, errors: list) -> dict:
    if tracer is not None:
        tracer.unit = unit
    with tracer if tracer is not None else contextlib.nullcontext():
        cpu0, t0 = time.process_time(), time.perf_counter()
        outputs, errs = runner.run(unit)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    pinned = refs[str(unit)]
    failed = check_unit(outputs, pinned)
    errors.extend(errs)
    return {"unit": unit, "traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "attempted": len(pinned) + len(set(outputs) - set(pinned)), "failed": failed}


def trace_metrics(records, refs, workload: str, tracer) -> dict:
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    needed = sum(steps_needed(workload, refs[str(r["unit"])]) for r in traced)
    out = layer_metrics(tracer, len(traced), needed)
    plain_wall = sum(r["wall_s"] for r in plain)
    out["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    out["process.cpu_util"] = sum(r["cpu_s"] for r in plain) / plain_wall
    # each unit runs once untraced and once traced, back to back
    pairs = {}
    for r in records:
        pairs.setdefault(r["group"], {})[r["traced"]] = r["wall_s"]
    out["trace.overhead_ratio"] = statistics.median(
        pair[True] / pair[False] for pair in pairs.values()) - 1.0
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    out["trace.coverage_ratio"] = roots / sum(r["wall_s"] for r in traced)
    return out


def run_workload(args) -> int:
    runner, refs = setup(args.workload)
    runner.scratch.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(TARGETS) if args.trace else None
    try:
        records, errors, probes = measure(runner, refs, args.workload, args.seed, args.seconds,
                                          tracer)
    finally:
        shutil.rmtree(runner.scratch, ignore_errors=True)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(len(r["failed"]) for r in records)
    if args.trace:
        values = trace_metrics(records, refs, args.workload, tracer)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        extra = {"trace_pairs": len(records) // 2,
                 "diagnostics": {name: values[name] for name in DIAGNOSTICS}}
    else:
        values = {
            "setup_s": statistics.median(probes),
            "wall_s": statistics.median(r["wall_s"] for r in records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        extra = {"setup_probes_s": probes}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    notes = tracer.notes if tracer is not None else []

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "manifest": manifest(), "attempted": attempted, "failed": failed,
        "ops_failed_ratio": failed / attempted, "metrics": metrics, **extra, "notes": notes,
        "units": records, "errors": errors,
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    if tracer is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")

    for message in notes + errors[:5]:
        print(message, file=sys.stderr)
    info = result["manifest"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} units={len(records)} "
          f"nproc={info['nproc']} numpy={info['numpy']} scipy={info['scipy']} "
          f"blas={info['blas'].get('name')} {info['blas'].get('version')} "
          f"git={info['git_describe']}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"ops_failed_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined, table = {}, []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            path = OUT_DIR / f"{workload}-seed{args.seed}-trace{trace}.json"
            path.unlink(missing_ok=True)
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            # exit code 1 with a result file means failed operations, shown below
            if done.returncode not in (0, 1) or not path.is_file():
                raise SystemExit(f"{workload} trace={trace} exited {done.returncode}")
            with open(path, encoding="utf-8") as handle:
                result = json.load(handle)
            result.pop("units")
            combined.setdefault(workload, {})[f"trace{trace}"] = result
        end_to_end = combined[workload]["trace0"]
        table.append((workload, end_to_end["metrics"], end_to_end["ops_failed_ratio"]))

    label = args.label or combined[WORKLOADS[0]]["trace0"]["manifest"]["git_describe"] or "local"
    with open(OUT_DIR / f"BENCH_{label}.json", "w", encoding="utf-8") as handle:
        json.dump(combined, handle, indent=1)
    for workload, metrics, failed_ratio in table:
        cells = "  ".join(f"{name} = {m['value']:.4g} {m['unit']}" for name, m in metrics.items())
        print(f"{workload:12s} {cells}  ops_failed_ratio = {failed_ratio:.3g}")
    print(f"wrote {OUT_DIR / f'BENCH_{label}.json'}")
    return 0 if all(ratio == 0 for *_, ratio in table) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--label", default=None, help="name of the --workload all result file")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        setup(args.workload)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
