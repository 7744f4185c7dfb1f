"""Tests of the benchmark's own code: span arithmetic, attribute restoration,
refactor tolerance and the reference check.

    python3 -m pytest bench/test_bench.py
"""

import copy
import sys

import pytest

import run
from tracer import Target, Tracer, _resolve, busy_time, layer_self_times, self_times
from workloads import DIAGNOSTICS, PER_LAYER, TARGETS, UnitRunner, check_unit, layer_metrics, load_refs

sys.path.insert(0, str(run.SRC))


def _owner_dicts():
    return {(t.owner, t.attr): vars(_resolve(t.owner)).get(t.attr) for t in TARGETS}


# cli.main [0, 10] > harness [1, 9] > gram [2, 5] > frac [3, 4]; gram [6, 8]
NESTED = [
    ("cli.main", 0.0, 10.0, -1, 0),
    ("harness.compare_algorithms", 1.0, 9.0, 0, 0),
    ("kernels.gram", 2.0, 5.0, 1, 0),
    ("bernoulli.frac", 3.0, 4.0, 2, 0),
    ("kernels.gram", 6.0, 8.0, 1, 0),
]


def test_self_time_of_nested_spans():
    assert self_times(NESTED) == [2.0, 3.0, 2.0, 1.0, 2.0]
    layers = layer_self_times(NESTED)
    assert layers == {"cli": 2.0, "harness": 3.0, "kernels": 4.0, "bernoulli": 1.0}
    # self times partition the root span
    assert sum(layers.values()) == NESTED[0][2] - NESTED[0][1]
    assert busy_time(NESTED, "kernels.gram") == 5.0


def test_busy_time_merges_overlapping_spans():
    spans = [("a.f", 0.0, 2.0, -1, 0), ("a.f", 1.0, 3.0, -1, 0), ("a.f", 5.0, 6.0, -1, 0)]
    assert busy_time(spans, "a.f") == 4.0
    assert busy_time(spans, "a.g") == 0.0


def test_untraced_run_leaves_attributes_untouched(tmp_path):
    runner = UnitRunner("oracles", tmp_path)
    refs = load_refs("oracles")
    before = _owner_dicts()
    record = run.run_unit(runner, refs, 0, None, [])
    assert record["failed"] == []
    after = _owner_dicts()
    assert all(after[key] is before[key] for key in before)

    tracer = Tracer(TARGETS)
    record = run.run_unit(runner, refs, 0, tracer, [])
    assert record["failed"] == [] and tracer.spans
    assert all(_owner_dicts()[key] is before[key] for key in before)


def test_missing_helper_drops_its_span_with_a_note():
    targets = TARGETS + [Target("klms.harness", "_no_such_helper", "harness.gone"),
                         Target("klms.no_such_module", "f", "nowhere.f")]
    tracer = Tracer(targets)
    with tracer:
        import klms.kernels
        klms.kernels.spline_kernel(1, 0.1, 0.2)
    assert [s[0] for s in tracer.spans] == ["kernels.spline_kernel", "bernoulli.frac",
                                            "bernoulli.bernoulli_poly"]
    assert any("harness.gone" in note for note in tracer.notes)
    assert any("nowhere.f" in note for note in tracer.notes)
    metrics = layer_metrics(tracer, 1, 0)
    assert set(metrics) | {"process.cpu_s", "process.cpu_util", "trace.overhead_ratio",
                           "trace.coverage_ratio"} == set(PER_LAYER) | set(DIAGNOSTICS)
    assert metrics["harness.snapshot_risk.busy_s"] == 0.0


def test_perturbed_reference_fails_the_operation(tmp_path):
    runner = UnitRunner("oracles", tmp_path)
    refs = load_refs("oracles")
    bad = copy.deepcopy(refs)
    bad["3"]["quadrature/m2"][1] *= 1.0 + 1e-6
    record = run.run_unit(runner, bad, 3, None, [])
    assert record["failed"] == ["quadrature/m2"]
    assert len(record["failed"]) / record["attempted"] > 0


@pytest.mark.parametrize("outputs, failed", [
    ({"fourier": (1.0, 1.0), "series/0": (0.5, 0.5)}, []),
    ({"fourier": (1.0, 1.0)}, ["series/0"]),
    ({"fourier": (1.0, 1.0), "series/0": (0.5, 0.5), "extra": (1.0,)}, ["extra"]),
])
def test_check_unit_counts_missing_and_unexpected_outputs(outputs, failed):
    pinned = {"fourier": [1.0, 1.0], "series/0": [0.5, 0.5]}
    assert check_unit(outputs, pinned) == failed


def test_oracle_disagreement_fails_even_when_pinned():
    pinned = {"fourier/m1": [1.0, 1.0 + 1e-7]}
    assert check_unit({"fourier/m1": (1.0, 1.0 + 1e-7)}, pinned) == ["fourier/m1"]
