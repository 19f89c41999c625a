"""Tests for the benchmark itself (not for xdboost).

    python3 -m pytest -q perfbench/tests

The smoke runs use toy sizes, so each workload finishes in seconds while
still running every operation and every output check.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

EXPECTED_CHECKS = {
    "readme-train": {"first_fit_shared", "bundle_roundtrip", "scores_repeat",
                     "probabilities_valid", "metrics_reproduce", "pass_repeats_first"},
    "gate-small-net": {"first_fit_shared", "scores_repeat", "probabilities_valid",
                       "metrics_reproduce", "pass_repeats_first"},
    "csv-200k": {"sweep_no_failures", "sweep_test_set_hash", "first_fit_shared",
                 "probabilities_valid", "metrics_reproduce", "predict_csv_matches",
                 "scores_repeat", "pass_repeats_first"},
}


def _toy_run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)], toy=True)
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_self_time_subtracts_direct_children_only():
    S = spans.Span
    tree = [S(0, "cli.train", 0.0, 10.0, None, 0),
            S(1, "net.fit", 1.0, 5.0, 0, 0),
            S(2, "kernels.adam_update", 2.0, 3.0, 1, 0),
            S(3, "net.fit", 6.0, 9.0, 0, 0),
            S(4, "data.encode", 11.0, 12.5, None, 0)]
    own = spans.self_times(tree)
    assert own == {0: 3.0, 1: 3.0, 2: 1.0, 3: 3.0, 4: 1.5}
    layers = spans.layer_self_times(tree)
    assert layers["cli"] == 3.0 and layers["net"] == 6.0
    assert layers["kernels"] == 1.0 and layers["data"] == 1.5
    # self times partition the top-level spans' wall time
    assert sum(layers.values()) == pytest.approx(10.0 + 1.5)


def test_tracer_records_nesting_and_restores_every_wrapped_name():
    from xdboost import boosting, cli, data, kernels, models

    before = (data.encode, cli.encode, kernels.adam_update,
              models.BaseNet.fit, vars(boosting.XDBoostModel)["load_bundle"])
    tracer = spans.Tracer(run_id=7)
    spans.install(tracer, full=True)
    try:
        assert cli.encode is data.encode is not before[0]
        with tracer.span("op.outer"):
            kernels.scatter_add_scalars(np.zeros(3), np.array([0, 2, 2]), np.ones(3))
    finally:
        tracer.uninstall()
    after = (data.encode, cli.encode, kernels.adam_update,
             models.BaseNet.fit, vars(boosting.XDBoostModel)["load_bundle"])
    assert all(a is b for a, b in zip(before, after))
    outer, inner = tracer.spans
    assert (outer.name, inner.name) == ("op.outer", "kernels.scatter_add_scalars")
    assert inner.parent == outer.id and outer.parent is None
    assert outer.run == inner.run == 7
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_metric_names_and_units_follow_the_grammar():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_the_contract_shape(capsys, trace, section):
    _, result = _toy_run(capsys, "gate-small-net", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
        assert np.isfinite(metric["value"]), name
        assert NAME.fullmatch(name)


@pytest.mark.parametrize("workload", sorted(EXPECTED_CHECKS))
def test_toy_run_passes_every_output_check(capsys, workload):
    report, result = _toy_run(capsys, workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert report["passes"] == 2
    checks = report["checks"]
    assert set(checks) == EXPECTED_CHECKS[workload]
    assert all(c["failed"] == 0 and c["passed"] > 0 for c in checks.values())
    assert report["provenance"]["backend"] in ("numpy", "native")
    assert len(report["prediction_digests"]["boosted"]) == 64
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["net.fit_calls"] > 0 and metrics["trace.spans"] > 0
    assert 0 < metrics["loop.duplicate_fit_share"] < 1
    assert 0 <= metrics["net.useful_epoch_ratio"] <= 1


def test_checks_reject_bad_outputs():
    ok = np.array([0.0, 0.25, 1.0])
    assert workloads.probabilities_valid(ok)
    for bad in ([0.5, np.nan], [0.5, -1e-12], [1.0 + 1e-12], [np.inf], []):
        assert not workloads.probabilities_valid(np.array(bad, dtype=np.float64))
    assert not workloads.same_bits(ok, np.nextafter(ok, 2.0))
    assert not workloads.same_bits(ok, ok.astype(np.float32))
    fit = {"epochs_run": 3, "val_losses": [0.7, 0.6, 0.65]}
    result = {"boosted_training_log": [{"classifier_fit": fit}],
              "baseline_training_log": [{"classifier_fit": dict(fit)}]}
    assert workloads.first_fit_shared(result)
    result["baseline_training_log"][0]["classifier_fit"]["val_losses"] = [0.7, 0.6, 0.66]
    assert not workloads.first_fit_shared(result)


def test_failed_check_fails_its_operation():
    log = workloads.PassLog(spans.Tracer(run_id=0))
    op, value = log.run("op.good", lambda: 4)
    assert value == 4 and not op.failed
    log.check(op, "positive", value > 0)
    log.check(op, "odd", value % 2 == 1)
    assert op.failed and op.failed_checks == ["odd"]
    raised, value = log.run("op.bad", lambda: 1 / 0)
    assert value is None and raised.failed and "ZeroDivisionError" in raised.error
    assert log.verify(op, lambda: [][0]) is None
    assert op.failed_checks == ["odd", "checks_ran"]


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "csv-200k",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
