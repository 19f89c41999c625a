"""Acceptance gate: one test per shipped guarantee, in order.

Each test prints a one-line [PASS] summary with its measured margin; the
pytest verdict line is the pass/fail record. Criterion 10 must stay the
last test in this file because it audits the wall-clock and memory cost
of everything that ran before it.
"""

import csv
import json
import resource
import statistics
import time

import numpy as np
import pytest

from conftest import (SESSION_START, fd_gradcheck, log_rows, random_net_case,
                      well_conditioned)
from xdboost import cli, synth
from xdboost.boosting import (append_placeholders, create_xdboost,
                              predict_xdboost, train_unboosted, train_xdboost)
from xdboost.data import (SplitSpec, build_schema_and_encode, chronological_split,
                          class_weights, cold_start_filter, records_hash,
                          sub_training)
from xdboost.metrics import auc
from xdboost.models import BaseNetConfig

FAST_NET = BaseNetConfig(embedding_dim=2, hidden_layers=(4,), learning_rate=1e-2,
                         epochs=2, patience=2, batch_size=512)


def _encoded_pipeline(gen_cfg):
    """Generate, split and encode one synthetic log the way the harness does."""
    records, meta = synth.generate_records(gen_cfg)
    train, val, test = chronological_split(records, SplitSpec())
    schema, encoded = build_schema_and_encode(
        train, {"train": train, "val": val, "test": test}, synth.field_spec(), True)
    return records, meta, schema, encoded


def _passed(capsys, line):
    with capsys.disabled():
        print(f"\n{line}")


def test_criterion_01_gradients_match_finite_differences(capsys):
    """Analytic gradients agree with central finite differences to 1e-4
    guarded relative error on 100 well-conditioned random nets, half per
    head, inside a 30 second budget."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst = 0.0
    checked = 0
    for case in range(100):
        head = "sigmoid" if case % 2 == 0 else "tanh"
        for _ in range(200):
            net, X, targets, weights = random_net_case(rng, head)
            if well_conditioned(net, X, targets):
                break
        else:
            pytest.fail(f"could not condition a {head} case in 200 draws")
        worst = max(worst, fd_gradcheck(net, X, targets, weights, rng,
                                        coord_cap=12))
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 100
    assert worst < 1e-4
    assert elapsed < 30.0
    _passed(capsys, f"[PASS] criterion 01: 100 gradient checks, worst relative "
                    f"error {worst:.3e} (< 1e-4) in {elapsed:.1f}s")


def test_criterion_02_auc_matches_pairwise_oracle(capsys):
    """The rank-based AUC equals the O(n^2) pairwise win rate (ties at half
    credit) to 1e-12 on 200 random tie-heavy instances, inside 5 seconds."""

    def pairwise_auc(scores, labels):
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = 0.0
        for s in pos:
            wins += np.sum(s > neg) + 0.5 * np.sum(s == neg)
        return wins / (len(pos) * len(neg))

    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        scores = rng.integers(0, 9, size=n) / 8.0
        worst = max(worst, abs(auc(scores, labels) - pairwise_auc(scores, labels)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0
    _passed(capsys, f"[PASS] criterion 02: 200 AUC instances, worst deviation "
                    f"from the pairwise oracle {worst:.2e} (<= 1e-12)")


def test_criterion_03_class_weights_are_exact(capsys):
    """Click weight equals max(1, nonclicks/clicks) and nonclick weight is
    pinned at 1, exactly, over 50 random label multisets."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 400))
        n_click = int(rng.integers(1, n + 1))
        labels = np.zeros(n)
        labels[rng.choice(n, size=n_click, replace=False)] = 1.0
        w = class_weights(labels)
        expected = max(1.0, (n - n_click) / n_click)
        assert w.weight_nonclick == 1.0
        worst = max(worst, abs(w.weight_click - expected))
    assert worst <= 1e-12
    _passed(capsys, f"[PASS] criterion 03: 50 class-weight multisets, worst "
                    f"deviation {worst:.2e} (<= 1e-12)")


def test_criterion_04_zero_error_lr_reproduces_the_reference(capsys):
    """With the error learning rate at zero the boosted model's predictions
    match the unboosted reference on every test row to 1e-12."""
    records, _, schema, encoded = _encoded_pipeline(
        synth.SynthConfig(n_rows=2000, vocab_size=20, seed=404))
    X_train, y_train, _ = encoded["train"]
    X_val, y_val, _ = encoded["val"]
    X_test, _, _ = encoded["test"]
    weights = class_weights(y_train)
    net = BaseNetConfig(embedding_dim=4, hidden_layers=(8,), learning_rate=1e-3,
                        epochs=4, patience=3, batch_size=256)
    n = 2

    model = create_xdboost(schema, net, n, error_lr=0.0, seed=99)
    train_xdboost(model, append_placeholders(X_train, n), y_train,
                  append_placeholders(X_val, n), y_val, class_weights=weights)
    reference, _ = train_unboosted(model,
                                   append_placeholders(X_train, n), y_train,
                                   append_placeholders(X_val, n), y_val,
                                   class_weights=weights)
    Xp = append_placeholders(X_test, n)
    diff = np.max(np.abs(predict_xdboost(model, Xp) - reference.predict_matrix(Xp)))
    assert X_test.n_rows == 400
    assert diff <= 1e-12
    _passed(capsys, f"[PASS] criterion 04: zero-rate collapse on 400 test rows, "
                    f"max prediction gap {diff:.2e} (<= 1e-12)")


def test_criterion_05_placeholder_columns_follow_the_protocol(capsys):
    """Across a full 3-iteration instrumented run: column i is written
    exactly once per phase at iteration i, later columns are still zero when
    each residual fit starts, every written value stays strictly inside the
    error-learning-rate bound, residual targets stay strictly inside (-1, 1),
    and prediction replays the same column sequence."""
    records, _, schema, encoded = _encoded_pipeline(
        synth.SynthConfig(n_rows=1500, vocab_size=15, seed=505))
    X_train, y_train, _ = encoded["train"]
    X_val, y_val, _ = encoded["val"]
    X_test, _, _ = encoded["test"]
    n, error_lr = 3, 0.5

    events = []
    model = create_xdboost(schema, FAST_NET, n, error_lr, seed=5)
    train_xdboost(model, append_placeholders(X_train, n), y_train,
                  append_placeholders(X_val, n), y_val,
                  class_weights=class_weights(y_train), observer=events.append)

    fits = [(e["iteration"], e["stage"]) for e in events
            if e["event"] == "classifier_fit"]
    assert fits == [(0, "fit"), (0, "refit"), (1, "fit"), (1, "refit"),
                    (2, "fit"), (2, "refit")]

    residual_fits = [e for e in events if e["event"] == "residual_fit"]
    assert [e["iteration"] for e in residual_fits] == [0, 1, 2]
    for e in residual_fits:
        assert np.all(e["placeholders"][:, e["iteration"]:] == 0.0)
        assert np.all(np.abs(e["targets"]) < 1.0)

    writes = [e for e in events if e["event"] == "placeholder_write"]
    n_checked = 0
    for phase in ("train", "val"):
        sequence = [(e["iteration"], e["column"]) for e in writes
                    if e["phase"] == phase]
        assert sequence == [(0, 0), (1, 1), (2, 2)]
    for e in writes:
        assert np.all(np.abs(e["values"]) < error_lr)
        n_checked += e["values"].size

    replay = []
    predict_xdboost(model, append_placeholders(X_test, n), observer=replay.append)
    assert [(e["phase"], e["iteration"], e["column"]) for e in replay] == [
        ("predict", 0, 0), ("predict", 1, 1), ("predict", 2, 2)]
    for e in replay:
        assert np.all(np.abs(e["values"]) < error_lr)
        n_checked += e["values"].size
    _passed(capsys, f"[PASS] criterion 05: 3-iteration protocol clean over "
                    f"{len(events) + len(replay)} events, {n_checked} written "
                    f"values all inside the {error_lr} bound")


def test_criterion_06_boosting_beats_the_reference_on_small_data(capsys):
    """At 5% and 10% sub-training budgets the boosted model's median test
    AUC is higher and median test log loss lower than the unboosted
    reference over master seeds 101..105, within a 600 second budget."""
    t0 = time.perf_counter()
    records, _ = synth.generate_records(synth.SynthConfig(n_rows=20000, seed=2024))
    net = BaseNetConfig(embedding_dim=2, hidden_layers=(), learning_rate=3e-2,
                        epochs=400, patience=30, batch_size=4096)
    lines = []
    for pct in (5, 10):
        boost_auc, base_auc, boost_ll, base_ll = [], [], [], []
        for master in (101, 102, 103, 104, 105):
            cfg = cli.ExperimentConfig(seed=master, split=SplitSpec(),
                                       n_iterations=2, error_lr=0.5, net=net)
            result, _ = cli.run_experiment(cfg, records, synth.field_spec(), pct)
            m = result["metrics"]
            boost_auc.append(m["boosted"]["test"]["auc"])
            base_auc.append(m["baseline"]["test"]["auc"])
            boost_ll.append(m["boosted"]["test"]["log_loss"])
            base_ll.append(m["baseline"]["test"]["log_loss"])
        d_auc = statistics.median(boost_auc) - statistics.median(base_auc)
        d_ll = statistics.median(boost_ll) - statistics.median(base_ll)
        lines.append(f"{pct}%: median AUC {statistics.median(boost_auc):.4f} vs "
                     f"{statistics.median(base_auc):.4f} (+{d_auc:.4f}), "
                     f"median log loss {statistics.median(boost_ll):.4f} vs "
                     f"{statistics.median(base_ll):.4f} ({d_ll:+.4f})")
        assert d_auc > 0.0, f"no AUC win at {pct}%: {lines[-1]}"
        assert d_ll < 0.0, f"no log-loss win at {pct}%: {lines[-1]}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _passed(capsys, f"[PASS] criterion 06: boosted beats reference at "
                    f"{lines[0]}; {lines[1]}; {elapsed:.0f}s")


def test_criterion_07_sweep_scores_every_budget_on_identical_test_rows(
        capsys, tmp_path):
    """A sweep over 1..72 percent writes one result per budget, and every
    run's test-set hash equals an independently recomputed hash of the
    chronological test split; smaller budgets are suffixes of larger ones."""
    gen = {"n_rows": 2000, "vocab_size": 10, "seed": 555}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "seed": 777, "synthetic": gen,
        "model": {"n_iterations": 1, "error_lr": 0.5,
                  "net": {"embedding_dim": 2, "hidden_layers": [],
                          "learning_rate": 1e-2, "epochs": 1,
                          "batch_size": 2048}}}))
    out = tmp_path / "sweep"
    pcts = [1, 5, 10, 20, 40, 72]
    code = cli.main(["sweep", "--config", str(config_path),
                     "--output-dir", str(out),
                     "--percentages", ",".join(str(p) for p in pcts)])
    assert code == 0

    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["failures"] == []
    hashes = set()
    for pct in pcts:
        result = json.loads((out / f"sweep_p{pct}.json").read_text())
        assert result["sub_training_percent"] == pct
        hashes.add(result["test_set_hash"])

    records, _ = synth.generate_records(synth.SynthConfig(**gen))
    train_region, _, test_records = chronological_split(records, SplitSpec())
    assert hashes == {records_hash(test_records)}
    assert summary["test_set_hash"] == records_hash(test_records)

    # nesting, checked by position: each smaller budget is the tail of the
    # next larger one, column for column
    subs = [sub_training(records, train_region, p) for p in pcts]
    for small, big in zip(subs, subs[1:]):
        assert len(small) < len(big)
        assert log_rows(small) == log_rows(big[len(big) - len(small):])

    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * len(pcts)
    _passed(capsys, f"[PASS] criterion 07: 6 sweep budgets share test-set hash "
                    f"{records_hash(test_records)[:12]}.., sub-training sets nest")


def test_criterion_08_cold_start_keeps_exactly_the_planted_novel_items(capsys):
    """On a log with 30% planted novel items in the test region, the
    cold-start filter keeps exactly those 300 rows (not one more, not one
    less) and the evaluation scores exactly those rows."""
    gen_cfg = synth.SynthConfig(n_rows=5000, vocab_size=30,
                                cold_start_fraction=0.3, test_fraction=0.2,
                                seed=808)
    records, meta = synth.generate_records(gen_cfg)
    assert meta["n_novel_item_rows"] == 300  # round(0.3 * 1000)
    train_region, _, test_records = chronological_split(records, SplitSpec())
    planted = np.array([item.startswith("i_new") for item in test_records.item_id])
    assert planted.sum() == 300

    # the kept rows are the planted rows: timestamps are row numbers in a
    # synthetic log, so equal timestamps mean the same rows
    filtered = cold_start_filter(test_records, train_region)
    assert len(filtered) == 300
    assert np.array_equal(filtered.timestamp, test_records.timestamp[planted])
    assert log_rows(filtered) == log_rows(test_records[planted])

    cfg = cli.ExperimentConfig(seed=88, split=SplitSpec(), n_iterations=1,
                               error_lr=0.5, net=FAST_NET)
    result, _ = cli.run_experiment(cfg, records, synth.field_spec(), None,
                                   eval_test=filtered, command="coldstart")
    assert result["n_test_rows"] == 300
    assert result["metrics"]["boosted"]["test"]["n_instances"] == 300
    assert result["test_set_hash"] == records_hash(filtered)
    _passed(capsys, "[PASS] criterion 08: cold-start filter kept exactly the "
                    "300 planted novel-item rows and scored exactly those")


def test_criterion_09_identical_configs_reproduce_identical_metrics(
        capsys, tmp_path):
    """Two full train commands from the same config file produce
    byte-identical metrics and training logs."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "seed": 909, "synthetic": {"n_rows": 500, "vocab_size": 8},
        "model": {"n_iterations": 2, "error_lr": 0.5,
                  "net": {"embedding_dim": 2, "hidden_layers": [4],
                          "learning_rate": 1e-2, "epochs": 2,
                          "batch_size": 256}}}))
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.main(["train", "--config", str(config_path),
                         "--output-dir", str(out)]) == 0
        result = json.loads((out / "train_result.json").read_text())
        blobs.append(json.dumps(
            {"metrics": result["metrics"],
             "boosted_log": result["boosted_training_log"],
             "baseline_log": result["baseline_training_log"]}, sort_keys=True))
    assert blobs[0] == blobs[1]
    _passed(capsys, f"[PASS] criterion 09: repeated runs byte-identical over "
                    f"{len(blobs[0])} bytes of metrics and training logs")


def test_criterion_10_suite_fits_the_resource_budget(capsys):
    """Everything up to here ran within 900 seconds of wall clock and under
    2 GiB of peak memory. This must stay the last test in this file."""
    elapsed = time.monotonic() - SESSION_START
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert elapsed < 900.0
    assert peak_kb < 2 * 1024 * 1024
    _passed(capsys, f"[PASS] criterion 10: {elapsed:.0f}s elapsed (< 900s), "
                    f"peak memory {peak_kb / 1024:.0f} MiB (< 2048 MiB)")
