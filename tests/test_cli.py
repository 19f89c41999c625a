"""End-to-end command tests: config validation, the train/sweep/coldstart
commands on small synthetic logs, batch scoring, and exit codes."""

import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import os
import shutil
import signal
import tempfile
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (_Unpicklable, click_csv_texts, csv_reader_oracle, read_bundle,
                      tokens_of, write_bundle)
from xdboost import child, cli, data, synth
from xdboost.boosting import XDBoostModel, append_placeholders, predict_xdboost
from xdboost.data import (FeatureSchema, FieldSpec, chronological_split, encode, ingest_csv,
                          records_hash, sub_training)
from xdboost.errors import (ConfigError, DataError, EvaluationError, TrainingError,
                            UsageError)
from xdboost.metrics import evaluate
from xdboost.models import BaseNet

FAST_MODEL = {
    "n_iterations": 1,
    "error_lr": 0.5,
    "net": {"embedding_dim": 2, "hidden_layers": [4], "learning_rate": 1e-2,
            "epochs": 2, "patience": 2, "batch_size": 256},
}


# A net whose reference refit really trains: with shuffled batches no fit
# is known from the one before it, so the reference has fits to fork for.
FORKING_MODEL = {**FAST_MODEL, "net": {**FAST_MODEL["net"], "shuffle": True}}


def write_config(tmp_path, name="config.json", **overrides):
    raw = {"seed": 11, "synthetic": {"n_rows": 400, "vocab_size": 8},
           "model": dict(FAST_MODEL)}
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---- config loading --------------------------------------------------------------

def test_load_config_requires_a_seed(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"synthetic": {"n_rows": 100}}))
    with pytest.raises(ConfigError, match="seed is required"):
        cli.load_config(str(path))


def test_load_config_rejects_junk():
    with pytest.raises(ConfigError, match="not found"):
        cli.load_config("/definitely/not/here.json")


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        cli.load_config(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        cli.load_config(str(path))


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, "lerning_rate": 0.1}))
    with pytest.raises(ConfigError, match="unknown config keys.*lerning_rate"):
        cli.load_config(str(path))
    path.write_text(json.dumps({"seed": 1, "model": {"boost_rounds": 4}}))
    with pytest.raises(ConfigError, match="unknown model config keys"):
        cli.load_config(str(path))


def test_load_config_refuses_managed_net_settings(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, "model": {"net": {"head": "tanh"}}}))
    with pytest.raises(ConfigError, match="managed automatically"):
        cli.load_config(str(path))


def test_load_config_bounds_sweep_percentages(tmp_path):
    path = tmp_path / "c.json"
    for bad in (0, 72.5, -3):
        path.write_text(json.dumps({"seed": 1, "sub_training_percentages": [5, bad]}))
        with pytest.raises(ConfigError, match="outside"):
            cli.load_config(str(path))


def test_load_config_bounds_sub_training_by_the_split(tmp_path):
    path = tmp_path / "c.json"
    raw = {"seed": 1, "split": {"train": 0.5, "val": 0.25, "test": 0.25},
           "synthetic": {"n_rows": 100}}
    path.write_text(json.dumps(raw))
    # the default sweep budgets are those the training region can hold
    assert cli.load_config(str(path)).sub_training_percentages == (1, 5, 10, 20, 40)
    for key, value in (("sub_training_percent", 60), ("sub_training_percentages", [5, 60])):
        path.write_text(json.dumps({**raw, key: value}))
        with pytest.raises(ConfigError, match=r"60 outside \(0, 50\]"):
            cli.load_config(str(path))
        assert cli.main(["train", "--config", str(path)]) == 2


def test_train_accepts_a_budget_the_split_allows(tmp_path):
    config = write_config(tmp_path, split={"train": 0.9, "val": 0.05, "test": 0.05},
                          sub_training_percent=80)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", config, "--output-dir", str(out)]) == 0
    assert read_json(out / "train_result.json")["n_train_rows"] == 320


def _bad_fields_file(tmp_path):
    fields = tmp_path / "fields.json"
    fields.write_text("{user: categorical")
    return {"dataset": "data.csv", "fields": str(fields)}


def _net(**settings):
    return {"model": {**FAST_MODEL, "net": {**FAST_MODEL["net"], **settings}}}


@pytest.mark.parametrize("overrides, named", [
    (_bad_fields_file, "field declaration file"),
    (lambda tmp_path: _net(hidden_layers="ab"), "model.net.hidden_layers"),
    (lambda tmp_path: {"sub_training_percent": "10"}, "sub_training_percent"),
    (lambda tmp_path: {"model": {**FAST_MODEL, "n_iterations": "two"}}, "model.n_iterations"),
    (lambda tmp_path: {"model": 5}, "model"),
    (lambda tmp_path: {"sub_training_percentages": 5}, "sub_training_percentages"),
    (lambda tmp_path: _net(shuffle="false"), "model.net.shuffle"),
    (lambda tmp_path: {"model": {**FAST_MODEL, "cold_restart": "no"}}, "model.cold_restart"),
    (lambda tmp_path: {"seed": 1.9}, "seed"),
    (lambda tmp_path: {"model": {**FAST_MODEL, "n_iterations": 2.7}}, "model.n_iterations"),
    (lambda tmp_path: _net(epochs=2.5), "model.net.epochs"),
    (lambda tmp_path: _net(batch_size=64.0), "model.net.batch_size"),
    (lambda tmp_path: _net(embedding_dim=2.0), "model.net.embedding_dim"),
    (lambda tmp_path: {"synthetic": {"n_rows": 300.5}}, "synthetic.n_rows"),
    (lambda tmp_path: _net(hidden_layers=["4"]), "model.net.hidden_layers"),
    (lambda tmp_path: {"normalize_continuous": "false"}, "normalize_continuous"),
    (lambda tmp_path: _net(loss="mae"), "loss"),
    (lambda tmp_path: _net(seed=0), "seed"),
    (lambda tmp_path: {"seed": -5}, "error: seed must be a nonnegative integer, got -5"),
    (lambda tmp_path: {"synthetic": {"n_rows": 400, "seed": -1}}, "synthetic.seed"),
    (lambda tmp_path: _net(learning_rate=-1.0), "model.net.learning_rate must be positive"),
    (lambda tmp_path: _net(learning_rate=float("nan")), "model.net.learning_rate"),
    (lambda tmp_path: _net(epsilon=-1.0), "model.net.epsilon"),
    (lambda tmp_path: _net(beta1=1.0), "model.net.beta1"),
    (lambda tmp_path: {"synthetic": {"n_rows": 400, "latent_dim": 0}}, "synthetic.latent_dim"),
    (lambda tmp_path: {"synthetic": {"n_rows": 400, "interaction_scale": float("nan")}},
     "synthetic.interaction_scale"),
    (lambda tmp_path: {"split": {"train": float("nan"), "val": 0.1, "test": 0.2}},
     "split.train"),
    (lambda tmp_path: {"sub_training_percent": float("inf")}, "sub_training_percent"),
], ids=["fields-file-not-json", "hidden-layers-not-numbers", "percent-as-string",
        "iterations-not-a-number", "model-not-an-object", "percentages-not-a-list",
        "shuffle-as-string", "cold-restart-as-string", "seed-not-an-integer",
        "iterations-not-an-integer", "epochs-not-an-integer", "batch-size-as-float",
        "embedding-dim-as-float", "synthetic-rows-not-an-integer", "hidden-layers-of-strings",
        "normalize-as-string", "net-loss", "net-seed", "negative-seed",
        "negative-synthetic-seed", "negative-learning-rate", "nan-learning-rate",
        "negative-epsilon", "beta1-of-one", "zero-latent-dim", "nan-interaction-scale",
        "nan-split", "infinite-percent"])
def test_malformed_config_inputs_exit_2(tmp_path, capsys, monkeypatch, overrides, named):
    """Each is refused naming its key, before any data is read."""
    monkeypatch.setattr(cli, "load_records", None)
    config = write_config(tmp_path, **overrides(tmp_path))
    assert cli.main(["train", "--config", config, "--output-dir", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_a_finite_learning_rate_that_diverges_is_a_training_error(tmp_path, capsys):
    """1e300 passes every config check; the first epoch's loss is not finite.
    Exit 4 holds when warnings are errors: numpy's overflow warnings are
    off inside a fit."""
    config = write_config(tmp_path, **_net(learning_rate=1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["train", "--config", config, "--output-dir", str(tmp_path / "run")])
    assert code == 4
    assert "non-finite training loss" in capsys.readouterr().err


def test_load_config_applies_overrides_and_synthetic_default():
    cfg = cli.load_config(None, seed=7, output_dir="out", synthetic=True)
    assert cfg.seed == 7
    assert cfg.output_dir == "out"
    assert cfg.synthetic is not None
    assert cfg.synthetic.seed == 7  # generator seed follows the master seed
    assert cfg.net.head == "sigmoid"


def test_config_snapshot_roundtrips_through_load(tmp_path):
    first = cli.load_config(write_config(tmp_path))
    path = tmp_path / "again.json"
    path.write_text(json.dumps(first.snapshot()))
    second = cli.load_config(str(path))
    assert second.snapshot() == first.snapshot()



def test_the_readme_library_example_runs(tmp_path, monkeypatch):
    """The example builds the schema, then the model, and encodes each split
    against the model's schema; nothing appends placeholders by hand."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    example = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    assert "append_placeholders" not in example and "n_rows=20000" in example
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(example.replace("n_rows=20000", "n_rows=600"), scope)
    model, same = scope["model"], scope["same"]
    assert scope["X_train"].n_placeholders == model.n_iterations == 3
    assert 0.0 <= scope["report"].auc <= 1.0
    assert scope["reference"].predict_matrix(scope["X_test"]).shape == (120,)
    assert np.array_equal(predict_xdboost(same, scope["X_test"]),
                          predict_xdboost(model, scope["X_test"]))


def test_the_readme_config_example_loads(tmp_path, monkeypatch):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    example = readme.split("with a `config.json` like:\n\n```json\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    os.mkdir("data")
    with open("data/fields.json", "w") as fh:
        json.dump(synth.field_mapping(), fh)
    with open("config.json", "w") as fh:
        fh.write(example)
    cfg = cli.load_config("config.json")
    raw, snap = json.loads(example), json.loads(json.dumps(cfg.snapshot()))
    assert cfg.fields == synth.field_mapping()
    assert (cfg.seed, cfg.dataset, cfg.sub_training_percent) == (
        raw["seed"], raw["dataset"], raw["sub_training_percent"])
    assert (cfg.n_iterations, cfg.error_lr) == (
        raw["model"]["n_iterations"], raw["model"]["error_lr"])
    assert raw["model"]["net"].items() <= snap["model"]["net"].items()


def test_a_config_of_defaults_runs():
    """ExperimentConfig needs only a seed; every other setting has a usable default."""
    log, _ = synth.generate_records(synth.SynthConfig(n_rows=300, vocab_size=6, seed=1))
    result, model = cli.run_experiment(cli.ExperimentConfig(seed=1), log, synth.field_spec(), 10)
    assert model.trained and result["metrics"]["boosted"]["test"]["n_instances"] == 60


# ---- synth-gen --------------------------------------------------------------------

def test_synth_gen_writes_an_ingestable_log(tmp_path):
    out = tmp_path / "gen"
    code = cli.main(["synth-gen", "--output-dir", str(out), "--rows", "250",
                     "--vocab-size", "6", "--seed", "3"])
    assert code == 0
    meta = read_json(out / "meta.json")
    assert meta["n_rows"] == 250
    fields = read_json(out / "fields.json")
    spec = FieldSpec.from_mapping(fields)
    records = ingest_csv(str(out / "data.csv"), spec)
    assert len(records) == 250
    assert set(records.label.tolist()) <= {0, 1}


# ---- train ------------------------------------------------------------------------

def test_train_command_end_to_end(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", config, "--output-dir", str(out)]) == 0

    result = read_json(out / "train_result.json")
    assert result["command"] == "train"
    assert result["seed"] == 11
    assert result["n_rows_total"] == 400
    assert result["n_train_rows"] == 288
    assert result["n_val_rows"] == 32
    assert result["n_test_rows"] == 80
    for model_name in ("boosted", "baseline"):
        for split_name in ("val", "test"):
            report = result["metrics"][model_name][split_name]
            assert 0.0 <= report["auc"] <= 1.0
            assert report["log_loss"] > 0.0
    assert result["metrics"]["boosted"]["test"]["n_instances"] == 80
    assert len(result["boosted_training_log"]) == 1
    assert result["class_weights"]["click"] >= 1.0
    assert result["class_weights"]["nonclick"] == 1.0
    # the embedded config omits managed net settings
    assert "head" not in result["config"]["model"]["net"]
    assert (out / "model_bundle").is_file()


def test_train_leaves_a_bundle_directory_alone(tmp_path, capsys):
    """A version-1 bundle is a directory; saving over it is refused."""
    out = tmp_path / "run"
    (out / "model_bundle").mkdir(parents=True)
    (out / "model_bundle" / "manifest.json").write_text("{}")
    assert cli.main(["train", "--config", write_config(tmp_path),
                     "--output-dir", str(out)]) == 2
    assert "is a directory" in capsys.readouterr().err
    assert os.listdir(out / "model_bundle") == ["manifest.json"]
    assert not (out / "train_result.json").exists()  # the result follows the bundle


def test_train_refuses_a_result_path_that_is_a_directory(tmp_path, capsys):
    out = tmp_path / "run"
    (out / "train_result.json").mkdir(parents=True)
    assert cli.main(["train", "--config", write_config(tmp_path),
                     "--output-dir", str(out)]) == 2
    assert f"{out / 'train_result.json'} is a directory" in capsys.readouterr().err
    assert os.listdir(out / "train_result.json") == []
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


@pytest.mark.parametrize("command", ["train", "coldstart"])
def test_a_refused_result_path_keeps_the_old_bundle_and_reads_no_data(tmp_path, capsys,
                                                                       monkeypatch, command):
    """Every output path is checked before the data is read, so a
    directory at the result path leaves the previous run's bundle as it
    was."""
    out = tmp_path / "run"
    (out / f"{command}_result.json").mkdir(parents=True)
    (out / "model_bundle").write_bytes(b"the previous bundle")
    monkeypatch.setattr(cli, "load_records", lambda cfg: pytest.fail("the data was read"))
    assert cli.main([command, "--config", write_config(tmp_path),
                     "--output-dir", str(out)]) == 2
    assert f"{out / f'{command}_result.json'} is a directory" in capsys.readouterr().err
    assert (out / "model_bundle").read_bytes() == b"the previous bundle"
    assert sorted(os.listdir(out)) == sorted([f"{command}_result.json", "model_bundle"])


@pytest.mark.parametrize("argv, refused", [
    (["sweep", "--percentages", "5,10"], "sweep_p10.json"),
    (["sweep", "--percentages", "5,10"], "sweep_summary.json"),
    (["synth-gen", "--rows", "40"], "meta.json"),
], ids=["sweep-run", "sweep-summary", "synth-gen"])
def test_sweep_and_synth_gen_refuse_a_directory_before_any_data(tmp_path, capsys, monkeypatch,
                                                                 argv, refused):
    out = tmp_path / "run"
    (out / refused).mkdir(parents=True)
    monkeypatch.setattr(cli, "load_records", lambda cfg: pytest.fail("the data was read"))
    monkeypatch.setattr(synth, "generate_records", lambda cfg: pytest.fail("data was made"))
    config = [] if argv[0] == "synth-gen" else ["--config", write_config(tmp_path)]
    assert cli.main([*argv, *config, "--output-dir", str(out)]) == 2
    assert f"{out / refused} is a directory" in capsys.readouterr().err
    assert os.listdir(out) == [refused]


def test_an_interrupted_result_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "result.json"
    cli._write_json(path, {"run": 1})
    before = path.read_bytes()

    def dump_then_fail(payload, fh, **kwargs):
        fh.write('{"run": ')
        raise OSError("disk full")

    monkeypatch.setattr(cli.json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        cli._write_json(path, {"run": 2})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["result.json"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_result_holding_nan_or_infinity_is_refused(tmp_path, bad):
    """JSON has neither, so the writer refuses the payload and the previous
    file stays, with no temporary file beside it."""
    path = tmp_path / "result.json"
    cli._write_json(path, {"run": 1})
    before = path.read_bytes()
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_json(path, {"run": 2, "metrics": {"auc": bad}})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["result.json"]


# sha256 of result files at seed 11 with every timing read as 0, recorded
# when each file was still written in place
RESULT_SHA256 = {
    "run/train_result.json": "795dcee71f988169bab27d3f934bf294acbbc46c26ad66542d219bfa1b60b0a9",
    "sw/sweep.csv": "e374f9193d6b59b884c9590570b515c4ae0e179daa9694abd538655a0f9e44ea",
    "sw/sweep_p5.json": "78ccd9acd0cc08c75806f0fdbddf06e8a58d94caad4968dcc6f370d401e12947",
    "sw/sweep_summary.json": "471c2818b259c161d0032b9f9f152fa5225817a8f7e4b82a4684d4904b5514ac",
}


def test_result_files_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    config = write_config(tmp_path)
    assert cli.main(["train", "--config", config, "--output-dir", "run"]) == 0
    assert cli.main(["sweep", "--config", config, "--output-dir", "sw",
                     "--percentages", "5,10"]) == 0
    for name, digest in RESULT_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    assert not [f for f in os.listdir(tmp_path / "sw") if f.endswith(".tmp")]


def _result_files(root):
    return {path.relative_to(root): path.read_bytes() for path in sorted(root.rglob("*"))
            if path.suffix in (".json", ".csv")}


@pytest.fixture
def two_cpus(monkeypatch):
    """The reference forks only with a second CPU to run on."""
    monkeypatch.setattr(child, "_cpus", lambda: 2)


def _failing_fork():
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


def _forbidden_fork():
    pytest.fail("forked with one CPU")


def test_result_files_are_the_same_without_fork(tmp_path, monkeypatch, two_cpus):
    """Where os.fork does not exist or fails, or with one CPU, the reference
    and the validation process run in-process, to the same bytes; a failed
    fork leaks no pipe, and without os.fork no pipe is made."""
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    config = write_config(tmp_path, model=FORKING_MODEL)
    pipe, close, Child = os.pipe, os.close, cli._Child
    pipes, closed, references = {}, [], []

    def counting(job, *args):  # counts the reference's children, as cli makes them
        if job is not child._validations:
            references.append(1)
        return Child(job, *args)

    for name in ("forked", "in_process", "fork_fails", "one_cpu"):
        with monkeypatch.context() as patch:
            if name in ("in_process", "fork_fails"):
                made = pipes.setdefault(name, [])
                patch.setattr(os, "pipe", lambda made=made: made.append(pipe()) or made[-1])
                patch.setattr(os, "close", lambda fd: closed.append(fd) or close(fd))
            if name == "in_process":
                patch.delattr(os, "fork")
            elif name == "fork_fails":
                patch.setattr(os, "fork", _failing_fork)
                patch.setattr(cli, "_Child", counting)
            elif name == "one_cpu":
                patch.setattr(child, "_cpus", lambda: 1)
                patch.setattr(os, "fork", _forbidden_fork)
            (tmp_path / name).mkdir()
            patch.chdir(tmp_path / name)  # the results embed the output directory
            assert cli.main(["train", "--config", config, "--output-dir", "run"]) == 0
            assert cli.main(["sweep", "--config", config, "--output-dir", "sw",
                             "--percentages", "5,10"]) == 0
    forked = _result_files(tmp_path / "forked")
    assert len(forked) == 5
    assert forked == _result_files(tmp_path / "in_process")
    assert forked == _result_files(tmp_path / "fork_fails")
    assert forked == _result_files(tmp_path / "one_cpu")
    assert len(references) == 3  # one per experiment
    # per experiment, two pipes each for the validation process and the
    # reference's child: items one way, messages the other
    assert len(pipes["fork_fails"]) == 3 * 4
    assert {fd for fds in pipes["fork_fails"] for fd in fds} <= set(closed)
    assert pipes["in_process"] == []


# The acceptance gate's net: its first classifier fit stops by patience
GATE_MODEL = {"n_iterations": 2, "error_lr": 0.5,
              "net": {"embedding_dim": 2, "hidden_layers": [], "learning_rate": 0.03,
                      "epochs": 400, "patience": 30, "batch_size": 4096}}


def test_a_reference_with_no_fit_left_to_run_does_not_fork(tmp_path, monkeypatch, two_cpus):
    """Every reference fit after the first is known from the one before
    it, so the reference trains in-process though two CPUs are free, to
    the bytes of a run where os.fork does not exist."""
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    config = write_config(tmp_path, model=GATE_MODEL)
    Child = cli._Child
    for name in ("fork_refused", "no_fork"):
        with monkeypatch.context() as patch:
            if name == "fork_refused":  # the reference's child, as cli makes it
                patch.setattr(cli, "_Child", lambda job, *a: Child(job, *a)
                              if job is child._validations else pytest.fail("forked for no fit"))
            else:
                patch.delattr(os, "fork")
            (tmp_path / name).mkdir()
            patch.chdir(tmp_path / name)  # the results embed the output directory
            assert cli.main(["train", "--config", config, "--output-dir", "run"]) == 0
    refused = _result_files(tmp_path / "fork_refused")
    assert len(refused) == 1
    assert refused == _result_files(tmp_path / "no_fork")
    result = read_json(tmp_path / "no_fork" / "run" / "train_result.json")
    assert result["baseline_training_log"][0]["classifier_refit"]["best_epoch"] == -1


def test_a_reference_with_no_fit_left_to_run_resumes_the_first_checkpoint(
        tmp_path, monkeypatch, two_cpus):
    """With no reference fit left to run, the first fit's checkpoint is
    resumed once, after the loop: one train_unboosted call, and the fit
    state taken at the first fit is the only one."""
    train, calls = cli.train_unboosted, []
    monkeypatch.setattr(cli, "train_unboosted",
                        lambda *a, **kw: calls.append(1) or train(*a, **kw))
    fit_state, taken = BaseNet.fit_state, []
    monkeypatch.setattr(BaseNet, "fit_state", lambda net: taken.append(net) or fit_state(net))
    config = write_config(tmp_path, model=GATE_MODEL)
    assert cli.main(["train", "--config", config, "--output-dir", str(tmp_path / "run")]) == 0
    assert (len(calls), len(taken)) == (1, 1)


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "in_process"])
def test_train_on_a_split_without_validation_rows(tmp_path, monkeypatch, two_cpus, forked):
    """Both models train without early stopping and are scored on the test
    rows only, whether or not the reference trains in a child."""
    fork, forks = getattr(os, "fork", None), []
    if forked:
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    else:
        monkeypatch.delattr(os, "fork")
    config = write_config(tmp_path, split={"train": 0.8, "val": 0.0, "test": 0.2},
                          model={**FAST_MODEL, "n_iterations": 2})
    assert cli.main(["train", "--config", config, "--output-dir", str(tmp_path / "run")]) == 0
    assert len(forks) == forked
    result = read_json(tmp_path / "run" / "train_result.json")
    assert (result["n_val_rows"], result["n_test_rows"]) == (0, 80)
    assert {name: list(reports) for name, reports in result["metrics"].items()} == {
        "boosted": ["test"], "baseline": ["test"]}
    fits = [fit for log in (result["boosted_training_log"], result["baseline_training_log"])
            for entry in log for fit in entry.values() if isinstance(fit, dict)]
    assert len(fits) == 2 * 3 + 2 * 2
    assert all(fit["val_losses"] == [] and fit["initial_val_loss"] is None for fit in fits)


@pytest.mark.parametrize("n_iterations", [1, 3])
@pytest.mark.parametrize("forked, fit_states", [(True, 1), (False, 2)],
                         ids=["forked", "in_process"])
def test_an_experiment_takes_one_fit_state_in_the_parent(tmp_path, monkeypatch, two_cpus,
                                                         n_iterations, forked, fit_states):
    """The parent copies the classifier's fit state once, at the fork point
    after the first fit; in-process, the reference's final checkpoint is
    the second. A child's calls land in the child's copy of the list."""
    fit_state, taken = BaseNet.fit_state, []
    monkeypatch.setattr(BaseNet, "fit_state", lambda net: taken.append(net) or fit_state(net))
    if not forked:
        monkeypatch.delattr(os, "fork")
    config = write_config(tmp_path, model={**FORKING_MODEL, "n_iterations": n_iterations})
    assert cli.main(["train", "--config", config, "--output-dir", str(tmp_path / "run")]) == 0
    assert len(taken) == fit_states


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_experiment_appends_placeholders_once_per_split(tmp_path, monkeypatch, cpus):
    """No entry point writes the matrices it is given, so one zeroed train
    and validation set feeds both models, the reference's rebuild and the
    validation scores, forked or not; the test split gets the third."""
    monkeypatch.setattr(child, "_cpus", lambda: cpus)
    append, rows = data.append_placeholders, []
    monkeypatch.setattr(data, "append_placeholders",
                        lambda X, n: rows.append(X.n_rows) or append(X, n))
    cfg = cli.load_config(write_config(tmp_path), output_dir=str(tmp_path))
    log, field_spec, _ = cli.load_records(cfg)
    result, _ = cli.run_experiment(cfg, log, field_spec, None)
    assert rows == [result["n_train_rows"], result["n_val_rows"], result["n_test_rows"]]


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "in_process"])
def test_the_parent_s_last_reference_scores_the_reported_baseline(tmp_path, monkeypatch,
                                                                  two_cpus, forked):
    """The benchmark scores the net the parent's last train_unboosted call
    returns, wrapped through the cli module as here; that net must give the
    result's baseline metrics bit for bit."""
    train, returned = cli.train_unboosted, []
    monkeypatch.setattr(cli, "train_unboosted",
                        lambda *a, **kw: returned.append(train(*a, **kw)) or returned[-1])
    if not forked:
        monkeypatch.delattr(os, "fork")
    cfg = cli.load_config(write_config(tmp_path, model=FORKING_MODEL), output_dir=str(tmp_path))
    log, field_spec, _ = cli.load_records(cfg)
    result, model = cli.run_experiment(cfg, log, field_spec, None)
    reference = returned[-1][0]
    _, val_log, test_log = chronological_split(log, cfg.split)
    schema = dataclasses.replace(model.schema, n_placeholders=0)
    for name, rows in (("val", val_log), ("test", test_log)):
        X, y, _ = encode(rows, schema)
        probs = reference.predict_matrix(append_placeholders(X, model.n_iterations))
        assert evaluate(probs, y).to_dict() == result["metrics"]["baseline"][name]


def test_train_is_reproducible(tmp_path):
    config = write_config(tmp_path)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["train", "--config", config, "--output-dir", str(out)]) == 0
        result = read_json(out / "train_result.json")
        blobs.append(json.dumps(result["metrics"], sort_keys=True))
    assert blobs[0] == blobs[1]


def test_zero_error_lr_makes_boosted_match_baseline(tmp_path):
    model = dict(FAST_MODEL)
    model["error_lr"] = 0.0
    config = write_config(tmp_path, model=model)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", config, "--output-dir", str(out)]) == 0
    result = read_json(out / "train_result.json")
    for split_name in ("val", "test"):
        boosted = result["metrics"]["boosted"][split_name]
        baseline = result["metrics"]["baseline"][split_name]
        assert abs(boosted["auc"] - baseline["auc"]) <= 1e-12
        assert abs(boosted["log_loss"] - baseline["log_loss"]) <= 1e-12


def test_train_without_data_source_is_a_config_error(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1}))
    assert cli.main(["train", "--config", str(path)]) == 2
    path.write_text(json.dumps({"seed": 1, "dataset": str(tmp_path / "data.csv")}))
    assert cli.main(["train", "--config", str(path)]) == 2  # a dataset without fields


@pytest.mark.parametrize("fields_as", ["path", "inline"])
def test_the_readme_flow_trains_from_a_synth_gen_csv_and_scores_it(tmp_path, fields_as):
    """synth-gen, then train from its dataset and fields, then predict over
    the same CSV."""
    gen = tmp_path / "gen"
    assert cli.main(["synth-gen", "--output-dir", str(gen), "--rows", "400",
                     "--vocab-size", "8", "--seed", "5"]) == 0
    fields = str(gen / "fields.json") if fields_as == "path" else synth.field_mapping()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 11, "dataset": str(gen / "data.csv"),
                                  "fields": fields, "model": FAST_MODEL}))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--output-dir", str(out)]) == 0
    result = read_json(out / "train_result.json")
    assert result["data_source"] == {"source": str(gen / "data.csv"), "n_rows": 400}
    assert result["config"]["fields"] == synth.field_mapping()
    assert cli.main(["predict", "--bundle", str(out / "model_bundle"),
                     "--input", str(gen / "data.csv"), "--output", str(tmp_path / "p.csv")]) == 0
    assert len(_scored(tmp_path / "p.csv")) == 400


def _synth_gen_without(tmp_path, role):
    """A synth-gen log and a config that trains from it with the ``role``
    field left undeclared, so its column is read as no field at all."""
    gen = tmp_path / "gen"
    assert cli.main(["synth-gen", "--output-dir", str(gen), "--rows", "400",
                     "--vocab-size", "8", "--seed", "5", "--cold-start-fraction", "0.3"]) == 0
    fields = {name: kind for name, kind in synth.field_mapping().items() if kind != role}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 11, "dataset": str(gen / "data.csv"),
                                  "fields": fields, "model": FAST_MODEL}))
    return gen / "data.csv", str(config)


def test_a_field_declaration_without_a_user_field_trains_and_scores(tmp_path):
    data_path, config = _synth_gen_without(tmp_path, "user")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", config, "--output-dir", str(out)]) == 0
    schema = XDBoostModel.load_bundle(str(out / "model_bundle")).schema
    assert (schema.user_field, schema.item_field) == (None, synth.ITEM_FIELD)
    assert schema.cat_fields == [synth.ITEM_FIELD, *synth.CONTEXT_FIELDS]
    assert cli.main(["predict", "--bundle", str(out / "model_bundle"),
                     "--input", str(data_path), "--output", str(tmp_path / "p.csv")]) == 0
    assert len(_scored(tmp_path / "p.csv")) == 400


def test_coldstart_without_an_item_field_exits_3_naming_it(tmp_path, capsys):
    _, config = _synth_gen_without(tmp_path, "item")
    out = tmp_path / "cold"
    assert cli.main(["coldstart", "--config", config, "--output-dir", str(out)]) == 3
    assert "item field" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


# ---- sweep ------------------------------------------------------------------------

def test_sweep_writes_csv_and_per_percentage_results(tmp_path):
    config = write_config(tmp_path, synthetic={"n_rows": 600, "vocab_size": 8})
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", config, "--output-dir", str(out),
                     "--percentages", "5,10,20"])
    assert code == 0

    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["percentage", "model", "auc", "logloss"]
    assert len(rows) == 1 + 3 * 2
    assert [r[1] for r in rows[1:]] == ["xdboost", "base"] * 3

    summary = read_json(out / "sweep_summary.json")
    assert summary["percentages"] == [5.0, 10.0, 20.0]
    assert summary["failures"] == []
    hashes = set()
    for pct in (5, 10, 20):
        result = read_json(out / f"sweep_p{pct}.json")
        assert result["command"] == "sweep"
        assert result["sub_training_percent"] == pct
        hashes.add(result["test_set_hash"])
    # every percentage was scored against the identical held-out rows
    assert hashes == {summary["test_set_hash"]}


def test_sweep_hashes_the_test_split_once(tmp_path, monkeypatch):
    config = write_config(tmp_path, synthetic={"n_rows": 600, "vocab_size": 8})
    code = cli.main(["train", "--config", config, "--output-dir", str(tmp_path / "train")])
    assert code == 0
    fresh = read_json(tmp_path / "train" / "train_result.json")["test_set_hash"]

    calls = []

    def counted(log):
        calls.append(len(log))
        return records_hash(log)

    monkeypatch.setattr(cli, "records_hash", counted)
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", config, "--output-dir", str(out),
                     "--percentages", "5,10,20"])
    assert code == 0
    assert len(calls) == 1
    for pct in (5, 10, 20):
        assert read_json(out / f"sweep_p{pct}.json")["test_set_hash"] == fresh
    assert read_json(out / "sweep_summary.json")["test_set_hash"] == fresh


def test_coldstart_and_sweep_split_the_log_once(tmp_path, monkeypatch):
    """A command splits its log once and hands the split to each run: a
    coldstart run that evaluates, and a sweep over three budgets. Each run
    cuts its sub-training rows once: a coldstart run, with a budget and
    without, and each budget of the sweep."""
    calls = []

    def counted(log, spec):
        calls.append(len(log))
        return chronological_split(log, spec)

    monkeypatch.setattr(cli, "chronological_split", counted)
    cuts = []

    def counted_cut(log, train_region, x_percent, split=None):
        cuts.append(x_percent)
        return sub_training(log, train_region, x_percent, split)

    monkeypatch.setattr(cli, "sub_training", counted_cut)
    config = write_config(
        tmp_path, synthetic={"n_rows": 500, "vocab_size": 10, "cold_start_fraction": 0.3})
    out = tmp_path / "cold"
    assert cli.main(["coldstart", "--config", config, "--output-dir", str(out)]) == 0
    assert read_json(out / "coldstart_result.json")["n_test_rows"] == 30
    assert calls == [500]
    assert cuts == []
    # the run trains on the very rows its test rows were filtered against
    calls.clear()
    assert cli.main(["coldstart", "--config", config, "--output-dir", str(out),
                     "--sub-training-percent", "40"]) == 0
    assert read_json(out / "coldstart_result.json")["n_train_rows"] == 200
    assert calls == [500]
    assert cuts == [40]
    calls.clear()
    cuts.clear()
    assert cli.main(["sweep", "--config", config, "--output-dir", str(tmp_path / "sweep"),
                     "--percentages", "5,10,20"]) == 0
    assert calls == [500]
    assert cuts == [5, 10, 20]


def test_sweep_with_an_empty_percentage_list_exits_2_before_reading_data(tmp_path, capsys,
                                                                       monkeypatch):
    monkeypatch.setattr(cli, "load_records", lambda cfg: pytest.fail("data was read"))
    assert cli.main(["sweep", "--config", write_config(tmp_path), "--output-dir",
                     str(tmp_path / "sweep"), "--percentages", ""]) == 2
    assert "non-empty sub-training percentage list" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("percentages", ["5,ten", "5;10", "5,,x"])
def test_a_malformed_percentage_list_exits_2(tmp_path, capsys, percentages):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["sweep", "--config", write_config(tmp_path), "--output-dir",
                  str(tmp_path / "sweep"), "--percentages", percentages])
    assert exit_info.value.code == 2
    assert "bad percentage list" in capsys.readouterr().err


def test_sweep_where_every_run_fails_exits_nonzero(tmp_path):
    # 0.5% of 150 rows floors to zero records, so every run dies in the
    # sub-training cut with a DataError
    config = write_config(tmp_path, synthetic={"n_rows": 150, "vocab_size": 5})
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", config, "--output-dir", str(out),
                     "--percentages", "0.5"])
    assert code == 3
    summary = read_json(out / "sweep_summary.json")
    assert summary["test_set_hash"] is None
    assert [f["percentage"] for f in summary["failures"]] == [0.5]
    assert summary["failures"][0]["type"] == "DataError"


def test_a_sweep_that_fails_every_budget_keeps_the_previous_csv(tmp_path):
    config = write_config(tmp_path, synthetic={"n_rows": 150, "vocab_size": 5})
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", config, "--output-dir", str(out),
                     "--percentages", "20"]) == 0
    before = (out / "sweep.csv").read_bytes()
    # 0.5% of 150 rows floors to zero records: every budget fails
    assert cli.main(["sweep", "--config", config, "--output-dir", str(out),
                     "--percentages", "0.5"]) == 3
    assert (out / "sweep.csv").read_bytes() == before
    summary = read_json(out / "sweep_summary.json")
    assert summary["csv"] is None and summary["failures"][0]["percentage"] == 0.5


def test_a_sweep_with_an_empty_test_split_fails_every_budget_before_training(tmp_path,
                                                                           monkeypatch):
    split = {"train": 0.9, "val": 0.1, "test": 0.0}
    config = write_config(tmp_path, split=split)
    monkeypatch.setattr(cli, "train_xdboost", lambda *a, **kw: pytest.fail("a budget trained"))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", config, "--output-dir", str(out),
                     "--percentages", "5,10"]) == 3
    summary = read_json(out / "sweep_summary.json")
    assert [(f["percentage"], f["type"]) for f in summary["failures"]] == [
        (5, "DataError"), (10, "DataError")]
    assert "test split is empty" in summary["failures"][0]["error"]
    assert sorted(os.listdir(out)) == ["sweep_summary.json"]
    monkeypatch.undo()
    # train on the same split reports validation metrics only
    assert cli.main(["train", "--config", config, "--output-dir", str(tmp_path / "run")]) == 0
    result = read_json(tmp_path / "run" / "train_result.json")
    assert (result["n_test_rows"], list(result["metrics"]["boosted"])) == (0, ["val"])


@pytest.mark.parametrize("raised, code", [
    ((UsageError, UsageError), 2), ((DataError, EvaluationError), 4)],
    ids=["one-class", "mixed"])
def test_a_sweep_that_fails_everywhere_raises_its_failures_class(tmp_path, monkeypatch,
                                                                raised, code):
    """Every run failing with one class exits as that class does, any
    class of the package included; failures of mixed classes exit 4."""
    errors = iter(raised)

    def fail(*args, **kwargs):
        raise next(errors)("run failed")

    monkeypatch.setattr(cli, "run_experiment", fail)
    assert cli.main(["sweep", "--config", write_config(tmp_path), "--output-dir",
                     str(tmp_path / "sweep"), "--percentages", "5,10"]) == code


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("knob, value", [("n_iterations", 0), ("error_lr", 1.5)])
def test_bad_boosting_knobs_exit_2_before_any_data_is_read(tmp_path, capsys, monkeypatch,
                                                            command, knob, value):
    def refuse(*args, **kwargs):
        raise AssertionError("data was read")

    monkeypatch.setattr(synth, "generate_records", refuse)
    monkeypatch.setattr(data, "scan_csv", refuse)
    model = {**FAST_MODEL, knob: value}
    for source in ({}, {"synthetic": None, "dataset": "data.csv",
                        "fields": synth.field_mapping()}):
        config = write_config(tmp_path, model=model, **source)
        assert cli.main([command, "--config", config, "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: model.{knob}: ") and err.count("\n") == 1


# ---- the reference's child process ------------------------------------------------

def _patch_fit(monkeypatch, before):
    """Make BaseNet.fit call ``before(net, X, in_child)`` first; in_child is
    whether the call runs in a process forked after the patch."""
    parent, fit = os.getpid(), BaseNet.fit

    def patched(net, X, *args, **kwargs):
        before(net, X, os.getpid() != parent)
        return fit(net, X, *args, **kwargs)

    monkeypatch.setattr(BaseNet, "fit", patched)


def _fail_the_reference_refit(exc):
    """A ``before`` for _patch_fit that raises exc in the reference's refit:
    the one classifier fit on zeroed placeholders after the first, which the
    two classifiers share."""
    zeroed_fits = []

    def fail_the_reference_refit(net, X, in_child):
        if net.config.head == "sigmoid" and not X.placeholder_block().any():
            zeroed_fits.append(in_child)
            if len(zeroed_fits) == 2:
                raise exc

    return fail_the_reference_refit, zeroed_fits


def test_a_failing_reference_reads_the_same_forked_or_not(tmp_path, capsys, monkeypatch,
                                                           two_cpus):
    """Only the reference's refit fails."""
    before, zeroed_fits = _fail_the_reference_refit(
        TrainingError("non-finite training loss at epoch 0, batch row 0"))
    _patch_fit(monkeypatch, before)
    config = write_config(tmp_path, model=FORKING_MODEL)
    errors, forks = [], []
    Child = cli._Child

    def reference_child(job, *args):  # the reference's child, as cli makes it
        made = Child(job, *args)
        if made.forked and job is not child._validations:
            forks.append(1)
        return made

    for name in ("forked", "in_process"):
        zeroed_fits.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_Child", reference_child)
            if name == "in_process":
                patch.delattr(os, "fork")
            assert cli.main(["train", "--config", config,
                             "--output-dir", str(tmp_path / name)]) == 4
        errors.append(capsys.readouterr().err)
    assert forks == [1]
    assert errors[0] == errors[1] == (
        "error: iteration 0, stage 'classifier refit': "
        "non-finite training loss at epoch 0, batch row 0\n")


@pytest.mark.parametrize("exc, last_line", [
    (KeyError("k"), "KeyError: 'k'"),
    (_Unpicklable(1, 2), "RuntimeError: _Unpicklable: 1 2"),
], ids=["other-error", "unpicklable-error"])
def test_an_unexpected_reference_failure_exits_1_forked_or_not(tmp_path, capsys, monkeypatch,
                                                                two_cpus, exc, last_line):
    """A failure that is not the package's aborts train and sweep with exit 1
    and a traceback that reaches the frame which raised, forked or not."""
    before, zeroed_fits = _fail_the_reference_refit(exc)
    _patch_fit(monkeypatch, before)
    config = write_config(tmp_path, model=FORKING_MODEL)
    for name in ("forked", "in_process"):
        with monkeypatch.context() as patch:
            if name == "in_process":
                patch.delattr(os, "fork")
            for command in ("train", "sweep"):
                zeroed_fits.clear()
                assert cli.main([command, "--config", config, "--output-dir",
                                 str(tmp_path / name / command)]) == 1
                err = capsys.readouterr().err
                assert "fail_the_reference_refit" in err
                assert err.rstrip().rsplit("\n", 1)[-1].endswith(
                    last_line if name == "forked" else f"{type(exc).__name__}: {exc}")
            assert not (tmp_path / name / "sweep" / "sweep_summary.json").exists()


@pytest.mark.parametrize("reference", ["hangs", "fails"])
def test_a_boosted_failure_wins_and_leaves_no_child(tmp_path, capsys, monkeypatch, two_cpus,
                                                     reference):
    def fail_both_sides(net, X, in_child):
        if in_child:
            if reference == "hangs":
                time.sleep(60)
            raise TrainingError("reference side")
        if net.config.head == "tanh":
            raise TrainingError("boosted side")

    _patch_fit(monkeypatch, fail_both_sides)
    t0 = time.monotonic()
    assert cli.main(["train", "--config", write_config(tmp_path, model=FORKING_MODEL),
                     "--output-dir", str(tmp_path / "run")]) == 4
    assert time.monotonic() - t0 < 30
    assert capsys.readouterr().err == (
        "error: iteration 0, stage 'residual fit': boosted side\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---- the validation process -------------------------------------------------------

def _recording_validators(monkeypatch):
    """Make cli record each validation process it asks for: whether it forked."""
    made, Child = [], cli._Child

    def recording(job, *args):
        made_child = Child(job, *args)
        if job is child._validations:
            made.append(made_child.forked)
        return made_child

    monkeypatch.setattr(cli, "_Child", recording)
    return made


@pytest.mark.parametrize("dead", ["before-a-request", "after-a-request"])
def test_a_validation_process_killed_mid_fit_fails_train_and_keeps_the_outputs(
        tmp_path, capsys, monkeypatch, two_cpus, dead):
    """Found dead as a request is written or as its loss is read, the
    process fails the run with exit 4, naming it."""
    config = write_config(tmp_path, model={**FAST_MODEL, "net": {**FAST_MODEL["net"],
                                                                  "epochs": 6}})
    out = tmp_path / "run"
    assert cli.main(["train", "--config", config, "--output-dir", str(out)]) == 0
    before = {name: (out / name).read_bytes() for name in ("train_result.json", "model_bundle")}
    capsys.readouterr()
    send, submitted = child._Child.send, []

    def kill_at_the_second(validator, message):  # after the first fit's first epoch
        if not isinstance(message, bytes):  # a fit's inputs, not an arena
            return send(validator, message)
        submitted.append(1)
        pid = validator._pid
        if len(submitted) == 2 and dead == "before-a-request":
            os.kill(pid, signal.SIGKILL)
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # its pipe's end is closed
        elif len(submitted) == 2:  # stopped first, so it cannot answer the request
            os.kill(pid, signal.SIGSTOP)
            os.waitid(os.P_PID, pid, os.WSTOPPED | os.WNOWAIT)
        send(validator, message)
        if len(submitted) == 2 and dead == "after-a-request":
            os.kill(pid, signal.SIGKILL)

    monkeypatch.setattr(child._Child, "send", kill_at_the_second)
    made = _recording_validators(monkeypatch)
    assert cli.main(["train", "--config", config, "--output-dir", str(out)]) == 4
    assert made == [True]
    assert capsys.readouterr().err == (
        "error: iteration 0, stage 'classifier fit': the validation process exited with "
        "status -9 before the end of its output\n")
    assert {name: (out / name).read_bytes() for name in before} == before


@pytest.mark.parametrize("epochs, cpus, made", [(1, 2, []), (2, 1, [False]), (2, 2, [True])],
                         ids=["one-epoch", "one-cpu", "forked"])
def test_only_fits_of_more_than_one_epoch_on_two_cpus_start_a_validation_process(
        tmp_path, monkeypatch, epochs, cpus, made):
    """csv-200k's fits run one epoch: there is no next epoch to train
    beside a validation, and no process starts."""
    monkeypatch.setattr(child, "_cpus", lambda: cpus)
    recorded = _recording_validators(monkeypatch)
    config = write_config(tmp_path, model={**FAST_MODEL, "net": {**FAST_MODEL["net"],
                                                                  "epochs": epochs}})
    assert cli.main(["train", "--config", config, "--output-dir", str(tmp_path / "run")]) == 0
    assert recorded == made


@pytest.mark.parametrize("cpus", [1, 2])
def test_validation_scores_reuse_the_columns_the_loop_wrote(tmp_path, monkeypatch, cpus):
    """Each regressor scores the validation rows once per experiment, in
    the loop; the validation metrics keep their bits."""
    monkeypatch.setattr(child, "_cpus", lambda: cpus)
    predict, rows = BaseNet.predict_matrix, []
    monkeypatch.setattr(BaseNet, "predict_matrix", lambda net, X: rows.append(
        (net.config.head, X.n_rows)) or predict(net, X))
    cfg = cli.load_config(write_config(tmp_path, model={**FAST_MODEL, "n_iterations": 2}),
                          output_dir=str(tmp_path))
    log, field_spec, _ = cli.load_records(cfg)
    result, model = cli.run_experiment(cfg, log, field_spec, None)
    assert rows.count(("tanh", result["n_val_rows"])) == 2
    _, val_log, _ = chronological_split(log, cfg.split)
    X, y, _ = encode(val_log, model.schema)
    assert evaluate(predict_xdboost(model, X), y).to_dict() == result["metrics"]["boosted"]["val"]


# ---- coldstart --------------------------------------------------------------------

def test_coldstart_evaluates_only_novel_items(tmp_path):
    config = write_config(
        tmp_path,
        synthetic={"n_rows": 500, "vocab_size": 10, "cold_start_fraction": 0.3})
    out = tmp_path / "cold"
    assert cli.main(["coldstart", "--config", config, "--output-dir", str(out)]) == 0
    result = read_json(out / "coldstart_result.json")
    assert result["command"] == "coldstart"
    assert result["no_cold_start_items"] is False
    assert result["n_unfiltered_test_rows"] == 100
    # the generator plants novel items on 30% of the test region
    assert result["n_filtered_test_rows"] == 30
    assert result["n_test_rows"] == 30
    assert result["metrics"]["boosted"]["test"]["n_instances"] == 30


def test_coldstart_with_nothing_novel_short_circuits(tmp_path, capsys):
    cfg = synth.SynthConfig(n_rows=400, vocab_size=5, seed=11)
    records, _ = synth.generate_records(cfg)
    train_items = set(tokens_of(records[:288], "item"))  # the 72% train region
    test_items = set(tokens_of(records[320:], "item"))
    assert test_items <= train_items  # precondition: no natural cold starts

    config = write_config(tmp_path, synthetic={"n_rows": 400, "vocab_size": 5})
    out = tmp_path / "cold"
    assert cli.main(["coldstart", "--config", config, "--output-dir", str(out)]) == 0
    assert "nothing to evaluate" in capsys.readouterr().out
    result = read_json(out / "coldstart_result.json")
    assert result["no_cold_start_items"] is True
    assert result["n_filtered_test_rows"] == 0


# ---- predict ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trained")
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", config, "--output-dir", str(out)]) == 0
    gen = tmp_path / "gen"
    assert cli.main(["synth-gen", "--output-dir", str(gen), "--rows", "40",
                     "--vocab-size", "8", "--seed", "99"]) == 0
    return str(out / "model_bundle"), str(gen / "data.csv")


def test_predict_scores_every_row(trained_run, tmp_path):
    bundle, data = trained_run
    out_path = tmp_path / "scored.csv"
    assert cli.main(["predict", "--bundle", bundle, "--input", data,
                     "--output", str(out_path)]) == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    for row in rows:
        p = float(row["predicted_ctr"])
        assert 0.0 < p < 1.0

    again = tmp_path / "scored2.csv"
    cli.main(["predict", "--bundle", bundle, "--input", data,
              "--output", str(again)])
    assert out_path.read_bytes() == again.read_bytes()


class _Unprintable(float):
    def __repr__(self):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_a_predict_that_fails_partway_keeps_the_previous_output(trained_run, tmp_path,
                                                               monkeypatch):
    bundle, data = trained_run
    out_path = tmp_path / "scored.csv"
    out_path.write_bytes(b"previous\r\n")
    # the 30th probability cannot be written, after 29 rows were
    probs = np.array([0.5] * 29 + [_Unprintable(0.5)] + [0.5] * 10, dtype=object)
    monkeypatch.setattr(cli, "predict_xdboost", lambda model, X: probs)
    with pytest.raises(OSError, match="No space left"):
        cli.cmd_predict(bundle, data, str(out_path))
    assert out_path.read_bytes() == b"previous\r\n"
    assert os.listdir(tmp_path) == ["scored.csv"]


def test_predict_refuses_an_output_directory_before_reading_its_input(trained_run, tmp_path,
                                                                     capsys, monkeypatch):
    bundle, data = trained_run
    out_dir = tmp_path / "scored"
    out_dir.mkdir()
    monkeypatch.setattr(cli, "scan_csv", lambda *a, **k: pytest.fail("the input was read"))
    monkeypatch.setattr(child, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("the reader was forked"))
    assert cli.main(["predict", "--bundle", bundle, "--input", data,
                     "--output", str(out_dir)]) == 2
    assert f"{out_dir} is a directory" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["scored"]
    assert os.listdir(out_dir) == []


def test_predict_handles_an_empty_input(trained_run, tmp_path):
    bundle, data = trained_run
    with open(data) as fh:
        header = fh.readline()
    empty = tmp_path / "empty.csv"
    empty.write_text(header)
    out_path = tmp_path / "scored.csv"
    assert cli.main(["predict", "--bundle", bundle, "--input", str(empty),
                     "--output", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].endswith("predicted_ctr")


def test_predict_rejects_inputs_missing_schema_fields(trained_run, tmp_path):
    bundle, data = trained_run
    with open(data) as fh:
        reader = csv.DictReader(fh)
        fieldnames = [f for f in reader.fieldnames if f != "x1"]
        rows = [{k: row[k] for k in fieldnames} for row in reader]
    crippled = tmp_path / "crippled.csv"
    with open(crippled, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    code = cli.main(["predict", "--bundle", bundle, "--input", str(crippled),
                     "--output", str(tmp_path / "out.csv")])
    assert code == 3


def test_predict_exit_codes_for_missing_paths(trained_run, tmp_path):
    bundle, data = trained_run
    assert cli.main(["predict", "--bundle", bundle,
                     "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "out.csv")]) == 3
    assert cli.main(["predict", "--bundle", str(tmp_path / "nobundle"),
                     "--input", data,
                     "--output", str(tmp_path / "out.csv")]) == 3


def _rewrite_csv(src, dst, edit_row=None, drop=()):
    """Copy a CSV, dropping columns and letting edit_row change data rows."""
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fieldnames = [f for f in rows[0] if f not in drop]
    with open(dst, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        for i, row in enumerate(rows):
            if edit_row:
                edit_row(i, row)
            writer.writerow(row)


def _scored(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_predict_without_timestamp_and_label_scores_every_row(trained_run, tmp_path):
    bundle, data = trained_run
    full, bare = tmp_path / "full.csv", tmp_path / "bare.csv"
    assert cli.main(["predict", "--bundle", bundle, "--input", data,
                     "--output", str(full)]) == 0
    stripped = tmp_path / "stripped.csv"
    _rewrite_csv(data, stripped, drop=("timestamp", "label"))
    assert cli.main(["predict", "--bundle", bundle, "--input", str(stripped),
                     "--output", str(bare)]) == 0
    full_rows, bare_rows = _scored(full), _scored(bare)
    assert len(bare_rows) == 40
    assert list(bare_rows[0]) == [f for f in full_rows[0] if f not in ("timestamp", "label")]
    for a, b in zip(full_rows, bare_rows):
        assert b == {k: v for k, v in a.items() if k not in ("timestamp", "label")}


def test_predict_rejects_non_finite_values(trained_run, tmp_path):
    bundle, data = trained_run
    for column, bad in (("x0", "nan"), ("x1", "inf"), ("timestamp", "-inf")):
        path = tmp_path / f"bad_{column}.csv"
        _rewrite_csv(data, path, lambda i, row: row.update({column: bad}) if i == 4 else None)
        out = tmp_path / "out.csv"
        assert cli.main(["predict", "--bundle", bundle, "--input", str(path),
                         "--output", str(out)]) == 3
        assert not out.exists()


def test_predict_refuses_a_row_whose_score_overflows(tmp_path, capsys):
    """Without normalization a finite 1e300 overflows the model; predict
    exits 3 naming the row and keeps the previous output."""
    config = write_config(tmp_path, normalize_continuous=False)
    assert cli.main(["train", "--config", config, "--output-dir", str(tmp_path / "run")]) == 0
    assert cli.main(["synth-gen", "--output-dir", str(tmp_path / "gen"), "--rows", "40",
                     "--vocab-size", "8", "--seed", "99"]) == 0
    path = tmp_path / "huge.csv"
    _rewrite_csv(tmp_path / "gen" / "data.csv", path,
                 lambda i, row: row.update({"x0": "1e300"}) if i == 4 else None)
    out = tmp_path / "out.csv"
    out.write_text("previous\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["predict", "--bundle", str(tmp_path / "run" / "model_bundle"),
                         "--input", str(path), "--output", str(out)])
    assert code == 3
    assert "line 6: X_test row 4 (from 0) scores nan" in capsys.readouterr().err
    assert out.read_text() == "previous\n"


def test_predict_names_the_line_of_an_overflowing_row_after_quotes_and_blanks(tmp_path,
                                                                             capsys):
    """The same overflow in a log that csv.reader parses: a quoted header and
    three blank lines put data row 4 on line 9."""
    config = write_config(tmp_path, normalize_continuous=False)
    assert cli.main(["train", "--config", config, "--output-dir", str(tmp_path / "run")]) == 0
    assert cli.main(["synth-gen", "--output-dir", str(tmp_path / "gen"), "--rows", "40",
                     "--vocab-size", "8", "--seed", "99"]) == 0
    lines = (tmp_path / "gen" / "data.csv").read_text().splitlines()
    cells = lines[5].split(",")  # data row 4
    lines[5] = ",".join([*cells[:-3], "1e300", *cells[-2:]])  # its x0
    header = ",".join(f'"{name}"' for name in lines[0].split(","))
    path = tmp_path / "huge.csv"
    path.write_text("\n".join([header, "", *lines[1:3], "", "", *lines[3:]]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["predict", "--bundle", str(tmp_path / "run" / "model_bundle"),
                         "--input", str(path), "--output", str(tmp_path / "out.csv")])
    assert code == 3
    assert "line 9: X_test row 4 (from 0) scores nan" in capsys.readouterr().err


def _csv_writer_predict(model, path):
    """predict's output as csv.writer writes it from csv.reader's rows."""
    header, rows, log = csv_reader_oracle(path, synth.field_spec(), scoring=True)
    X, _, _ = encode(log, dataclasses.replace(model.schema, n_placeholders=0))
    probs = (predict_xdboost(model, append_placeholders(X, model.n_iterations))
             if rows else np.zeros(0))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header + ["predicted_ctr"])
    writer.writerows(row + [repr(p)] for row, p in zip(rows, probs.tolist()))
    return buf.getvalue()


@settings(max_examples=80, deadline=None)
@given(text=click_csv_texts(["timestamp", "user", "item", *synth.CONTEXT_FIELDS,
                             *synth.CONTINUOUS_FIELDS, "label"],
                            continuous=synth.CONTINUOUS_FIELDS))
def test_predict_output_equals_csv_writer(trained_run, text):
    bundle, _ = trained_run
    model = XDBoostModel.load_bundle(bundle)
    with tempfile.TemporaryDirectory() as tmp:
        src, out = os.path.join(tmp, "in.csv"), os.path.join(tmp, "out.csv")
        with open(src, "w", newline="") as fh:
            fh.write(text)
        try:
            expected = _csv_writer_predict(model, src)
        except DataError as exc:
            with pytest.raises(DataError) as caught:
                cli.cmd_predict(bundle, src, out)
            assert str(caught.value) == str(exc)
            assert not os.path.exists(out)
            return
        assert cli.cmd_predict(bundle, src, out) == 0
        with open(out, newline="") as fh:
            assert fh.read() == expected


# ---- predict, chunk by chunk -------------------------------------------------------

@pytest.fixture(scope="module")
def streamed_run(tmp_path_factory):
    """A bundle whose nets score 5 rows a batch, which chunks of 2 or 3
    rows do not divide, trained without normalization so that a huge
    value overflows, and a 40-row log to score."""
    tmp_path = tmp_path_factory.mktemp("streamed")
    net = {**FAST_MODEL["net"], "batch_size": 5}
    config = write_config(tmp_path, normalize_continuous=False,
                          model={**FAST_MODEL, "net": net})
    assert cli.main(["train", "--config", config, "--output-dir", str(tmp_path / "run")]) == 0
    assert cli.main(["synth-gen", "--output-dir", str(tmp_path / "gen"), "--rows", "40",
                     "--vocab-size", "8", "--seed", "99"]) == 0
    bundle = str(tmp_path / "run" / "model_bundle")
    lines = (tmp_path / "gen" / "data.csv").read_text().splitlines()
    return bundle, XDBoostModel.load_bundle(bundle), lines


def _quoted_last_row(lines):
    *head, last = lines
    return [*head, '"' + last.replace(",", '","') + '"']


STREAMED_INPUTS = {
    "plain": lambda lines: [lines[0], "", *lines[1:20], "", *lines[20:]],
    "fully-quoted": lambda lines: [",".join(f'"{cell}"' for cell in line.split(","))
                                   for line in lines],
    "quote-in-last-row": _quoted_last_row,
    "header-only": lambda lines: lines[:1],
}


# predict reads in a forked child given a second CPU and in-process on
# one; the tests of its output run once with each count. The counts are a
# loop in the test, not a parameter, so the tests keep their ids.
CPU_COUNTS = (1, 2)


@pytest.mark.parametrize("chunk_rows", [2, 3])
@pytest.mark.parametrize("shape", list(STREAMED_INPUTS))
def test_streamed_predict_writes_the_whole_file_result(streamed_run, tmp_path, monkeypatch,
                                                      shape, chunk_rows):
    """In chunks of 2 or 3 rows, rounded up to the batch size of 5, the
    output bytes are those of one csv.reader pass and one predict_xdboost
    call over the whole file, on one CPU and on two. A quote in the last
    row hands the rest of the file to csv.reader after the plain path has
    scored and written its earlier rows, which are not scored again."""
    bundle, model, lines = streamed_run
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("\n".join(STREAMED_INPUTS[shape](lines)) + "\n")
    expected = _csv_writer_predict(model, src)
    monkeypatch.setattr(data, "CHUNK_ROWS", chunk_rows)
    for cpus in CPU_COUNTS:
        monkeypatch.setattr(child, "_cpus", lambda: cpus)
        scored = []

        def counted(model, X):
            scored.append(X.n_rows)
            return predict_xdboost(model, X)

        monkeypatch.setattr(cli, "predict_xdboost", counted)
        assert cli.cmd_predict(bundle, str(src), str(out)) == 0
        with open(out, newline="") as fh:
            assert fh.read() == expected
        rows = 0 if shape == "header-only" else 40
        # whole batches of 5, counted from row 0, and each row scored once
        assert all(n % 5 == 0 for n in scored)
        assert sum(scored) == rows


@pytest.mark.parametrize("bad_label_after", [False, True], ids=["alone", "then-bad-label"])
def test_streamed_predict_names_an_overflow_in_a_later_chunk(streamed_run, tmp_path,
                                                           monkeypatch, capsys,
                                                           bad_label_after):
    """Data row 31, on line 35 after two blank lines, overflows in the
    seventh chunk of 3 rows rounded up to the batch size of 5, after
    earlier rows were written: exit 3, naming the line and the file's data
    row, the previous output kept and no temporary file left. A bad label
    in the same chunk (row 34, line 38) is raised first, as when the whole
    file is one chunk. On one CPU and on two, where the bad label is
    raised in the reader's child and arrives after the chunks before."""
    bundle, _, lines = streamed_run
    lines = list(lines)
    cells = lines[32].split(",")  # data row 31
    lines[32] = ",".join([*cells[:-3], "1e300", *cells[-2:]])  # its x0
    if bad_label_after:
        lines[35] = lines[35][:-1] + "2"  # data row 34
    src = tmp_path / "huge.csv"
    src.write_text("\n".join([lines[0], "", "", *lines[1:]]) + "\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "scored.csv"
    out.write_bytes(b"previous\r\n")
    monkeypatch.setattr(data, "CHUNK_ROWS", 3)
    for cpus in CPU_COUNTS:
        monkeypatch.setattr(child, "_cpus", lambda: cpus)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["predict", "--bundle", bundle, "--input", str(src),
                             "--output", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        if bad_label_after:
            assert err.startswith("error: line 38: non-binary label: '2'")
        else:
            assert err.startswith("error: line 35: X_test row 31 (from 0) scores nan")
        assert out.read_bytes() == b"previous\r\n"
        assert os.listdir(out_dir) == ["scored.csv"]


def test_a_reader_killed_mid_file_fails_predict(streamed_run, tmp_path, monkeypatch, capsys):
    """A reader killed after some chunks, as the OOM killer would, ends
    predict with exit 1 and a message naming it, not with a short file:
    the previous output is kept and no temporary file is left."""
    bundle, _, lines = streamed_run
    src = tmp_path / "in.csv"
    src.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "scored.csv"
    out.write_bytes(b"previous\r\n")
    parent, encoded = os.getpid(), []

    def dying_encode(log, schema, luts):
        assert os.getpid() != parent, "the reader ran in-process"
        encoded.append(len(log))
        if len(encoded) == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return encode(log, schema, luts)

    monkeypatch.setattr(child, "_cpus", lambda: 2)
    monkeypatch.setattr(cli, "encode", dying_encode)
    monkeypatch.setattr(data, "CHUNK_ROWS", 5)
    assert cli.main(["predict", "--bundle", bundle, "--input", str(src),
                     "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: predict's reader exited with status -9 before the end of its output")
    assert out.read_bytes() == b"previous\r\n"
    assert os.listdir(out_dir) == ["scored.csv"]


def test_predict_memory_does_not_grow_with_the_file(trained_run, tmp_path, monkeypatch):
    """cmd_predict's tracemalloc peak on a log sixteen chunks long is at
    most 1.2 times its peak on a log four chunks long. Scoring the whole
    file at once, it grew with the rows. tracemalloc sees this process
    only, and given a second CPU the reading and encoding run in a forked
    child, so the test pins the count to one CPU, where they run here."""
    bundle, _ = trained_run
    monkeypatch.setattr(child, "_cpus", lambda: 1)
    peaks = []
    for chunks in (4, 16):
        records, _ = synth.generate_records(
            synth.SynthConfig(n_rows=chunks * data.CHUNK_ROWS, vocab_size=8, seed=99))
        src = tmp_path / f"log{chunks}.csv"
        synth.write_csv(records, src)
        del records
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.cmd_predict(bundle, str(src), str(tmp_path / "scored.csv"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def _predict_with(bundle, data, out, capsys):
    """Exit code of predict with a damaged bundle, which must name it and
    write nothing."""
    code = cli.main(["predict", "--bundle", str(bundle), "--input", data,
                     "--output", str(out)])
    assert str(bundle) in capsys.readouterr().err
    assert not out.exists()
    return code


def _edited(change):
    """A fault that rewrites the archive after change(manifest, arrays)."""
    def fault(bundle):
        manifest, arrays = read_bundle(bundle)
        change(manifest, arrays)
        write_bundle(bundle, manifest, arrays)
    return fault


def test_predict_rejects_a_bundle_missing_an_array(trained_run, tmp_path, capsys):
    bundle, data = trained_run
    broken = tmp_path / "bundle"
    shutil.copy(bundle, broken)
    _edited(lambda manifest, arrays: arrays.pop("adam_v_1"))(broken)
    assert _predict_with(broken, data, tmp_path / "out.csv", capsys) == 3


def _schema_with_one_more_token(manifest, arrays):
    """Same hash discipline, other schema: every stored vector is now one
    embedding row and one weight too short."""
    schema = FeatureSchema.from_dict(manifest["schema"])
    name = schema.cat_fields[-1]
    vocab = {**schema.vocab, name: {**schema.vocab[name], "extra_token": len(schema.vocab[name])}}
    schema = dataclasses.replace(schema, vocab=vocab)
    manifest.update(schema=schema.to_dict(), schema_hash=schema.hash())


def _first_entry(key, value):
    """A fault that stores value as the first entry of vector key."""
    return _edited(lambda manifest, arrays: arrays[key].__setitem__(0, value))


def _version_1_directory(bundle):
    os.remove(bundle)
    os.mkdir(bundle)
    (bundle / "manifest.json").write_text(json.dumps({"format_version": 1}))


BUNDLE_FAULTS = {
    "truncated": lambda bundle: os.truncate(bundle, 300),
    "missing-regressor": _edited(lambda manifest, arrays: [
        arrays.pop(f"{prefix}_1") for prefix in ("flat", "adam_m", "adam_v")]),
    "wrong-length-flat": _edited(lambda manifest, arrays: arrays.update(
        flat_1=arrays["flat_1"][:1])),
    "classifier-as-regressor": _edited(lambda manifest, arrays: manifest["nets"].__setitem__(
        1, manifest["nets"][0])),
    # every net loads, but the model they would form is refused
    "tanh-classifier": _edited(lambda manifest, arrays: manifest["nets"][0]["config"].update(
        head="tanh")),
    "regressor-dropped-from-manifest": _edited(lambda manifest, arrays: manifest["nets"].pop()),
    "no-nets": _edited(lambda manifest, arrays: manifest["nets"].clear()),
    # nets that the model's one config and master seed do not make
    "regressor-0-batch-size-1023": _edited(
        lambda manifest, arrays: manifest["nets"][1]["config"].update(batch_size=1023)),
    "regressor-0-seed-edited": _edited(
        lambda manifest, arrays: manifest["nets"][1].update(seed=manifest["nets"][1]["seed"] + 1)),
    "net-for-another-schema": _edited(_schema_with_one_more_token),
    "manifest-not-json": lambda bundle: write_bundle(bundle, b"{not json",
                                                     read_bundle(bundle)[1]),
    "manifest-without-error-lr": _edited(lambda manifest, arrays: manifest.pop("error_lr")),
    "version-1-directory": _version_1_directory,
    "nan-in-classifier-arena": _first_entry("flat_0", np.nan),
    "inf-in-regressor-arena": _first_entry("flat_1", np.inf),
    # a step count that is not a non-negative int: a negative one turns
    # Adam's bias corrections negative on continued training
    **{f"adam-step-count-{value!r}": _edited(
        lambda manifest, arrays, value=value: manifest["nets"][1].update(adam_t=value))
       for value in (-5, 1.5, True, 1e30)},
}


@pytest.mark.parametrize("fault", list(BUNDLE_FAULTS))
def test_predict_rejects_a_damaged_bundle(trained_run, tmp_path, capsys, fault):
    bundle, data = trained_run
    broken = tmp_path / "bundle"
    shutil.copy(bundle, broken)
    BUNDLE_FAULTS[fault](broken)
    assert _predict_with(broken, data, tmp_path / "out.csv", capsys) == 3

