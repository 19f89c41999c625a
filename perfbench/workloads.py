"""The three benchmark workloads and the checks on their outputs.

Each workload has ``prepare`` (build the inputs from the seed; this is what
``setup_s`` times in a fresh process) and ``run_pass`` (the timed
operations, each followed by untimed checks on what it produced). Every
operation is one call into a public xdboost entry point: ``cli.main`` for
commands, ``cli.run_experiment`` and ``boosting.predict_xdboost`` for the
in-process ones.

Why these three:

* ``readme-train``: the documented user config. Dense BLAS dominates; the
  data layer is under 1% of the time. It is not in BENCHMARK.json: its
  single-pass runs swing by more than the largest allowed bound between
  runs on a shared 2-vCPU machine. Run it by name, e.g. with ``--trace 1``
  for the dense-layer breakdown.
* ``gate-small-net``: the acceptance-gate config, the paper's small-data
  regime. One optimizer step and one validation pass per epoch, so
  per-step overhead (Adam, scatter-add, snapshots) dominates, not BLAS.
* ``csv-200k``: 200 000 rows through synth-gen, sweep, train and predict
  with a tiny net. The data layer and CSV reading and writing dominate.

Scoring is repeated within a pass (several in-process calls, or three
``predict`` commands) and ``score_rows_per_s`` is their median.
"""

import contextlib
import csv
import dataclasses
import filecmp
import hashlib
import json
import statistics
import sys
import time
import traceback
from typing import NamedTuple

import numpy as np

from xdboost import boosting, cli, metrics, synth
from xdboost.data import SplitSpec, chronological_split, encode
from xdboost.models import BaseNetConfig

README_NET = {"embedding_dim": 64, "hidden_layers": [128, 128, 128],
              "learning_rate": 1e-4, "epochs": 20, "patience": 3, "batch_size": 1024}
GATE_NET = {"embedding_dim": 2, "hidden_layers": [], "learning_rate": 3e-2,
            "epochs": 400, "patience": 30, "batch_size": 4096}
CSV_NET = {"embedding_dim": 4, "hidden_layers": [], "learning_rate": 3e-2,
           "epochs": 1, "patience": 3, "batch_size": 1024}
TOY_NET = {"embedding_dim": 2, "hidden_layers": [4], "learning_rate": 1e-2,
           "epochs": 3, "patience": 2, "batch_size": 256}


# ---- checks -----------------------------------------------------------------

def probabilities_valid(p):
    """Non-empty, finite and inside [0, 1]."""
    p = np.asarray(p)
    return bool(p.size) and bool(np.all(np.isfinite(p) & (p >= 0.0) & (p <= 1.0)))


def first_fit_shared(result):
    """The reference's first classifier fit equals the boosted model's."""
    boosted = result["boosted_training_log"][0]["classifier_fit"]
    reference = result["baseline_training_log"][0]["classifier_fit"]
    return boosted == reference


def metrics_reproduce(report, probs, labels):
    """Recomputed test AUC and log loss equal the ones the run reported."""
    again = metrics.evaluate(probs, labels)
    return again.auc == report["auc"] and again.log_loss == report["log_loss"]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---- one pass ---------------------------------------------------------------

@dataclasses.dataclass
class Op:
    name: str
    seconds: float = 0.0
    error: str | None = None
    failed_checks: list = dataclasses.field(default_factory=list)

    @property
    def failed(self):
        return self.error is not None or bool(self.failed_checks)


class PassLog:
    """Operations, checks, quality and prediction digests of one pass."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops = []
        self.checks = []
        self.quality = []
        self.score_rates = []
        self._digests = {"boosted": hashlib.sha256(), "reference": hashlib.sha256()}

    def run(self, span_name, fn, *args):
        """Time one operation; the result is None when it raised."""
        op = Op(span_name)
        result = None
        t0 = time.perf_counter()
        try:
            with self.tracer.span(span_name), contextlib.redirect_stdout(sys.stderr):
                result = fn(*args)
        except Exception:
            op.error = traceback.format_exc()
            print(op.error, file=sys.stderr)
        op.seconds = time.perf_counter() - t0
        self.ops.append(op)
        return op, result

    def command(self, argv):
        """One ``xdboost`` command, in process; a non-zero exit fails it."""
        op, code = self.run(f"cli.{argv[0]}", cli.main, [str(a) for a in argv])
        if op.error is None and code != 0:
            op.error = f"exit code {code}"
        return op

    def verify(self, op, fn, *args):
        """Run checks on ``op``'s output untraced; a check that raises fails op."""
        with self.tracer.pause():
            try:
                return fn(*args)
            except Exception:
                print(traceback.format_exc(), file=sys.stderr)
                self.check(op, "checks_ran", False)
                return None

    def check(self, op, name, ok):
        ok = bool(ok)
        self.checks.append((name, ok))
        if not ok:
            op.failed_checks.append(name)
        return ok

    def record_predictions(self, op, boosted, reference):
        """Check and digest one experiment's float64 test predictions."""
        for model, p in (("boosted", boosted), ("reference", reference)):
            self.check(op, "probabilities_valid", probabilities_valid(p))
            self._digests[model].update(np.ascontiguousarray(p, np.float64).tobytes())

    def record_quality(self, result):
        test = result["metrics"]
        self.quality.append({
            "test_auc_boosted": test["boosted"]["test"]["auc"],
            "test_auc_reference": test["baseline"]["test"]["auc"],
            "test_logloss_boosted": test["boosted"]["test"]["log_loss"],
            "test_logloss_reference": test["baseline"]["test"]["log_loss"],
        })

    @property
    def digests(self):
        return {model: h.hexdigest() for model, h in self._digests.items()}

    @property
    def wall_s(self):
        return sum(op.seconds for op in self.ops)

    def median_quality(self):
        if not self.quality:
            return {}
        return {k: statistics.median(q[k] for q in self.quality) for k in self.quality[0]}


class Experiment(NamedTuple):
    """One captured run_experiment call and its test split, ready to score."""

    records: list
    result: dict
    model: boosting.XDBoostModel
    reference: object
    Xp: object
    y: np.ndarray


def _experiment(log, op):
    """Check the last captured experiment and encode its test split."""
    args, _, (result, model) = log.tracer.take("cli.run_experiment")[-1]
    reference = log.tracer.take("loop.train_unboosted")[-1][2][0]
    log.check(op, "first_fit_shared", first_fit_shared(result))
    log.record_quality(result)
    records = args[1]
    test = chronological_split(records, SplitSpec())[2]
    X, y, _ = encode(test, dataclasses.replace(model.schema, n_placeholders=0))
    return Experiment(records, result, model, reference,
                      boosting.append_placeholders(X, model.n_iterations), y)


def _score(model, Xp, repeats):
    """predict_xdboost ``repeats`` times; returns (outputs, rows/s of each call)."""
    outs, rates = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        outs.append(boosting.predict_xdboost(model, Xp))
        rates.append(Xp.n_rows / (time.perf_counter() - t0))
    return outs, rates


def _load_and_score(bundle, Xp, repeats):
    model = boosting.XDBoostModel.load_bundle(str(bundle))
    return _score(model, Xp, repeats)


def _check_predictions(log, op, exp, boosted):
    """Validity, digest and reported-metric checks on one experiment's test rows."""
    ref = exp.reference.predict_matrix(exp.Xp)
    log.record_predictions(op, boosted, ref)
    test = exp.result["metrics"]
    log.check(op, "metrics_reproduce",
              metrics_reproduce(test["boosted"]["test"], boosted, exp.y)
              and metrics_reproduce(test["baseline"]["test"], ref, exp.y))


def _check_scores(log, op, exp, outs):
    log.check(op, "scores_repeat", all(same_bits(outs[0], o) for o in outs[1:]))
    _check_predictions(log, op, exp, outs[0])


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


# ---- workloads --------------------------------------------------------------

class ReadmeTrain:
    """``xdboost train`` at the README config, then scoring from its bundle."""

    name = "readme-train"

    def __init__(self, toy=False):
        self.rows = 2000 if toy else 20000
        self.net = TOY_NET if toy else README_NET
        self.score_repeats = 2 if toy else 20

    def prepare(self, seed, workdir):
        records, _ = synth.generate_records(synth.SynthConfig(n_rows=self.rows, seed=seed))
        workdir.mkdir(parents=True, exist_ok=True)
        synth.write_csv(records, workdir / "data.csv")
        _write_json(workdir / "fields.json", synth.field_mapping())
        config = workdir / "config.json"
        _write_json(config, {
            "seed": seed, "dataset": str(workdir / "data.csv"),
            "fields": str(workdir / "fields.json"), "sub_training_percent": 10,
            "model": {"n_iterations": 3, "error_lr": 0.5, "net": self.net}})
        return {"config": config}

    def run_pass(self, inputs, log, out):
        train = log.command(["train", "--config", inputs["config"], "--output-dir", out])
        exp = None if train.error else log.verify(train, _experiment, log, train)
        if exp is None:
            return
        op, scored = log.run("op.score", _load_and_score, out / "model_bundle", exp.Xp,
                             self.score_repeats)
        if op.error:
            return
        outs, rates = scored
        log.score_rates += rates
        log.verify(op, self._check_bundle_scores, log, op, exp, outs)

    def _check_bundle_scores(self, log, op, exp, outs):
        """Scores from the saved bundle equal the in-memory model's, bit for bit."""
        log.check(op, "bundle_roundtrip",
                  same_bits(outs[0], boosting.predict_xdboost(exp.model, exp.Xp)))
        _check_scores(log, op, exp, outs)


class GateSmallNet:
    """The acceptance-gate config: budgets 5% and 10% x five master seeds."""

    name = "gate-small-net"

    def __init__(self, toy=False):
        self.rows = 2000 if toy else 20000
        self.net = BaseNetConfig(**(TOY_NET if toy else GATE_NET))
        self.masters = 2 if toy else 5
        self.score_repeats = 2 if toy else 10

    def prepare(self, seed, workdir):
        records, _ = synth.generate_records(synth.SynthConfig(n_rows=self.rows, seed=seed))
        masters = np.random.SeedSequence(seed).generate_state(self.masters)
        return {"records": records, "masters": [int(m) for m in masters]}

    def run_pass(self, inputs, log, out):
        for pct in (5, 10):
            for master in inputs["masters"]:
                cfg = cli.ExperimentConfig(seed=master, split=SplitSpec(),
                                           n_iterations=2, error_lr=0.5, net=self.net)
                op, _ = log.run("op.experiment", cli.run_experiment, cfg,
                                inputs["records"], synth.field_spec(), pct)
                exp = None if op.error else log.verify(op, _experiment, log, op)
                if exp is None:
                    continue
                op, scored = log.run("op.score", _score, exp.model, exp.Xp,
                                     self.score_repeats)
                if op.error:
                    continue
                outs, rates = scored
                log.score_rates += rates
                log.verify(op, _check_scores, log, op, exp, outs)


class Csv200k:
    """synth-gen to CSV, sweep from it, train once, predict over the whole CSV."""

    name = "csv-200k"

    def __init__(self, toy=False):
        self.rows = 3000 if toy else 200000
        self.net = TOY_NET if toy else CSV_NET
        self.budgets = (5, 10) if toy else (1, 5, 10)
        self.train_budget = 20
        self.predict_repeats = 2 if toy else 3

    def prepare(self, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        data = workdir / "data"
        config = workdir / "config.json"
        _write_json(config, {
            "seed": seed, "dataset": str(data / "data.csv"),
            "fields": str(data / "fields.json"),
            "model": {"n_iterations": 2, "error_lr": 0.5, "net": self.net}})
        return {"config": config, "data": data, "seed": seed}

    def run_pass(self, inputs, log, out):
        data, config = inputs["data"], inputs["config"]
        gen = log.command(["synth-gen", "--output-dir", data, "--rows", self.rows,
                           "--seed", inputs["seed"]])
        if gen.error:
            return
        sweep = log.command(["sweep", "--config", config, "--output-dir", out / "sweep",
                             "--percentages", ",".join(str(p) for p in self.budgets)])
        log.tracer.take("cli.run_experiment")
        log.tracer.take("loop.train_unboosted")
        if not sweep.error:
            log.verify(sweep, self._check_sweep, log, sweep, out / "sweep")
        train = log.command(["train", "--config", config, "--output-dir", out / "train",
                             "--sub-training-percent", self.train_budget])
        exp = None if train.error else log.verify(train, self._check_train, log, train)
        if exp is None:
            return
        first = None
        for k in range(self.predict_repeats):
            scored = out / f"scored{k}.csv"
            predict = log.command(["predict", "--bundle", out / "train" / "model_bundle",
                                   "--input", data / "data.csv", "--output", scored])
            if predict.error:
                continue
            log.score_rates.append(len(exp.records) / predict.seconds)
            if first is None:
                first = scored
                log.verify(predict, self._check_predict, log, predict, scored, exp)
            else:
                log.check(predict, "scores_repeat", filecmp.cmp(first, scored, shallow=False))

    def _check_sweep(self, log, op, sweep_dir):
        summary = json.loads((sweep_dir / "sweep_summary.json").read_text())
        log.check(op, "sweep_no_failures", summary["failures"] == [])
        hashes = set()
        for pct in self.budgets:
            result = json.loads((sweep_dir / f"sweep_p{pct:g}.json").read_text())
            hashes.add(result["test_set_hash"])
            log.check(op, "first_fit_shared", first_fit_shared(result))
            log.record_quality(result)
        log.check(op, "sweep_test_set_hash", len(hashes) == 1)

    def _check_train(self, log, op):
        exp = _experiment(log, op)
        _check_predictions(log, op, exp, boosting.predict_xdboost(exp.model, exp.Xp))
        return exp

    def _check_predict(self, log, op, scored, exp):
        """The predict command's CSV equals in-process predict_xdboost, bit for bit."""
        with open(scored, newline="") as fh:
            from_csv = np.array([float(row["predicted_ctr"]) for row in csv.DictReader(fh)])
        model = exp.model
        X, _, _ = encode(exp.records, dataclasses.replace(model.schema, n_placeholders=0))
        in_process = boosting.predict_xdboost(
            model, boosting.append_placeholders(X, model.n_iterations))
        log.check(op, "probabilities_valid", probabilities_valid(from_csv))
        log.check(op, "predict_csv_matches", same_bits(from_csv, in_process))


WORKLOADS = {w.name: w for w in (ReadmeTrain, GateSmallNet, Csv200k)}


def make(name, toy=False):
    return WORKLOADS[name](toy)
