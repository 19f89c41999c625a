"""Experiment harness: train/evaluate runs, sub-training sweeps, cold-start
evaluation, batch scoring, and synthetic data generation.

Every experiment command follows the same pipeline: ingest (or generate) a
click log, split it chronologically, optionally carve a sub-training set,
encode against a schema fitted on that training data only, derive class
weights, then train the boosted model and its unboosted reference under
the same seed and evaluate both on the validation and test splits. The
reference's fits after the first, which it shares with the boosted
classifier, run in a forked child (see ``child``) while the boosting loop
goes on, given a second CPU to run on and a fit left to run: where the
reference's second fit is known from its first (``boosting._replayed``),
so is every later one, and the reference is rebuilt in-process without a
fit. Where fits run more than one epoch, a validation process forked
once per experiment (``child._Validator``) computes each epoch's
validation loss while the next epoch trains, until the reference's child
takes the second CPU. ``predict``'s reading runs in a forked child too.
Results are written as one JSON file per run, after the run's model
bundle; sweeps additionally emit a plot-ready CSV. Every output file is
replaced atomically (see ``atomic``), and a command refuses a directory
at any of its output paths before it reads or generates data. Exit
codes distinguish configuration (2),
data (3), training (4) and evaluation (5) failures; anything unexpected
exits 1.
"""

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import sys
import time
import traceback
import types
import typing
from contextlib import closing
from dataclasses import dataclass, field

from . import metrics, synth
from .atomic import refuse_directories, replacing
from .boosting import (DEFAULT_ERROR_LR, DEFAULT_N_ITERATIONS, XDBoostModel,
                       _check_knobs, _checkpoint, _classifier_scores, _replayed,
                       _working_copy, predict_xdboost, train_unboosted, train_xdboost)
from .child import _Child, _Validator
from .data import (FieldSpec, SplitSpec, _row_line, build_schema, chronological_split,
                   class_weights, cold_start_filter, encode, ingest_csv, records_hash, scan_csv,
                   sub_training)
from .errors import (ConfigError, DataError, EvaluationError, TrainingError,
                     UsageError, XDBoostError)
from .models import BaseNetConfig

logger = logging.getLogger(__name__)

DEFAULT_PERCENTAGES = (1, 5, 10, 20, 40, 60, 72)

# The settings the JSON layout nests under "model"; every other field of
# ExperimentConfig is a top-level key.
_MODEL_FIELDS = ("n_iterations", "error_lr", "cold_restart", "net")


@dataclass
class ExperimentConfig:
    """Everything one run needs; the result file embeds it verbatim. The
    sweep budgets default to those of DEFAULT_PERCENTAGES the split holds."""

    seed: int
    dataset: str | None = None
    fields: dict | None = None
    synthetic: synth.SynthConfig | None = None
    split: SplitSpec = field(default_factory=SplitSpec)
    sub_training_percent: float | None = None
    sub_training_percentages: tuple[float, ...] | None = None
    normalize_continuous: bool = True
    n_iterations: int = DEFAULT_N_ITERATIONS
    error_lr: float = DEFAULT_ERROR_LR
    cold_restart: bool = False
    net: BaseNetConfig = field(default_factory=BaseNetConfig)
    output_dir: str = "runs"

    def __post_init__(self):
        _check_seed(self.seed)
        self.error_lr = float(self.error_lr)  # the model keeps a float; JSON 1 snapshots as 1.0
        for key in ("n_iterations", "error_lr"):
            try:
                _check_knobs(**{key: getattr(self, key)})
            except ConfigError as exc:
                raise ConfigError(f"model.{key}: {exc}") from None
        if self.sub_training_percentages is None:
            self.sub_training_percentages = tuple(p for p in DEFAULT_PERCENTAGES
                                                  if self.split.holds_sub_training(p))
        for p in self.sub_training_percentages:
            self.split.check_sub_training_percent(p)
        if self.sub_training_percent is not None:
            self.split.check_sub_training_percent(self.sub_training_percent)

    def snapshot(self):
        """The config in the JSON layout load_config reads, without the
        managed net head."""
        snap = dataclasses.asdict(self)
        snap["model"] = {name: snap.pop(name) for name in _MODEL_FIELDS}
        del snap["model"]["net"]["head"]
        return snap


def load_config(path=None, seed=None, output_dir=None, sub_training_percent=None,
                percentages=None, synthetic=False):
    """Read the JSON config file (when given) and fold in CLI overrides.

    The accepted shape is exactly what ExperimentConfig.snapshot emits, so
    a result file's embedded config can be re-run as-is. A setting left
    out takes its dataclass's default.
    """
    raw = {}
    if path is not None:
        raw = _read_json(path, "config file")
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    overrides = {"seed": seed, "output_dir": output_dir, "sub_training_percentages": percentages,
                 "sub_training_percent": sub_training_percent}
    raw.update((key, value) for key, value in overrides.items() if value is not None)
    if raw.get("seed") is None:
        raise ConfigError("a seed is required for reproducibility "
                          "(set \"seed\" in the config or pass --seed)")
    if synthetic and raw.get("synthetic") is None:
        raw["synthetic"] = {}
    if isinstance(raw.get("synthetic"), dict):
        # the generator's seed follows the master seed unless set, so the
        # master seed is checked first: its refusal names its own key
        seed = _value(int, raw["seed"], "seed")
        _check_seed(seed)
        raw["synthetic"] = {"seed": seed, **raw["synthetic"]}
    if isinstance(raw.get("fields"), str):
        raw["fields"] = _read_json(raw["fields"], "field declaration file")

    model = raw.pop("model", {})
    if isinstance(model, dict) and isinstance(model.get("net"), dict) and "head" in model["net"]:
        raise ConfigError("net setting 'head' is managed automatically")
    annotations = _annotations(ExperimentConfig)
    return ExperimentConfig(
        **_settings({k: t for k, t in annotations.items() if k not in _MODEL_FIELDS}, raw, ""),
        **_settings({k: annotations[k] for k in _MODEL_FIELDS}, model, "model"))


# Python types of config fields and the JSON values each accepts: an int
# field takes an integer but not a bool, a float field any number.
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               bool: ((bool,), "true or false"), str: ((str,), "a string"),
               dict: ((dict,), "a JSON object")}


def _check_seed(seed):
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")


def _annotations(cls):
    return {f.name: f.type for f in dataclasses.fields(cls)}


def _settings(annotations, raw, block):
    """Keyword arguments for the fields ``annotations`` (name: type) from
    the JSON object ``raw``, the config block named ``block``.

    Unknown keys are refused first, then each value must have its field's
    JSON type; either is a ConfigError naming the key.
    """
    if type(raw) is not dict:
        raise ConfigError(f"{block} must be a JSON object, got {json.dumps(raw)}")
    unknown = sorted(set(raw) - set(annotations))
    if unknown:
        raise ConfigError(f"unknown {block + ' ' if block else ''}config keys: {unknown}")
    return {k: _value(annotations[k], v, f"{block}.{k}" if block else k)
            for k, v in raw.items()}


def _value(tp, value, key):
    """The JSON value at config key ``key`` as a value of annotated type
    ``tp``: a dataclass is built from its block, ``tuple[X, ...]`` from a
    list, and ``X | None`` also takes null. JSON's NaN and Infinity are
    refused. A dataclass's refusal begins with the field it refuses, so
    it is prefixed with the block's key."""
    if isinstance(tp, types.UnionType):
        if value is None:
            return None
        tp = next(t for t in typing.get_args(tp) if t is not type(None))
    if dataclasses.is_dataclass(tp):
        settings = _settings(_annotations(tp), value, key)
        try:
            return tp(**settings)
        except ConfigError as exc:
            raise ConfigError(f"{key}.{exc}") from None
    if typing.get_origin(tp) is tuple:
        if type(value) is not list:
            raise ConfigError(f"{key} must be a list, got {json.dumps(value)}")
        item = typing.get_args(tp)[0]
        return tuple(_value(item, v, f"{key}[{i}]") for i, v in enumerate(value))
    accepted, name = _JSON_TYPES[tp]
    if type(value) not in accepted:
        raise ConfigError(f"{key} must be {name}, got {json.dumps(value)}")
    if type(value) is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {json.dumps(value)}")
    return value


def _read_json(path, what):
    """The one reader of JSON inputs; a missing, unreadable or malformed
    file is a ConfigError."""
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_records(cfg):
    """Returns (ClickLog, field_spec, source meta)."""
    if cfg.synthetic is not None:
        log, meta = synth.generate_records(cfg.synthetic)
        return log, synth.field_spec(), {"source": "synthetic", **meta}
    if cfg.dataset is None:
        raise ConfigError("config needs either a dataset path or a synthetic block")
    if not cfg.fields:
        raise ConfigError("a dataset path requires a fields mapping")
    spec = FieldSpec.from_mapping(cfg.fields)
    log = ingest_csv(cfg.dataset, spec)
    return log, spec, {"source": cfg.dataset, "n_rows": len(log)}


def _cut(cfg, log, sub_percent):
    """log's chronological split, its train region cut to sub_percent
    unless that is None: (training rows, validation rows, test rows)."""
    train_region, val_log, test_log = chronological_split(log, cfg.split)
    if sub_percent is not None:
        train_region = sub_training(log, train_region, sub_percent, cfg.split)
    return train_region, val_log, test_log


def run_experiment(cfg, log, field_spec, sub_percent, command="train", cut=None):
    """One boosted-vs-reference run; returns (result dict, trained model).

    cut is the command's (training rows, validation rows, test rows),
    optionally followed by the test rows' records_hash, its training rows
    already cut to sub_percent; _cut makes it when not given. Metrics are
    computed on its test rows, which the cold-start command filters.

    Where the fits have validation rows and more than one epoch, the run
    forks a validation process (``child._Validator``; none on one CPU or
    without os.fork) and hands it to the boosting loop. It is closed
    before the reference's child forks, whose fits then own the second
    CPU, once the loop returns, and when the run fails; a validation
    process that dies is a TrainingError naming it. The boosted model's
    validation scores come from the placeholder columns the loop wrote
    into its validation copy, which the observer collects, so the
    classifier alone scores them: the bits predict_xdboost gives.
    """
    timings = {}
    t0 = time.perf_counter()
    sub, val_log, test_log, *test_hash = cut or _cut(cfg, log, sub_percent)
    if command == "sweep" and not len(test_log):
        # a sweep compares budgets by their test metrics; train reports
        # validation metrics alone
        raise DataError("the test split is empty; a sweep needs test rows to score")
    timings["split"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    schema = build_schema(sub, field_spec, cfg.normalize_continuous)
    model = XDBoostModel(schema, cfg.net, cfg.n_iterations, cfg.error_lr,
                         seed=cfg.seed, cold_restart=cfg.cold_restart)
    # each split once, zeroed placeholders included: one set feeds both
    # models and the scores, as no entry point writes it
    train, val, test = [encode(part, model.schema)[:2] for part in (sub, val_log, test_log)]
    if not val[0].n_rows:
        val = None, None
    weights = class_weights(train[1])
    timings["encode"] = time.perf_counter() - t0

    t0 = time.perf_counter()

    def train_reference(start):
        return train_unboosted(model, *train, *val, class_weights=weights, start=start)

    validator = _Validator() if val[0] is not None and cfg.net.epochs > 1 else None
    children, known, val_columns = [], [], {}

    def stop_validating():
        if validator is not None:
            validator.close()

    def observe(event):
        # The loop's validation columns, for the validation scores.
        if event["event"] == "placeholder_write" and event["phase"] == "val":
            val_columns[event["column"]] = event["values"]
        # After the first fit, which the two classifiers share, the
        # reference's fits share nothing with the loop's, so a child runs
        # them while the loop goes on. Where the reference's second fit is
        # known from its first, so is every later one, which repeats the
        # fit before it: no fit is left to run, and nothing forks.
        if event["event"] == "residual_fit" and event["iteration"] == 0:
            first = event["classifier_history"]
            start = model.classifier.fit_state(), [first]
            if _replayed(model.classifier, first, cfg.cold_restart,
                         None if val[0] is None else val) is not None:
                known.append(start)
            else:
                stop_validating()
                children.append(_Child(lambda: [_checkpoint(*train_reference(start))],
                                       "the reference's training process", TrainingError))

    try:
        train_xdboost(model, *train, *val, class_weights=weights, observer=observe,
                      validator=validator)
        stop_validating()
        timings["train_boosted"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        checkpoint = children[0].result() if children else known[0]
    finally:
        stop_validating()
        for child in children:
            child.close()
    # resumes at the end of the schedule, run or derived: rebuilds the net, runs no fit
    reference, reference_log = train_reference(checkpoint)
    timings["train_baseline"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    result_metrics = {"boosted": {}, "baseline": {}}
    for split_name, X, y in (("val", *val), ("test", *test)):
        if X is None or X.n_rows == 0:
            continue
        if split_name == "val":  # the loop wrote its columns: the classifier alone scores it
            written = _working_copy(X)
            for i, values in val_columns.items():
                written.placeholder_block()[:, i] = values
            boosted = _classifier_scores(model, written)
        else:
            boosted = predict_xdboost(model, X)
        result_metrics["boosted"][split_name] = metrics.evaluate(boosted, y).to_dict()
        result_metrics["baseline"][split_name] = metrics.evaluate(
            reference.predict_matrix(X), y).to_dict()
    timings["evaluate"] = time.perf_counter() - t0

    result = {
        "command": command,
        "config": cfg.snapshot(),
        "seed": cfg.seed,
        "sub_training_percent": sub_percent,
        "n_rows_total": len(log),
        "n_train_rows": len(sub),
        "n_val_rows": len(val_log),
        "n_test_rows": len(test_log),
        "class_weights": {"nonclick": weights.weight_nonclick,
                          "click": weights.weight_click},
        "test_set_hash": test_hash[0] if test_hash else records_hash(test_log),
        "schema_hash": schema.hash(),
        "metrics": result_metrics,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "boosted_training_log": model.training_log,
        "baseline_training_log": reference_log,
    }
    return result, model


def _write_json(path, payload):
    """A NaN or infinity in payload is a ValueError; path keeps its old content."""
    with replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _print_metrics(result):
    for model_name in ("baseline", "boosted"):
        for split_name, report in sorted(result["metrics"][model_name].items()):
            print(f"  {model_name:<8} {split_name:<5} "
                  f"auc={report['auc']:.6f} logloss={report['log_loss']:.6f}")


def cmd_train(cfg):
    result_path = os.path.join(cfg.output_dir, "train_result.json")
    bundle_path = os.path.join(cfg.output_dir, "model_bundle")
    refuse_directories(bundle_path, result_path)
    log, field_spec, source = load_records(cfg)
    result, model = run_experiment(cfg, log, field_spec, cfg.sub_training_percent)
    result["data_source"] = source
    os.makedirs(cfg.output_dir, exist_ok=True)
    model.save_bundle(bundle_path)
    _write_json(result_path, result)
    print(f"train: {result['n_train_rows']} train rows, seed {cfg.seed}")
    _print_metrics(result)
    print(f"result written to {result_path}, model bundle to {bundle_path}")
    return 0


def cmd_sweep(cfg):
    if not cfg.sub_training_percentages:
        raise ConfigError("sweep needs a non-empty sub-training percentage list")
    run_paths = {pct: os.path.join(cfg.output_dir, f"sweep_p{pct:g}.json")
                 for pct in cfg.sub_training_percentages}
    csv_path = os.path.join(cfg.output_dir, "sweep.csv")
    summary_path = os.path.join(cfg.output_dir, "sweep_summary.json")
    refuse_directories(*run_paths.values(), csv_path, summary_path)
    log, field_spec, source = load_records(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    rows = []
    failures = []
    kinds = set()  # the classes of the failures, to raise when every run fails
    results = []
    train_region, val_log, test_log = chronological_split(log, cfg.split)
    test_hash = records_hash(test_log)  # every budget is scored on these rows
    for pct in cfg.sub_training_percentages:
        try:
            cut = sub_training(log, train_region, pct, cfg.split), val_log, test_log, test_hash
            result, _ = run_experiment(cfg, log, field_spec, pct, command="sweep", cut=cut)
        except XDBoostError as exc:
            logger.warning("sweep run at %s%% failed: %s", pct, exc)
            failures.append({"percentage": pct, "type": type(exc).__name__,
                             "error": str(exc)})
            kinds.add(type(exc))
            continue
        result["data_source"] = source
        _write_json(run_paths[pct], result)
        for model_name, label in (("boosted", "xdboost"), ("baseline", "base")):
            report = result["metrics"][model_name]["test"]
            rows.append([pct, label, report["auc"], report["log_loss"]])
        results.append(result)
        print(f"sweep {pct:g}%: done ({result['n_train_rows']} train rows)")

    if results:  # else the previous sweep's CSV stays; the summary lists the failures
        with replacing(csv_path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["percentage", "model", "auc", "logloss"])
            writer.writerows(rows)
    summary = {
        "command": "sweep",
        "config": cfg.snapshot(),
        "percentages": list(cfg.sub_training_percentages),
        "test_set_hash": test_hash if results else None,
        "failures": failures,
        "csv": csv_path if results else None,
    }
    _write_json(summary_path, summary)
    if not results:
        error = kinds.pop() if len(kinds) == 1 else TrainingError
        raise error(f"every sweep run failed: {failures}")
    print(f"sweep: {len(results)} runs ok, {len(failures)} failed; "
          f"aggregated CSV at {csv_path}")
    return 0


def cmd_coldstart(cfg):
    result_path = os.path.join(cfg.output_dir, "coldstart_result.json")
    bundle_path = os.path.join(cfg.output_dir, "model_bundle")
    refuse_directories(bundle_path, result_path)
    log, field_spec, source = load_records(cfg)
    sub, val_log, test_log = _cut(cfg, log, cfg.sub_training_percent)
    filtered = cold_start_filter(test_log, sub)
    os.makedirs(cfg.output_dir, exist_ok=True)
    if not len(filtered):
        result = {
            "command": "coldstart",
            "config": cfg.snapshot(),
            "no_cold_start_items": True,
            "n_unfiltered_test_rows": len(test_log),
            "n_filtered_test_rows": 0,
        }
        _write_json(result_path, result)
        print("coldstart: no cold-start items in the test set; nothing to evaluate")
        return 0
    result, model = run_experiment(cfg, log, field_spec, cfg.sub_training_percent,
                                   command="coldstart", cut=(sub, val_log, filtered))
    result["data_source"] = source
    result["no_cold_start_items"] = False
    result["n_unfiltered_test_rows"] = len(test_log)
    result["n_filtered_test_rows"] = len(filtered)
    model.save_bundle(bundle_path)
    _write_json(result_path, result)
    print(f"coldstart: {len(filtered)} of {len(test_log)} test rows kept")
    _print_metrics(result)
    print(f"result written to {result_path}")
    return 0


def cmd_predict(bundle_path, input_path, output_path):
    """Score a CSV with a saved bundle, one chunk of data rows at a time
    (data.scan_csv), so memory does not grow with the file. A reader in a
    forked child (child._Child) parses and encodes the chunks and pickles
    each to this process, which scores and writes it meanwhile; on one CPU
    the reader runs in-process, a chunk at a time.

    Every chunk but the last holds a whole number of batches of the batch
    size the model's nets share, so each net sees the batches a whole-file
    predict_xdboost call would and the scores keep their bits. Faults are
    raised in chunk order: a chunk's first bad cell, else its first row
    whose score overflows, named by physical line and by data row. A
    reader that dies before the end of the file is an XDBoostError (exit
    1). The output is refused when it is a directory before the input is
    read, and replaced atomically, so a failure keeps the previous one.
    """
    model = XDBoostModel.load_bundle(bundle_path)
    schema = model.schema
    fields = FieldSpec(schema.user_field, schema.item_field, list(schema.cat_fields),
                       list(schema.cont_fields))

    def read():
        """The header, then each chunk's (DesignMatrix, row texts)."""
        luts = {}
        with scan_csv(input_path, fields, scoring=True,
                      step=model.classifier.config.batch_size) as (header, chunks):
            yield header
            for log, texts in chunks:
                yield encode(log, schema, luts)[0], list(texts)

    done = 0
    with replacing(output_path, newline="") as fh, \
            closing(_Child(read, "predict's reader", XDBoostError)) as reader:
        chunks = iter(reader)
        csv.writer(fh).writerow(next(chunks) + ["predicted_ctr"])
        for X, texts in chunks:
            try:
                probs = predict_xdboost(model, X)
            except DataError as exc:
                if not hasattr(exc, "row"):
                    raise
                row = done + exc.row  # the chunk's row, numbered in the file
                message = str(exc).replace(f"row {exc.row} ", f"row {row} ", 1)
                raise DataError(f"line {_row_line(input_path, row)}: {message}") from None
            # each text is its row as csv.writer writes it, so appending the
            # cell gives the line csv.writer would write for the scored row
            fh.writelines(f"{text},{p!r}\r\n" for text, p in zip(texts, probs.tolist()))
            done += X.n_rows
    print(f"predict: scored {done} rows -> {output_path}")
    return 0


def cmd_synth_gen(out_dir, synth_cfg):
    data_path, fields_path, meta_path = (os.path.join(out_dir, name)
                                         for name in ("data.csv", "fields.json", "meta.json"))
    refuse_directories(data_path, fields_path, meta_path)
    log, meta = synth.generate_records(synth_cfg)
    os.makedirs(out_dir, exist_ok=True)
    synth.write_csv(log, data_path)
    _write_json(fields_path, synth.field_mapping())
    _write_json(meta_path, meta)
    print(f"synth-gen: {meta['n_rows']} rows (ctr {meta['ctr']:.4f}, "
          f"{meta['n_novel_item_rows']} novel-item test rows) -> {data_path}")
    return 0


def _percent_list(text):
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad percentage list: {text!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xdboost",
        description="Residual-boosted CTR experiments: train, sweep, coldstart, "
                    "predict, synth-gen.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_experiment_flags(p):
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--output-dir", help="where results are written")
        p.add_argument("--synthetic", action="store_true",
                       help="use the built-in synthetic generator")

    p_train = sub.add_parser("train", help="one boosted-vs-base run")
    add_experiment_flags(p_train)
    p_train.add_argument("--sub-training-percent", type=float,
                         help="use only the last X%% of the data for training")

    p_sweep = sub.add_parser("sweep", help="run every sub-training percentage")
    add_experiment_flags(p_sweep)
    p_sweep.add_argument("--percentages", type=_percent_list,
                         help="comma-separated list, e.g. 1,5,10")

    p_cold = sub.add_parser("coldstart", help="evaluate on never-seen items only")
    add_experiment_flags(p_cold)
    p_cold.add_argument("--sub-training-percent", type=float,
                        help="use only the last X%% of the data for training")

    p_pred = sub.add_parser("predict", help="score a CSV with a saved bundle")
    p_pred.add_argument("--bundle", required=True, help="model bundle file")
    p_pred.add_argument("--input", required=True, help="CSV to score")
    p_pred.add_argument("--output", required=True, help="where to write scored CSV")

    p_gen = sub.add_parser("synth-gen", help="write a synthetic click log")
    synth_defaults = synth.SynthConfig()
    p_gen.add_argument("--output-dir", required=True)
    p_gen.add_argument("--rows", type=int, default=synth_defaults.n_rows)
    p_gen.add_argument("--vocab-size", type=int, default=synth_defaults.vocab_size)
    p_gen.add_argument("--cold-start-fraction", type=float,
                       default=synth_defaults.cold_start_fraction)
    p_gen.add_argument("--test-fraction", type=float, default=synth_defaults.test_fraction)
    p_gen.add_argument("--seed", type=int, default=synth_defaults.seed)
    return parser


EXPERIMENT_COMMANDS = {"train": cmd_train, "sweep": cmd_sweep, "coldstart": cmd_coldstart}


def _dispatch(args):
    if args.command in EXPERIMENT_COMMANDS:
        cfg = load_config(args.config, seed=args.seed, output_dir=args.output_dir,
                          sub_training_percent=getattr(args, "sub_training_percent", None),
                          percentages=getattr(args, "percentages", None),
                          synthetic=args.synthetic)
        return EXPERIMENT_COMMANDS[args.command](cfg)
    if args.command == "predict":
        return cmd_predict(args.bundle, args.input, args.output)
    if args.command == "synth-gen":
        synth_cfg = synth.SynthConfig(
            n_rows=args.rows, vocab_size=args.vocab_size,
            cold_start_fraction=args.cold_start_fraction,
            test_fraction=args.test_fraction, seed=args.seed)
        return cmd_synth_gen(args.output_dir, synth_cfg)
    raise UsageError(f"unknown command {args.command!r}")


EXIT_CODES = ((ConfigError, 2), (UsageError, 2), (DataError, 3),
              (TrainingError, 4), (EvaluationError, 5))


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except XDBoostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for exc_type, code in EXIT_CODES:
            if isinstance(exc, exc_type):
                return code
        return 1
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
