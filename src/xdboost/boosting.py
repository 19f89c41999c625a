"""Iterative residual boosting around a single deep classifier.

The model keeps one classifier and N error regressors. Its schema gives
the design matrix N zero-valued placeholder columns (``data.encode`` lays
them out), and training repeats N times: fit the classifier, fit
regressor i on the classifier's training residuals (label minus predicted
probability, a value in (-1, 1), hence the tanh head), scale the
regressor's predicted errors by the error learning rate and write them
into placeholder column i, and refit the classifier so it can exploit the
new column. Prediction replays the same column writes on the test matrix
before asking the classifier for probabilities. Unlike gradient boosting,
component predictions are never summed; the regressors only ever speak to
the classifier through the placeholder columns.
"""

import dataclasses
import json
import os
import zipfile

import numpy as np

from .atomic import replacing
# append_placeholders lives in data, beside DesignMatrix; the name stays
# importable from here
from .data import DesignMatrix, FeatureSchema, append_placeholders  # noqa: F401
from .errors import ConfigError, DataError, TrainingError, UsageError
from .models import BaseNet, BaseNetConfig, FitHistory

BUNDLE_FORMAT_VERSION = 2

DEFAULT_N_ITERATIONS = 3
DEFAULT_ERROR_LR = 0.5


def derive_seed(master_seed, *path):
    """Deterministic child seed for one sub-model; stable across runs."""
    seq = np.random.SeedSequence([int(master_seed), *[int(p) for p in path]])
    return int(seq.generate_state(1)[0])


def classifier_seed(master_seed):
    return derive_seed(master_seed, 0)


def regressor_seed(master_seed, iteration):
    return derive_seed(master_seed, 1, iteration)


def _check_knobs(n_iterations=1, error_lr=0.0):
    """The one home of the boosting knobs' rule; either may be checked alone."""
    if n_iterations < 1:
        raise ConfigError(f"boosting needs at least one iteration, got {n_iterations}")
    if not 0.0 <= error_lr <= 1.0:
        raise ConfigError(f"error learning rate must lie in [0, 1], got {error_lr}")


class XDBoostModel:
    """One classifier, N error regressors, and the boosting knobs; untrained.

    The model makes its nets from one config and one master seed, on the
    schema with one placeholder column per iteration added."""

    def __init__(self, schema: FeatureSchema, config: BaseNetConfig,
                 n_iterations=DEFAULT_N_ITERATIONS, error_lr=DEFAULT_ERROR_LR,
                 seed=0, cold_restart=False):
        _check_knobs(n_iterations, error_lr)
        self.schema = schema.with_placeholders(n_iterations)
        self.n_iterations = n_iterations
        self.error_lr = float(error_lr)
        self.classifier = BaseNet(self.schema, config.as_classifier(),
                                  seed=classifier_seed(seed))
        self.regressors = [BaseNet(self.schema, config.as_regressor(),
                                   seed=regressor_seed(seed, i)) for i in range(n_iterations)]
        self.seed = seed
        self.cold_restart = cold_restart
        self.trained = False
        self.training_log = []

    # ---- persistence --------------------------------------------------------

    def save_bundle(self, path):
        """Write the predict-ready model as one archive at exactly path.

        The archive holds a JSON manifest (the knobs, the schema and each
        net's config, seed and Adam step count) and each net's arena and
        Adam moment vectors, classifier first. It is written beside path
        and renamed over it, so path holds the old bundle or the new one,
        never a mix. The manifest is strict JSON: a NaN in it is a ValueError.
        """
        nets = [self.classifier, *self.regressors]
        manifest = {
            "format_version": BUNDLE_FORMAT_VERSION,
            "n_iterations": self.n_iterations,
            "error_lr": self.error_lr,
            "seed": self.seed,
            "cold_restart": self.cold_restart,
            "trained": self.trained,
            "schema": self.schema.to_dict(),
            "schema_hash": self.schema.hash(),
            "nets": [{"config": net.config.to_dict(), "seed": net.seed,
                      "adam_t": net.optimizer.t} for net in nets],
        }
        blob = json.dumps(manifest, allow_nan=False).encode()
        arrays = {f"{key}_{i}": vector for i, net in enumerate(nets) for key, vector in
                  (("flat", net.flat), ("adam_m", net.optimizer.m), ("adam_v", net.optimizer.v))}
        # a handle, because np.savez appends ".npz" to a path
        with replacing(path, "wb") as fh:
            np.savez(fh, manifest=np.frombuffer(blob, np.uint8), **arrays)

    @classmethod
    def load_bundle(cls, path):
        """Read a bundle written by save_bundle; a missing, unreadable,
        damaged or inconsistent bundle is a DataError naming path.

        The constructor rebuilds the model from the manifest's knobs and
        master seed, the classifier's config and the schema without its
        placeholder block. A manifest whose nets differ from the ones that
        gives, in number, config or seed, is refused. Each net's vectors
        are checked and restored by BaseNet.load_fit_state."""
        if os.path.isdir(path):
            raise DataError(f"{path} is a directory, as version-1 model bundles were; "
                            "retrain to write a one-file bundle")
        try:
            # np.load leaks a handle it opened itself when the zip is damaged
            with open(path, "rb") as fh, np.load(fh) as archive:
                arrays = dict(archive)
            manifest = json.loads(bytes(arrays["manifest"]).decode())
            if manifest["format_version"] != BUNDLE_FORMAT_VERSION:
                raise DataError(f"unsupported format version {manifest['format_version']}; "
                                "retrain the model")
            schema = FeatureSchema.from_dict(manifest["schema"])
            if schema.hash() != manifest["schema_hash"]:
                raise DataError("schema hash mismatch")
            n_iterations, specs = manifest["n_iterations"], manifest["nets"]
            if schema.n_placeholders != n_iterations:
                raise DataError(f"schema has {schema.n_placeholders} placeholder columns for "
                                f"{n_iterations} iterations")
            if not specs:
                raise DataError("the manifest lists no nets")
            model = cls(dataclasses.replace(schema, n_placeholders=0),
                        BaseNetConfig.from_dict(specs[0]["config"]), n_iterations,
                        manifest["error_lr"], manifest["seed"], manifest["cold_restart"])
            nets = [model.classifier, *model.regressors]
            if len(specs) != len(nets):
                raise DataError(f"{len(specs)} nets for {n_iterations} iterations")
            for i, (net, spec) in enumerate(zip(nets, specs)):
                stored = BaseNetConfig.from_dict(spec["config"]), spec["seed"]
                if stored != (net.config, net.seed):
                    raise DataError(f"net {i}: its config or seed is not the one the "
                                    "model's config and master seed give")
                adam = int(spec["adam_t"]), arrays[f"adam_m_{i}"], arrays[f"adam_v_{i}"]
                try:
                    net.load_fit_state((arrays[f"flat_{i}"], adam, None))
                except UsageError as exc:
                    raise DataError(f"net {i}: {exc}") from exc
            model.trained = manifest["trained"]
            return model
        except KeyError as exc:
            raise DataError(f"model bundle {path} lacks {exc}") from exc
        except (OSError, EOFError, ValueError, TypeError, zipfile.BadZipFile,
                ConfigError, DataError) as exc:
            raise DataError(f"cannot load model bundle {path}: {exc}") from exc


# the documented name of the constructor: an untrained model for schema
create_xdboost = XDBoostModel


def _check_boosting_matrix(X, n_iterations, name):
    if X.n_placeholders != n_iterations:
        raise DataError(
            f"{name} has {X.n_placeholders} placeholder columns, expected {n_iterations} "
            "(encode against the model's schema)")
    if X.n_rows and np.any(X.placeholder_block()):
        raise DataError(f"{name} placeholder columns must start zeroed")


def _training_inputs(n_iterations, X_train, y_train, X_val, y_val):
    """Check the training matrices; returns float64 y_train and y_val (None
    without validation rows)."""
    _check_boosting_matrix(X_train, n_iterations, "X_train")
    if (X_val is None) != (y_val is None):
        raise UsageError("X_val and y_val must be given together")
    if X_val is not None:
        _check_boosting_matrix(X_val, n_iterations, "X_val")
        y_val = np.asarray(y_val, dtype=np.float64)
    return np.asarray(y_train, dtype=np.float64), y_val


def _classifier_fit(net, fit, X, y, class_weights, val, cold_restart, observer=None):
    """Fit number ``fit`` of the classifier's 2n-fit schedule (iteration
    fit // 2, the refit when fit is odd), from a fresh net of the same seed
    under cold_restart. Returns (the fitted net, its FitHistory)."""
    iteration, stage = fit // 2, "refit" if fit % 2 else "fit"
    if cold_restart:
        net = BaseNet(net.schema, net.config, seed=net.seed)
    if observer is not None:
        observer({"event": "classifier_fit", "iteration": iteration, "stage": stage})
    return net, _fit_stage(net, X, y, class_weights, val, iteration, "classifier " + stage)


def _fit_stage(net, X, y, class_weights, val, iteration, stage):
    try:
        return net.fit(X, y, class_weights=class_weights, val=val)
    except TrainingError as exc:
        raise TrainingError(f"iteration {iteration}, stage {stage!r}: {exc}") from exc


def train_xdboost(model: XDBoostModel, X_train, y_train, X_val=None, y_val=None,
                  class_weights=None, observer=None):
    """Run the full boosting loop; the model is trained in place.

    Each iteration i performs three stages: fit the classifier, fit
    regressor i on training residuals (validation residuals, when given,
    drive its early stopping), then write scaled predicted errors into
    placeholder column i of the train and validation matrices and refit the
    classifier. Placeholder columns i..N-1 are still zero when regressor i
    is fitted. The writes go to copies, so X_train and X_val are left as
    they were. Returns the trained model; per-iteration fit histories are
    kept in model.training_log.

    The optional observer is called with one dict per notable event
    (classifier_fit, residual_fit, placeholder_write) so tests and
    diagnostics can watch the column discipline without touching the loop.
    Payloads are built only when an observer is given, and are for
    reading: ``targets`` and ``values`` are the loop's own arrays, and
    ``placeholders`` a copy, since the loop writes that block later. A
    residual_fit event carries the FitHistory of the fit just run;
    iteration 0's ``model.classifier.fit_state()`` and that history, taken
    during the event, are the checkpoint train_unboosted starts from.
    """
    y_train, y_val = _training_inputs(model.n_iterations, X_train, y_train, X_val, y_val)
    X_train = _working_copy(X_train)
    X_val = _working_copy(X_val) if X_val is not None else None
    cls_val = (X_val, y_val) if X_val is not None else None

    model.training_log = []
    for i in range(model.n_iterations):
        model.classifier, fit_hist = _classifier_fit(
            model.classifier, 2 * i, X_train, y_train, class_weights, cls_val,
            model.cold_restart, observer)

        predicted = model.classifier.predict_matrix(X_train)
        residual = y_train - predicted
        if residual.size and not np.isfinite(residual).all():
            raise TrainingError(f"iteration {i}: non-finite residuals from the classifier")
        if observer is not None:
            observer({"event": "residual_fit", "iteration": i, "targets": residual,
                      "placeholders": X_train.placeholder_block().copy(),
                      "classifier_history": fit_hist})
        reg_val = None
        if X_val is not None:
            reg_val = (X_val, y_val - model.classifier.predict_matrix(X_val))
        reg_hist = _fit_stage(model.regressors[i], X_train, residual, None,
                              reg_val, i, "residual fit")

        written = _write_column(model, i, X_train, "train", observer)
        if X_val is not None:
            _write_column(model, i, X_val, "val", observer)

        model.classifier, refit_hist = _classifier_fit(
            model.classifier, 2 * i + 1, X_train, y_train, class_weights, cls_val,
            model.cold_restart, observer)

        model.training_log.append({
            "iteration": i,
            "classifier_fit": fit_hist.to_dict(),
            "residual_fit": reg_hist.to_dict(),
            "classifier_refit": refit_hist.to_dict(),
            "residual_mean_abs": float(np.mean(np.abs(residual))) if residual.size else 0.0,
            "placeholder_abs_max": float(np.max(np.abs(written))) if written.size else 0.0,
        })
    model.trained = True
    return model


def predict_xdboost(model: XDBoostModel, X_test, observer=None):
    """Probabilities for rows whose placeholder columns start zeroed.

    Regressor i fills placeholder column i (scaled by the error learning
    rate) in index order, exactly mirroring the training-time writes; the
    classifier then scores the completed matrix. The writes go to a copy
    of the continuous block, so X_test is left as it was. A row scored
    NaN or infinite (its finite inputs overflowed) is a DataError naming
    the first one.
    """
    if not model.trained:
        raise UsageError("model has not been trained")
    _check_boosting_matrix(X_test, model.n_iterations, "X_test")
    X = _working_copy(X_test)
    for i in range(model.n_iterations):
        _write_column(model, i, X, "predict", observer)
    probs = model.classifier.predict_matrix(X)
    bad = np.flatnonzero(~np.isfinite(probs))
    if bad.size:
        error = DataError(f"X_test row {bad[0]} (from 0) scores {probs[bad[0]]}: "
                          "its values overflow the model")
        error.row = int(bad[0])  # for a caller that knows where the row came from
        raise error
    return probs


def _working_copy(X):
    """X with a continuous block of its own to write placeholder columns into."""
    return DesignMatrix(X.cat, X.cont.copy(), X.n_placeholders)


def _write_column(model, i, X, phase, observer):
    """The one writer of placeholder columns: error_lr times regressor i's
    predictions on X into column i, shown to the observer; returns them."""
    written = model.error_lr * model.regressors[i].predict_matrix(X)
    X.placeholder_block()[:, i] = written
    if observer is not None:
        observer({"event": "placeholder_write", "phase": phase, "iteration": i,
                  "column": i, "values": written})
    return written


def train_unboosted(model: XDBoostModel, X_train, y_train, X_val=None, y_val=None,
                    class_weights=None, start=None):
    """Reference classifier for model: same seed, same fit schedule, zero placeholders.

    Builds a fresh net from model.classifier's schema, config and seed, as
    a cold restart does, and runs model's fit schedule (two fit calls per
    iteration, with model's cold_restart), but never writes anything into
    the placeholder block. With error_lr = 0 the boosted classifier sees
    the same all-zero columns, so the two trajectories coincide; with a
    real error_lr the gap between this net and the boosted one is the
    lift. Returns (net, per-iteration fit log). The model, trained or not,
    is only read, and the input matrices are not modified.

    ``start`` is a checkpoint (fit state, FitHistory of each fit) of the
    first m fits of this schedule on the same inputs; the net resumes from
    it and runs only the fits after them, so a checkpoint of every fit
    (``_checkpoint``) runs none. The checkpoint of the first fit, which
    the two nets share bit for bit, comes from train_xdboost's first
    residual_fit event.
    """
    n_iterations = model.n_iterations
    y_train, y_val = _training_inputs(n_iterations, X_train, y_train, X_val, y_val)
    val = (X_val, y_val) if X_val is not None else None

    net = model.classifier
    net = BaseNet(net.schema, net.config, seed=net.seed)
    hists = []
    if start is not None:
        state, hists = start[0], list(start[1])
        if len(hists) > 2 * n_iterations:
            raise UsageError(f"the checkpoint holds {len(hists)} fits; "
                             f"{n_iterations} iterations run {2 * n_iterations}")
        net.load_fit_state(state)
    for fit in range(len(hists), 2 * n_iterations):
        net, hist = _classifier_fit(net, fit, X_train, y_train, class_weights, val,
                                    model.cold_restart)
        hists.append(hist)
    log = [{"iteration": i, "classifier_fit": hists[2 * i].to_dict(),
            "classifier_refit": hists[2 * i + 1].to_dict()} for i in range(n_iterations)]
    return net, log


def _checkpoint(net, log):
    """train_unboosted's ``start`` after every fit of the run that gave
    (net, log)."""
    return net.fit_state(), [FitHistory(**entry[f"classifier_{stage}"])
                             for entry in log for stage in ("fit", "refit")]

