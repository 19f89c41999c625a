"""Iterative residual boosting around a single deep classifier.

The model keeps one classifier and N error regressors. Training appends N
zero-valued placeholder columns to the design matrix, then repeats N times:
fit the classifier, fit regressor i on the classifier's training residuals
(label minus predicted probability, a value in (-1, 1), hence the tanh
head), scale the regressor's predicted errors by the error learning rate
and write them into placeholder column i, and refit the classifier so it
can exploit the new column. Prediction replays the same column writes on
the test matrix before asking the classifier for probabilities. Unlike
gradient boosting, component predictions are never summed; the regressors
only ever speak to the classifier through the placeholder columns.
"""

import json
import os
import zipfile

import numpy as np

from .atomic import replacing
from .data import DesignMatrix, FeatureSchema
from .errors import ConfigError, DataError, TrainingError, UsageError
from .models import BaseNet, BaseNetConfig

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


def append_placeholders(X: DesignMatrix, n):
    """New matrix with n zero columns appended as the placeholder block.

    The categorical block is shared with the input; the continuous block is
    reallocated so later placeholder writes never touch the original.
    """
    if X.n_placeholders:
        raise UsageError("matrix already has placeholder columns")
    if n < 1:
        raise ConfigError(f"placeholder count must be >= 1, got {n}")
    cont = np.concatenate([X.cont, np.zeros((X.n_rows, n))], axis=1)
    return DesignMatrix(X.cat, cont, n)


def _check_knobs(n_iterations, error_lr=0.0):
    if n_iterations < 1:
        raise ConfigError(f"boosting needs at least one iteration, got {n_iterations}")
    if not 0.0 <= error_lr <= 1.0:
        raise ConfigError(f"error learning rate must lie in [0, 1], got {error_lr}")


class XDBoostModel:
    """One classifier, N error regressors, and the boosting knobs."""

    def __init__(self, schema: FeatureSchema, n_iterations, error_lr,
                 classifier, regressors, seed=0, cold_restart=False,
                 trained=False):
        _check_knobs(n_iterations, error_lr)
        if schema.n_placeholders != n_iterations:
            raise ConfigError(
                f"schema has {schema.n_placeholders} placeholder columns for "
                f"{n_iterations} iterations")
        if len(regressors) != n_iterations:
            raise ConfigError(f"{len(regressors)} regressors for {n_iterations} iterations")
        if classifier.config.head != "sigmoid":
            raise ConfigError("the classifier must use a sigmoid head")
        if any(r.config.head != "tanh" for r in regressors):
            raise ConfigError("every error regressor must use a tanh head")
        self.schema = schema
        self.n_iterations = n_iterations
        self.error_lr = float(error_lr)
        self.classifier = classifier
        self.regressors = list(regressors)
        self.seed = seed
        self.cold_restart = cold_restart
        self.trained = trained
        self.training_log = []

    # ---- persistence --------------------------------------------------------

    def save_bundle(self, path):
        """Write the predict-ready model as one archive at exactly path.

        The archive holds a JSON manifest (the knobs, the schema and each
        net's config, seed and Adam step count) and each net's arena and
        Adam moment vectors, classifier first. It is written beside path
        and renamed over it, so path holds the old bundle or the new one,
        never a mix.
        """
        path = os.fspath(path)
        if os.path.isdir(path):
            raise UsageError(f"{path} is a directory; remove it to save a model bundle there")
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
        arrays = dict(entry for i, net in enumerate(nets) for entry in _stored_vectors(net, i))
        # a handle, because np.savez appends ".npz" to a path
        with replacing(path, "wb") as fh:
            np.savez(fh, manifest=np.frombuffer(json.dumps(manifest).encode(), np.uint8),
                     **arrays)

    @classmethod
    def load_bundle(cls, path):
        """Read a bundle written by save_bundle; a missing, unreadable,
        damaged or inconsistent bundle is a DataError naming path."""
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
            nets = []
            for i, spec in enumerate(manifest["nets"]):
                net = BaseNet(schema, BaseNetConfig.from_dict(spec["config"]), seed=spec["seed"])
                for key, vector in _stored_vectors(net, i):
                    if arrays[key].shape != vector.shape:
                        raise DataError(f"{key} has shape {arrays[key].shape}, "
                                        f"expected {vector.shape}")
                    vector[...] = arrays[key]
                net.optimizer.t = int(spec["adam_t"])
                nets.append(net)
            classifier, *regressors = nets
            return cls(schema, manifest["n_iterations"], manifest["error_lr"],
                       classifier, regressors, seed=manifest["seed"],
                       cold_restart=manifest["cold_restart"], trained=manifest["trained"])
        except KeyError as exc:
            raise DataError(f"model bundle {path} lacks {exc}") from exc
        except (OSError, EOFError, ValueError, TypeError, zipfile.BadZipFile,
                ConfigError, DataError) as exc:
            raise DataError(f"cannot load model bundle {path}: {exc}") from exc


def _stored_vectors(net, i):
    """(archive entry name, vector) for each stored vector of bundle net i."""
    return ((f"flat_{i}", net.flat), (f"adam_m_{i}", net.optimizer.m),
            (f"adam_v_{i}", net.optimizer.v))


def create_xdboost(schema: FeatureSchema, config: BaseNetConfig,
                   n_iterations=DEFAULT_N_ITERATIONS, error_lr=DEFAULT_ERROR_LR,
                   seed=0, cold_restart=False):
    """Untrained model: schema gains one placeholder column per iteration,
    and every sub-net gets its own seed derived from the master seed."""
    _check_knobs(n_iterations, error_lr)
    ph_schema = schema.with_placeholders(n_iterations)
    classifier = BaseNet(ph_schema, config.as_classifier(), seed=classifier_seed(seed))
    regressors = [BaseNet(ph_schema, config.as_regressor(), seed=regressor_seed(seed, i))
                  for i in range(n_iterations)]
    return XDBoostModel(ph_schema, n_iterations, error_lr, classifier, regressors,
                        seed=seed, cold_restart=cold_restart)


def _check_boosting_matrix(X, n_iterations, name, require_zero):
    if X.n_placeholders != n_iterations:
        raise DataError(
            f"{name} has {X.n_placeholders} placeholder columns, expected {n_iterations} "
            "(append_placeholders first)")
    if require_zero and X.n_rows and np.any(X.placeholder_block()):
        raise DataError(f"{name} placeholder columns must start zeroed")


def _training_inputs(n_iterations, X_train, y_train, X_val, y_val, class_weights):
    """Check the training matrices; returns float64 y_train and y_val (None
    without validation rows) and the class weights as a dict."""
    _check_boosting_matrix(X_train, n_iterations, "X_train", require_zero=True)
    if (X_val is None) != (y_val is None):
        raise UsageError("X_val and y_val must be given together")
    if X_val is not None:
        _check_boosting_matrix(X_val, n_iterations, "X_val", require_zero=True)
        y_val = np.asarray(y_val, dtype=np.float64)
    if hasattr(class_weights, "as_dict"):
        class_weights = class_weights.as_dict()
    return np.asarray(y_train, dtype=np.float64), y_val, class_weights


def _reset_net(net):
    """Fresh parameters and optimizer for the same schema/config/seed."""
    return BaseNet(net.schema, net.config, seed=net.seed)


def _fit_stage(net, X, y, class_weights, val, iteration, stage):
    try:
        return net.fit(X, y, class_weights=class_weights, val=val)
    except TrainingError as exc:
        raise TrainingError(f"iteration {iteration}, stage {stage!r}: {exc}") from exc


def train_xdboost(model: XDBoostModel, X_train, y_train, X_val=None, y_val=None,
                  class_weights=None, observer=None):
    """Run the full boosting loop; the model and X matrices mutate in place.

    Each iteration i performs three stages: fit the classifier, fit
    regressor i on training residuals (validation residuals, when given,
    drive its early stopping), then write scaled predicted errors into
    placeholder column i of the train and validation matrices and refit the
    classifier. Placeholder columns i..N-1 are still zero when regressor i
    is fitted. Returns the trained model; per-iteration fit histories are
    kept in model.training_log.

    The optional observer is called with one dict per notable event
    (classifier_fit, residual_fit, placeholder_write) so tests and
    diagnostics can watch the column discipline without touching the loop.
    Event payloads, copies included, are built only when an observer is
    given. A residual_fit event's ``classifier`` is the classifier's fit state
    and FitHistory; iteration 0's can start train_unboosted.
    """
    y_train, y_val, class_weights = _training_inputs(
        model.n_iterations, X_train, y_train, X_val, y_val, class_weights)

    train_block = X_train.placeholder_block()
    val_block = X_val.placeholder_block() if X_val is not None else None
    cls_val = (X_val, y_val) if X_val is not None else None

    model.training_log = []
    for i in range(model.n_iterations):
        if model.cold_restart:
            model.classifier = _reset_net(model.classifier)
        if observer is not None:
            observer({"event": "classifier_fit", "iteration": i, "stage": "fit"})
        fit_hist = _fit_stage(model.classifier, X_train, y_train, class_weights,
                              cls_val, i, "classifier fit")

        predicted = model.classifier.predict_matrix(X_train)
        residual = y_train - predicted
        if residual.size and not np.isfinite(residual).all():
            raise TrainingError(f"iteration {i}: non-finite residuals from the classifier")
        if observer is not None:
            observer({"event": "residual_fit", "iteration": i, "targets": residual.copy(),
                      "placeholders": train_block.copy(),
                      "classifier": (model.classifier.fit_state(), fit_hist)})
        reg_val = None
        if X_val is not None:
            reg_val = (X_val, y_val - model.classifier.predict_matrix(X_val))
        reg_hist = _fit_stage(model.regressors[i], X_train, residual, None,
                              reg_val, i, "residual fit")

        written = model.error_lr * model.regressors[i].predict_matrix(X_train)
        train_block[:, i] = written
        if observer is not None:
            observer({"event": "placeholder_write", "phase": "train", "iteration": i,
                      "column": i, "values": written.copy()})
        if X_val is not None:
            val_written = model.error_lr * model.regressors[i].predict_matrix(X_val)
            val_block[:, i] = val_written
            if observer is not None:
                observer({"event": "placeholder_write", "phase": "val", "iteration": i,
                          "column": i, "values": val_written.copy()})

        if model.cold_restart:
            model.classifier = _reset_net(model.classifier)
        if observer is not None:
            observer({"event": "classifier_fit", "iteration": i, "stage": "refit"})
        refit_hist = _fit_stage(model.classifier, X_train, y_train, class_weights,
                                cls_val, i, "classifier refit")

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
    classifier then scores the completed matrix. The writes go to a copy,
    so X_test is left as it was.
    """
    if not model.trained:
        raise UsageError("model has not been trained")
    _check_boosting_matrix(X_test, model.n_iterations, "X_test", require_zero=True)
    X = X_test.copy()
    block = X.placeholder_block()
    for i, regressor in enumerate(model.regressors):
        written = model.error_lr * regressor.predict_matrix(X)
        block[:, i] = written
        if observer is not None:
            observer({"event": "placeholder_write", "phase": "predict", "iteration": i,
                      "column": i, "values": written.copy()})
    return model.classifier.predict_matrix(X)


def train_unboosted(schema: FeatureSchema, config: BaseNetConfig, n_iterations,
                    X_train, y_train, X_val=None, y_val=None, class_weights=None,
                    seed=0, cold_restart=False, start=None):
    """Reference classifier: same seed, same fit schedule, zero placeholders.

    Builds the classifier exactly as create_xdboost would (same derived
    seed, same schema with n_iterations placeholder columns) and runs the
    same two fit calls per iteration, but never writes anything into the
    placeholder block. With error_lr = 0 the boosted classifier sees the
    same all-zero columns, so the two trajectories coincide; with a real
    error_lr the gap between this net and the boosted one is the lift.
    Returns (net, per-iteration fit log). The input matrices are not
    modified. Given ``start``, the ``classifier`` of train_xdboost's first
    residual_fit event on the same inputs, the first fit (the boosted
    one's, bit for bit) is not run again but resumed from it.
    """
    _check_knobs(n_iterations)
    ph_schema = schema.with_placeholders(n_iterations)
    y_train, y_val, class_weights = _training_inputs(
        n_iterations, X_train, y_train, X_val, y_val, class_weights)
    val = (X_val, y_val) if X_val is not None else None

    net = BaseNet(ph_schema, config.as_classifier(), seed=classifier_seed(seed))
    log = []
    for i in range(n_iterations):
        entry = {"iteration": i}
        for stage in ("fit", "refit"):
            if cold_restart:
                net = _reset_net(net)
            if start is not None and (i, stage) == (0, "fit"):
                net.load_fit_state(start[0])
                hist = start[1]
            else:
                hist = _fit_stage(net, X_train, y_train, class_weights, val,
                                  i, f"classifier {stage}")
            entry[f"classifier_{stage}"] = hist.to_dict()
        log.append(entry)
    return net, log
