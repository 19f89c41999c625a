"""Boosting loop contracts: seed derivation, placeholder column discipline,
the error-learning-rate collapse to the unboosted reference, a reference
forked from the boosted model's first fit, fits whose outcome the fit
before them determines, determinism and bundle persistence, including a
save that fails part-way."""

import copy
import dataclasses
import json
import warnings

import numpy as np
import pytest

from conftest import make_matrix, make_schema, read_bundle, write_bundle
from xdboost import boosting
from xdboost.boosting import (XDBoostModel, _replayed, append_placeholders,
                              classifier_seed, create_xdboost, derive_seed,
                              predict_xdboost, regressor_seed, train_unboosted,
                              train_xdboost)
from xdboost.data import class_weights
from xdboost.errors import ConfigError, DataError, TrainingError, UsageError
from xdboost.models import BaseNet, BaseNetConfig, FitHistory

NET = BaseNetConfig(embedding_dim=2, hidden_layers=(4,), learning_rate=1e-2,
                    epochs=3, patience=2, batch_size=64)
# the acceptance gate's net: on these rows its fits stop by patience
GATE = BaseNetConfig(embedding_dim=2, hidden_layers=(), learning_rate=3e-2,
                     epochs=400, patience=30, batch_size=4096)


def _training_setup(n_train=120, n_val=30, n_iterations=2, seed=31):
    rng = np.random.default_rng(seed)
    schema = make_schema((5, 4), 1)
    X_train = make_matrix(rng, schema, n_train)
    y_train = rng.integers(0, 2, size=n_train).astype(np.float64)
    X_val = make_matrix(rng, schema, n_val)
    y_val = rng.integers(0, 2, size=n_val).astype(np.float64)
    if y_train.sum() == 0:
        y_train[0] = 1.0
    return (schema, append_placeholders(X_train, n_iterations), y_train,
            append_placeholders(X_val, n_iterations), y_val)


# ---- seed derivation -----------------------------------------------------------

def test_seed_derivation_is_deterministic_and_distinct():
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
    assert classifier_seed(5) == classifier_seed(5)
    seeds = {classifier_seed(5)} | {regressor_seed(5, i) for i in range(6)}
    assert len(seeds) == 7
    assert classifier_seed(5) != classifier_seed(6)
    assert regressor_seed(5, 0) != regressor_seed(6, 0)


# ---- placeholder plumbing --------------------------------------------------------

def test_append_placeholders_adds_trailing_zero_columns():
    rng = np.random.default_rng(1)
    schema = make_schema((3,), 2)
    X = make_matrix(rng, schema, 5)
    cont_before = X.cont.copy()
    wide = append_placeholders(X, 2)
    assert wide.n_placeholders == 2
    assert wide.cont.shape == (5, 4)
    assert np.array_equal(wide.cont[:, :2], cont_before)
    assert np.all(wide.placeholder_block() == 0.0)
    assert wide.cat is X.cat  # categorical block is shared, not copied
    wide.placeholder_block()[:] = 9.0
    assert np.array_equal(X.cont, cont_before)  # original is untouched


def test_append_placeholders_errors():
    rng = np.random.default_rng(2)
    X = make_matrix(rng, make_schema((3,), 1), 4)
    with pytest.raises(ConfigError):
        append_placeholders(X, 0)
    wide = append_placeholders(X, 2)
    with pytest.raises(UsageError):
        append_placeholders(wide, 1)


# ---- model creation ---------------------------------------------------------------

def test_create_builds_one_regressor_per_iteration():
    schema = make_schema((4, 3), 1)
    model = create_xdboost(schema, NET, n_iterations=3, seed=5)
    assert len(model.regressors) == 3
    assert model.classifier.config.head == "sigmoid"
    assert all(r.config.head == "tanh" for r in model.regressors)
    assert model.schema.n_placeholders == 3
    assert model.trained is False
    # sub-nets get distinct derived seeds
    assert model.classifier.seed == classifier_seed(5)
    assert [r.seed for r in model.regressors] == [regressor_seed(5, i) for i in range(3)]


def test_create_accepts_single_iteration_and_zero_error_lr():
    model = create_xdboost(make_schema((3,), 1), NET, n_iterations=1, error_lr=0.0)
    assert model.n_iterations == 1
    assert model.error_lr == 0.0


def test_create_validates_the_knobs():
    schema = make_schema((3,), 1)
    # one rule, one message, wherever the iteration count comes in
    messages = set()
    for build in (lambda: create_xdboost(schema, NET, n_iterations=0),
                  lambda: XDBoostModel(schema, NET, 0, 0.5)):
        with pytest.raises(ConfigError) as excinfo:
            build()
        messages.add(str(excinfo.value))
    assert messages == {"boosting needs at least one iteration, got 0"}
    with pytest.raises(ConfigError):
        create_xdboost(schema, NET, error_lr=1.5)
    with pytest.raises(ConfigError):
        create_xdboost(schema, NET, error_lr=-0.1)
    # without a continuous field a negative count would otherwise reach
    # numpy as a negative dimension before any check ran
    with pytest.raises(ConfigError):
        create_xdboost(make_schema((3,), 0), NET, n_iterations=-1)


# ---- training discipline ------------------------------------------------------------

def test_placeholder_column_discipline_is_observable():
    """Column i is written exactly once per phase at iteration i, later
    columns stay zero until their turn, every write is bounded by the error
    learning rate, and residual targets stay strictly inside (-1, 1)."""
    schema, X_train, y_train, X_val, y_val = _training_setup(n_iterations=3)
    model = create_xdboost(schema, NET, n_iterations=3, error_lr=0.5, seed=7)
    events = []
    train_xdboost(model, X_train, y_train, X_val, y_val,
                  class_weights=class_weights(y_train), observer=events.append)

    fits = [e for e in events if e["event"] == "classifier_fit"]
    assert [(e["iteration"], e["stage"]) for e in fits] == [
        (0, "fit"), (0, "refit"), (1, "fit"), (1, "refit"), (2, "fit"), (2, "refit")]

    residual_fits = [e for e in events if e["event"] == "residual_fit"]
    assert [e["iteration"] for e in residual_fits] == [0, 1, 2]
    for e in residual_fits:
        i = e["iteration"]
        assert np.all(e["placeholders"][:, i:] == 0.0)
        assert np.all(np.abs(e["targets"]) < 1.0)

    writes = [e for e in events if e["event"] == "placeholder_write"]
    for phase in ("train", "val"):
        phase_writes = [e for e in writes if e["phase"] == phase]
        assert [(e["iteration"], e["column"]) for e in phase_writes] == [
            (0, 0), (1, 1), (2, 2)]
        for e in phase_writes:
            assert np.all(np.abs(e["values"]) < 0.5)  # error_lr times tanh output

    assert model.trained is True
    assert np.all(X_train.placeholder_block() == 0.0)


def test_event_order_interleaves_fit_residual_write_refit():
    schema, X_train, y_train, X_val, y_val = _training_setup(n_iterations=2)
    model = create_xdboost(schema, NET, n_iterations=2, seed=9)
    kinds = []
    train_xdboost(model, X_train, y_train, X_val, y_val,
                  observer=lambda e: kinds.append(
                      e["event"] if e["event"] != "classifier_fit" else e["stage"]))
    assert kinds == ["fit", "residual_fit", "placeholder_write", "placeholder_write",
                     "refit"] * 2


def test_an_unobserved_loop_builds_no_event_payloads(monkeypatch):
    """Without an observer, no residual_fit event takes the classifier's
    fit state."""
    schema, X_train, y_train, X_val, y_val = _training_setup()
    model = create_xdboost(schema, NET, n_iterations=2, seed=9)

    def refuse(net):
        raise AssertionError("fit_state taken with nobody listening")

    monkeypatch.setattr(BaseNet, "fit_state", refuse)
    train_xdboost(model, X_train, y_train, X_val, y_val)
    assert model.trained


def test_a_residual_fit_event_carries_the_loops_residuals_and_no_net(monkeypatch):
    """The event's targets are the array regressor i fits on, not a copy of
    it, and the event holds no net: an observer reads model.classifier."""
    schema, X_train, y_train, X_val, y_val = _training_setup()
    model = create_xdboost(schema, NET, n_iterations=2, seed=9)
    fit, regressor_targets = BaseNet.fit, []
    monkeypatch.setattr(BaseNet, "fit", lambda net, X, targets, **kw: (
        net.config.head == "tanh" and regressor_targets.append(targets)) or fit(
        net, X, targets, **kw))
    events = []
    train_xdboost(model, X_train, y_train, X_val, y_val,
                  observer=lambda e: e["event"] == "residual_fit" and events.append(e))
    assert [sorted(e) for e in events] == [
        ["classifier_history", "event", "iteration", "placeholders", "targets"]] * 2
    assert len(regressor_targets) == 2
    assert all(e["targets"] is t for e, t in zip(events, regressor_targets))


def test_non_finite_residuals_are_a_training_error_naming_the_iteration(monkeypatch):
    schema, X_train, y_train, X_val, y_val = _training_setup(n_train=120, n_val=30)
    model = create_xdboost(schema, NET, n_iterations=2, seed=9)
    predict, train_scores = BaseNet.predict_matrix, []

    def nan_at_iteration_1(net, X):
        out = predict(net, X)
        if net.config.head == "sigmoid" and X.n_rows == 120:
            train_scores.append(out)
            if len(train_scores) == 2:
                out[3] = np.nan
        return out

    monkeypatch.setattr(BaseNet, "predict_matrix", nan_at_iteration_1)
    with pytest.raises(TrainingError, match="iteration 1: non-finite residuals"):
        train_xdboost(model, X_train, y_train, X_val, y_val)


def test_predict_replays_the_training_writes():
    schema, X_train, y_train, X_val, y_val = _training_setup()
    model = create_xdboost(schema, NET, n_iterations=2, seed=11)
    train_xdboost(model, X_train, y_train, X_val, y_val)

    events = []
    rng = np.random.default_rng(0)
    X_test = append_placeholders(make_matrix(rng, schema, 40), 2)
    probs = predict_xdboost(model, X_test, observer=events.append)
    assert [(e["phase"], e["iteration"], e["column"]) for e in events] == [
        ("predict", 0, 0), ("predict", 1, 1)]
    assert probs.shape == (40,)
    assert np.all((probs > 0.0) & (probs < 1.0))
    for e in events:
        assert np.all(np.abs(e["values"]) < model.error_lr)


def test_predict_leaves_its_input_zeroed():
    """predict writes the placeholder columns of a copy, so the caller's
    matrix keeps its zeroed block and can be scored again."""
    schema, X_train, y_train, X_val, y_val = _training_setup()
    model = create_xdboost(schema, NET, n_iterations=2, seed=13)
    train_xdboost(model, X_train, y_train, X_val, y_val)

    rng = np.random.default_rng(1)
    X_test = append_placeholders(make_matrix(rng, schema, 25), 2)
    before = X_test.cont.copy()
    events = []
    first = predict_xdboost(model, X_test, observer=events.append)
    assert any(np.any(e["values"] != 0.0) for e in events)
    assert np.array_equal(X_test.cont, before)
    assert np.all(X_test.placeholder_block() == 0.0)
    assert np.array_equal(predict_xdboost(model, X_test), first)


def test_predict_refuses_a_non_finite_probability():
    """A finite value can overflow the model; predict names the first row
    it scored NaN instead of returning the NaN."""
    model, schema = _trained_model(17)
    X_test = append_placeholders(make_matrix(np.random.default_rng(4), schema, 12), 2)
    X_test.cont[[5, 9], 0] = 1e300
    with pytest.raises(DataError, match=r"X_test row 5 \(from 0\) scores nan"), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        predict_xdboost(model, X_test)


def test_predict_requires_a_trained_model():
    schema = make_schema((3,), 1)
    model = create_xdboost(schema, NET, n_iterations=2)
    X = append_placeholders(make_matrix(np.random.default_rng(2), schema, 4), 2)
    with pytest.raises(UsageError, match="has not been trained"):
        predict_xdboost(model, X)


def test_train_rejects_bad_matrices_and_val_pairs():
    schema, X_train, y_train, X_val, y_val = _training_setup()
    model = create_xdboost(schema, NET, n_iterations=2, seed=15)
    with pytest.raises(UsageError):
        train_xdboost(model, X_train, y_train, X_val, None)
    narrow = make_matrix(np.random.default_rng(3), schema, 10)
    with pytest.raises(DataError, match="placeholder columns"):
        train_xdboost(model, narrow, y_train[:10])
    dirty = append_placeholders(narrow, 2)
    dirty.placeholder_block()[0, 0] = 0.1
    with pytest.raises(DataError, match="start zeroed"):
        train_xdboost(model, dirty, y_train[:10])


def test_training_log_structure():
    schema, X_train, y_train, X_val, y_val = _training_setup()
    model = create_xdboost(schema, NET, n_iterations=2, seed=17)
    train_xdboost(model, X_train, y_train, X_val, y_val)
    assert len(model.training_log) == 2
    for i, entry in enumerate(model.training_log):
        assert entry["iteration"] == i
        for key in ("classifier_fit", "residual_fit", "classifier_refit"):
            assert entry[key]["epochs_run"] >= 1
        assert 0.0 < entry["residual_mean_abs"] < 1.0
        assert 0.0 <= entry["placeholder_abs_max"] < model.error_lr
    assert json.dumps(model.training_log)  # JSON-serializable as written


def test_zero_error_lr_collapses_to_the_unboosted_reference():
    """With nothing ever written into the placeholder block, boosting must
    reproduce the reference net exactly, not just approximately."""
    schema, X_train, y_train, X_val, y_val = _training_setup(seed=37)
    model = create_xdboost(schema, NET, n_iterations=2, error_lr=0.0, seed=19)
    train_xdboost(model, X_train, y_train, X_val, y_val)

    reference, log = train_unboosted(model, X_train, y_train, X_val, y_val)
    rng = np.random.default_rng(4)
    X_test = append_placeholders(make_matrix(rng, schema, 60), 2)
    boosted = predict_xdboost(model, X_test)
    plain = reference.predict_matrix(X_test)
    assert np.max(np.abs(boosted - plain)) <= 1e-12
    assert len(log) == 2


@pytest.mark.parametrize("with_val", [True, False])
@pytest.mark.parametrize("shuffle, cold_restart", [(False, False), (True, False),
                                                   (False, True), (True, True)])
@pytest.mark.parametrize("n_iterations", [1, 3])
def test_a_forked_reference_equals_one_from_scratch(monkeypatch, n_iterations, shuffle,
                                                    cold_restart, with_val):
    """Resumed from the boosted classifier's state after its first fit, the
    reference runs one fit fewer and ends with the arena, Adam state,
    shuffle RNG state and training log of one that starts from scratch."""
    config = dataclasses.replace(NET, shuffle=shuffle)
    schema, X_train, y_train, X_val, y_val = _training_setup(n_iterations=n_iterations)
    if not with_val:
        X_val = y_val = None
    weights = class_weights(y_train)
    model = create_xdboost(schema, config, n_iterations, error_lr=0.5, seed=41,
                           cold_restart=cold_restart)
    fitted = []
    train_xdboost(model, X_train, y_train, X_val, y_val, class_weights=weights,
                  observer=lambda e: fitted.append(
                      (model.classifier.fit_state(), [e["classifier_history"]]))
                  if e["event"] == "residual_fit" else None)
    assert len(fitted) == n_iterations

    fit, fits = BaseNet.fit, []
    monkeypatch.setattr(BaseNet, "fit",
                        lambda net, *a, **kw: fits.append(net) or fit(net, *a, **kw))
    runs = []
    for start in (None, fitted[0]):
        fits.clear()
        runs.append((*train_unboosted(model, X_train, y_train, X_val, y_val,
                                      class_weights=weights, start=start), len(fits)))
    (scratch, scratch_log, scratch_fits), (forked, forked_log, forked_fits) = runs
    assert forked_fits == scratch_fits - 1
    assert json.dumps(forked_log) == json.dumps(scratch_log)
    for a, b in ((forked.flat, scratch.flat), (forked.optimizer.m, scratch.optimizer.m),
                 (forked.optimizer.v, scratch.optimizer.v)):
        assert a.tobytes() == b.tobytes()
    assert forked.optimizer.t == scratch.optimizer.t > 0
    assert forked._shuffle_rng.bit_generator.state == scratch._shuffle_rng.bit_generator.state


# ---- fits whose outcome is known from the fit before -------------------------------

def _first_fit(config, with_val=True, start=None):
    """A classifier net of config fitted once on one placeholder-column
    setup, from start's fit state when given: (net, its FitHistory, X, y,
    val)."""
    schema, X, y, X_val, y_val = _training_setup(n_iterations=1, seed=53)
    val = (X_val, y_val) if with_val else None
    net = BaseNet(schema.with_placeholders(1), config, seed=5)
    if start is not None:
        net.load_fit_state(start.fit_state())
    return net, net.fit(X, y, val=val), X, y, val


def _state(net):
    flat, (t, m, v), rng_state = net.fit_state()
    return flat.tobytes(), t, m.tobytes(), v.tobytes(), rng_state


def _tail(previous, m):
    """The history of a warm fit that replays the m epochs after
    previous's best one and rolls back."""
    b = previous.best_epoch
    return FitHistory(m, -1, previous.val_losses[b] if b >= 0 else previous.initial_val_loss,
                      previous.train_losses[b + 1:b + 1 + m],
                      previous.val_losses[b + 1:b + 1 + m])


def _stopped(case):
    """A first fit that stopped without improving for its last m epochs."""
    if case == "patience":
        return _first_fit(GATE)
    if case == "patience-0":
        return _first_fit(dataclasses.replace(GATE, patience=0))
    # from the best state of a fit stopped by patience, the next 5 epochs
    # do not improve: a fit of 5 epochs runs them all and rolls back
    started, *_ = _first_fit(GATE)
    return _first_fit(dataclasses.replace(GATE, epochs=5, patience=10), start=started)


@pytest.mark.parametrize("case", ["patience", "epoch-budget", "patience-0"])
def test_a_warm_fit_after_one_that_ended_without_improving_is_known(case):
    """Unshuffled, with validation rows, a fit that starts where the one
    before left the net repeats that fit's epochs after its best one: the
    rule gives its history, and the fit leaves the net as it found it."""
    net, first, X, y, val = _stopped(case)
    m = min(max(net.config.patience, 1), net.config.epochs)
    assert first.epochs_run - 1 - first.best_epoch >= m
    if case == "epoch-budget":
        assert (first.epochs_run, first.best_epoch) == (net.config.epochs, -1)
    else:
        assert first.epochs_run < net.config.epochs
    known = _replayed(net, first, False, val)
    again = copy.deepcopy(net)
    second = again.fit(X, y, val=val)
    assert known.to_dict() == second.to_dict()
    assert (second.epochs_run, second.best_epoch) == (m, -1)
    assert _state(again) == _state(net)


@pytest.mark.parametrize("with_val", [True, False])
@pytest.mark.parametrize("shuffle", [False, True])
def test_a_cold_restart_after_a_fit_on_the_same_rows_is_known(shuffle, with_val):
    """A fresh net of the same seed on the same rows runs the fit before
    again: the rule gives a copy of its history, and the net it left is
    the one the fit gives."""
    net, first, X, y, val = _first_fit(dataclasses.replace(NET, shuffle=shuffle), with_val)
    known = _replayed(net, first, True, val)
    fresh = BaseNet(net.schema, net.config, seed=net.seed)
    second = fresh.fit(X, y, val=val)
    assert known.to_dict() == second.to_dict() == first.to_dict()
    assert known is not first and known.train_losses is not first.train_losses
    assert _state(fresh) == _state(net)


@pytest.mark.parametrize("case", ["shuffle", "no-val", "short-tail", "tail-one-short"])
def test_a_warm_fit_the_fit_before_does_not_determine_is_unknown(case):
    """Shuffled batches, no validation rows to roll back to, or fewer
    epochs after the best one than the fit may run without improving:
    the second fit is none of the histories the rule derives."""
    if case == "tail-one-short":
        # the run of a fit that patience stops, cut one epoch short
        _, stopped, *_ = _first_fit(GATE)
        config = dataclasses.replace(GATE, epochs=stopped.epochs_run - 1)
    else:
        config = {"shuffle": dataclasses.replace(GATE, shuffle=True, batch_size=32),
                  "no-val": dataclasses.replace(GATE, epochs=20),
                  # runs out of epochs while still improving
                  "short-tail": dataclasses.replace(GATE, epochs=5)}[case]
    net, first, X, y, val = _first_fit(config, with_val=case != "no-val")
    m = min(max(config.patience, 1), config.epochs)
    tail = first.epochs_run - 1 - first.best_epoch
    if case == "short-tail":
        assert tail < m
    elif case == "tail-one-short":
        assert (first.epochs_run, tail) == (config.epochs, m - 1)
    assert _replayed(net, first, False, val) is None
    second = copy.deepcopy(net).fit(X, y, val=val)
    for derived in (first, _tail(first, m)):
        assert second.to_dict() != derived.to_dict()


@pytest.mark.parametrize("n_iterations", [2, 3])
def test_at_the_gate_net_only_fits_of_unknown_outcome_run(monkeypatch, n_iterations):
    """Each iteration's first fit after the first repeats the refit before
    it, and every reference fit after the first repeats the fit before it.
    Those run no BaseNet.fit, and the logs and nets are the bits of a run
    that derives nothing."""
    schema, X_train, y_train, X_val, y_val = _training_setup(n_iterations=n_iterations)

    def train():
        model = create_xdboost(schema, GATE, n_iterations, error_lr=0.5, seed=47)
        train_xdboost(model, X_train, y_train, X_val, y_val)
        boosted_fits = len(fits)
        reference, log = train_unboosted(model, X_train, y_train, X_val, y_val)
        return (boosted_fits, len(fits) - boosted_fits, json.dumps(model.training_log),
                json.dumps(log), _state(model.classifier), _state(reference))

    fit, fits = BaseNet.fit, []
    monkeypatch.setattr(BaseNet, "fit",
                        lambda net, *a, **kw: fits.append(net) or fit(net, *a, **kw))
    derived = train()
    fits.clear()
    monkeypatch.setattr(boosting, "_replayed", lambda *args: None)
    every = train()
    assert derived[:2] == (3 * n_iterations - (n_iterations - 1), 1)
    assert every[:2] == (3 * n_iterations, 2 * n_iterations)
    assert derived[2:] == every[2:]


def test_a_checkpoint_of_every_fit_rebuilds_the_reference_without_fitting(monkeypatch):
    schema, X_train, y_train, X_val, y_val = _training_setup()
    model = create_xdboost(schema, NET, n_iterations=2, seed=43)
    done, log = train_unboosted(model, X_train, y_train, X_val, y_val)
    state = done.fit_state()
    hists = [FitHistory(**entry[f"classifier_{stage}"])
             for entry in log for stage in ("fit", "refit")]
    monkeypatch.setattr(BaseNet, "fit", lambda *a, **kw: pytest.fail("a fit ran"))
    again, again_log = train_unboosted(model, X_train, y_train, X_val, y_val,
                                       start=(state, hists))
    assert again_log == log
    assert again.flat.tobytes() == done.flat.tobytes()
    assert again.optimizer.t == done.optimizer.t


@pytest.mark.parametrize("case, message", [
    ("histories", "holds 5 fits; 2 iterations run 4"), ("arena", "arena has 1 entries"),
    ("adam_m", "Adam m has"), ("adam_v", "Adam v has")])
def test_a_checkpoint_that_cannot_belong_to_the_call_is_refused(case, message):
    """Too many fits for the schedule, or a vector of another length than
    the net's arena, would otherwise give a silently wrong reference."""
    schema, X_train, y_train, X_val, y_val = _training_setup()
    model = create_xdboost(schema, NET, n_iterations=2, seed=45)
    first = []
    train_xdboost(model, X_train, y_train, X_val, y_val,
                  observer=lambda e: e["event"] == "residual_fit" and first.append(
                      (model.classifier.fit_state(), [e["classifier_history"]])))
    (flat, (t, m, v), rng_state), hists = first[0]
    if case == "histories":
        hists = hists * 5
    elif case == "arena":
        flat = flat[:1]
    elif case == "adam_m":
        m = np.append(m, 0.0)
    else:
        v = v[:-1]
    with pytest.raises(UsageError, match=message):
        train_unboosted(model, X_train, y_train, X_val, y_val,
                        start=((flat, (t, m, v), rng_state), hists))


@pytest.mark.parametrize("train", [train_unboosted, train_xdboost],
                         ids=["train_unboosted", "train_xdboost"])
def test_unboosted_reference_never_mutates_its_inputs(train):
    """Neither training entry point writes the matrices it is given, so one
    zeroed set can feed both models."""
    schema, X_train, y_train, X_val, y_val = _training_setup()
    model = create_xdboost(schema, NET, n_iterations=2, seed=21)
    cont_before = X_train.cont.copy()
    val_before = X_val.cont.copy()
    arena_before = model.classifier.flat.copy()
    trained = train(model, X_train, y_train, X_val, y_val)
    assert np.array_equal(X_train.cont, cont_before)
    assert np.array_equal(X_val.cont, val_before)
    if train is train_xdboost:
        return
    # the model is only read: its classifier is not the reference, nor trained by it
    assert trained[0] is not model.classifier
    assert model.classifier.flat.tobytes() == arena_before.tobytes()
    assert model.classifier.optimizer.t == 0


def test_training_is_deterministic():
    results = []
    for _ in range(2):
        schema, X_train, y_train, X_val, y_val = _training_setup()
        model = create_xdboost(schema, NET, n_iterations=2, seed=23)
        train_xdboost(model, X_train, y_train, X_val, y_val)
        X_test = append_placeholders(
            make_matrix(np.random.default_rng(5), schema, 30), 2)
        results.append(predict_xdboost(model, X_test))
    assert np.array_equal(results[0], results[1])


def test_cold_restart_changes_the_outcome():
    schema, X_train, y_train, X_val, y_val = _training_setup()
    warm = create_xdboost(schema, NET, n_iterations=2, seed=25)
    train_xdboost(warm, X_train, y_train, X_val, y_val)
    cold = create_xdboost(schema, NET, n_iterations=2, seed=25, cold_restart=True)
    train_xdboost(cold, X_train, y_train, X_val, y_val)
    X_test = append_placeholders(make_matrix(np.random.default_rng(6), schema, 30), 2)
    assert not np.array_equal(predict_xdboost(warm, X_test),
                              predict_xdboost(cold, X_test))


def _trained_model(seed):
    schema, X_train, y_train, X_val, y_val = _training_setup()
    model = create_xdboost(schema, NET, n_iterations=2, seed=seed)
    return train_xdboost(model, X_train, y_train, X_val, y_val), schema


def test_bundle_roundtrip_reproduces_predictions(tmp_path):
    model, schema = _trained_model(27)
    X_test = append_placeholders(make_matrix(np.random.default_rng(7), schema, 20), 2)
    expected = predict_xdboost(model, X_test)

    bundle = tmp_path / "bundle"
    model.save_bundle(bundle)
    assert bundle.is_file()
    loaded = XDBoostModel.load_bundle(bundle)
    assert loaded.trained is True
    assert loaded.n_iterations == 2
    assert loaded.error_lr == model.error_lr
    assert np.array_equal(predict_xdboost(loaded, X_test), expected)


def test_a_bundle_in_the_older_format_predicts_the_same(tmp_path):
    """Bundles once stored each net's loss and a placeholder seed of 0 in
    its config; such a bundle loads with both ignored."""
    model, schema = _trained_model(27)
    X_test = append_placeholders(make_matrix(np.random.default_rng(7), schema, 20), 2)
    bundle = tmp_path / "bundle"
    model.save_bundle(bundle)
    manifest, arrays = read_bundle(bundle)
    assert all(not {"loss", "seed"} & set(net["config"]) for net in manifest["nets"])
    for net in manifest["nets"]:
        loss = "weighted_bce" if net["config"]["head"] == "sigmoid" else "mae"
        net["config"].update(loss=loss, seed=0)
    write_bundle(bundle, manifest, arrays)
    loaded = XDBoostModel.load_bundle(bundle)
    assert [net.seed for net in loaded.regressors] == [net.seed for net in model.regressors]
    assert predict_xdboost(loaded, X_test).tobytes() == predict_xdboost(model, X_test).tobytes()


def test_load_bundle_rejects_missing_or_tampered_manifests(tmp_path):
    with pytest.raises(DataError, match="nowhere"):
        XDBoostModel.load_bundle(tmp_path / "nowhere")

    model, _ = _trained_model(29)
    bundle = tmp_path / "bundle"
    model.save_bundle(bundle)
    manifest, arrays = read_bundle(bundle)

    write_bundle(bundle, {k: v for k, v in manifest.items() if k != "nets"}, arrays)
    with pytest.raises(DataError, match="lacks 'nets'"):
        XDBoostModel.load_bundle(bundle)

    write_bundle(bundle, b"[1, 2]", arrays)
    with pytest.raises(DataError, match="cannot load model bundle"):
        XDBoostModel.load_bundle(bundle)

    write_bundle(bundle, {**manifest, "n_iterations": 3}, arrays)
    with pytest.raises(DataError, match="3 iterations"):
        XDBoostModel.load_bundle(bundle)


def test_a_manifest_holding_an_infinity_is_refused_before_a_write(tmp_path):
    """JSON has no infinity, so a net config holding one (set after the
    config's own checks ran, which refuse it) is refused, not written as a
    manifest that strict JSON readers cannot read."""
    old, schema = _trained_model(31)
    bundle = tmp_path / "bundle"
    old.save_bundle(bundle)
    saved = bundle.read_bytes()
    model = create_xdboost(schema, NET, n_iterations=2, seed=31)
    model.classifier.config.learning_rate = float("inf")
    with pytest.raises(ValueError, match="not JSON compliant"):
        model.save_bundle(bundle)
    assert bundle.read_bytes() == saved
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle"]


def test_an_interrupted_save_leaves_the_previous_bundle(tmp_path, monkeypatch):
    """The archive is written beside the bundle and renamed over it, so a
    save that fails mid-write changes nothing a reader can see."""
    old, schema = _trained_model(31)
    bundle = tmp_path / "bundle"
    old.save_bundle(bundle)
    saved = bundle.read_bytes()

    def savez_then_fail(fh, **arrays):
        fh.write(b"PK\x03\x04 half an archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    with pytest.raises(OSError, match="disk full"):
        _trained_model(37)[0].save_bundle(bundle)
    monkeypatch.undo()
    assert bundle.read_bytes() == saved
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle"]
    X_test = append_placeholders(make_matrix(np.random.default_rng(8), schema, 20), 2)
    assert np.array_equal(predict_xdboost(XDBoostModel.load_bundle(bundle), X_test),
                          predict_xdboost(old, X_test))
