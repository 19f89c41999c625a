"""Base network: configuration contracts, the pairwise interaction term,
forward pass against an independent reimplementation, analytic gradients
against finite differences, fit/early-stopping behavior and the model
bundle that stores every net.
"""

import copy
import dataclasses
import hashlib
import json
import math
import os
import pickle
import shutil
import tracemalloc

import numpy as np
import pytest

from conftest import (fd_gradcheck, loss_and_gradients, make_matrix, make_schema,
                      oracle_forward, params, random_net_case, read_bundle,
                      well_conditioned, write_bundle)
from xdboost import nn
from xdboost.boosting import (XDBoostModel, append_placeholders, create_xdboost,
                              predict_xdboost, train_xdboost)
from xdboost.data import DesignMatrix
from xdboost.errors import ConfigError, DataError, TrainingError, UsageError
from xdboost.models import BaseNet, BaseNetConfig


# ---- pairwise interaction term ----------------------------------------------

def fm_pairwise(field_vectors):
    """Oracle: sum of dot products over all unordered pairs of field vectors.

    Uses the identity sum_{i<j} <v_i, v_j> = (|sum v|^2 - sum |v|^2) / 2.
    """
    vectors = [np.asarray(v, dtype=np.float64) for v in field_vectors]
    if not vectors:
        raise UsageError("fm_pairwise needs at least one vector")
    dim = vectors[0].shape
    if any(v.shape != dim for v in vectors):
        raise UsageError("field vectors must share one dimension")
    stacked = np.stack(vectors)
    total = stacked.sum(axis=0)
    return float(0.5 * (total @ total - float((stacked * stacked).sum())))


def test_fm_pairwise_hand_examples():
    assert fm_pairwise([(1.0, 0.0), (0.0, 1.0)]) == 0.0
    assert abs(fm_pairwise([(1.0, 2.0), (3.0, 4.0)]) - 11.0) < 1e-12
    assert abs(fm_pairwise([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]) - 11.0) < 1e-12


def test_fm_pairwise_single_vector_has_no_pairs():
    assert fm_pairwise([(2.0, 5.0)]) == 0.0


def test_fm_pairwise_errors():
    with pytest.raises(UsageError):
        fm_pairwise([])
    with pytest.raises(UsageError):
        fm_pairwise([(1.0, 2.0), (1.0, 2.0, 3.0)])


def test_fm_pairwise_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        d = int(rng.integers(1, 6))
        vectors = rng.uniform(-2.0, 2.0, size=(m, d))
        brute = sum(float(vectors[i] @ vectors[j])
                    for i in range(m) for j in range(i + 1, m))
        assert abs(fm_pairwise(list(vectors)) - brute) < 1e-10


def test_the_net_scores_the_pairwise_term_of_each_row():
    """With the linear terms and the MLP zeroed, the logit is the pairwise
    term alone: the oracle over the row's embedding rows and its scaled
    continuous projections."""
    schema = make_schema((4, 3), 2)
    net = BaseNet(schema, BaseNetConfig(embedding_dim=3, hidden_layers=(5,)), seed=7)
    for tensor in (*net.lin_cat, net.lin_cont, net.bias):
        tensor[...] = 0.0
    for layer in net.layers:
        layer.weights[...] = 0.0
        layer.bias[...] = 0.0
    X = make_matrix(np.random.default_rng(41), schema, 30)
    fm = np.array([fm_pairwise([*(net.embeddings[j][X.cat[r, j]] for j in range(net.n_cat)),
                                *(X.cont[r, g] * net.cont_proj[g] for g in range(net.n_cont))])
                   for r in range(X.n_rows)])
    assert np.ptp(fm) > 1e-3
    assert np.allclose(net.predict_matrix(X), 1.0 / (1.0 + np.exp(-fm)), rtol=0, atol=1e-12)


# ---- configuration -----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        BaseNetConfig(embedding_dim=0)
    with pytest.raises(ConfigError):
        BaseNetConfig(hidden_layers=(8, 0))
    with pytest.raises(ConfigError):
        BaseNetConfig(head="linear")
    with pytest.raises(ConfigError):
        BaseNetConfig(batch_size=0)
    with pytest.raises(ConfigError):
        BaseNetConfig(epochs=-1)
    # an infinite epsilon would make every Adam step zero: a fit would run and change nothing
    for bad in ({"learning_rate": 0.0}, {"learning_rate": math.nan}, {"epsilon": -1e-8},
                {"epsilon": math.nan}, {"beta1": 1.0}, {"beta1": -0.1}, {"beta2": math.nan},
                {"learning_rate": math.inf}, {"epsilon": math.inf}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            BaseNetConfig(**bad)
    with pytest.raises(ConfigError):
        BaseNet(make_schema((2,), 0), BaseNetConfig(), seed=-1)


def test_config_head_switching_updates_the_loss():
    """The loss follows the head: weighted cross-entropy under the sigmoid
    head, mean absolute error under the tanh head."""
    reg = BaseNetConfig().as_regressor()
    assert (reg.head, reg.as_classifier().head) == ("tanh", "sigmoid")
    schema, weights = make_schema((2,), 0), (1.0, 3.0)
    out, targets = np.array([0.25, 0.5, 0.75]), np.array([0.0, 1.0, 1.0])
    assert BaseNet(schema, reg).batch_loss(out, targets) == nn.mae_loss(out, targets)
    assert (BaseNet(schema, reg.as_classifier()).batch_loss(out, targets, weights)
            == nn.weighted_bce_loss(out, targets, weights))


def test_config_dict_roundtrip():
    config = BaseNetConfig(embedding_dim=5, hidden_layers=(7, 3), epochs=2)
    clone = BaseNetConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert clone == config
    assert isinstance(clone.hidden_layers, tuple)
    assert len(config.to_dict()) == 11
    # the two keys older bundles stored in each config are ignored
    assert BaseNetConfig.from_dict({**config.to_dict(), "loss": "mae", "seed": 5}) == config


def test_empty_hidden_stack_is_allowed():
    schema = make_schema((3,), 0)
    net = BaseNet(schema, BaseNetConfig(embedding_dim=2, hidden_layers=()))
    assert len(net.layers) == 1  # just the identity readout
    X = make_matrix(np.random.default_rng(0), schema, 5)
    assert net.predict_matrix(X).shape == (5,)


def test_schema_without_fields_is_rejected():
    empty = make_schema((), 0)
    with pytest.raises(ConfigError):
        BaseNet(empty, BaseNetConfig(embedding_dim=2))


# ---- construction ------------------------------------------------------------

def test_same_seed_builds_identical_parameters():
    schema = make_schema((4, 3), 2)
    config = BaseNetConfig(embedding_dim=3, hidden_layers=(5,))
    a = BaseNet(schema, config, seed=42)
    b = BaseNet(schema, config, seed=42)
    c = BaseNet(schema, config, seed=43)
    for pa, pb in zip(params(a), params(b)):
        assert np.array_equal(pa, pb)
    assert any(not np.array_equal(pa, pc)
               for pa, pc in zip(params(a), params(c)))


def test_structure_follows_the_schema():
    schema = make_schema((4, 2), 1, n_placeholders=2)
    net = BaseNet(schema, BaseNetConfig(embedding_dim=3, hidden_layers=(6, 4)))
    assert len(net.embeddings) == 2
    assert net.embeddings[0].shape == (5, 3)  # vocab 4 plus OOV
    assert net.embeddings[1].shape == (3, 3)
    assert net.cont_proj.shape == (3, 3)  # x0 plus two placeholders
    assert [layer.out_dim for layer in net.layers] == [6, 4, 1]
    assert net.layers[-1].activation == "identity"


def test_every_tensor_is_a_view_into_one_arena():
    schema = make_schema((4, 2), 1, n_placeholders=2)
    net = BaseNet(schema, BaseNetConfig(embedding_dim=3, hidden_layers=(6, 4)))
    tensors = params(net)
    # two embedding and two first-order tables, cont_proj, lin_cont, bias,
    # and a weight and a bias for each of the three dense layers
    assert len(tensors) == 2 + 2 + 3 + 2 * 3
    assert net.flat.ndim == 1 and net.flat.flags.c_contiguous
    start, offset = net.flat.__array_interface__["data"][0], 0
    for p in tensors:  # back to back, in layout order
        assert np.shares_memory(p, net.flat)
        assert p.__array_interface__["data"][0] == start + offset * net.flat.itemsize
        offset += p.size
    assert offset == net.flat.size
    named = ([*net.embeddings, *net.lin_cat, net.cont_proj, net.lin_cont, net.bias]
             + [a for layer in net.layers for a in (layer.weights, layer.bias)])
    assert all(np.shares_memory(a, net.flat) for a in named)
    for moment in (net.optimizer.m, net.optimizer.v):
        assert moment.shape == net.flat.shape and moment.flags.c_contiguous
        assert not np.shares_memory(moment, net.flat)


def test_zero_parameters_give_exactly_half():
    schema = make_schema((3, 2), 1)
    net = BaseNet(schema, BaseNetConfig(embedding_dim=4, hidden_layers=(8,)))
    for p in params(net):
        p[...] = 0.0
    X = make_matrix(np.random.default_rng(1), schema, 10)
    assert np.all(net.predict_matrix(X) == 0.5)


# ---- forward pass ------------------------------------------------------------

def test_forward_matches_independent_reimplementation():
    rng = np.random.default_rng(29)
    for head in ("sigmoid", "tanh"):
        for _ in range(25):
            net, X, _, _ = random_net_case(rng, head)
            expected, _, _ = oracle_forward(net, X)
            assert np.max(np.abs(net.predict_matrix(X) - expected)) < 1e-10


def test_head_output_ranges():
    rng = np.random.default_rng(31)
    schema = make_schema((5, 3), 2)
    X = make_matrix(rng, schema, 200)
    clf = BaseNet(schema, BaseNetConfig(embedding_dim=4, hidden_layers=(8,)), seed=1)
    reg = BaseNet(schema, BaseNetConfig(embedding_dim=4, hidden_layers=(8,),
                                        head="tanh"), seed=1)
    p = clf.predict_matrix(X)
    t = reg.predict_matrix(X)
    assert np.all((p > 0.0) & (p < 1.0))
    assert np.all((t > -1.0) & (t < 1.0))


def test_predict_is_pure_and_handles_empty_input():
    rng = np.random.default_rng(33)
    schema = make_schema((3,), 1)
    net = BaseNet(schema, BaseNetConfig(embedding_dim=2, hidden_layers=(4,)))
    X = make_matrix(rng, schema, 12)
    cat_before, cont_before = X.cat.copy(), X.cont.copy()
    params_before = [p.copy() for p in params(net)]
    first = net.predict_matrix(X)
    second = net.predict_matrix(X)
    assert np.array_equal(first, second)
    assert np.array_equal(X.cat, cat_before)
    assert np.array_equal(X.cont, cont_before)
    for p, before in zip(params(net), params_before):
        assert np.array_equal(p, before)
    empty = make_matrix(rng, schema, 0)
    assert net.predict_matrix(empty).shape == (0,)


def test_matrix_schema_mismatch_is_a_data_error():
    schema = make_schema((3,), 1)
    net = BaseNet(schema, BaseNetConfig(embedding_dim=2))
    rng = np.random.default_rng(2)
    wide = DesignMatrix(np.zeros((4, 1), dtype=np.int64), rng.uniform(size=(4, 3)), 0)
    with pytest.raises(DataError):
        net.predict_matrix(wide)
    bad_index = make_matrix(rng, schema, 4)
    bad_index.cat[0, 0] = 99
    with pytest.raises(DataError):
        net.predict_matrix(bad_index)
    # a negative index would wrap to the OOV row and still get a score
    bad_index.cat[0, 0] = -1
    with pytest.raises(DataError, match="out of range"):
        net.predict_matrix(bad_index)


# ---- gradients ----------------------------------------------------------------

def test_gradients_match_finite_differences():
    rng = np.random.default_rng(37)
    for head in ("sigmoid", "tanh"):
        checked = 0
        while checked < 10:
            net, X, targets, weights = random_net_case(rng, head)
            if not well_conditioned(net, X, targets):
                continue
            assert fd_gradcheck(net, X, targets, weights, rng, coord_cap=12) < 1e-4
            checked += 1


def test_constant_loss_gives_zero_gradients():
    """Clipped rows contribute no gradient, so an all-clipped batch is flat."""
    schema = make_schema((2,), 0)
    net = BaseNet(schema, BaseNetConfig(embedding_dim=2, hidden_layers=()), seed=3)
    net.bias[0] = 30.0  # probability saturates above 1 - 1e-7
    X = make_matrix(np.random.default_rng(4), schema, 6)
    _, grads = loss_and_gradients(net, X, np.ones(6))
    for g in grads:
        assert np.all(np.asarray(g) == 0.0)


# ---- fitting -------------------------------------------------------------------

def _toy_classification(n=200, seed=5):
    """Token f0 decides the label, so the problem is separable."""
    schema = make_schema((2,), 0)
    rng = np.random.default_rng(seed)
    cat = rng.integers(0, 2, size=(n, 1)).astype(np.int64)
    X = DesignMatrix(cat, np.zeros((n, 0)), 0)
    y = cat[:, 0].astype(np.float64)
    return schema, X, y


def test_fit_zero_epochs_is_a_no_op():
    schema, X, y = _toy_classification()
    net = BaseNet(schema, BaseNetConfig(embedding_dim=2, epochs=0))
    before = [p.copy() for p in params(net)]
    history = net.fit(X, y)
    assert history.epochs_run == 0
    assert history.best_epoch == -1
    assert history.train_losses == []
    for p, b in zip(params(net), before):
        assert np.array_equal(p, b)


def test_fit_empty_matrix_is_a_no_op():
    schema, X, y = _toy_classification()
    empty = DesignMatrix(X.cat[:0], X.cont[:0], 0)
    net = BaseNet(schema, BaseNetConfig(embedding_dim=2, epochs=3))
    history = net.fit(empty, y[:0])
    assert history.epochs_run == 0


def test_fit_learns_a_separable_toy_problem():
    schema, X, y = _toy_classification()
    net = BaseNet(schema, BaseNetConfig(embedding_dim=2, hidden_layers=(4,),
                                        learning_rate=1e-2, epochs=30,
                                        batch_size=64), seed=7)
    initial = net.eval_loss(X, y)
    history = net.fit(X, y)
    assert history.epochs_run == 30
    assert len(history.train_losses) == 30
    assert net.eval_loss(X, y) < initial
    assert history.train_losses[-1] < initial


def test_fit_regressor_descends_on_constant_zero_targets():
    schema = make_schema((3,), 1)
    rng = np.random.default_rng(8)
    X = make_matrix(rng, schema, 80)
    targets = np.zeros(80)
    net = BaseNet(schema, BaseNetConfig(embedding_dim=3, hidden_layers=(4,),
                                        head="tanh",
                                        learning_rate=1e-2, epochs=15,
                                        batch_size=32), seed=9)
    initial = net.eval_loss(X, targets)
    net.fit(X, targets)
    assert net.eval_loss(X, targets) <= initial


def test_fit_validates_targets():
    schema, X, y = _toy_classification()
    clf = BaseNet(schema, BaseNetConfig(embedding_dim=2, epochs=1))
    with pytest.raises(DataError):
        clf.fit(X, np.full(X.n_rows, 0.5))
    with pytest.raises(DataError):
        clf.fit(X, y[:-1])
    with pytest.raises(DataError, match=r"targets of shape \(\) for"):
        clf.fit(X, 1.0)
    reg = BaseNet(schema, BaseNetConfig(embedding_dim=2, epochs=1,
                                        head="tanh"))
    with pytest.raises(DataError):
        reg.fit(X, np.full(X.n_rows, 1.5))


def test_fit_raises_on_non_finite_loss():
    schema, X, y = _toy_classification(n=32)
    net = BaseNet(schema, BaseNetConfig(embedding_dim=2, epochs=2))
    net.embeddings[0][...] = np.nan
    with pytest.raises(TrainingError, match="non-finite training loss"):
        net.fit(X, y)


def test_fit_that_never_improves_validation_is_rolled_back():
    """The incoming parameters count as the early-stopping candidate."""
    schema, X, y = _toy_classification(n=40, seed=11)
    val_X, val_y = X, y
    net = BaseNet(schema, BaseNetConfig(embedding_dim=2, hidden_layers=(4,),
                                        learning_rate=5.0, epochs=3, patience=5,
                                        batch_size=64), seed=13)
    initial = net.eval_loss(val_X, val_y)
    before = [p.copy() for p in params(net)]
    history = net.fit(X, y, val=(val_X, val_y))
    assert history.initial_val_loss == initial
    assert history.best_epoch == -1
    for p, b in zip(params(net), before):
        assert np.array_equal(p, b)


def test_warm_started_fit_that_rolls_back_restores_the_optimizer_too():
    schema, X, y = _toy_classification(n=40, seed=11)
    net = BaseNet(schema, BaseNetConfig(embedding_dim=2, hidden_layers=(4,),
                                        learning_rate=5.0, epochs=3, patience=5,
                                        batch_size=16), seed=13)
    net.fit(X, y)
    assert net.optimizer.t > 0 and np.any(net.optimizer.m != 0.0)
    before = (net.flat.copy(), net.optimizer.m.copy(), net.optimizer.v.copy(),
              net.optimizer.t)
    history = net.fit(X, y, val=(X, y))
    assert history.best_epoch == -1
    assert np.array_equal(net.flat, before[0])
    assert np.array_equal(net.optimizer.m, before[1])
    assert np.array_equal(net.optimizer.v, before[2])
    assert net.optimizer.t == before[3]


def test_patience_stops_training_early():
    schema, X, y = _toy_classification(n=40, seed=11)
    net = BaseNet(schema, BaseNetConfig(embedding_dim=2, hidden_layers=(4,),
                                        learning_rate=5.0, epochs=50, patience=2,
                                        batch_size=64), seed=13)
    history = net.fit(X, y, val=(X, y))
    assert history.epochs_run == 2
    assert len(history.val_losses) == history.epochs_run


def test_validation_restore_keeps_the_best_epoch():
    schema, X, y = _toy_classification(n=120, seed=15)
    net = BaseNet(schema, BaseNetConfig(embedding_dim=2, hidden_layers=(4,),
                                        learning_rate=1e-2, epochs=20, patience=20,
                                        batch_size=64), seed=17)
    history = net.fit(X, y, val=(X, y))
    assert 0 <= history.best_epoch < history.epochs_run
    # after the restore the net reproduces the best recorded validation loss
    assert net.eval_loss(X, y) == pytest.approx(min(history.val_losses), abs=1e-12)


def test_shuffle_is_seeded_and_changes_batch_order():
    schema, X, y = _toy_classification(n=100, seed=19)
    config = BaseNetConfig(embedding_dim=2, hidden_layers=(4,), learning_rate=1e-2,
                           epochs=5, batch_size=32, shuffle=True)
    a = BaseNet(schema, config, seed=21)
    b = BaseNet(schema, config, seed=21)
    a.fit(X, y)
    b.fit(X, y)
    assert np.array_equal(a.predict_matrix(X), b.predict_matrix(X))

    plain = BaseNet(schema, dataclasses.replace(config, shuffle=False), seed=21)
    plain.fit(X, y)
    assert not np.array_equal(a.predict_matrix(X), plain.predict_matrix(X))


# Recorded from the fit before batches were prepared once per fit; the
# prepared form must leave every bit of a fit unchanged.
FIT_DIGESTS = {
    False: "b183b588daab37dc67ab4a98989d39ec2cf92e607f679d3e490772df6c22b5c8",
    True: "1112153185fe8b502d13d62a869b9eacee3c646382b00ff118bb740886776e2d",
}


def _fit_case(seed=23, n_cont=2, n_placeholders=1):
    """70 training rows (four batches of 16 and a short one of 6) and 25
    validation rows, with labels a token decides up to 20% noise."""
    schema = make_schema((4, 3, 2), n_cont=n_cont, n_placeholders=n_placeholders)
    rng = np.random.default_rng(seed)
    X = make_matrix(rng, schema, 70, zero_placeholders=False)
    val_X = make_matrix(rng, schema, 25, zero_placeholders=False)
    y = (X.cat[:, 0] >= 2).astype(np.float64)
    val_y = (val_X.cat[:, 0] >= 2).astype(np.float64)
    flip = rng.random(70) < 0.2
    y[flip] = 1.0 - y[flip]
    return schema, X, y, val_X, val_y


@pytest.mark.parametrize("shuffle", [False, True])
def test_fit_is_bit_identical_to_the_recorded_fit(shuffle):
    schema, X, y, val_X, val_y = _fit_case()
    net = BaseNet(schema, BaseNetConfig(embedding_dim=3, hidden_layers=(5,),
                                        learning_rate=0.05, epochs=12, patience=3,
                                        batch_size=16, shuffle=shuffle), seed=29)
    history = net.fit(X, y, (1.0, 1.5), val=(val_X, val_y))
    # an early stop that rolls back past the last epochs
    assert 0 < history.best_epoch < history.epochs_run - 1 < 11
    digest = hashlib.sha256()
    for array in (net.flat, net.optimizer.m, net.optimizer.v, np.int64(net.optimizer.t)):
        digest.update(array.tobytes())
    digest.update(json.dumps(history.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == FIT_DIGESTS[shuffle]


# Recorded while the forward and backward passes still had a branch of
# their own for a net without continuous inputs; the one path they share
# with every other net must keep the bits of both heads.
NO_CONT_FIT_DIGESTS = {
    "sigmoid": "4d693cd75a1ced4b93b930e70f42c2082fb2bc7dd2c4b4490830f355162b6701",
    "tanh": "e8ed137f9679019b547a019dd12308c5362b8a6f97ffadaccb0785c1c1a1520d",
}


@pytest.mark.parametrize("head", ["sigmoid", "tanh"])
def test_a_net_without_continuous_inputs_fits_to_the_recorded_bits(head):
    schema, X, y, val_X, val_y = _fit_case(n_cont=0, n_placeholders=0)
    assert X.cont.shape == (70, 0)
    if head == "tanh":  # residual-like targets in (-1, 1)
        y, val_y = 0.8 * y - 0.4, 0.8 * val_y - 0.4
    net = BaseNet(schema, BaseNetConfig(embedding_dim=3, hidden_layers=(5,), head=head,
                                        learning_rate=0.05, epochs=12, patience=3,
                                        batch_size=16), seed=29)
    history = net.fit(X, y, (1.0, 1.5) if head == "sigmoid" else None, val=(val_X, val_y))
    assert 0 < history.best_epoch < history.epochs_run - 1
    digest = hashlib.sha256()
    for array in (net.flat, net.optimizer.m, net.optimizer.v, np.int64(net.optimizer.t)):
        digest.update(array.tobytes())
    digest.update(json.dumps(history.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == NO_CONT_FIT_DIGESTS[head]


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_a_copied_or_pickled_net_fits_as_the_original(how):
    """A copy is the net rebuilt from its seed and fit state, so its tensors
    are views of its own arena and a later fit of the two, shuffled, gives
    the same bits."""
    schema, X, y, val_X, val_y = _fit_case()
    config = BaseNetConfig(embedding_dim=3, hidden_layers=(5,), learning_rate=0.05,
                           epochs=4, batch_size=16, shuffle=True)
    net = BaseNet(schema, config, seed=29)
    net.fit(X, y, val=(val_X, val_y))
    again = (copy.deepcopy(net) if how == "deepcopy"
             else pickle.loads(pickle.dumps(net, pickle.HIGHEST_PROTOCOL)))
    views = [*params(again), *again.embeddings, *again.lin_cat, again.cont_proj,
             again.lin_cont, again.bias, again._emb, again._lin,
             *[a for layer in again.layers for a in (layer.weights, layer.bias)]]
    assert all(np.shares_memory(view, again.flat) for view in views)
    assert not np.shares_memory(again.flat, net.flat)
    for fitted in (net, again):
        fitted.fit(X, y, val=(val_X, val_y))
    flat, (t, m, v), _ = net.fit_state()
    copied, (t_copied, m_copied, v_copied), _ = again.fit_state()
    assert t == t_copied > 0
    for a, b in ((flat, copied), (m, m_copied), (v, v_copied),
                 (net.predict_matrix(val_X), again.predict_matrix(val_X))):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", [1, 8, 64])
def test_a_prepared_batch_holds_one_row_per_cell(k):
    """A prepared batch is one stacked-table row per categorical cell,
    whatever k; a 2-epoch unshuffled fit at k == 64, which prepares its
    4 000 training rows once, allocates less than the k + 1 arena indices
    per cell that form held."""
    schema = make_schema((4, 3, 2), n_cont=1)
    rng = np.random.default_rng(31)
    X = make_matrix(rng, schema, 4000)
    y = (X.cat[:, 0] >= 2).astype(np.float64)
    net = BaseNet(schema, BaseNetConfig(embedding_dim=k, hidden_layers=(), epochs=2,
                                        batch_size=64), seed=33)
    cont, rows = net._batch(X.cat, X.cont)
    assert rows.shape == X.cat.shape and cont is X.cont
    assert [rows[:, j].min() for j in range(3)] == [0, 5, 9]  # one OOV slot per field
    if k == 64:
        indices_bytes = X.n_rows * net.n_cat * (k + 1) * 8
        tracemalloc.start()
        try:
            net.fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < indices_bytes


def _wrong_placeholders(val_X, val_y):
    return DesignMatrix(val_X.cat, val_X.cont, val_X.n_placeholders - 1), val_y


def _index(value):
    def damage(val_X, val_y):
        cat = val_X.cat.copy()
        cat[-1, 1] = value
        return DesignMatrix(cat, val_X.cont, val_X.n_placeholders), val_y
    return damage


def _targets(value):
    def damage(val_X, val_y):
        return val_X, np.where(np.arange(val_y.size) == 3, value, val_y)
    return damage


class _Unseen:
    """A forked validation child that fails the test if a fit sends it
    its inputs."""

    forked = True

    def send(self, message):
        pytest.fail("the validation pair reached the validator")


@pytest.mark.parametrize("damage, error, head", [
    (_wrong_placeholders, DataError, "sigmoid"),
    (_index(99), DataError, "sigmoid"),
    (_index(-1), DataError, "sigmoid"),
    (lambda val_X, val_y: (val_X, val_y[:-1]), DataError, "sigmoid"),
    (_targets(2.0), DataError, "sigmoid"),
    (_targets(3.0), DataError, "tanh"),
], ids=["placeholders", "index-out-of-range", "negative-index", "target-length",
        "label-2", "regression-target-3"])
def test_a_bad_validation_pair_fails_before_the_first_step(damage, error, head):
    """The validation matrix and targets are checked once per fit, before
    any training and before a validation process sees them; the targets
    by the rule the training targets follow."""
    schema, X, y, val_X, val_y = _fit_case()
    net = BaseNet(schema, BaseNetConfig(embedding_dim=3, epochs=3, batch_size=16, head=head),
                  seed=29)
    before = net.flat.copy()
    with pytest.raises(error):
        net.fit(X, y, val=damage(val_X, val_y), validator=_Unseen())
    assert net.optimizer.t == 0
    assert np.array_equal(net.flat, before)


# ---- model bundle -------------------------------------------------------------

def _trained_model(seed=25):
    """A trained two-iteration model and its (placeholder-filled) training rows."""
    schema = make_schema((4, 2), 1)
    rng = np.random.default_rng(seed)
    X = append_placeholders(make_matrix(rng, schema, 60), 2)
    y = (X.cat[:, 0] % 2).astype(np.float64)
    config = BaseNetConfig(embedding_dim=3, hidden_layers=(6, 4), learning_rate=1e-2,
                           epochs=3, batch_size=32)
    model = create_xdboost(schema, config, n_iterations=2, seed=seed)
    train_xdboost(model, X, y)
    return model, X, y


def test_save_load_roundtrip_preserves_training_state(tmp_path):
    """Every net comes back with its arena, Adam moments and step count, so
    predictions match and one more fit of any net stays bit-identical."""
    model, X, y = _trained_model()
    path = tmp_path / "bundle"
    model.save_bundle(path)
    clone = XDBoostModel.load_bundle(path)
    assert clone.schema.hash() == model.schema.hash()
    X_new = append_placeholders(make_matrix(np.random.default_rng(3), make_schema((4, 2), 1),
                                            20), 2)
    assert np.array_equal(predict_xdboost(clone, X_new), predict_xdboost(model, X_new))

    for net, twin in zip([model.classifier, *model.regressors],
                         [clone.classifier, *clone.regressors]):
        assert (twin.config, twin.seed) == (net.config, net.seed)
        assert twin.optimizer.t == net.optimizer.t > 0
        targets = y if net.config.head == "sigmoid" else y - 0.5
        net.fit(X, targets)
        twin.fit(X, targets)
        for a, b in ((net.flat, twin.flat), (net.optimizer.m, twin.optimizer.m),
                     (net.optimizer.v, twin.optimizer.v)):
            assert a.tobytes() == b.tobytes()


def test_bundle_keeps_three_vectors_per_net(tmp_path):
    """One file: a JSON manifest, then flat_i, adam_m_i and adam_v_i for
    each net i, classifier first, each exactly as long as the arena."""
    model, _, _ = _trained_model()
    path = tmp_path / "bundle"
    model.save_bundle(path)
    assert os.listdir(tmp_path) == ["bundle"]
    manifest, arrays = read_bundle(path)
    assert set(arrays) == {f"{prefix}_{i}" for prefix in ("flat", "adam_m", "adam_v")
                           for i in range(3)}
    for key, array in arrays.items():
        assert (array.shape, array.dtype) == ((174,), np.float64), key
    nets = [model.classifier, *model.regressors]
    assert manifest["format_version"] == 2
    assert manifest["schema_hash"] == model.schema.hash()
    assert [n["config"]["head"] for n in manifest["nets"]] == ["sigmoid", "tanh", "tanh"]
    assert [(n["seed"], n["adam_t"]) for n in manifest["nets"]] == [
        (net.seed, net.optimizer.t) for net in nets]
    assert arrays["adam_v_2"].tobytes() == model.regressors[1].optimizer.v.tobytes()


def _fds_open_on(path):
    target = os.path.realpath(path)
    return [fd for fd in os.listdir("/proc/self/fd")
            if os.path.realpath(f"/proc/self/fd/{fd}") == target]


def test_load_closes_its_file(tmp_path):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd to list open files")
    model, _, _ = _trained_model()
    path = tmp_path / "bundle"
    model.save_bundle(path)
    XDBoostModel.load_bundle(path)
    assert _fds_open_on(path) == []

    # rejected files are closed too, while the error and its frames live on
    manifest, arrays = read_bundle(path)
    bad_version = tmp_path / "bad_version"
    write_bundle(bad_version, {**manifest, "format_version": 99}, arrays)
    truncated = tmp_path / "truncated"
    shutil.copy(path, truncated)
    os.truncate(truncated, 300)
    for rejected in (bad_version, truncated):
        with pytest.raises(DataError) as excinfo:
            XDBoostModel.load_bundle(rejected)
        assert excinfo.value.__traceback__ is not None
        assert _fds_open_on(rejected) == []


def test_load_rejects_version_and_schema_tampering(tmp_path):
    model, _, _ = _trained_model()
    path = tmp_path / "bundle"
    model.save_bundle(path)
    manifest, arrays = read_bundle(path)

    versioned = tmp_path / "bad_version"
    write_bundle(versioned, {**manifest, "format_version": 99}, arrays)
    with pytest.raises(DataError, match="format version 99"):
        XDBoostModel.load_bundle(versioned)

    hashed = tmp_path / "bad_hash"
    manifest["schema"]["n_placeholders"] = 5
    write_bundle(hashed, manifest, arrays)
    with pytest.raises(DataError, match="hash"):
        XDBoostModel.load_bundle(hashed)
