"""Shared builders for the test suite.

Hand-built schemas and design matrices, a click-log factory, an independent
forward-pass implementation, a central finite-difference gradient check and
a reader and writer of model bundle archives for fault injection.
The forward pass here is written from the model definition, not from the
package source, so the two implementations verify each other. The gradient
check is shared between the unit tests and the acceptance gate.
"""

import json
import time

import numpy as np

from xdboost.data import ClickLog, DesignMatrix, FeatureSchema
from xdboost.models import BaseNet, BaseNetConfig

SESSION_START = time.monotonic()


def make_schema(vocab_sizes=(3, 2), n_cont=1, n_placeholders=0, normalize=False):
    """Schema with categorical fields f0.. and continuous fields x0..

    vocab_sizes counts the real tokens per categorical field; the OOV slot
    is implicit. Continuous stats are (0, 1, 0.5) so normalization is the
    identity on [0, 1].
    """
    cat_fields = [f"f{j}" for j in range(len(vocab_sizes))]
    vocab = {name: {f"t{t}": t for t in range(size)}
             for name, size in zip(cat_fields, vocab_sizes)}
    cont_fields = [f"x{g}" for g in range(n_cont)]
    cont_stats = {name: (0.0, 1.0, 0.5) for name in cont_fields}
    user = cat_fields[0] if cat_fields else None
    item = cat_fields[1] if len(cat_fields) > 1 else None
    return FeatureSchema(cat_fields, vocab, cont_fields, cont_stats,
                         n_placeholders, user, item, normalize)


def make_matrix(rng, schema, n_rows, zero_placeholders=True):
    """Random feature rows valid under the schema (OOV indices included)."""
    cat = np.zeros((n_rows, len(schema.cat_fields)), dtype=np.int64)
    for j, name in enumerate(schema.cat_fields):
        cat[:, j] = rng.integers(0, schema.vocab_size(name), size=n_rows)
    n_cont = len(schema.cont_fields) + schema.n_placeholders
    cont = rng.uniform(-1.0, 1.0, size=(n_rows, n_cont))
    if schema.n_placeholders and zero_placeholders:
        cont[:, cont.shape[1] - schema.n_placeholders:] = 0.0
    return DesignMatrix(cat, np.ascontiguousarray(cont), schema.n_placeholders)


def make_records(n, n_users=5, n_items=4, seed=0, timestamps=None):
    """A ClickLog of n rows; timestamps default to 0..n-1 in order.

    Fields are user, item, categorical c0 and continuous x0. The columns
    are fresh arrays, so tests may overwrite entries in place.
    """
    rng = np.random.default_rng(seed)
    users, items, groups, values, labels = [], [], [], [], []
    for _ in range(n):
        users.append(f"u{rng.integers(n_users)}")
        items.append(f"i{rng.integers(n_items)}")
        groups.append(f"g{rng.integers(3)}")
        values.append(float(rng.uniform()))
        labels.append(int(rng.integers(2)))
    return ClickLog(
        timestamp=np.arange(n, dtype=np.float64) if timestamps is None else timestamps,
        user_id=users, item_id=items, categorical={"c0": groups},
        continuous={"x0": values}, label=labels)


def log_rows(log):
    """The log as one plain tuple per row, for comparing logs by value:
    (timestamp, user, item, categorical dict, continuous dict, label), with
    None for a missing continuous value."""
    n = len(log)

    def plain(col):
        return [None] * n if col is None else col.tolist()

    cat = {name: col.tolist() for name, col in log.categorical.items()}
    cont = {name: [None if np.isnan(v) else v for v in col.tolist()]
            for name, col in log.continuous.items()}
    return [(ts, user, item, {name: col[i] for name, col in cat.items()},
             {name: col[i] for name, col in cont.items()}, label)
            for i, (ts, user, item, label) in enumerate(zip(
                plain(log.timestamp), plain(log.user_id), plain(log.item_id),
                plain(log.label)))]


def oracle_forward(net, X):
    """Recompute head outputs straight from the parameter tensors.

    Returns (outputs, logits, relu preactivations). Kept deliberately
    independent of BaseNet._forward: per-field vectors are stacked one by
    one, the pairwise term is the halved square-of-sum identity, and the
    MLP is replayed layer by layer.
    """
    n = X.n_rows
    k = net.config.embedding_dim
    parts = [net.embeddings[j][X.cat[:, j]] for j in range(net.n_cat)]
    parts += [X.cont[:, g, None] * net.cont_proj[g][None, :]
              for g in range(net.n_cont)]
    V = np.stack(parts, axis=1) if parts else np.zeros((n, 0, k))
    total = V.sum(axis=1)
    fm = 0.5 * ((total ** 2).sum(axis=1) - (V ** 2).sum(axis=(1, 2)))

    linear = np.full(n, net.bias[0])
    for j in range(net.n_cat):
        linear += net.lin_cat[j][X.cat[:, j]]
    if net.n_cont:
        linear += X.cont @ net.lin_cont

    h = V.reshape(n, net.n_fields * k)
    preacts = []
    for layer in net.layers:
        z = h @ layer.weights.T + layer.bias
        if layer.activation == "relu":
            preacts.append(z)
            h = np.maximum(z, 0.0)
        else:
            h = z
    logit = h[:, 0] + fm + linear
    if net.config.head == "sigmoid":
        out = 1.0 / (1.0 + np.exp(-logit))
    else:
        out = np.tanh(logit)
    return out, logit, preacts


def random_net_case(rng, head):
    """One random (schema, config, batch) triple plus targets and weights."""
    n_cat = int(rng.integers(0, 4))
    n_cont = int(rng.integers(0, 3))
    n_ph = int(rng.integers(0, 3))
    if n_cat + n_cont + n_ph == 0:
        n_cat = 1
    vocab_sizes = [int(rng.integers(1, 5)) for _ in range(n_cat)]
    hidden = tuple(int(rng.integers(2, 7)) for _ in range(int(rng.integers(0, 3))))
    config = BaseNetConfig(
        embedding_dim=int(rng.integers(1, 5)), hidden_layers=hidden,
        head=head, loss="weighted_bce" if head == "sigmoid" else "mae",
        batch_size=64)
    schema = make_schema(vocab_sizes, n_cont, n_ph)
    net = BaseNet(schema, config, seed=int(rng.integers(0, 2 ** 31)))
    n_rows = int(rng.integers(1, 8))
    X = make_matrix(rng, schema, n_rows, zero_placeholders=False)
    if head == "sigmoid":
        targets = rng.integers(0, 2, size=n_rows).astype(np.float64)
        weights = {0: 1.0, 1: float(rng.uniform(0.5, 4.0))}
    else:
        targets = rng.uniform(-0.95, 0.95, size=n_rows)
        weights = None
    return net, X, targets, weights


def well_conditioned(net, X, targets):
    """True when no finite-difference step can cross a kink or a clip.

    Rejects relu preactivations within 1e-3 of zero, logits near the
    probability-clip region, and MAE residuals within 1e-3 of the absolute
    value's kink; rejected triples are resampled by the caller.
    """
    out, logit, preacts = oracle_forward(net, X)
    for z in preacts:
        if z.size and np.min(np.abs(z)) < 1e-3:
            return False
    if np.max(np.abs(logit)) > 12.0:
        return False
    if net.config.head == "tanh" and np.min(np.abs(out - targets)) < 1e-3:
        return False
    return True


def fd_gradcheck(net, X, targets, weights, rng, step=1e-5, coord_cap=24):
    """Worst guarded relative error between analytic and central FD grads.

    Every tensor is checked on up to coord_cap randomly chosen coordinates
    (all of them when the tensor is small); the error is
    |fd - analytic| / max(1, |fd|, |analytic|).
    """
    _, grads = net.loss_and_gradients(X, targets, weights)
    worst = 0.0
    for p, g in zip(net.params(), grads):
        flat_p = p.reshape(-1)
        flat_g = np.asarray(g).reshape(-1)
        if p.size <= coord_cap:
            coords = np.arange(p.size)
        else:
            coords = rng.choice(p.size, size=coord_cap, replace=False)
        for j in coords:
            orig = flat_p[j]
            flat_p[j] = orig + step
            up = net.eval_loss(X, targets, weights)
            flat_p[j] = orig - step
            down = net.eval_loss(X, targets, weights)
            flat_p[j] = orig
            fd = (up - down) / (2.0 * step)
            err = abs(fd - flat_g[j]) / max(1.0, abs(fd), abs(flat_g[j]))
            worst = max(worst, err)
    return worst


def read_bundle(path):
    """(manifest dict, {entry name: array}) of a saved model bundle."""
    with open(path, "rb") as fh, np.load(fh) as archive:
        arrays = dict(archive)
    return json.loads(bytes(arrays.pop("manifest")).decode()), arrays


def write_bundle(path, manifest, arrays):
    """Write a bundle archive; manifest is a dict or raw bytes."""
    raw = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
    with open(path, "wb") as fh:
        np.savez(fh, manifest=np.frombuffer(raw, dtype=np.uint8), **arrays)
