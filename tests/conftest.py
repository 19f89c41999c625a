"""Shared builders for the test suite.

Hand-built schemas and design matrices, click logs built from token cells
through the CSV reader's factorizer, a column's tokens row by row, per-tensor
views of a net's parameters and gradients, an independent forward-pass
implementation, a central finite-difference gradient check, a
reader and writer of model bundle archives for fault injection, a
whole-file click-log reader built on the chunked one, a csv.reader-only
click-log reader with a strategy for awkward CSV files,
the per-row ``json.dumps`` form of ``records_hash``, the forward and
backward passes in the per-table, broadcast form they had before they
were made broadcast-free, an exception that does not survive a pickle
round trip, and a guard that fails any test leaving a child process unreaped.
The forward pass here is written from the model definition, not from the
package source, so the two implementations verify each other. The gradient
check is shared between the unit tests and the acceptance gate.
"""

import csv
import hashlib
import json
import math
import os
import time

import numpy as np
import pytest
from hypothesis import strategies as st

from xdboost import nn
from xdboost.data import (ClickLog, DesignMatrix, FeatureSchema, _Factorizer, _joined,
                          scan_csv)
from xdboost.errors import DataError
from xdboost.models import BaseNet, BaseNetConfig, _carve

SESSION_START = time.monotonic()


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid
                else "the test left a child process running")


class _Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def params(net):
    """Per-tensor views of the net's arena, in layout order."""
    return _carve(net.flat, net._shapes)


def loss_and_gradients(net, X, targets, class_weights=None):
    """Forward and backward pass over X as one batch: (loss, per-tensor
    gradients in layout order)."""
    net._check_matrix(X)
    targets = np.asarray(targets, dtype=np.float64)
    out, cache = net._forward(net._batch(X.cat, X.cont), want_cache=True)
    loss = net.batch_loss(out, targets, class_weights)
    grad = net._backward(cache, net._dlogit(out, targets, class_weights))
    return loss, _carve(grad, net._shapes)


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


def click_log(timestamp, categorical, continuous, label, user_field=None, item_field=None):
    """A ClickLog whose categorical columns are given as cells: the CSV reader's
    factorizer makes each one's codes and tokens, stripping as it does."""
    factors = {name: _Factorizer() for name in categorical}
    codes = {name: factors[name].codes(list(col)) for name, col in categorical.items()}
    return ClickLog(timestamp, codes, {name: tuple(f.table) for name, f in factors.items()},
                    continuous, label, user_field, item_field)


def tokens_of(log, name):
    """The tokens of one categorical column, row by row."""
    return list(map(log.tokens[name].__getitem__, log.categorical[name].tolist()))


def make_records(n, n_users=5, n_items=4, seed=0, timestamps=None, items=None):
    """A ClickLog of n rows; timestamps default to 0..n-1 in order.

    Fields are user, item, categorical c0 and continuous x0; items, when
    given, replace the drawn item tokens. The numeric columns are fresh
    arrays, so tests may overwrite entries in place.
    """
    rng = np.random.default_rng(seed)
    users, drawn, groups, values, labels = [], [], [], [], []
    for _ in range(n):
        users.append(f"u{rng.integers(n_users)}")
        drawn.append(f"i{rng.integers(n_items)}")
        groups.append(f"g{rng.integers(3)}")
        values.append(float(rng.uniform()))
        labels.append(int(rng.integers(2)))
    return click_log(
        np.arange(n, dtype=np.float64) if timestamps is None else timestamps,
        {"user": users, "item": drawn if items is None else items, "c0": groups},
        {"x0": values}, labels, "user", "item")


def log_rows(log):
    """The log as one plain tuple per row, for comparing logs by value:
    (timestamp, user, item, dict of the other categorical fields, continuous
    dict, label), with None for a missing user, item or continuous value."""
    n = len(log)

    def plain(name):
        return [None] * n if name is None else tokens_of(log, name)

    roles = (log.user_field, log.item_field)
    cat = {name: tokens_of(log, name) for name in log.categorical if name not in roles}
    cont = {name: [None if np.isnan(v) else v for v in col.tolist()]
            for name, col in log.continuous.items()}
    return [(ts, user, item, {name: col[i] for name, col in cat.items()},
             {name: col[i] for name, col in cont.items()}, label)
            for i, (ts, user, item, label) in enumerate(zip(
                log.timestamp.tolist(), *map(plain, roles), log.label.tolist()))]


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
    config = BaseNetConfig(embedding_dim=int(rng.integers(1, 5)), hidden_layers=hidden,
                           head=head, batch_size=64)
    schema = make_schema(vocab_sizes, n_cont, n_ph)
    net = BaseNet(schema, config, seed=int(rng.integers(0, 2 ** 31)))
    n_rows = int(rng.integers(1, 8))
    X = make_matrix(rng, schema, n_rows, zero_placeholders=False)
    if head == "sigmoid":
        targets = rng.integers(0, 2, size=n_rows).astype(np.float64)
        weights = (1.0, float(rng.uniform(0.5, 4.0)))
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
    _, grads = loss_and_gradients(net, X, targets, weights)
    worst = 0.0
    for p, g in zip(params(net), grads):
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


# ---- CSV reading -------------------------------------------------------------------

def read_csv(path, field_spec, scoring=False):
    """(header, row texts, ClickLog) of a whole click-log CSV file: the
    chunks of ``data.scan_csv`` joined into one log, and the list of their
    texts, for the tests that hold the reader to ``csv_reader_oracle``."""
    logs, texts = [], []
    with scan_csv(path, field_spec, scoring) as (header, chunks):
        for log, rows in chunks:
            logs.append(log)
            texts += rows
    return header, texts, _joined(logs, field_spec)


def csv_reader_oracle(path, field_spec, scoring=False):
    """``read_csv`` done with csv.reader in one pass over the whole
    file: (header, padded rows, ClickLog), or the same DataError.

    The reference the reader's plain-text path and its chunks are held
    to. Every numeric cell is parsed one by one, and each categorical
    column goes whole through the CSV reader's factorizer; errors name the
    physical line a row starts on.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows, starts = [], []
        start = reader.line_num + 1
        for row in reader:
            if row:
                rows.append(row)
                starts.append(start)
            start = reader.line_num + 1
    required = ([] if scoring else ["timestamp", "label"]) + list(field_spec.to_mapping())
    missing = [name for name in required if name not in header]
    if missing:
        raise DataError(f"missing required columns: {missing}")
    width = len(header)
    for row, lineno in zip(rows, starts):
        if len(row) > width:
            raise DataError(f"line {lineno}: {len(row)} cells, the header has {width}")
        row += [""] * (width - len(row))
    cells = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())

    def finite(text):
        try:
            value = float(text)
        except ValueError:
            return None
        return value if math.isfinite(value) else None

    def parsed(name, parse, what):
        values = [parse(c.strip()) for c in cells[name]]
        if None in values:
            i = values.index(None)
            raise DataError(f"line {starts[i]}: {what}: {cells[name][i].strip()!r}")
        return values

    n = len(rows)
    log = click_log(
        (parsed("timestamp", finite, "bad timestamp") if "timestamp" in cells
         else np.arange(n)),
        {name: cells[name] for name in field_spec.categorical},
        {name: parsed(name, lambda c: finite(c) if c else math.nan,
                      f"bad continuous value in {name!r}")
         for name in field_spec.continuous},
        (parsed("label", {"0": 0, "1": 1}.get, "non-binary label") if "label" in cells
         else np.zeros(n)),
        field_spec.user_field, field_spec.item_field)
    return header, rows, log


def csv_writer_line(cells):
    """The line csv.writer writes for cells, line end included."""
    class Echo:
        write = staticmethod(str)
    return csv.writer(Echo()).writerow(cells)


def same_log(a, b):
    """Whether two logs hold the same columns byte for byte and the same
    token tables."""
    def columns(log):
        return [log.timestamp, log.label, *log.categorical.values(), *log.continuous.values()]

    if ((a.user_field, a.item_field) != (b.user_field, b.item_field)
            or list(a.categorical) != list(b.categorical) or a.tokens != b.tokens
            or list(a.continuous) != list(b.continuous)):
        return False
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(columns(a), columns(b)))


# Cell values by column kind: the first list is well-formed, the second
# holds what a reader must fill, reject or quote.
_CELLS = {
    "timestamp": (["0", "3", "2.5", "-4e2"],
                  ["", " 7 ", "nan", "inf", "-inf", "1e999", "noon", "1_0", "\u20037"]),
    "continuous": (["0.25", "1", "-0.5", "1e-7"],
                   ["", " ", " 2.5\t", "nan", "-inf", "1e999", "cheap", "\x1c1", "0x1"]),
    "label": (["0", "1"], [" 1", "2", "", "1.0", "01"]),
    "token": (["u1", "g2", "i_3"],
              ["", " ", " u3 ", "a,b", "x\ny", 'q"t', "z\r\nw", "\u00e9", "\x1c", "w\r", "n\0l"]),
}


@st.composite
def click_csv_texts(draw, columns, continuous=()):
    """CSV text over a shuffle of columns, sometimes one short or one extra.

    Half the files are tame: well-formed cells, whole rows, no quotes, LF
    or CRLF line ends and blank lines. The rest add bad and blank cells,
    cells that need quotes, quoted cells that do not, short and long rows
    and bare-CR line ends.
    """
    tame = draw(st.booleans())
    header = draw(st.permutations(columns))
    if draw(st.sampled_from([False] * 6 + [True])):
        header = header[1:]
    if draw(st.sampled_from([False] * 4 + [True])):
        header = header + ["extra"]
    endings = ["\n", "\r\n"] if tame else ["\n", "\r\n", "\r"]

    def kind(name):
        if name in ("timestamp", "label"):
            return name
        return "continuous" if name in continuous else "token"

    def cell(text):
        needs = any(c in text for c in ',"\r\n')
        if needs or (not tame and draw(st.sampled_from([False] * 5 + [True]))):
            return '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        lines += [""] * draw(st.sampled_from([0, 0, 0, 1, 2]))
        cells = []
        for name in header:
            good, bad = _CELLS[kind(name)]
            cells.append(draw(st.sampled_from(good if tame else good * 3 + bad)))
        if not tame:
            change = draw(st.sampled_from([0] * 6 + [-2, -1, 1]))
            cells = cells[:len(cells) + change] if change < 0 else cells + ["x"] * change
        lines.append(",".join(cell(c) for c in cells))
    text = "".join(line + draw(st.sampled_from(endings)) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def records_hash_oracle(log):
    """records_hash as one json.dumps per row, the form it had while the
    log was a list of rows."""
    roles = (log.user_field, log.item_field)
    cat = [(name, tokens_of(log, name)) for name in sorted(log.categorical) if name not in roles]
    cont = [(name, [None if math.isnan(v) else v for v in col.tolist()])
            for name, col in sorted(log.continuous.items())]
    n = len(log)
    users, items = ([None] * n if role is None else tokens_of(log, role) for role in roles)
    h = hashlib.sha256()
    for i, (ts, user, item, label) in enumerate(zip(log.timestamp.tolist(), users, items,
                                                    log.label.tolist())):
        payload = [ts, user, item, [[name, col[i]] for name, col in cat],
                   [[name, col[i]] for name, col in cont], label]
        h.update(json.dumps(payload).encode())
    return h.hexdigest()


def broadcast_forward(net, cat, cont):
    """BaseNet._forward as it was with k-wide broadcasts: the continuous
    fields scaled by ``cont[:, :, None]``, each categorical field looked up
    in its own tables. Returns (outputs, V, total)."""
    n, k, n_cat = cont.shape[0], net.config.embedding_dim, net.n_cat
    emb = np.empty((n, n_cat, k))
    for j, table in enumerate(net.embeddings):
        emb[:, j] = table[cat[:, j]]
    if net.n_cont:
        V = np.empty((n, net.n_fields, k))
        V[:, :n_cat] = emb
        np.multiply(cont[:, :, None], net.cont_proj, out=V[:, n_cat:])
    else:
        V = emb
    total = np.einsum("nfk->nk", V) if k > 1 else V.sum(axis=1)
    fm = 0.5 * ((total * total).sum(axis=1) - (V * V).sum(axis=(1, 2)))
    linear = np.full(n, net.bias[0])
    for j, table in enumerate(net.lin_cat):
        linear += table[cat[:, j]]
    if net.n_cont:
        linear += cont @ net.lin_cont
    h = V.reshape(n, net.n_fields * k)
    for layer in net.layers:
        h, _ = layer.forward(h)
    return nn.activation_apply(net.config.head, h[:, 0] + fm + linear), V, total


def broadcast_backward(net, cat, cache, dlogit):
    """BaseNet._backward as it was with the pairwise term's gradient
    broadcast as ``total[:, None, :] - V`` and one ``np.add.at`` per
    embedding table and per first-order table."""
    V, total, caches, (cont, _) = cache
    n, k = V.shape[0], net.config.embedding_dim
    grad = np.zeros_like(net.flat)
    demb, dlin_cat, (dcont_proj, dlin_cont, dbias), dlayers = net._group(grad)
    dh = dlogit[:, None]
    for layer, layer_cache, (dw, db) in zip(reversed(net.layers), reversed(caches),
                                            reversed(dlayers)):
        dh, dw[...], db[...] = layer.backward(layer_cache, dh)
    dV = dh.reshape(n, net.n_fields, k)
    pairwise = total[:, None, :] - V
    pairwise *= dlogit[:, None, None]
    dV += pairwise
    for j in range(net.n_cat):
        np.add.at(demb[j], cat[:, j], dV[:, j, :])
        np.add.at(dlin_cat[j], cat[:, j], dlogit)
    if net.n_cont:
        dcont_proj[...] = np.einsum("bgk,bg->gk", dV[:, net.n_cat:, :], cont)
        dlin_cont[...] = cont.T @ dlogit
    dbias[0] = dlogit.sum()
    return grad
