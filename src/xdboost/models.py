"""Base networks for classification and error regression.

One body, two heads: shared per-field embeddings feed a first-order linear
term, a pairwise interaction term (sum of dot products over all field
pairs) and an MLP; the three scores are summed and squashed by the head.
The classifier uses a sigmoid head with class-weighted binary
cross-entropy; the error regressor uses a tanh head with mean absolute
error, since residuals of a probability against a binary label live in
(-1, 1). Continuous inputs (including any placeholder columns) are
projected into embedding space by a learned per-field vector scaled by the
value, so they take part in the pairwise interactions too.

Every parameter tensor of a net is a view into one contiguous float64
vector, its parameter arena, in one fixed layout. The gradient of a batch
is a vector in the same layout, and Adam's two moment vectors match it
too, so an optimizer step is one fused update over the whole vector and
an early-stopping snapshot is one copy per vector. The categorical tables
lead the layout, so one scatter-add over flat bucket indices fills the
gradient of every embedding and first-order table. A model bundle stores
each net as the same three vectors.

Rows reach the forward pass as prepared batches: each batch's continuous
columns plus the arena index of every categorical parameter its rows
read. One gather from the arena with those indices replaces the per-table
lookups, and the backward pass scatters into the same indices. A fit
prepares its validation batches once and, unless batches are shuffled,
its training batches once too, and reuses them every epoch; prediction
prepares each batch as it goes. The prepared form changes no bit of any
output: every reduction adds in the order the per-table form did.
Elementwise ops give the same bits in any layout, so they run on
(rows, fields * k) operands, not as broadcasts whose innermost loop is
only k long, which numpy runs several times slower.

All gradients are hand-derived; the tests check them against central
finite differences.
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, nn
from .data import DesignMatrix, FeatureSchema
from .errors import ConfigError, DataError, TrainingError, UsageError

# The classifier's head and the error regressors'; the loss follows the head.
HEADS = ("sigmoid", "tanh")


@dataclass
class BaseNetConfig:
    """Hyperparameters shared by the classifier and the error regressors."""

    embedding_dim: int = 64
    hidden_layers: tuple[int, ...] = (128, 128, 128)
    head: str = "sigmoid"
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 20
    patience: int = 3
    batch_size: int = 1024
    shuffle: bool = False

    def __post_init__(self):
        self.hidden_layers = tuple(self.hidden_layers)
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be positive")
        if any(h < 1 for h in self.hidden_layers):
            raise ConfigError(f"hidden_layers must be positive sizes, got {self.hidden_layers}")
        if self.head not in HEADS:
            raise ConfigError(f"unknown head {self.head!r}")
        if self.epochs < 0 or self.patience < 0 or self.batch_size < 1:
            raise ConfigError("epochs/patience must be >= 0 and batch_size >= 1")
        # written so that NaN fails them
        for name in ("learning_rate", "epsilon"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, "
                                  f"got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")

    def as_classifier(self):
        return dataclasses.replace(self, head="sigmoid")

    def as_regressor(self):
        return dataclasses.replace(self, head="tanh")

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["hidden_layers"] = list(self.hidden_layers)
        return d

    @classmethod
    def from_dict(cls, d):
        """The inverse of to_dict. Older bundles also store ``loss`` and
        ``seed`` in each config; both are ignored, since the loss follows
        the head and each net's seed is stored beside its config."""
        return cls(**{k: v for k, v in d.items() if k not in ("loss", "seed")})


@dataclass
class FitHistory:
    """Per-epoch diagnostics from one fit call.

    best_epoch -1 means no epoch beat the incoming parameters (relevant for
    warm-started refits, which are rolled back in that case).
    """

    epochs_run: int = 0
    best_epoch: int = -1
    initial_val_loss: float | None = None
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)

    def to_dict(self):
        return dataclasses.asdict(self)


def _carve(buffer, shapes):
    """Consecutive views of a flat vector, one per shape, in order."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[start:start + size].reshape(shape))
        start += size
    return views


class BaseNet:
    """One network instance bound to a feature schema.

    Every parameter tensor is a view into the vector ``flat``, laid out in
    one fixed order: per-field embedding tables, per-field first-order
    weights, continuous projections, first-order continuous weights, the
    global bias, then each MLP layer's weights and bias. Gradients come as
    one vector in the same layout, and the optimizer's ``m`` and ``v``
    mirror it, so one Adam call updates every tensor. Construction draws
    the random initial values in a fixed order (embeddings, continuous
    projection, dense weights), so the same seed gives the same bits.

    Training, validation and prediction all run on batches prepared by
    ``_batch``; ``fit`` checks and prepares its validation matrix once,
    and its training batches once when ``config.shuffle`` is off.
    """

    def __init__(self, schema: FeatureSchema, config: BaseNetConfig, seed=0):
        if not schema.cat_fields and not schema.cont_fields and not schema.n_placeholders:
            raise ConfigError("schema declares no fields")
        self.schema = schema
        self.config = config
        self.seed = seed
        if seed < 0:
            raise ConfigError("seed must be a nonnegative integer")

        k = config.embedding_dim
        self.n_cat = len(schema.cat_fields)
        self.n_cont = len(schema.cont_fields) + schema.n_placeholders
        self.n_fields = self.n_cat + self.n_cont

        vocab = [schema.vocab_size(name) for name in schema.cat_fields]
        starts = np.cumsum([0, *vocab])[:-1]
        self._emb_starts, self._lin_starts = k * starts, k * sum(vocab) + starts
        self._n_cat_params = (k + 1) * sum(vocab)
        dims = [self.n_fields * k, *config.hidden_layers, 1]
        self._shapes = ([(v, k) for v in vocab] + [(v,) for v in vocab]
                        + [(self.n_cont, k), (self.n_cont,), (1,)]
                        + [shape for d_in, d_out in zip(dims, dims[1:])
                           for shape in ((d_out, d_in), (d_out,))])
        self.flat = np.zeros(sum(math.prod(shape) for shape in self._shapes))
        (self.embeddings, self.lin_cat, (self.cont_proj, self.lin_cont, self.bias),
         layer_params) = self._group(self.flat)

        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0]))
        for table in self.embeddings:
            # Fan-scaled like a (vocab, dim) dense weight. The small rows keep
            # early pairwise-interaction scores (and with them the raw head
            # inputs) near zero, so heads start unsaturated.
            table[...] = nn.glorot_uniform(rng, table.shape, *table.shape)
        self.cont_proj[...] = nn.glorot_uniform(rng, self.cont_proj.shape, self.n_cont, k)
        self.layers = [nn.DenseLayer(w, b, "relu", rng) for w, b in layer_params[:-1]]
        self.layers.append(nn.DenseLayer(*layer_params[-1], "identity", rng))

        self.optimizer = nn.Adam(self.flat, config.learning_rate,
                                 config.beta1, config.beta2, config.epsilon)
        self._shuffle_rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))

    def _group(self, buffer):
        """Views of a layout-shaped vector grouped by role: (embedding tables,
        first-order tables, [cont_proj, lin_cont, bias], per-layer
        [weights, bias] pairs)."""
        views = _carve(buffer, self._shapes)
        n = self.n_cat
        dense = views[2 * n + 3:]
        return (views[:n], views[n:2 * n], views[2 * n:2 * n + 3],
                list(zip(dense[::2], dense[1::2])))

    # ---- forward / backward -------------------------------------------------

    def _check_matrix(self, X: DesignMatrix):
        if X.cat.shape[1] != self.n_cat or X.cont.shape[1] != self.n_cont:
            raise DataError(
                f"matrix shape ({X.cat.shape[1]} cat, {X.cont.shape[1]} cont) does not match "
                f"schema ({self.n_cat} cat, {self.n_cont} cont incl. placeholders)")
        if X.n_placeholders != self.schema.n_placeholders:
            raise DataError(
                f"matrix has {X.n_placeholders} placeholder columns, schema expects "
                f"{self.schema.n_placeholders}")
        if X.n_rows:
            for j, name in enumerate(self.schema.cat_fields):
                col = X.cat[:, j]
                if col.min() < 0 or col.max() >= self.schema.vocab_size(name):
                    raise DataError(f"categorical index out of range in field {name!r}")

    def _batch(self, cat, cont):
        """The prepared form of a batch of rows: (cont, idx).

        ``idx`` holds the arena index of every categorical parameter the
        rows read, embedding entries (row, field, c) row-major, then
        first-order weights (field, row) field-major. The forward pass
        gathers them from ``flat`` in one call and the backward pass
        scatters into the same buckets of the gradient.
        """
        (n, n_cat), k = cat.shape, self.config.embedding_dim
        idx = np.empty(n * n_cat * (k + 1), dtype=np.int64)
        split = n * n_cat * k
        starts = np.repeat(self._emb_starts + k * cat, k, axis=1)
        np.add(starts, np.tile(np.arange(k), n_cat), out=idx[:split].reshape(n, n_cat * k))
        np.add(self._lin_starts[:, None], cat.T, out=idx[split:].reshape(n_cat, n))
        return cont, idx

    def _batches(self, X):
        """Prepared batches of X's rows in order, ``batch_size`` rows each,
        built lazily; X is checked against the schema first."""
        self._check_matrix(X)
        bs = self.config.batch_size
        return (self._batch(X.cat[lo:lo + bs], X.cont[lo:lo + bs])
                for lo in range(0, X.n_rows, bs))

    def _forward(self, batch, want_cache):
        cont, idx = batch
        n, k, n_cat = cont.shape[0], self.config.embedding_dim, self.n_cat
        split = n * n_cat * k
        gathered = self.flat[idx]
        V = np.empty((n, self.n_fields, k))
        V[:, :n_cat] = gathered[:split].reshape(n, n_cat, k)
        np.multiply(np.repeat(cont, k, axis=1).reshape(n, self.n_cont, k), self.cont_proj,
                    out=V[:, n_cat:])

        # Bit for bit V.sum(axis=1), which adds the fields one by one into
        # zeros, as einsum does five times faster; at k == 1 the fields are
        # the contiguous axis, and there numpy sums them pairwise.
        total = np.einsum("nfk->nk", V) if k > 1 else V.sum(axis=1)
        fm = 0.5 * ((total * total).sum(axis=1) - (V * V).sum(axis=(1, 2)))

        linear = np.full(n, self.bias[0])
        for w in gathered[split:].reshape(n_cat, n):
            linear += w
        linear += cont @ self.lin_cont

        h = V.reshape(n, self.n_fields * k)
        caches = []
        for layer in self.layers:
            h, cache = layer.forward(h)
            caches.append(cache)
        logit = h[:, 0] + fm + linear
        out = nn.activation_apply(self.config.head, logit)
        if not want_cache:
            return out, None
        return out, (V, total, caches, batch)

    def _backward(self, cache, dlogit):
        """Gradient of the scalar loss given dL/dlogit, as one vector laid
        out like ``flat``."""
        V, total, caches, (cont, idx) = cache
        n, k = V.shape[0], self.config.embedding_dim
        grad = np.zeros_like(self.flat)
        _, _, (dcont_proj, dlin_cont, dbias), dlayers = self._group(grad)

        dh = dlogit[:, None]
        for layer, layer_cache, (dw, db) in zip(reversed(self.layers), reversed(caches),
                                                reversed(dlayers)):
            dh, dw[...], db[...] = layer.backward(layer_cache, dh)

        # dh is a fresh array, so the pairwise term's gradient is added in place
        pairwise = np.tile(total, self.n_fields) - V.reshape(n, self.n_fields * k)
        pairwise *= dlogit[:, None]
        dh += pairwise
        dV = dh.reshape(n, self.n_fields, k)

        # The categorical tables lead the layout, embeddings first, so one
        # scatter into the buckets the forward pass gathered from fills
        # them all. Each bucket belongs to one field and receives its rows
        # in order, so the sums equal a per-table scatter bit for bit.
        kernels.scatter_add_scalars(
            grad[:self._n_cat_params], idx,
            np.concatenate([dV[:, :self.n_cat, :].ravel(), np.tile(dlogit, self.n_cat)]))
        dcont_proj[...] = np.einsum("bgk,bg->gk", dV[:, self.n_cat:, :], cont)
        dlin_cont[...] = cont.T @ dlogit
        dbias[0] = dlogit.sum()
        return grad

    def _dlogit(self, out, targets, class_weights):
        if self.config.head == "sigmoid":
            return nn.bce_dlogit(out, targets, class_weights)
        return nn.mae_dlogit_tanh(out, targets)

    def batch_loss(self, out, targets, class_weights=None):
        if self.config.head == "sigmoid":
            return nn.weighted_bce_loss(out, targets, class_weights)
        return nn.mae_loss(out, targets)

    # ---- prediction ---------------------------------------------------------

    def _predict(self, batches):
        outputs = [self._forward(batch, want_cache=False)[0] for batch in batches]
        return np.concatenate(outputs) if outputs else np.zeros(0)

    @np.errstate(over="ignore", invalid="ignore")
    def predict_matrix(self, X: DesignMatrix):
        """Per-row head outputs; pure, no state is mutated. A row that
        overflows scores NaN or an infinity without a warning; callers
        check the outputs."""
        return self._predict(self._batches(X))

    def eval_loss(self, X, targets, class_weights=None):
        """Loss of the head outputs on X. Inside fit, X is the validation
        matrix already prepared as a list of batches."""
        batches = self._batches(X) if isinstance(X, DesignMatrix) else X
        return self.batch_loss(self._predict(batches), np.asarray(targets, np.float64),
                               class_weights)

    # ---- training -----------------------------------------------------------

    def _check_targets(self, targets):
        if self.config.head == "sigmoid":
            if not np.isin(targets, (0.0, 1.0)).all():
                raise DataError("classification targets must be binary")
        elif (np.abs(targets) > 1.0).any():
            raise DataError("regression targets must lie in [-1, 1]")

    @np.errstate(over="ignore", invalid="ignore")
    def fit(self, X, targets, class_weights=None, val=None):
        """Mini-batch training with optional early stopping.

        Batches follow chronological row order unless config.shuffle is on;
        the last short batch is kept. Unshuffled batches are prepared once
        and reused every epoch. When a validation pair is given, the
        best parameters seen (and their optimizer state) are restored at
        the end; the incoming parameters count as a candidate, so a fit
        that never improves the validation loss is a no-op. Returns a
        FitHistory; the net is updated in place. A fit that diverges raises
        a TrainingError at its first non-finite batch loss, whatever the
        warning filters, as numpy's overflow warnings are off inside.
        """
        self._check_matrix(X)
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != (X.n_rows,):
            raise DataError(f"got {targets.shape[0]} targets for {X.n_rows} rows")
        self._check_targets(targets)

        history = FitHistory()
        if self.config.epochs == 0 or X.n_rows == 0:
            return history

        bs = self.config.batch_size

        def epoch_batches():
            order = np.arange(X.n_rows)
            if self.config.shuffle:
                self._shuffle_rng.shuffle(order)
            for start in range(0, X.n_rows, bs):
                rows = order[start:start + bs]
                yield self._batch(X.cat[rows], X.cont[rows]), targets[rows]

        best_val = math.inf
        best_state = None
        if val is not None:
            # prepared (and so checked) once, then evaluated every epoch
            val_batches = list(self._batches(val[0]))
            val_targets = np.asarray(val[1], dtype=np.float64)
            best_val = self.eval_loss(val_batches, val_targets, class_weights)
            best_state = self._snapshot()
            history.initial_val_loss = best_val
        # Unshuffled batches are the same every epoch, so they are prepared
        # once; shuffled ones are prepared in each epoch's order.
        reused = (list(epoch_batches())
                  if not self.config.shuffle and self.config.epochs > 1 else None)
        bad_epochs = 0
        for epoch in range(self.config.epochs):
            loss_sum = 0.0
            for i, (batch, batch_targets) in enumerate(reused or epoch_batches()):
                out, cache = self._forward(batch, want_cache=True)
                loss = self.batch_loss(out, batch_targets, class_weights)
                if not math.isfinite(loss):
                    raise TrainingError(
                        f"non-finite training loss at epoch {epoch}, batch row {i * bs}")
                grad = self._backward(cache, self._dlogit(out, batch_targets, class_weights))
                self.optimizer.step(self.flat, grad)
                loss_sum += loss * len(batch_targets)
            history.epochs_run = epoch + 1
            history.train_losses.append(loss_sum / X.n_rows)

            if val is not None:
                val_loss = self.eval_loss(val_batches, val_targets, class_weights)
                history.val_losses.append(val_loss)
                if val_loss < best_val:
                    best_val = val_loss
                    best_state = self._snapshot()
                    history.best_epoch = epoch
                    bad_epochs = 0
                else:
                    bad_epochs += 1
                    if bad_epochs >= self.config.patience:
                        break
        if best_state is not None:
            self._restore(best_state)
        return history

    def fit_state(self):
        """Copies of all a later fit starts from: arena, Adam state, shuffle RNG."""
        return *self._snapshot(), self._shuffle_rng.bit_generator.state

    def load_fit_state(self, state):
        """Resume from a fit_state (arena, (adam_t, m, v), rng_state), a
        checkpoint's or a bundle's: the one check of a saved net. A vector
        of another shape than the arena, or holding a NaN or infinity, is a
        UsageError; an rng_state of None keeps the seeded shuffle RNG."""
        flat, (_, m, v), rng_state = state
        for name, vector in (("arena", flat), ("Adam m", m), ("Adam v", v)):
            if np.shape(vector) != self.flat.shape:
                raise UsageError(f"the checkpoint's {name} has {np.size(vector)} entries in "
                                 f"shape {np.shape(vector)}, the net's arena {self.flat.size}")
            if not np.isfinite(vector).all():
                raise UsageError(f"the checkpoint's {name} holds a NaN or infinite value")
        self._restore(state)
        if rng_state is not None:
            self._shuffle_rng.bit_generator.state = rng_state

    def _snapshot(self):
        return self.flat.copy(), self.optimizer.state_copy()

    def _restore(self, state):
        self.flat[...] = state[0]
        self.optimizer.load_state(state[1])
