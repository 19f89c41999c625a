"""Synthetic click-log generator for experiments and the test suite.

Rows carry six categorical fields (user, item, four context fields) and two
continuous fields. The click probability is the sigmoid of a structured
score: a sparse set of pairwise interactions between latent token vectors,
a per-token bias on one "segment" field, and a small linear effect of the
continuous values. Small training samples leave much of that structure
unlearned, which is exactly the regime the boosting loop targets.

The generator can also plant cold-start items: a chosen fraction of the
test-region rows get item ids that never occur earlier in the log. Their
labels are still drawn from the structural model (the novel items have
their own latent vectors), so they are genuinely scoreable, just unseen.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .atomic import replacing
from .data import CHUNK_ROWS, ClickLog, FieldSpec
from .errors import ConfigError

USER_FIELD = "user"
ITEM_FIELD = "item"
CONTEXT_FIELDS = ("c0", "c1", "c2", "c3")
SEGMENT_FIELD = "c3"
CONTINUOUS_FIELDS = ("x0", "x1")

# (field a, field b) pairs whose latent vectors interact; indices refer to
# [user, item, c0, c1, c2, c3]. Three of the fifteen possible pairs.
INTERACTING_PAIRS = ((0, 1), (1, 2), (3, 4))


@dataclass
class SynthConfig:
    """Knobs for the generator.

    The defaults put most of the signal into the segment field's per-token
    bias with a thinner interaction layer on top, giving a CTR a little
    under one half. That mix is deliberately hard for a small network fed a
    small sub-training slice, so boosted and unboosted runs separate.
    """

    n_rows: int = 20000
    vocab_size: int = 50
    latent_dim: int = 4
    interaction_scale: float = 0.25
    segment_scale: float = 1.6
    continuous_scale: float = 0.5
    base_logit: float = -0.7
    cold_start_fraction: float = 0.0
    test_fraction: float = 0.20
    seed: int = 0

    def __post_init__(self):
        if self.n_rows < 1:
            raise ConfigError("n_rows must be positive")
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must be at least 2")
        if self.latent_dim < 1:
            raise ConfigError(f"latent_dim must be positive, got {self.latent_dim}")
        for name in ("interaction_scale", "segment_scale", "continuous_scale", "base_logit"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.cold_start_fraction <= 1.0:
            raise ConfigError("cold_start_fraction must lie in [0, 1]")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")

    def to_dict(self):
        return dataclasses.asdict(self)


def field_spec():
    """Field declaration matching the generated columns."""
    return FieldSpec(user_field=USER_FIELD, item_field=ITEM_FIELD,
                     categorical=[USER_FIELD, ITEM_FIELD, *CONTEXT_FIELDS],
                     continuous=list(CONTINUOUS_FIELDS))


def field_mapping():
    spec = field_spec()
    return spec.to_mapping()


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def generate_records(config: SynthConfig):
    """Build the log; returns (ClickLog in timestamp order, meta dict).

    Cold-start planting targets the trailing floor(test_fraction * n) rows,
    which is exactly the region a chronological split with the same test
    fraction will call the test set.
    """
    n = config.n_rows
    v = config.vocab_size
    dim = config.latent_dim

    n_test = int(np.floor(config.test_fraction * n))
    n_novel_rows = int(round(config.cold_start_fraction * n_test))

    struct = _rng(config.seed, 0)
    # Latent token vectors scaled so each pairwise dot product has roughly
    # unit variance; the item table gets extra rows for planted novel items.
    latent_sd = dim ** -0.25
    latents = [struct.normal(0.0, latent_sd, size=(v, dim)) for _ in range(6)]
    novel_latents = struct.normal(0.0, latent_sd, size=(max(n_novel_rows, 1), dim))
    segment_bias = config.segment_scale * struct.standard_normal(v)
    cont_weights = config.continuous_scale * struct.normal(0.0, 1.0, size=2)

    assign = _rng(config.seed, 1)
    tokens = assign.integers(0, v, size=(n, 6))
    cont_values = assign.uniform(0.0, 1.0, size=(n, 2))

    novel_rows = np.zeros(n, dtype=bool)
    if n_novel_rows:
        chooser = _rng(config.seed, 2)
        picked = chooser.choice(n_test, size=n_novel_rows, replace=False)
        novel_rows[n - n_test + picked] = True

    item_vectors = latents[1][tokens[:, 1]]
    if n_novel_rows:
        item_vectors[novel_rows] = novel_latents[:n_novel_rows]

    score = np.full(n, config.base_logit)
    for a, b in INTERACTING_PAIRS:
        va = item_vectors if a == 1 else latents[a][tokens[:, a]]
        vb = item_vectors if b == 1 else latents[b][tokens[:, b]]
        score += config.interaction_scale * (va * vb).sum(axis=1)
    score += segment_bias[tokens[:, 2 + CONTEXT_FIELDS.index(SEGMENT_FIELD)]]
    score += (cont_values - 0.5) @ cont_weights

    probs = 1.0 / (1.0 + np.exp(-score))
    labels = (_rng(config.seed, 3).uniform(size=n) < probs).astype(np.int64)

    # the draws are the codes; planted items take codes past the vocabulary
    names = field_spec().categorical
    prefixes = ("u", "i", *(f"{name}_" for name in CONTEXT_FIELDS))
    codes = {name: tokens[:, j].copy() for j, name in enumerate(names)}
    token_tables = {name: tuple(f"{prefix}{t}" for t in range(v))
                    for name, prefix in zip(names, prefixes)}
    codes[ITEM_FIELD][novel_rows] = np.arange(v, v + n_novel_rows)
    token_tables[ITEM_FIELD] += tuple(f"i_new{k}" for k in range(n_novel_rows))
    log = ClickLog(
        timestamp=np.arange(n, dtype=np.float64),
        categorical=codes, tokens=token_tables,
        continuous={name: cont_values[:, j].copy() for j, name in enumerate(CONTINUOUS_FIELDS)},
        label=labels, user_field=USER_FIELD, item_field=ITEM_FIELD)

    meta = {
        "config": config.to_dict(),
        "n_rows": n,
        "ctr": float(labels.mean()),
        "n_test_region_rows": n_test,
        "n_novel_item_rows": n_novel_rows,
        "mean_click_probability": float(probs.mean()),
    }
    return log, meta


def write_csv(log, path):
    """One CSV with the standard header, replaced atomically; floats round-trip exactly.

    Lines are joined here, not by csv.writer: the generator's tokens
    (letters, digits and underscores), integer timestamps and labels and
    ``repr`` floats never need quoting, so the bytes are those csv.writer
    would write, CRLF line ends included. Rows are formatted and written
    CHUNK_ROWS at a time, so no list of every cell exists.
    """
    fields = field_spec()
    header = ["timestamp", *fields.categorical, *fields.continuous, "label"]
    tokens = {name: np.array(log.tokens[name], dtype=object) for name in fields.categorical}
    with replacing(path, newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(log), CHUNK_ROWS):
            rows = log[lo:lo + CHUNK_ROWS]
            columns = [map(str, rows.timestamp.astype(np.int64).tolist()),
                       *(tokens[name][rows.categorical[name]].tolist()
                         for name in fields.categorical),
                       *(map(repr, rows.continuous[name].tolist()) for name in fields.continuous),
                       map(str, rows.label.tolist())]
            fh.writelines(f"{','.join(row)}\r\n" for row in zip(*columns))
