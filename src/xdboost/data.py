"""Click-log ingestion, encoding, chronological splitting and class weights.

The raw unit is an interaction record (timestamp, user, item, context
fields, binary click label). Vocabularies and continuous-feature statistics
are always built from the training split only; unseen tokens map to a
reserved out-of-vocabulary index per field.
"""

import csv
import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, UsageError

log = logging.getLogger(__name__)

MISSING_TOKEN = "__missing__"

FIELD_TYPES = ("user", "item", "categorical", "continuous")


@dataclass
class InteractionRecord:
    """One labeled impression."""

    timestamp: float
    user_id: str | None
    item_id: str | None
    categorical: dict
    continuous: dict
    label: int


@dataclass
class FieldSpec:
    """Declares the role of every CSV column besides timestamp and label."""

    user_field: str | None = None
    item_field: str | None = None
    categorical: list = field(default_factory=list)
    continuous: list = field(default_factory=list)

    @classmethod
    def from_mapping(cls, mapping):
        spec = cls()
        for name, kind in mapping.items():
            if kind == "user":
                if spec.user_field is not None:
                    raise ConfigError("more than one field declared as user")
                spec.user_field = name
            elif kind == "item":
                if spec.item_field is not None:
                    raise ConfigError("more than one field declared as item")
                spec.item_field = name
            elif kind == "categorical":
                spec.categorical.append(name)
            elif kind == "continuous":
                spec.continuous.append(name)
            else:
                raise ConfigError(
                    f"field {name!r}: unknown type {kind!r} (expected one of {FIELD_TYPES})")
        return spec

    @classmethod
    def from_json_file(cls, path):
        with open(path) as fh:
            return cls.from_mapping(json.load(fh))

    def to_mapping(self):
        out = {}
        if self.user_field:
            out[self.user_field] = "user"
        if self.item_field:
            out[self.item_field] = "item"
        for name in self.categorical:
            out[name] = "categorical"
        for name in self.continuous:
            out[name] = "continuous"
        return out

    def all_categorical(self):
        """Ordered categorical columns: user, item, then context fields."""
        out = []
        if self.user_field:
            out.append(self.user_field)
        if self.item_field:
            out.append(self.item_field)
        out.extend(self.categorical)
        return out


@dataclass
class SplitSpec:
    """Chronological split fractions; earliest data trains, latest tests."""

    train: float = 0.72
    val: float = 0.08
    test: float = 0.20

    def __post_init__(self):
        if min(self.train, self.val, self.test) < 0:
            raise ConfigError("split fractions must be nonnegative")
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")

    def holds_sub_training(self, x_percent):
        """Whether the training region can hold a sub-training set of
        x_percent of the full dataset, i.e. 0 < x_percent <= 100 * train."""
        # Dividing keeps round percentages exact: 57 / 100 is the double
        # 0.57, while 100 * 0.57 falls just below 57.
        return x_percent > 0 and x_percent / 100.0 <= self.train

    def check_sub_training_percent(self, x_percent):
        if not self.holds_sub_training(x_percent):
            raise ConfigError(f"sub-training percentage {x_percent} outside "
                              f"(0, {100 * self.train:g}]")


def ingest_csv(path, field_spec, strict=True):
    """Parse a click-log CSV into records, in file order.

    The header must contain ``timestamp``, ``label`` and every declared
    field. Malformed rows raise a DataError naming the line when strict,
    otherwise they are counted, logged and skipped.
    """
    if not os.path.exists(path):
        raise DataError(f"dataset file not found: {path}")
    records = []
    skipped = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        required = ["timestamp", "label"] + list(field_spec.to_mapping())
        missing = [c for c in required if c not in header]
        if missing:
            raise DataError(f"missing required columns: {missing}")
        for lineno, row in enumerate(reader, start=2):
            try:
                records.append(_parse_row(row, field_spec, lineno))
            except DataError:
                if strict:
                    raise
                skipped += 1
    if skipped:
        log.warning("skipped %d malformed rows in %s", skipped, path)
    return records


def _parse_row(row, field_spec, lineno):
    label_raw = (row["label"] or "").strip()
    if label_raw not in ("0", "1"):
        raise DataError(f"line {lineno}: non-binary label {label_raw!r}")
    try:
        ts = float(row["timestamp"])
    except (TypeError, ValueError):
        raise DataError(f"line {lineno}: bad timestamp {row['timestamp']!r}")
    cat = {}
    for name in field_spec.categorical:
        value = (row[name] or "").strip()
        cat[name] = value if value else MISSING_TOKEN
    cont = {}
    for name in field_spec.continuous:
        value = (row[name] or "").strip()
        if not value:
            cont[name] = None
        else:
            try:
                cont[name] = float(value)
            except ValueError:
                raise DataError(f"line {lineno}: bad continuous value {value!r} in {name!r}")
    user = item = None
    if field_spec.user_field:
        user = (row[field_spec.user_field] or "").strip() or MISSING_TOKEN
    if field_spec.item_field:
        item = (row[field_spec.item_field] or "").strip() or MISSING_TOKEN
    return InteractionRecord(ts, user, item, cat, cont, int(label_raw))


def chronological_split(records, spec=None):
    """Stable-sort by timestamp, then cut earliest->train, latest->test.

    Sizes are floor(fraction * n) per split; leftover rows go to train.
    """
    spec = spec or SplitSpec()
    if len(records) < 3:
        raise DataError(f"need at least 3 records to split, got {len(records)}")
    ordered = sorted(records, key=lambda r: r.timestamp)
    n = len(ordered)
    n_train = math.floor(spec.train * n)
    n_val = math.floor(spec.val * n)
    n_test = math.floor(spec.test * n)
    n_train += n - (n_train + n_val + n_test)
    return (ordered[:n_train],
            ordered[n_train:n_train + n_val],
            ordered[n_train + n_val:])


def sub_training(all_records, train_region, x_percent, split=None):
    """Most recent floor(x% of the full dataset) records of the train region.

    x_percent is a percentage of the FULL dataset, bounded by the training
    fraction of the split that cut train_region (default SplitSpec(): 72).
    Validation/test are untouched.
    """
    (split or SplitSpec()).check_sub_training_percent(x_percent)
    k = math.floor(x_percent / 100.0 * len(all_records))
    if k < 1:
        raise DataError(f"sub-training of {x_percent}% selects zero records")
    if k > len(train_region):
        raise ConfigError(
            f"sub-training of {x_percent}% exceeds the training region ({len(train_region)} rows)")
    return train_region[len(train_region) - k:]


@dataclass
class ClassWeights:
    """Per-class loss weights balancing clicks against non-clicks."""

    weight_nonclick: float = 1.0
    weight_click: float = 1.0

    def as_dict(self):
        return {0: self.weight_nonclick, 1: self.weight_click}


def class_weights(train_labels):
    """Non-clicks weigh 1.0; clicks weigh the nonclick/click count ratio
    when that ratio exceeds 1, else 1.0."""
    labels = np.asarray(train_labels)
    if labels.size and not np.isin(labels, (0, 1)).all():
        raise DataError("labels must be binary")
    n_click = int(np.sum(labels == 1))
    n_nonclick = int(np.sum(labels == 0))
    if n_click == 0:
        raise DataError("cannot derive class weights: no clicks in training data")
    ratio = n_nonclick / n_click
    return ClassWeights(1.0, ratio if ratio > 1.0 else 1.0)


def cold_start_filter(test_records, subtrain_records):
    """Drop test records whose item id occurs in the sub-training set."""
    if any(r.item_id is None for r in test_records + subtrain_records):
        raise DataError("cold-start filtering requires an item field")
    seen = {r.item_id for r in subtrain_records}
    return [r for r in test_records if r.item_id not in seen]


@dataclass
class FeatureSchema:
    """Encoding contract fitted on the training split.

    Each categorical field has an injective token->index map plus one
    reserved OOV index (the last row of its embedding table). Continuous
    fields carry train-split (min, max, mean) for scaling and imputation.
    """

    cat_fields: list
    vocab: dict
    cont_fields: list
    cont_stats: dict
    n_placeholders: int = 0
    user_field: str | None = None
    item_field: str | None = None
    normalize: bool = True

    def vocab_size(self, name):
        return len(self.vocab[name]) + 1

    def oov_index(self, name):
        return len(self.vocab[name])

    def with_placeholders(self, n):
        if self.n_placeholders:
            raise UsageError("schema already has placeholder columns")
        return FeatureSchema(self.cat_fields, self.vocab, self.cont_fields,
                             self.cont_stats, n, self.user_field,
                             self.item_field, self.normalize)

    def to_dict(self):
        return {
            "format_version": 1,
            "cat_fields": list(self.cat_fields),
            "vocab": {k: dict(v) for k, v in self.vocab.items()},
            "cont_fields": list(self.cont_fields),
            "cont_stats": {k: list(v) for k, v in self.cont_stats.items()},
            "n_placeholders": self.n_placeholders,
            "user_field": self.user_field,
            "item_field": self.item_field,
            "normalize": self.normalize,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["cat_fields"], d["vocab"], d["cont_fields"],
                   {k: tuple(v) for k, v in d["cont_stats"].items()},
                   d["n_placeholders"], d["user_field"], d["item_field"],
                   d["normalize"])

    def hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class DesignMatrix:
    """Encoded feature rows: integer categorical indices plus continuous
    columns, with any placeholder block as the trailing cont columns."""

    cat: np.ndarray
    cont: np.ndarray
    n_placeholders: int = 0

    @property
    def n_rows(self):
        return self.cat.shape[0]

    def copy(self):
        return DesignMatrix(self.cat.copy(), self.cont.copy(), self.n_placeholders)

    def placeholder_block(self):
        if self.n_placeholders == 0:
            raise UsageError("matrix has no placeholder columns")
        return self.cont[:, self.cont.shape[1] - self.n_placeholders:]


def records_hash(records):
    """Order-sensitive digest of raw records, before any encoding.

    Lets experiment runs prove they evaluated on the same rows even when
    their schemas (and therefore encoded matrices) differ.
    """
    h = hashlib.sha256()
    for r in records:
        payload = [r.timestamp, r.user_id, r.item_id,
                   sorted(r.categorical.items()),
                   sorted(r.continuous.items()), r.label]
        h.update(json.dumps(payload).encode())
    return h.hexdigest()


def _cat_token(record, name, field_spec_user, field_spec_item):
    if name == field_spec_user:
        return record.user_id
    if name == field_spec_item:
        return record.item_id
    return record.categorical.get(name, MISSING_TOKEN)


def build_schema(train_records, field_spec, normalize=True):
    """Fit vocabularies and continuous stats on the training split only."""
    if not train_records:
        raise DataError("cannot build a schema from an empty training split")
    cat_fields = field_spec.all_categorical()
    vocab = {}
    for name in cat_fields:
        mapping = {}
        for r in train_records:
            token = _cat_token(r, name, field_spec.user_field, field_spec.item_field)
            if token not in mapping:
                mapping[token] = len(mapping)
        vocab[name] = mapping
    cont_stats = {}
    for name in field_spec.continuous:
        values = [r.continuous[name] for r in train_records if r.continuous.get(name) is not None]
        if values:
            cont_stats[name] = (float(min(values)), float(max(values)),
                                float(sum(values) / len(values)))
        else:
            cont_stats[name] = (0.0, 1.0, 0.0)
    return FeatureSchema(cat_fields, vocab, list(field_spec.continuous), cont_stats,
                         0, field_spec.user_field, field_spec.item_field, normalize)


def encode(records, schema):
    """Encode records against a schema; unseen tokens map to the OOV index.

    Returns (DesignMatrix without placeholders, labels, timestamps).
    """
    n = len(records)
    cat = np.zeros((n, len(schema.cat_fields)), dtype=np.int64)
    for j, name in enumerate(schema.cat_fields):
        mapping = schema.vocab[name]
        oov = schema.oov_index(name)
        for i, r in enumerate(records):
            token = _cat_token(r, name, schema.user_field, schema.item_field)
            cat[i, j] = mapping.get(token, oov)
    cont = np.zeros((n, len(schema.cont_fields)), dtype=np.float64)
    for j, name in enumerate(schema.cont_fields):
        lo, hi, mean = schema.cont_stats[name]
        for i, r in enumerate(records):
            value = r.continuous.get(name)
            if value is None:
                value = mean
            elif not isinstance(value, (int, float)):
                raise DataError(f"field {name!r} declared continuous but holds {value!r}")
            if schema.normalize:
                value = (value - lo) / (hi - lo) if hi > lo else 0.0
                value = min(max(value, 0.0), 1.0)
            cont[i, j] = value
    y = np.array([r.label for r in records], dtype=np.float64)
    ts = np.array([r.timestamp for r in records], dtype=np.float64)
    return DesignMatrix(cat, cont, 0), y, ts


def build_schema_and_encode(train_records, splits, field_spec, normalize=True):
    """Fit the schema on train_records and encode every provided split."""
    schema = build_schema(train_records, field_spec, normalize)
    encoded = {name: encode(records, schema) for name, records in splits.items()}
    return schema, encoded

