"""Click-log ingestion, encoding, chronological splitting and class weights.

A click log is one ClickLog: a column per field (timestamp, user, item,
context fields, continuous fields, binary click label), one entry per
impression. Training and scoring parse CSV with the one reader here,
``read_csv``; the synthetic generator builds the same columns directly.
Splits, sub-training sets and the cold-start filter are row selections on
a log. Vocabularies and continuous-feature statistics are always built
from the training split only; unseen tokens map to a reserved
out-of-vocabulary index per field.
"""

import csv
import hashlib
import json
import math
import os
import types
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ConfigError, DataError, UsageError

MISSING_TOKEN = "__missing__"

FIELD_TYPES = ("user", "item", "categorical", "continuous")

HASH_CHUNK_ROWS = 256  # rows per sha256 update in records_hash


@dataclass(eq=False)
class ClickLog:
    """Labeled impressions, held column by column.

    String columns are object arrays of str; ``user_id`` and ``item_id``
    are None when the log has no such field. ``categorical`` and
    ``continuous`` map each context field to its column. Timestamps and
    continuous values are float64, with NaN marking a missing continuous
    value; labels are int64. ``log[idx]`` selects rows by slice, index
    array or boolean mask; a slice shares its columns with the log.
    """

    timestamp: np.ndarray
    user_id: np.ndarray | None
    item_id: np.ndarray | None
    categorical: dict
    continuous: dict
    label: np.ndarray

    def __post_init__(self):
        def strings(col):
            return None if col is None else np.asarray(col, dtype=object)

        try:
            self.timestamp = np.asarray(self.timestamp, dtype=np.float64)
            self.continuous = {name: np.asarray(col, dtype=np.float64)
                               for name, col in self.continuous.items()}
        except (TypeError, ValueError) as exc:
            raise DataError(f"non-numeric value in a numeric column: {exc}")
        self.user_id = strings(self.user_id)
        self.item_id = strings(self.item_id)
        self.categorical = {name: strings(col) for name, col in self.categorical.items()}
        self.label = np.asarray(self.label, dtype=np.int64)

    def __len__(self):
        return len(self.label)

    def __getitem__(self, idx):
        def pick(col):
            return None if col is None else col[idx]

        return ClickLog(self.timestamp[idx], pick(self.user_id), pick(self.item_id),
                        {name: col[idx] for name, col in self.categorical.items()},
                        {name: col[idx] for name, col in self.continuous.items()},
                        self.label[idx])


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


def read_csv(path, field_spec, scoring=False):
    r"""The one click-log CSV parser; returns (header, row texts, ClickLog).

    Rows stay in file order; blank lines are skipped and short rows are
    padded with blank cells. The header must name every declared field, and
    ``timestamp`` and ``label`` unless scoring: a scoring file may lack
    them, and then the row order fills the timestamps and 0 the labels.
    None of these may be named twice. A blank categorical cell is
    MISSING_TOKEN and a blank continuous cell is missing (NaN). A row with
    more cells than the header, a non-binary
    label, or a timestamp or continuous value that is not a finite number
    raises a DataError naming the physical line the row starts on.

    The row texts are an iterable to be read once. A row's text is its
    cells, padded, as ``csv.writer`` writes them when another cell follows,
    so ``f"{text},{cell}\r\n"`` is the line ``csv.writer`` writes for the
    row with that cell appended.

    The file is first read as one string. Plain text takes a fast path: no
    ``"``, no NUL, no bare ``\r``, and exactly ``len(header) - 1`` commas
    on every non-blank line. One ``split`` then cuts every cell, a column
    is a strided slice, and a row's text is its line. Any other file is
    dropped as a string and read again as a stream by ``csv.reader``,
    which writes a row's text only when it is read and finds a row's line
    only for an error message. Either way a numeric or label column is
    first converted whole; a column holding a blank, malformed or
    non-finite value, or a label other than exactly ``0`` or ``1``, is
    parsed again cell by cell, which fills blanks and names the first bad
    cell. Both paths give the same log, texts and errors.
    """
    if not os.path.exists(path):
        raise DataError(f"CSV file not found: {path}")
    required = ([] if scoring else ["timestamp", "label"]) + list(field_spec.to_mapping())
    with open(path, newline="") as fh:
        plain = _split_plain(fh.read(), required)
    header, columns, n, texts, lineno = plain or _split_rows(path, required)

    def strings(name):
        if name is None:
            return None
        return np.array([c.strip() or MISSING_TOKEN for c in columns[name]], dtype=object)

    def parsed(name, convert, parse, what, dtype=np.float64):
        col = columns[name]
        try:
            values = np.fromiter(map(convert, col), dtype, count=len(col))
            if np.isfinite(values).all():
                return values
        except (KeyError, ValueError):
            pass
        values = [parse(c.strip()) for c in col]
        if None in values:
            i = values.index(None)
            raise DataError(f"line {lineno(i)}: {what}: {col[i].strip()!r}")
        return values

    labels = {"0": 0, "1": 1}
    log = ClickLog(
        timestamp=(parsed("timestamp", float, _finite, "bad timestamp")
                   if "timestamp" in columns else np.arange(n)),
        user_id=strings(field_spec.user_field),
        item_id=strings(field_spec.item_field),
        categorical={name: strings(name) for name in field_spec.categorical},
        continuous={name: parsed(name, float, _finite_or_blank,
                                 f"bad continuous value in {name!r}")
                    for name in field_spec.continuous},
        label=(parsed("label", labels.__getitem__, labels.get, "non-binary label", np.int64)
               if "label" in columns else np.zeros(n)))
    return header, texts, log


def _split_plain(text, required):
    r"""(header, columns, row count, row texts, lineno) of text that needs
    no CSV quoting rules, else None; a missing required column raises.

    Such text has no quote, no NUL (which ``csv.reader`` refuses before
    Python 3.11), no bare ``\r``, a non-blank header line and the header's
    comma count on every non-blank line. No line may be longer than csv's
    field size limit, so that a file ``csv.reader`` refuses is still
    refused.
    """
    if '"' in text or "\0" in text or text.count("\r") != text.count("\r\n"):
        return None
    lines = text.replace("\r\n", "\n").split("\n")
    header = lines[0].split(",")
    rows = [line for line in lines[1:] if line]
    if (not lines[0] or max(map(len, lines)) > csv.field_size_limit()
            or not set(map(str.count, rows, repeat(","))) <= {len(header) - 1}):
        return None
    _require_columns(header, required)
    cells = ",".join(rows).split(",") if rows else []
    width = len(header)
    columns = {name: cells[j::width] for j, name in enumerate(header)}

    def lineno(i):
        return [k for k, line in enumerate(lines, start=1) if line][i + 1]

    return header, columns, len(rows), rows, lineno


def _split_rows(path, required):
    """(header, columns, row count, row texts, lineno) of any CSV file, read
    as a stream by csv.reader; a missing required column raises before a
    row that is too long. The texts are a generator, so a caller that drops
    them never pays for them."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [row for row in reader if row]
    _require_columns(header, required)

    def lineno(i):
        # read again up to the row, counting the lines a quoted cell spans
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader, [])
            start = reader.line_num + 1
            for row in reader:
                if row:
                    if i == 0:
                        return start
                    i -= 1
                start = reader.line_num + 1

    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            if len(row) > width:
                raise DataError(f"line {lineno(i)}: {len(row)} cells, the header has {width}")
            row += [""] * (width - len(row))
    columns = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
    # writerow returns what the file's write returns: here the line itself.
    # The appended blank cell keeps a lone blank cell from being written
    # as "" (csv.writer's form of a row that is one empty field); the slice
    # drops it with its comma and the line end.
    writer = csv.writer(types.SimpleNamespace(write=str))
    texts = (writer.writerow(row + [""])[:-3] for row in rows)
    return header, columns, len(rows), texts, lineno


def _require_columns(header, required):
    """The header must name every required column, and ``timestamp``,
    ``label`` and every required column at most once: a repeated name would
    leave only its last column read."""
    missing = [name for name in required if name not in header]
    if missing:
        raise DataError(f"missing required columns: {missing}")
    for name in dict.fromkeys(["timestamp", "label", *required]):
        if header.count(name) > 1:
            raise DataError(f"the header names column {name!r} {header.count(name)} times")


def _finite(text):
    """The finite float a cell spells, else None."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _finite_or_blank(text):
    return _finite(text) if text else math.nan


def ingest_csv(path, field_spec):
    """Parse a training click-log CSV into a ClickLog, in file order (see
    read_csv: ``timestamp`` and ``label`` are required)."""
    return read_csv(path, field_spec)[2]


def chronological_split(log, spec=None):
    """Stable-sort by timestamp, then cut earliest->train, latest->test.

    Sizes are floor(fraction * n) per split; leftover rows go to train.
    """
    spec = spec or SplitSpec()
    n = len(log)
    if n < 3:
        raise DataError(f"need at least 3 records to split, got {n}")
    ordered = log[np.argsort(log.timestamp, kind="stable")]
    n_train = math.floor(spec.train * n)
    n_val = math.floor(spec.val * n)
    n_test = math.floor(spec.test * n)
    n_train += n - (n_train + n_val + n_test)
    return (ordered[:n_train],
            ordered[n_train:n_train + n_val],
            ordered[n_train + n_val:])


def sub_training(full_log, train_region, x_percent, split=None):
    """Most recent floor(x% of the full dataset) rows of the train region.

    x_percent is a percentage of the FULL dataset, bounded by the training
    fraction of the split that cut train_region (default SplitSpec(): 72).
    Validation/test are untouched.
    """
    (split or SplitSpec()).check_sub_training_percent(x_percent)
    k = math.floor(x_percent / 100.0 * len(full_log))
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


def cold_start_filter(test_log, subtrain_log):
    """Drop test rows whose item id occurs in the sub-training set."""
    if test_log.item_id is None or subtrain_log.item_id is None:
        raise DataError("cold-start filtering requires an item field")
    seen = set(subtrain_log.item_id.tolist())
    return test_log[np.array([item not in seen for item in test_log.item_id.tolist()],
                             dtype=bool)]


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

    def placeholder_block(self):
        if self.n_placeholders == 0:
            raise UsageError("matrix has no placeholder columns")
        return self.cont[:, self.cont.shape[1] - self.n_placeholders:]


def records_hash(log):
    """Order-sensitive digest of raw rows, before any encoding.

    Lets experiment runs prove they evaluated on the same rows even when
    their schemas (and therefore encoded matrices) differ. Each row hashes
    as the JSON list [timestamp, user, item, sorted categorical pairs,
    sorted continuous pairs (null when missing), label], the text of
    ``json.dumps``; each column is turned into JSON in one pass.
    """
    def strings(col):
        return repeat("null") if col is None else map(encode_basestring_ascii, col.tolist())

    def floats(col, nan):
        text = list(map(float.__repr__, col.tolist()))
        for i in np.flatnonzero(~np.isfinite(col)).tolist():
            text[i] = {"inf": "Infinity", "-inf": "-Infinity"}.get(text[i], nan)
        return text

    cat, cont = sorted(log.categorical), sorted(log.continuous)
    pairs = [", ".join(f"[{encode_basestring_ascii(name)}, \0]" for name in names)
             for names in (cat, cont)]
    # escaped JSON holds no NUL, so NUL marks where a row's values go
    between = [*map(repeat, "[\0, \0, \0, [{}], [{}], \0]".format(*pairs).split("\0"))]
    h = hashlib.sha256()
    for lo in range(0, len(log), HASH_CHUNK_ROWS):
        part = log[lo:lo + HASH_CHUNK_ROWS]
        values = [floats(part.timestamp, "NaN"), strings(part.user_id),
                  strings(part.item_id), *(strings(part.categorical[name]) for name in cat),
                  *(floats(part.continuous[name], "null") for name in cont),
                  map(int.__repr__, part.label.tolist())]
        texts = [*chain.from_iterable(zip(between, values)), between[-1]]
        h.update("".join(chain.from_iterable(zip(*texts))).encode())
    return h.hexdigest()


def _token_columns(log, user_field, item_field):
    """Categorical field name -> string column, user and item included."""
    return {**log.categorical, user_field: log.user_id, item_field: log.item_id}


def build_schema(train_log, field_spec, normalize=True):
    """Fit vocabularies and continuous stats on the training split only.

    Each vocabulary numbers its tokens in order of first occurrence.
    """
    if not len(train_log):
        raise DataError("cannot build a schema from an empty training split")
    cat_fields = field_spec.all_categorical()
    tokens = _token_columns(train_log, field_spec.user_field, field_spec.item_field)
    vocab = {name: {token: i for i, token in enumerate(dict.fromkeys(tokens[name].tolist()))}
             for name in cat_fields}
    cont_stats = {}
    for name in field_spec.continuous:
        col = train_log.continuous[name]
        values = col[~np.isnan(col)].tolist()
        # sum() over the list, not np.mean: the stats enter the schema hash,
        # so the mean must keep the same last bit.
        cont_stats[name] = ((min(values), max(values), sum(values) / len(values))
                            if values else (0.0, 1.0, 0.0))
    return FeatureSchema(cat_fields, vocab, list(field_spec.continuous), cont_stats,
                         0, field_spec.user_field, field_spec.item_field, normalize)


def encode(log, schema):
    """Encode a log against a schema; unseen tokens map to the OOV index.

    Missing continuous values take the training mean; with normalization,
    values are min-max scaled by the training range and clamped to [0, 1].
    Returns (DesignMatrix without placeholders, labels, timestamps).
    """
    n = len(log)
    tokens = _token_columns(log, schema.user_field, schema.item_field)
    cat = np.empty((n, len(schema.cat_fields)), dtype=np.int64)
    for j, name in enumerate(schema.cat_fields):
        lookup = map(schema.vocab[name].get, tokens[name], repeat(schema.oov_index(name)))
        cat[:, j] = np.fromiter(lookup, dtype=np.int64, count=n)
    cont = np.empty((n, len(schema.cont_fields)), dtype=np.float64)
    for j, name in enumerate(schema.cont_fields):
        lo, hi, mean = schema.cont_stats[name]
        col = log.continuous[name]
        values = np.where(np.isnan(col), mean, col)
        if schema.normalize:
            values = np.clip((values - lo) / (hi - lo), 0.0, 1.0) if hi > lo else 0.0
        cont[:, j] = values
    return DesignMatrix(cat, cont, 0), log.label.astype(np.float64), log.timestamp.copy()


def build_schema_and_encode(train_log, splits, field_spec, normalize=True):
    """Fit the schema on train_log and encode every provided split."""
    schema = build_schema(train_log, field_spec, normalize)
    encoded = {name: encode(log, schema) for name, log in splits.items()}
    return schema, encoded

