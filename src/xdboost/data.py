"""Click-log ingestion, encoding, chronological splitting and class weights.

A click log is one ClickLog: a column per field (timestamp, categorical
fields with user and item among them, continuous fields, binary click
label), one entry per impression. A categorical column holds int64 codes
into the field's tuple of distinct tokens. Training and scoring parse CSV
with the one reader here, ``scan_csv``, chunk by chunk: ``ingest_csv``
joins the chunks into one log and ``xdboost predict`` scores each as it
comes. The synthetic generator builds the same columns directly.
Splits, sub-training sets and the cold-start filter are row selections on
a log, which share its token tables. Vocabularies and continuous-feature
statistics are always built from the training split only; unseen tokens
map to a reserved out-of-vocabulary index per field.
"""

import csv
import hashlib
import json
import math
import os
import types
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, UsageError

MISSING_TOKEN = "__missing__"

FIELD_TYPES = ("user", "item", "categorical", "continuous")

CHUNK_ROWS = 4096  # data rows scan_csv parses, factorizes and converts at a time
HASH_CHUNK_ROWS = 256  # rows per sha256 update in records_hash


@dataclass(eq=False)
class ClickLog:
    """Labeled impressions, held column by column.

    ``categorical`` maps every categorical field, user and item included,
    to its column of int64 codes, and ``tokens`` maps the same fields to
    the tuple of distinct tokens the codes index; a code outside its table
    is a DataError. The chunk logs of one scan_csv instead share their
    factorizer's table, a list that later chunks only append to. Codes
    are int64, numpy's index type, so indexing a token table or a lookup
    table by them casts nothing. ``user_field`` and ``item_field`` name
    the user and item columns, or are None when the log has no such field,
    and a name that is not a categorical column is a DataError.
    ``continuous`` maps each continuous field to its column. Timestamps
    and continuous values are float64, with NaN marking a missing
    continuous value; labels are int64, and a label that is not an
    integer is a DataError, not truncated. ``log[idx]`` selects rows by
    slice, index array or boolean mask and shares the token tables; a
    slice also shares its columns with the log.
    """

    timestamp: np.ndarray
    categorical: dict
    tokens: dict
    continuous: dict
    label: np.ndarray
    user_field: str | None = None
    item_field: str | None = None

    def __post_init__(self):
        try:
            self.timestamp = np.asarray(self.timestamp, dtype=np.float64)
            self.continuous = {name: np.asarray(col, dtype=np.float64)
                               for name, col in self.continuous.items()}
            label = np.asarray(self.label)
            if label.dtype.kind not in "biu":  # a cast to int64 would truncate
                label = label.astype(np.float64)
                whole = (label == np.round(label)) & (np.abs(label) < 2.0 ** 63)
                if not whole.all():
                    raise DataError(f"label {label[~whole][0]} is not an integer")
        except (TypeError, ValueError) as exc:
            raise DataError(f"non-numeric value in a numeric column: {exc}")
        if self.tokens.keys() != self.categorical.keys():
            raise DataError(f"token tables for {list(self.tokens)}, "
                            f"categorical columns {list(self.categorical)}")
        self.tokens = {name: _table(self.tokens[name]) for name in self.categorical}
        self.categorical = {name: _codes(col, name, len(self.tokens[name]))
                            for name, col in self.categorical.items()}
        for role in (self.user_field, self.item_field):
            if role is not None and role not in self.categorical:
                raise DataError(f"field {role!r} names no categorical column")
        self.label = label.astype(np.int64, copy=False)

    def __len__(self):
        return len(self.label)

    def __getitem__(self, idx):
        return ClickLog(self.timestamp[idx],
                        {name: col[idx] for name, col in self.categorical.items()},
                        self.tokens,
                        {name: col[idx] for name, col in self.continuous.items()},
                        self.label[idx], self.user_field, self.item_field)


def _table(tokens):
    """A token table as a ClickLog holds it: a factorizer's table as it
    is, anything else as a tuple."""
    return tokens if isinstance(tokens, _Table) else tuple(tokens)


def _codes(col, name, n_tokens):
    """A categorical column as int64 codes, each of which must index the
    column's n_tokens tokens."""
    codes = np.asarray(col)
    if codes.size and (codes.dtype.kind not in "iu" or codes.min() < 0
                       or codes.max() >= n_tokens):
        raise DataError(f"field {name!r}: a code does not index its {n_tokens} tokens")
    return codes.astype(np.int64, copy=False)


@dataclass
class FieldSpec:
    """Declares the role of every CSV column besides timestamp and label.

    ``categorical`` lists every categorical field: the user field, the item
    field, then the context fields. ``user_field`` and ``item_field`` name
    the first two, or are None when there is no such field; a list that
    does not begin with the fields they name is a ConfigError.
    """

    user_field: str | None = None
    item_field: str | None = None
    categorical: list = field(default_factory=list)
    continuous: list = field(default_factory=list)

    def __post_init__(self):
        roles = [name for name in (self.user_field, self.item_field) if name is not None]
        if self.categorical[:len(roles)] != roles:
            raise ConfigError(f"categorical fields {self.categorical} must begin with "
                              f"the user and item fields {roles}")

    @classmethod
    def from_mapping(cls, mapping):
        names = {kind: [] for kind in FIELD_TYPES}
        for name, kind in mapping.items():
            if kind not in names:
                raise ConfigError(
                    f"field {name!r}: unknown type {kind!r} (expected one of {FIELD_TYPES})")
            names[kind].append(name)
        user, item, context, continuous = names.values()
        for kind, named in (("user", user), ("item", item)):
            if len(named) > 1:
                raise ConfigError(f"more than one field declared as {kind}")
        return cls(next(iter(user), None), next(iter(item), None), user + item + context,
                   continuous)

    def to_mapping(self):
        roles = {self.user_field: "user", self.item_field: "item"}
        return {**{name: roles.get(name, "categorical") for name in self.categorical},
                **dict.fromkeys(self.continuous, "continuous")}


@dataclass
class SplitSpec:
    """Chronological split fractions; earliest data trains, latest tests."""

    train: float = 0.72
    val: float = 0.08
    test: float = 0.20

    def __post_init__(self):
        # written so that NaN fails them
        for name in ("train", "val", "test"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be a nonnegative fraction, "
                                  f"got {getattr(self, name)}")
        if not abs(self.train + self.val + self.test - 1.0) <= 1e-9:
            raise ConfigError("train + val + test must equal 1, got "
                              f"{self.train} + {self.val} + {self.test}")

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


@contextmanager
def scan_csv(path, field_spec, scoring=False, step=1):
    r"""The one click-log CSV parser, a context manager: ``with
    scan_csv(...) as (header, chunks)``, where chunks yields (ClickLog, row
    texts) for a run of data rows at a time, in file order, and the file is
    open until the block ends. Every chunk but the last holds the least
    multiple of ``step`` rows at or above CHUNK_ROWS. A caller that keeps
    nothing of a chunk holds one chunk of the file at a time, and the token
    tables.

    Blank lines are skipped and short rows are padded with blank cells.
    Each log holds the declared fields in the spec's order and names the
    spec's user and item fields. The header must name every declared
    field, and ``timestamp`` and ``label`` unless scoring: a scoring file
    may lack them, and then the row order (from 0 at the file's first
    row) fills the timestamps and 0 the labels. None of these may be
    named twice. A categorical cell's token is its text stripped,
    MISSING_TOKEN when that is blank; a blank continuous cell is missing
    (NaN). A row with more cells than the header, a non-binary label, or
    a timestamp or continuous value that is not a finite number raises a
    DataError naming the physical line the row starts on, when its chunk
    is reached, so faults come in chunk order.

    One _Factorizer per categorical field serves the whole file, so the
    chunks' codes index one token table per field: a list that every
    chunk's log shares and later chunks only append to, so no chunk copies
    it. A factorizer strips each distinct raw cell once. Each numeric or
    label column of a chunk is converted whole; a column holding a blank,
    malformed or non-finite value, or a label other than exactly ``0`` or
    ``1``, is parsed again cell by cell, which fills blanks and names the
    first bad cell.

    Plain text takes a fast path: no ``"``, no NUL, no bare ``\r``, and
    exactly ``len(header) - 1`` commas on every non-blank line. One
    ``split`` then cuts a chunk's cells and a column is a strided slice.
    From the first read that holds a line that is not plain, the rest of
    the file goes to ``csv.reader``, which reads plain lines as ``split``
    does, so no row is read twice. Both paths give the same logs, texts
    and errors.

    A row's text is its cells, padded, as ``csv.writer`` writes them when
    another cell follows, so ``f"{text},{cell}\r\n"`` is the line
    ``csv.writer`` writes for the row with that cell appended. On the
    plain path the texts are the chunk's lines, which the parse holds
    anyway; on the ``csv.reader`` path they are made as they are read.
    """
    if not os.path.exists(path):
        raise DataError(f"CSV file not found: {path}")
    required = ([] if scoring else ["timestamp", "label"]) + list(field_spec.to_mapping())
    size = -(-CHUNK_ROWS // step) * step
    labels = {"0": 0, "1": 1}
    rules = {"timestamp": (float, _finite, "bad timestamp", np.float64),
             **{name: (float, _finite_or_blank, f"bad continuous value in {name!r}",
                       np.float64) for name in field_spec.continuous},
             "label": (labels.__getitem__, labels.get, "non-binary label", np.int64)}
    with open(path, newline="") as fh:
        header, row_chunks = _plain_chunks(fh, path, size)
        _require_columns(header, required)
        factors = {name: _Factorizer() for name in field_spec.categorical}

        def logs():
            n = 0
            for rows, columns, texts in row_chunks:
                def numbers(name):
                    return _numbers(columns[name], *rules[name], path, n)

                # the keywords run in the order a chunk's faults are raised
                log = ClickLog(
                    timestamp=numbers("timestamp") if "timestamp" in header
                    else np.arange(n, n + rows),
                    categorical={name: f.codes(columns[name]) for name, f in factors.items()},
                    tokens={name: f.table for name, f in factors.items()},
                    continuous={name: numbers(name) for name in field_spec.continuous},
                    label=numbers("label") if "label" in header else np.zeros(rows, np.int64),
                    user_field=field_spec.user_field, item_field=field_spec.item_field)
                del columns  # its cells are not kept while the caller works
                yield log, texts
                n += rows

        yield header, logs()


def ingest_csv(path, field_spec):
    """Parse a training click-log CSV into a ClickLog, in file order (see
    scan_csv: ``timestamp`` and ``label`` are required). No row text is
    made or kept."""
    with scan_csv(path, field_spec) as (_, chunks):
        return _joined([log for log, _ in chunks], field_spec)


def _joined(logs, field_spec):
    """One ClickLog of the chunk logs of one scan, in order, with its
    token tables as tuples."""
    def column(get, dtype=np.float64):
        return np.concatenate([get(log) for log in logs]) if logs else np.zeros(0, dtype)

    return ClickLog(column(lambda log: log.timestamp),
                    {name: column(lambda log: log.categorical[name], np.int64)
                     for name in field_spec.categorical},
                    {name: tuple(logs[-1].tokens[name]) if logs else ()
                     for name in field_spec.categorical},
                    {name: column(lambda log: log.continuous[name])
                     for name in field_spec.continuous},
                    column(lambda log: log.label, np.int64),
                    field_spec.user_field, field_spec.item_field)


class _Table(list):
    """A _Factorizer's tokens by code: a list that only grows, which the
    chunk logs of one scan share instead of each copying it."""


class _Factorizer:
    """Int64 codes of one categorical column, fed a chunk of cells at a
    time. A cell's token is its text stripped, or MISSING_TOKEN when that
    is blank; cells that strip to one token share its code. Codes number
    the tokens in order of first occurrence, and ``table`` lists them: one
    list, which new tokens are appended to."""

    def __init__(self):
        self._token_codes = {}
        self._cell_codes = {}  # each distinct raw cell, stripped once
        self.table = _Table()

    def codes(self, cells):
        codes = np.fromiter(map(self._cell_codes.get, cells, repeat(-1)), np.int64,
                            count=len(cells))
        new = np.flatnonzero(codes < 0).tolist()
        if new:
            for cell in dict.fromkeys(map(cells.__getitem__, new)):
                token = cell.strip() or MISSING_TOKEN
                code = self._token_codes.setdefault(token, len(self.table))
                if code == len(self.table):
                    self.table.append(token)
                self._cell_codes[cell] = code
            codes[new] = [self._cell_codes[cells[i]] for i in new]
        return codes


def _numbers(cells, convert, parse, what, dtype, path, offset):
    """One chunk's numeric column, whose first row is data row offset."""
    try:
        values = np.fromiter(map(convert, cells), dtype, count=len(cells))
        if np.isfinite(values).all():
            return values
    except (KeyError, ValueError):
        pass
    values = [parse(c.strip()) for c in cells]
    if None in values:
        i = values.index(None)
        raise DataError(f"line {_row_line(path, offset + i)}: {what}: {cells[i].strip()!r}")
    return np.array(values, dtype)


def _plain(text):
    r"""Whether text holds no quote, no NUL (which ``csv.reader`` refuses
    before Python 3.11) and no bare ``\r``."""
    return '"' not in text and "\0" not in text and text.count("\r") == text.count("\r\n")


def _plain_chunks(fh, path, size):
    """(header, chunks) of a CSV file, chunks of ``size`` rows for
    scan_csv, cut by ``split`` while the lines need no CSV quoting rules: a
    non-blank header and the header's comma count on every non-blank line,
    none longer than csv's field size limit, so that a file ``csv.reader``
    refuses is still refused. From the first read that breaks a rule,
    _reader_chunks reads the rows not yet given, that read's lines and the
    rest of the file."""
    limit = csv.field_size_limit()
    first = fh.readline()
    line = first.rstrip("\r\n")
    if not line or not _plain(first) or len(line) > limit:
        return _reader_chunks(chain([first], fh), path, size)
    header = line.split(",")
    width = len(header)

    def columns(rows):
        cells = ",".join(rows).split(",")
        return len(rows), {name: cells[j::width] for j, name in enumerate(header)}, rows

    def chunks():
        rows, given = [], 0
        while read := list(islice(fh, size)):
            text = "".join(read)
            lines = [line for line in text.replace("\r\n", "\n").split("\n") if line]
            if (not _plain(text) or max(map(len, lines), default=0) > limit
                    or not set(map(str.count, lines, repeat(","))) <= {width - 1}):
                rest = chain((row + "\n" for row in rows), read, fh)
                del rows, read, text, lines
                yield from _reader_chunks(rest, path, size, header, given)[1]
                return
            del read, text  # a read's raw text is not kept while the caller works
            rows += lines
            # size lines hold at most size rows, so at most one chunk is
            # ready after each read
            if len(rows) >= size:
                yield columns(rows[:size])
                del rows[:size]
                given += size
        if rows:
            yield columns(rows)

    return header, chunks()


def _reader_chunks(lines, path, size, header=None, offset=0):
    """(header, chunks) of CSV lines, read as a stream by csv.reader, for
    scan_csv: the header is the first row unless given, and the first row
    read is data row offset. A row with more cells than the header raises.
    Each row's text is made from its padded cells when it is read."""
    reader = csv.reader(lines)
    header = next(reader, []) if header is None else header
    width = len(header)
    rows = filter(None, reader)
    # writerow returns what the file's write returns: here the line itself.
    # The appended blank cell keeps a lone blank cell from being written as
    # "" (csv.writer's form of a row that is one empty field); the slice
    # drops it with its comma and the line end.
    writer = csv.writer(types.SimpleNamespace(write=str))

    def chunks():
        n = offset
        while chunk := list(islice(rows, size)):
            for i, row in enumerate(chunk):
                if len(row) > width:
                    raise DataError(f"line {_row_line(path, n + i)}: {len(row)} cells, "
                                    f"the header has {width}")
                row += [""] * (width - len(row))
            texts = (writer.writerow(row + [""])[:-3] for row in chunk)
            yield len(chunk), dict(zip(header, zip(*chunk))), texts
            n += len(chunk)

    return header, chunks()


def _row_line(path, i):
    """The physical line data row i (from 0) of a CSV file starts on, read
    again by csv.reader up to the row; for error messages only."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, [])
        end = reader.line_num
        for row in reader:
            start, end = end + 1, reader.line_num
            if row and (i := i - 1) < 0:
                return start


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


class ClassWeights(NamedTuple):
    """Per-class loss weights balancing clicks against non-clicks: the
    pair the loss indexes by label, non-clicks (0) first."""

    weight_nonclick: float = 1.0
    weight_click: float = 1.0


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
    """Drop test rows whose item occurs in the sub-training set. The two
    logs may hold different token tables, so items compare as tokens."""
    if test_log.item_field is None or subtrain_log.item_field is None:
        raise DataError("cold-start filtering requires an item field")
    seen_codes = np.unique(subtrain_log.categorical[subtrain_log.item_field]).tolist()
    seen = set(map(subtrain_log.tokens[subtrain_log.item_field].__getitem__, seen_codes))
    unseen = np.array([token not in seen for token in test_log.tokens[test_log.item_field]],
                      dtype=bool)
    return test_log[unseen[test_log.categorical[test_log.item_field]]]


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
        return replace(self, n_placeholders=n)

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


def append_placeholders(X: DesignMatrix, n):
    """New matrix with n zero columns appended as the placeholder block.

    The categorical block is shared with the input and the continuous block
    is new. ``encode`` calls it for a schema with placeholders, so callers
    need not; no entry point writes the matrices it is given, so one result
    can feed train_xdboost, train_unboosted and scoring alike.
    """
    if X.n_placeholders:
        raise UsageError("matrix already has placeholder columns")
    if n < 1:
        raise ConfigError(f"placeholder count must be >= 1, got {n}")
    cont = np.concatenate([X.cont, np.zeros((X.n_rows, n))], axis=1)
    return DesignMatrix(X.cat, cont, n)


def records_hash(log):
    """Order-sensitive digest of raw rows, before any encoding.

    Lets experiment runs prove they evaluated on the same rows even when
    their schemas (and therefore encoded matrices) differ. Each row hashes
    as the JSON list [timestamp, user (null without one), item (likewise),
    sorted pairs of the other categorical fields, sorted continuous pairs
    (null when missing), label], the text of ``json.dumps``. Each distinct
    token is escaped once and the escaped texts are gathered by code; each
    other column is turned into JSON in one pass per HASH_CHUNK_ROWS rows.
    """
    escaped = {name: np.array([encode_basestring_ascii(t) for t in tokens], dtype=object)
               for name, tokens in log.tokens.items()}

    def strings(name, rows):
        if name is None:
            return repeat("null")
        return escaped[name][log.categorical[name][rows]].tolist()

    def floats(col, nan):
        text = list(map(float.__repr__, col.tolist()))
        for i in np.flatnonzero(~np.isfinite(col)).tolist():
            text[i] = {"inf": "Infinity", "-inf": "-Infinity"}.get(text[i], nan)
        return text

    roles = (log.user_field, log.item_field)
    cat = sorted(name for name in log.categorical if name not in roles)
    cont = sorted(log.continuous)
    pairs = [", ".join(f"[{encode_basestring_ascii(name)}, \0]" for name in names)
             for names in (cat, cont)]
    # escaped JSON holds no NUL, so NUL marks where a row's values go
    between = [*map(repeat, "[\0, \0, \0, [{}], [{}], \0]".format(*pairs).split("\0"))]
    h = hashlib.sha256()
    for lo in range(0, len(log), HASH_CHUNK_ROWS):
        rows = slice(lo, lo + HASH_CHUNK_ROWS)
        values = [floats(log.timestamp[rows], "NaN"),
                  *(strings(name, rows) for name in (*roles, *cat)),
                  *(floats(log.continuous[name][rows], "null") for name in cont),
                  map(int.__repr__, log.label[rows].tolist())]
        texts = [*chain.from_iterable(zip(between, values)), between[-1]]
        h.update("".join(chain.from_iterable(zip(*texts))).encode())
    return h.hexdigest()


def build_schema(train_log, field_spec, normalize=True):
    """Fit vocabularies and continuous stats on the training split only.

    Each vocabulary numbers its tokens in order of first occurrence in the
    training rows, whatever order the log's token tables hold.
    """
    if not len(train_log):
        raise DataError("cannot build a schema from an empty training split")
    cat_fields = list(field_spec.categorical)
    vocab = {}
    for name in cat_fields:
        codes = dict.fromkeys(train_log.categorical[name].tolist())  # first occurrence order
        tokens = map(train_log.tokens[name].__getitem__, codes)
        vocab[name] = {token: i for i, token in enumerate(dict.fromkeys(tokens))}
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


def encode(log, schema, luts=None):
    """Encode a log against a schema; unseen tokens map to the OOV index.

    Each categorical column is one lookup-table index: the table holds the
    vocabulary index, or the OOV index, of each of the log's tokens.
    ``luts``, a dict the caller keeps, carries the tables from one call to
    the next for logs whose token tables each extend the previous log's,
    as the chunk logs of one scan_csv do: a call then looks up only the
    tokens that are new.

    Missing continuous values take the training mean; with normalization,
    values are min-max scaled by the training range and clamped to [0, 1].
    The schema lays out the matrix: a schema with placeholders (a model's
    schema) gives its ``n_placeholders`` zeroed trailing continuous
    columns, from append_placeholders. Returns (DesignMatrix, labels,
    timestamps).
    """
    n = len(log)
    cat = np.empty((n, len(schema.cat_fields)), dtype=np.int64)
    luts = {} if luts is None else luts
    for j, name in enumerate(schema.cat_fields):
        tokens, lut = log.tokens[name], luts.get(name)
        if lut is None or len(lut) < len(tokens):
            new = tokens if lut is None else tokens[len(lut):]
            indices = np.fromiter(map(schema.vocab[name].get, new, repeat(schema.oov_index(name))),
                                  dtype=np.int64, count=len(new))
            lut = luts[name] = indices if lut is None else np.concatenate([lut, indices])
        cat[:, j] = lut[log.categorical[name]]
    cont = np.empty((n, len(schema.cont_fields)), dtype=np.float64)
    for j, name in enumerate(schema.cont_fields):
        lo, hi, mean = schema.cont_stats[name]
        col = log.continuous[name]
        values = np.where(np.isnan(col), mean, col)
        if schema.normalize:
            values = np.clip((values - lo) / (hi - lo), 0.0, 1.0) if hi > lo else 0.0
        cont[:, j] = values
    X = DesignMatrix(cat, cont, 0)
    if schema.n_placeholders:
        X = append_placeholders(X, schema.n_placeholders)
    return X, log.label.astype(np.float64), log.timestamp.copy()

