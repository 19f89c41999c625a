"""The columnar click log, CSV ingestion, chronological splitting,
sub-training carving, class weights, encoding and cold-start filtering.
Split and weight rules are checked both on hand-sized examples and as
seeded random property loops.
"""

import csv
import hashlib
import json
import math
import os
import re
import tempfile
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (click_csv_texts, click_log, csv_reader_oracle, csv_writer_line,
                      log_rows, make_records, read_csv, records_hash_oracle, same_log,
                      tokens_of)
from xdboost import boosting, data, synth
from xdboost.data import (ClickLog, FeatureSchema, FieldSpec, SplitSpec,
                          build_schema, chronological_split, class_weights,
                          cold_start_filter, encode, ingest_csv, records_hash,
                          sub_training)
from xdboost.errors import ConfigError, DataError, UsageError


# ---- field declarations --------------------------------------------------------

def test_field_spec_from_mapping():
    spec = FieldSpec.from_mapping({"uid": "user", "iid": "item",
                                   "slot": "categorical", "price": "continuous"})
    assert spec.user_field == "uid"
    assert spec.item_field == "iid"
    assert spec.categorical == ["uid", "iid", "slot"]
    assert spec.continuous == ["price"]
    assert FieldSpec.from_mapping(spec.to_mapping()) == spec


def test_field_spec_rejects_bad_mappings():
    with pytest.raises(ConfigError):
        FieldSpec.from_mapping({"a": "user", "b": "user"})
    with pytest.raises(ConfigError):
        FieldSpec.from_mapping({"a": "item", "b": "item"})
    with pytest.raises(ConfigError):
        FieldSpec.from_mapping({"a": "embedding"})
    with pytest.raises(ConfigError, match="unknown type 'embedding'"):  # before the repeat
        FieldSpec.from_mapping({"a": "user", "b": "user", "c": "embedding"})


@pytest.mark.parametrize("categorical", [["c0"], ["item", "user", "c0"], ["user", "c0"], []])
def test_field_spec_categorical_fields_begin_with_the_user_and_item_fields(categorical):
    """A list of context fields alone, the old shape, would drop the user
    and item columns."""
    with pytest.raises(ConfigError, match="must begin with the user and item fields"):
        FieldSpec("user", "item", categorical)
    assert FieldSpec(None, "item", ["item", "c0"]).categorical == ["item", "c0"]
    # without roles every categorical field is a context field, whatever its name
    assert FieldSpec(categorical=categorical).to_mapping() == dict.fromkeys(categorical,
                                                                           "categorical")


# ---- CSV ingestion ---------------------------------------------------------------

_SPEC = FieldSpec(user_field="user", item_field="item",
                  categorical=["user", "item", "c0"], continuous=["x0"])


def _write_log(path, rows):
    lines = ["timestamp,user,item,c0,x0,label"]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_ingest_happy_path(tmp_path):
    path = tmp_path / "log.csv"
    _write_log(path, [[3, "u1", "i1", "g0", 0.25, 1],
                      [1, "u2", "i2", "g1", 0.75, 0]])
    log = ingest_csv(path, _SPEC)
    assert log_rows(log) == [  # file order, not sorted
        (3.0, "u1", "i1", {"c0": "g0"}, {"x0": 0.25}, 1),
        (1.0, "u2", "i2", {"c0": "g1"}, {"x0": 0.75}, 0)]
    assert log.timestamp.dtype == np.float64 and log.label.dtype == np.int64
    assert log.categorical["user"].dtype == np.int64 and log.continuous["x0"].dtype == np.float64
    assert log.tokens["user"] == ("u1", "u2")


def test_click_log_selects_rows_by_slice_index_array_and_mask():
    log = make_records(6, seed=3)
    rows = log_rows(log)
    assert len(log) == 6
    assert log_rows(log[2:5]) == rows[2:5]
    assert log_rows(log[np.array([4, 0, 4])]) == [rows[4], rows[0], rows[4]]
    mask = np.array([True, False, False, True, False, True])
    assert log_rows(log[mask]) == [rows[0], rows[3], rows[5]]
    assert len(log[:0]) == 0
    no_user = click_log([1, 2], {"item": ["a", "b"]}, {}, [0, 1], item_field="item")
    assert (no_user[1:].user_field, no_user[1:].item_field) == (None, "item")
    assert log_rows(no_user[1:]) == [(2.0, None, "b", {}, {}, 1)]


@pytest.mark.parametrize("roles", [{"user_field": "u"}, {"item_field": "x0"},
                                   {"user_field": "c0", "item_field": "i"}])
def test_click_log_refuses_a_role_that_names_no_categorical_column(roles):
    """Else records_hash would write null for the role and encode would
    fail on a missing column."""
    with pytest.raises(DataError, match="names no categorical column"):
        click_log([1.0], {"c0": ["a"]}, {"x0": [0.5]}, [1], **roles)


@pytest.mark.parametrize("labels", [[0.5, 1.7, 0], [0, 1, math.nan], [0, -math.inf, 1]])
def test_click_log_refuses_a_label_that_is_not_an_integer(labels):
    """A cast to int64 would truncate 0.5 and 1.7 to a silent 0 and 1."""
    with pytest.raises(DataError, match="is not an integer"):
        ClickLog([1, 2, 3], {}, {}, {}, labels)
    assert ClickLog([1, 2], {}, {}, {}, [1.0, 0.0]).label.tolist() == [1, 0]
    assert ClickLog([1, 2], {}, {}, {}, [2 ** 62, -5]).label.tolist() == [2 ** 62, -5]


def test_click_log_refuses_codes_outside_their_token_table():
    """A code past its table, or below zero, would index a wrong token or
    wrap silently; every categorical column needs a table, and only one."""
    for codes in ([0, 2], [-1, 0], [0.0, 1.0]):
        with pytest.raises(DataError, match="a code does not index its 2 tokens"):
            ClickLog([1, 2], {"c0": codes}, {"c0": ("a", "b")}, {}, [0, 1])
    for tokens in ({}, {"c0": ("a", "b"), "c1": ("a",)}):
        with pytest.raises(DataError, match="token tables for"):
            ClickLog([1, 2], {"c0": [0, 1]}, tokens, {}, [0, 1])
    log = ClickLog([1, 2], {"c0": np.array([1, 0], dtype=np.uint8)}, {"c0": ["a", "b"]},
                   {}, [0, 1])
    assert log.categorical["c0"].dtype == np.int64 and log.tokens["c0"] == ("a", "b")
    assert log[1:].tokens["c0"] is log.tokens["c0"]  # selections share the tables


def _reordered(log, name):
    """The same rows with the token table of one field reversed."""
    tokens = log.tokens[name]
    codes = {**log.categorical, name: len(tokens) - 1 - log.categorical[name]}
    return ClickLog(log.timestamp, codes, {**log.tokens, name: tokens[::-1]}, log.continuous,
                    log.label, log.user_field, log.item_field)


def test_token_table_order_changes_no_schema_encoding_or_digest():
    """build_schema numbers tokens by their first row, encode looks them up
    through the table and records_hash gathers them by code, so a log whose
    tables list the same tokens in another order gives the same results."""
    records = make_records(40, seed=73)
    spec = FieldSpec(user_field="user", item_field="item",
                     categorical=["user", "item", "c0"], continuous=["x0"])
    other = _reordered(_reordered(records, "item"), "c0")
    assert other.tokens["item"] != records.tokens["item"]
    assert log_rows(other) == log_rows(records)
    schema = build_schema(records[:30], spec)
    assert build_schema(other[:30], spec).hash() == schema.hash()
    assert encode(other, schema)[0].cat.tobytes() == encode(records, schema)[0].cat.tobytes()
    assert records_hash(other) == records_hash(records)


def test_ingest_missing_file_and_columns(tmp_path):
    with pytest.raises(DataError, match="not found"):
        ingest_csv(tmp_path / "absent.csv", _SPEC)
    path = tmp_path / "log.csv"
    path.write_text("timestamp,user,label\n1,u1,0\n")
    with pytest.raises(DataError, match="missing required columns"):
        ingest_csv(path, _SPEC)


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("header, scoring, name", [
    ("timestamp,user,item,c0,x0,label,label", False, "label"),
    ("c0,timestamp,user,item,c0,x0,label", False, "c0"),
    ("timestamp,user,item,c0,x0,timestamp", True, "timestamp")],
    ids=["label", "declared-field", "scoring-timestamp"])
def test_read_csv_refuses_a_column_named_twice(tmp_path, quoted, header, scoring, name):
    """Each parse path would read only the last of the two columns, so a
    second label column of zeros would erase every click."""
    width = header.count(",") + 1
    first = '"1"' if quoted else "1"  # a quote sends the file down the csv.reader path
    path = tmp_path / "log.csv"
    path.write_text(f"{header}\n{first}{',1' * (width - 1)}\n")
    with pytest.raises(DataError, match=f"names column '{name}' 2 times"):
        read_csv(path, _SPEC, scoring=scoring)


def test_ingest_strict_errors_name_the_line(tmp_path):
    path = tmp_path / "log.csv"
    _write_log(path, [[1, "u1", "i1", "g0", 0.5, 1],
                      [2, "u2", "i2", "g1", 0.5, 2]])
    with pytest.raises(DataError, match="line 3: non-binary label"):
        ingest_csv(path, _SPEC)

    _write_log(path, [["noon", "u1", "i1", "g0", 0.5, 1]])
    with pytest.raises(DataError, match="line 2: bad timestamp"):
        ingest_csv(path, _SPEC)

    _write_log(path, [[1, "u1", "i1", "g0", "cheap", 1]])
    with pytest.raises(DataError, match="line 2: bad continuous value"):
        ingest_csv(path, _SPEC)

    _write_log(path, [[1, "u1", "i1", "g0", 0.5, 1, "extra"]])
    with pytest.raises(DataError, match="line 2: 7 cells, the header has 6"):
        ingest_csv(path, _SPEC)


def test_ingest_rejects_non_finite_numbers(tmp_path):
    # NaN would pass for a missing value and inf would stretch the
    # training range until every finite value encodes to 0
    path = tmp_path / "log.csv"
    for bad in ("inf", "-inf", "nan", "1e999"):
        _write_log(path, [[1, "u1", "i1", "g0", 0.5, 1],
                          [2, "u2", "i2", "g1", bad, 0]])
        with pytest.raises(DataError, match=f"line 3: bad continuous value in 'x0': '{bad}'"):
            ingest_csv(path, _SPEC)
        _write_log(path, [[bad, "u1", "i1", "g0", 0.5, 1]])
        with pytest.raises(DataError, match="line 2: bad timestamp"):
            ingest_csv(path, _SPEC)


def test_ingest_fills_missing_values(tmp_path):
    path = tmp_path / "log.csv"
    _write_log(path, [[1, "", "i1", "", "", 1]])
    path.write_text(path.read_text() + "\n2,u2,i2,g1\n")  # a blank line, a short row
    with pytest.raises(DataError, match="line 4: non-binary label: ''"):
        ingest_csv(path, _SPEC)
    path.write_text(path.read_text().replace("i2,g1", "i2,g1,,0"))
    log = ingest_csv(path, _SPEC)
    assert tokens_of(log, "user") == ["__missing__", "u2"]
    assert tokens_of(log, "c0") == ["__missing__", "g1"]
    assert np.isnan(log.continuous["x0"]).all()


@pytest.mark.parametrize("before", ["1,u1,i1,g0,0.5,1\n\n\n", '1,"u\n1",i1,g0,0.5,1\n\n'],
                         ids=["plain", "quoted"])
@pytest.mark.parametrize("row, message", [
    ("noon,u2,i2,g1,0.5,1", "line 5: bad timestamp: 'noon'"),
    ("2,u2,i2,g1,nan,0", "line 5: bad continuous value in 'x0': 'nan'"),
    ("2,u2,i2,g1,0.5,2", "line 5: non-binary label: '2'"),
    ("2,u2,i2,g1,0.5,1,extra", "line 5: 7 cells, the header has 6"),
], ids=["timestamp", "continuous", "label", "too-many-cells"])
def test_ingest_errors_name_the_physical_line_after_blank_lines(tmp_path, before, row, message):
    """The bad row starts on line 5, after two blank lines, or after a
    quoted cell spanning two lines and one blank line."""
    path = tmp_path / "log.csv"
    path.write_text("timestamp,user,item,c0,x0,label\n" + before + row + "\n")
    with pytest.raises(DataError, match=re.escape(message)):
        ingest_csv(path, _SPEC)


def test_a_cell_past_the_csv_field_limit_is_refused(tmp_path):
    """A line too long for csv.reader leaves the plain-text path, so the
    file is refused as csv.reader refuses it."""
    path = tmp_path / "log.csv"
    _write_log(path, [[1, "u" * (csv.field_size_limit() + 1), "i1", "g0", 0.5, 1]])
    with pytest.raises(csv.Error, match="field larger than field limit"):
        ingest_csv(path, _SPEC)


def _outcome(read, path, scoring):
    """What a reader returns, or the type and message of what it raises."""
    try:
        return read(path, _SPEC, scoring)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(text=click_csv_texts(["timestamp", "user", "item", "c0", "x0", "label"],
                            continuous=("x0",)),
       scoring=st.booleans())
@example(text="timestamp,user,item,c0,x0,label\n1,u1,i1\n2,u2,i2,g2,0.5,1,x,y,z\n",
         scoring=False)
@example(text="timestamp,user,item,c0,x0,label\r\n\r\n1,u1,i1,g1,0.5,1\r\n"
              "2,u2,i2,g2,,1\r\n\r\n3,u3,i3,g3,1e999,0", scoring=False)
@example(text="timestamp,user,item,c0,x0,label\n1,u\0,i1,g1,0.5,1\n2,u2,i2,g2,x,0\n",
         scoring=False)
def test_read_csv_equals_the_csv_reader_oracle(text, scoring):
    """Same header, log columns and row texts as csv.reader alone gives,
    or the same error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        got = _outcome(read_csv, path, scoring)
        want = _outcome(csv_reader_oracle, path, scoring)
    if isinstance(want[0], type):
        assert got == want
        return
    assert isinstance(got[2], ClickLog), got
    (header, texts, log), (want_header, rows, want_log) = got, want
    assert header == want_header
    assert [f"{text},p\r\n" for text in texts] == [csv_writer_line(row + ["p"]) for row in rows]
    assert same_log(log, want_log)


@settings(max_examples=200, deadline=None)
@given(text=click_csv_texts(["timestamp", "user", "item", "c0", "x0", "label"],
                            continuous=("x0",)),
       scoring=st.booleans(), chunk_rows=st.integers(1, 3))
def test_read_csv_in_chunks_of_any_size_reads_the_same(text, scoring, chunk_rows):
    """Chunks of one to three rows give the header, log and texts of one
    chunk, or fail with the same kind of error: the first chunk holding a
    fault raises, so with several faults it may name another."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        whole = _outcome(read_csv, path, scoring)
        with patch.object(data, "CHUNK_ROWS", chunk_rows):
            got = _outcome(read_csv, path, scoring)
    if isinstance(whole[0], type):
        assert got[0] is whole[0]
        return
    (header, texts, log), (want_header, want_texts, want_log) = got, whole
    assert header == want_header
    assert list(texts) == list(want_texts)
    assert same_log(log, want_log)


@pytest.mark.parametrize("tail", ["7,u7,i7,g7,0.5,1", '7,"u7",i7,g7,0.5,1'],
                         ids=["plain", "quoted"])
def test_both_paths_raise_the_first_faulty_chunk_after_blank_lines(tmp_path, tail):
    """In chunks of two rows, the bad label of data row 3 (line 6, after a
    blank line) is raised before the bad timestamp of row 4 in the next
    chunk, which a single chunk would raise first. So it is on the plain
    path and when a quote in the last row sends the file to csv.reader."""
    rows = ["1,u1,i1,g1,0.5,1", "2,u2,i2,g2,0.5,0", "", "3,u3,i3,g3,0.5,0",
            "4,u4,i4,g4,0.5,2", "noon,u5,i5,g5,0.5,1", "6,u6,i6,g6,0.5,0", tail]
    path = tmp_path / "log.csv"
    path.write_text("\n".join(["timestamp,user,item,c0,x0,label", *rows]) + "\n")
    with pytest.raises(DataError, match="^line 7: bad timestamp: 'noon'$"):
        read_csv(path, _SPEC)
    with patch.object(data, "CHUNK_ROWS", 2), \
            pytest.raises(DataError, match="^line 6: non-binary label: '2'$"):
        read_csv(path, _SPEC)


def test_scan_csv_chunks_share_one_growing_token_table(tmp_path):
    """Each chunk log shares its field's one table, so a field with a new
    token on every row costs no copy of the table per chunk; the joined
    log holds it as a tuple."""
    path = tmp_path / "log.csv"
    _write_log(path, [[i, f"u{i}", "i1", "g0", 0.5, i % 2] for i in range(7)])

    with patch.object(data, "CHUNK_ROWS", 2):
        with data.scan_csv(path, _SPEC) as (_, logs):
            chunks = [(len(log), log.tokens["user"]) for log, _ in logs]
        log = ingest_csv(path, _SPEC)
    assert [n for n, _ in chunks] == [2, 2, 2, 1]
    assert all(table is chunks[0][1] for _, table in chunks)
    assert log.tokens["user"] == tuple(chunks[0][1]) == tuple(f"u{i}" for i in range(7))


def test_a_quote_in_the_last_row_parses_each_row_once(tmp_path):
    """In chunks of two rows, a quote in the seventh and last row hands
    the rest of the file to csv.reader without reading the first six rows
    again: each field's factorizer is given 7 cells, and the log is the
    one csv.reader alone reads."""
    rows = [[i, f"u{i}", "i1", "g0", 0.5, i % 2] for i in range(7)]
    rows[6][1] = '"u6"'
    path = tmp_path / "log.csv"
    _write_log(path, rows)
    given = {}
    codes = data._Factorizer.codes

    def counted(self, cells):
        given[self] = given.get(self, 0) + len(cells)
        return codes(self, cells)

    with patch.object(data, "CHUNK_ROWS", 2), patch.object(data._Factorizer, "codes", counted):
        header, texts, log = read_csv(path, _SPEC)
    assert sorted(given.values()) == [7] * len(_SPEC.categorical)
    want_header, want_rows, want_log = csv_reader_oracle(path, _SPEC)
    assert header == want_header
    assert [f"{text},p\r\n" for text in texts] == [csv_writer_line(row + ["p"])
                                                   for row in want_rows]
    assert same_log(log, want_log)


def test_read_csv_peak_memory_is_a_small_multiple_of_the_file(tmp_path):
    """No str per cell outlives its chunk: on a generated log eight chunks
    long, read_csv's tracemalloc peak is at most 5.4 times the file's size.
    Read whole, with a str per cell, it was 11.5 times at 32 768 rows (and
    10.8 at 200 000)."""
    records, _ = synth.generate_records(synth.SynthConfig(n_rows=8 * data.CHUNK_ROWS,
                                                          seed=701))
    path = tmp_path / "data.csv"
    synth.write_csv(records, path)
    del records
    tracemalloc.start()
    try:
        header, texts, log = read_csv(path, synth.field_spec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log) == 8 * data.CHUNK_ROWS
    assert peak <= 5.4 * os.path.getsize(path)



def test_ingest_csv_keeps_no_row_text(tmp_path):
    """ingest_csv makes no row text and keeps no chunk's raw text: on a
    generated log eight chunks long its tracemalloc peak is at most 3.4
    times the file's size. Keeping every chunk's raw text for row texts
    nobody read, it was 4.40 times, the raw text being about 1.0 of that."""
    records, _ = synth.generate_records(synth.SynthConfig(n_rows=8 * data.CHUNK_ROWS,
                                                          seed=701))
    path = tmp_path / "data.csv"
    synth.write_csv(records, path)
    del records
    tracemalloc.start()
    try:
        log = ingest_csv(path, synth.field_spec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log) == 8 * data.CHUNK_ROWS
    assert peak <= 3.4 * os.path.getsize(path)

# ---- chronological split ----------------------------------------------------------

def test_split_of_100_is_72_8_20():
    train, val, test = chronological_split(make_records(100))
    assert (len(train), len(val), len(test)) == (72, 8, 20)


def test_split_of_10_gives_train_the_remainder():
    # floors are 7/0/2; the leftover row joins the training region
    train, val, test = chronological_split(make_records(10))
    assert (len(train), len(val), len(test)) == (8, 0, 2)


def test_split_sorts_by_timestamp_before_cutting():
    records = make_records(50, timestamps=list(reversed(range(50))))
    train, val, test = chronological_split(records)
    ordered = log_rows(train) + log_rows(val) + log_rows(test)
    assert ordered == log_rows(records)[::-1]
    assert [r[0] for r in ordered] == sorted(float(t) for t in range(50))


def test_split_with_equal_timestamps_keeps_input_order():
    records = make_records(20, timestamps=[5.0] * 20, items=[f"row{i}" for i in range(20)])
    train, val, test = chronological_split(records)
    assert log_rows(train) + log_rows(val) + log_rows(test) == log_rows(records)


def test_split_needs_three_records():
    with pytest.raises(DataError):
        chronological_split(make_records(2))


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(0.5, 0.5, 0.5)
    with pytest.raises(ConfigError):
        SplitSpec(-0.1, 0.9, 0.2)
    # every bound fails NaN, whichever fraction holds it
    for spec in ((math.nan, 0.1, 0.2), (0.7, math.nan, 0.2), (0.7, 0.1, math.nan)):
        with pytest.raises(ConfigError):
            SplitSpec(*spec)


def test_split_partition_and_order_property():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(3, 400))
        ts = rng.integers(0, 50, size=n)  # duplicates on purpose
        records = make_records(n, timestamps=ts, items=[f"row{i}" for i in range(n)])
        train, val, test = chronological_split(records)
        assert len(train) + len(val) + len(test) == n
        assert len(val) == math.floor(0.08 * n)
        assert len(test) == math.floor(0.20 * n)
        # every row lands in exactly one split, unchanged
        parts = log_rows(train) + log_rows(val) + log_rows(test)
        assert sorted(parts, key=lambda r: r[2]) == sorted(log_rows(records), key=lambda r: r[2])
        chunks = [c for c in (train, val, test) if len(c)]
        for early, late in zip(chunks, chunks[1:]):
            assert early.timestamp[-1] <= late.timestamp[0]


# ---- sub-training carving -----------------------------------------------------------

def test_sub_training_takes_the_most_recent_slice():
    records = make_records(100)
    train, _, _ = chronological_split(records)
    sub = sub_training(records, train, 10)
    assert len(sub) == 10
    assert log_rows(sub) == log_rows(train)[-10:]


def test_sub_training_at_72_is_the_whole_region():
    records = make_records(100)
    train, _, _ = chronological_split(records)
    assert log_rows(sub_training(records, train, 72)) == log_rows(train)


def test_sub_training_one_percent_of_100_is_one_record():
    records = make_records(100)
    train, _, _ = chronological_split(records)
    sub = sub_training(records, train, 1)
    assert len(sub) == 1
    assert log_rows(sub) == log_rows(train)[-1:]


def test_sub_training_range_errors():
    records = make_records(100)
    train, _, _ = chronological_split(records)
    with pytest.raises(ConfigError):
        sub_training(records, train, 0)
    with pytest.raises(ConfigError):
        sub_training(records, train, 72.5)
    with pytest.raises(DataError):
        sub_training(make_records(5), train[:4], 10)  # floor gives zero rows


def test_sub_training_bound_follows_the_split():
    records = make_records(100)
    split = SplitSpec(train=0.9, val=0.05, test=0.05)
    train, _, _ = chronological_split(records, split)
    assert log_rows(sub_training(records, train, 80, split)) == log_rows(train)[-80:]
    assert log_rows(sub_training(records, train, 90, split)) == log_rows(train)
    with pytest.raises(ConfigError, match=r"outside \(0, 90\]"):
        sub_training(records, train, 90.5, split)
    with pytest.raises(ConfigError, match=r"outside \(0, 50\]"):
        SplitSpec(train=0.5, val=0.25, test=0.25).check_sub_training_percent(60)
    # 100 * 0.57 is just below 57 in floating point; the bound still holds 57
    SplitSpec(train=0.57, val=0.23, test=0.2).check_sub_training_percent(57)


def test_sub_training_of_a_region_cut_by_another_split_is_a_config_error():
    records = make_records(100)
    train, _, _ = chronological_split(records, SplitSpec(train=0.3, val=0.2, test=0.5))
    # 50% is within the default split's 72%, but not within this 30-row region
    with pytest.raises(ConfigError, match=r"exceeds the training region \(30 rows\)"):
        sub_training(records, train, 50)


def test_sub_training_sets_are_nested():
    records = make_records(250, seed=43)
    train, _, _ = chronological_split(records)
    pcts = [1, 5, 10, 20, 40, 72]
    subs = [sub_training(records, train, p) for p in pcts]
    for smaller, larger in zip(subs, subs[1:]):
        assert len(smaller) < len(larger)
        assert log_rows(smaller) == log_rows(larger)[-len(smaller):]


# ---- class weights --------------------------------------------------------------------

def test_class_weights_hand_examples():
    w = class_weights([0] * 100 + [1] * 25)
    assert (w.weight_nonclick, w.weight_click) == (1.0, 4.0)
    w = class_weights([0] * 50 + [1] * 50)
    assert (w.weight_nonclick, w.weight_click) == (1.0, 1.0)
    w = class_weights([0] * 848 + [1] * 152)
    assert abs(w.weight_click - 848 / 152) < 1e-12


def test_class_weights_never_downweight_clicks():
    w = class_weights([0] * 10 + [1] * 40)
    assert w.weight_click == 1.0
    assert class_weights([1, 1, 1]).weight_click == 1.0


def test_class_weights_errors():
    with pytest.raises(DataError):
        class_weights([0, 0, 0])
    with pytest.raises(DataError):
        class_weights([0, 1, 2])


def test_class_weights_match_the_count_ratio_exactly():
    rng = np.random.default_rng(47)
    for _ in range(50):
        n_click = int(rng.integers(1, 400))
        n_nonclick = int(rng.integers(0, 400))
        labels = np.concatenate([np.ones(n_click, dtype=int),
                                 np.zeros(n_nonclick, dtype=int)])
        rng.shuffle(labels)
        w = class_weights(labels)
        expected = n_nonclick / n_click if n_nonclick > n_click else 1.0
        assert abs(w.weight_click - expected) <= 1e-12
        assert w.weight_nonclick == 1.0
        assert tuple(w) == (w.weight_nonclick, w.weight_click)


# ---- cold-start filtering ----------------------------------------------------------

def _records_with_items(items, offset=0):
    return make_records(len(items), seed=offset, items=items)


def test_cold_start_filter_cases():
    test_rows = _records_with_items(["A", "B", "C"])
    kept = cold_start_filter(test_rows, _records_with_items(["X", "Y"]))
    assert log_rows(kept) == log_rows(test_rows)
    assert len(cold_start_filter(test_rows, _records_with_items(["A", "B", "C"]))) == 0
    kept = cold_start_filter(test_rows, _records_with_items(["B"]))
    assert log_rows(kept) == [log_rows(test_rows)[i] for i in (0, 2)]


def test_cold_start_filter_soundness_property():
    rng = np.random.default_rng(53)
    for _ in range(25):
        test_rows = _records_with_items([f"i{rng.integers(8)}" for _ in range(30)])
        train_rows = _records_with_items([f"i{rng.integers(8)}" for _ in range(20)])
        seen = set(tokens_of(train_rows, "item"))
        kept = cold_start_filter(test_rows, train_rows)
        # exactly the unseen rows survive, in their order
        assert log_rows(kept) == [r for r in log_rows(test_rows) if r[2] not in seen]


def test_cold_start_filter_compares_items_across_token_tables():
    """The logs' item tables differ in order, some items are in one table
    only (the training table also lists the items of rows the sub-training
    slice left out), and some cells strip to another cell's token. The
    kept rows are those a set of stripped item strings keeps."""
    rng = np.random.default_rng(79)
    names = ["a", " a", "a ", "b", "c", "d ", "e", "f"]
    for _ in range(25):
        test_items = [names[i] for i in rng.integers(0, len(names), 12)]
        region_items = [names[i] for i in rng.integers(0, len(names), 10)]
        test_rows = _records_with_items(test_items)
        sub = _records_with_items(region_items, offset=1)[5:]
        seen = {item.strip() for item in region_items[5:]}
        kept = cold_start_filter(test_rows, sub)
        assert log_rows(kept) == [row for row, item in zip(log_rows(test_rows), test_items)
                                  if item.strip() not in seen]
    test_rows = _records_with_items(["b", " a", "z", "c", "a "])
    sub = _records_with_items(["z", "c ", "a"], offset=1)[1:]
    assert test_rows.tokens["item"] == ("b", "a", "z", "c")
    assert sub.tokens["item"] == ("z", "c", "a")
    assert tokens_of(cold_start_filter(test_rows, sub), "item") == ["b", "z"]


def test_cold_start_filter_requires_item_ids():
    rows = _records_with_items(["A"])
    rows.item_field = None
    with pytest.raises(DataError):
        cold_start_filter(rows, _records_with_items(["B"]))
    with pytest.raises(DataError):
        cold_start_filter(_records_with_items(["B"]), rows)


# ---- schema building and encoding ----------------------------------------------------

def test_vocabulary_counts_distinct_tokens_plus_oov():
    records = _records_with_items(["a", "b", "a"])
    spec = FieldSpec(user_field="user", item_field="item",
                     categorical=["user", "item", "c0"], continuous=["x0"])
    schema = build_schema(records, spec)
    assert len(schema.vocab["item"]) == 2
    assert schema.vocab_size("item") == 3
    assert schema.oov_index("item") == 2
    assert schema.vocab["item"] == {"a": 0, "b": 1}  # first-appearance order


def test_encode_is_consistent_and_maps_unseen_to_oov():
    records = make_records(40, seed=57)
    spec = FieldSpec(user_field="user", item_field="item",
                     categorical=["user", "item", "c0"], continuous=["x0"])
    schema = build_schema(records[:30], spec)
    X, y, ts = encode(records[:30], schema)
    assert X.cat.dtype == np.int64
    assert X.cont.dtype == np.float64
    assert y.dtype == np.float64 and np.array_equal(y, records.label[:30])
    assert np.array_equal(ts, records.timestamp[:30])

    item_col = schema.cat_fields.index("item")
    token_to_index = {}
    for row, item in zip(X.cat, tokens_of(records, "item")[:30]):
        token_to_index.setdefault(item, set()).add(int(row[item_col]))
    assert all(len(v) == 1 for v in token_to_index.values())
    assert {t: i.pop() for t, i in token_to_index.items()} == schema.vocab["item"]

    novel = _records_with_items(["never-seen"], offset=58)
    X_novel, _, _ = encode(novel, schema)
    assert X_novel.cat[0, item_col] == schema.oov_index("item")


def test_encode_minmax_scales_train_to_unit_interval():
    records = make_records(20, seed=59)
    records.continuous["x0"][:] = np.arange(20.0)
    spec = FieldSpec(user_field="user", item_field="item", categorical=["user", "item"],
                     continuous=["x0"])
    schema = build_schema(records, spec)
    X, _, _ = encode(records, schema)
    col = X.cont[:, 0]
    assert col.min() == 0.0 and col.max() == 1.0
    assert abs(col[10] - 10.0 / 19.0) < 1e-12

    out_of_range = make_records(2, seed=60)
    out_of_range.continuous["x0"][:] = [-5.0, 99.0]
    X_clamped, _, _ = encode(out_of_range, schema)
    assert np.array_equal(X_clamped.cont[:, 0], [0.0, 1.0])


def test_encode_imputes_missing_continuous_with_the_train_mean():
    records = make_records(5, seed=61)
    records.continuous["x0"][:] = [1.0, 2.0, np.nan, 3.0, 6.0]  # NaN is missing
    spec = FieldSpec(user_field="user", item_field="item", categorical=["user", "item"],
                     continuous=["x0"])
    schema = build_schema(records, spec, normalize=False)
    assert schema.cont_stats["x0"] == (1.0, 6.0, 3.0)
    holed = make_records(1, seed=62)
    holed.continuous["x0"][0] = np.nan
    X, _, _ = encode(holed, schema)
    assert X.cont[0, 0] == 3.0
    records.continuous["x0"][:] = np.nan
    assert build_schema(records, spec).cont_stats["x0"] == (0.0, 1.0, 0.0)


@pytest.mark.parametrize("n_rows", [30, 0])
@pytest.mark.parametrize("n", [1, 3])
def test_encode_against_a_schema_with_placeholders_appends_them(n_rows, n):
    """The schema lays out the matrix: n placeholder columns are
    append_placeholders' zeroed block on the placeholder-free encoding, bit
    for bit."""
    records = make_records(40, seed=64)
    spec = FieldSpec(user_field="user", item_field="item",
                     categorical=["user", "item", "c0"], continuous=["x0"])
    schema = build_schema(records[:30], spec)
    rows = records[10:10 + n_rows]
    X, y, ts = encode(rows, schema.with_placeholders(n))
    bare, y_bare, ts_bare = encode(rows, schema)
    expected = data.append_placeholders(bare, n)
    assert (X.n_placeholders, X.cont.shape) == (n, (n_rows, 1 + n))
    assert X.cat.tobytes() == expected.cat.tobytes()
    assert X.cont.tobytes() == expected.cont.tobytes()
    assert not X.placeholder_block().any()
    assert np.array_equal(y, y_bare) and np.array_equal(ts, ts_bare)
    assert bare.n_placeholders == 0


def test_a_matrix_without_placeholders_has_no_placeholder_block():
    records = make_records(10, seed=65)
    spec = FieldSpec.from_mapping({"user": "user", "item": "item", "c0": "categorical",
                                   "x0": "continuous"})
    X, _, _ = encode(records, build_schema(records, spec))
    with pytest.raises(UsageError, match="no placeholder columns"):
        X.placeholder_block()


def test_append_placeholders_lives_beside_the_matrix():
    assert boosting.append_placeholders is data.append_placeholders


def test_encode_rejects_non_numeric_values(tmp_path):
    """A non-numeric continuous value never reaches encode: building or
    parsing the log rejects it."""
    records = make_records(2, seed=63)
    with pytest.raises(DataError, match="non-numeric value in a numeric column"):
        ClickLog(records.timestamp, records.categorical, records.tokens,
                 {"x0": [0.5, "expensive"]}, records.label, records.user_field,
                 records.item_field)
    path = tmp_path / "log.csv"
    _write_log(path, [[1, "u1", "i1", "g0", 0.5, 1], [2, "u2", "i2", "g1", "expensive", 0]])
    with pytest.raises(DataError, match="line 3: bad continuous value in 'x0': 'expensive'"):
        ingest_csv(path, _SPEC)


def test_build_schema_needs_training_rows():
    spec = FieldSpec(user_field="user", item_field="item", categorical=["user", "item"])
    with pytest.raises(DataError):
        build_schema(make_records(3)[:0], spec)


def test_schema_dict_roundtrip_and_hash():
    records = make_records(15, seed=67)
    spec = FieldSpec(user_field="user", item_field="item",
                     categorical=["user", "item", "c0"], continuous=["x0"])
    schema = build_schema(records, spec)
    clone = FeatureSchema.from_dict(json.loads(json.dumps(schema.to_dict())))
    assert clone.hash() == schema.hash()
    assert clone.vocab == schema.vocab
    other = schema.with_placeholders(2)
    assert other.hash() != schema.hash()
    with pytest.raises(UsageError):
        other.with_placeholders(1)


def test_records_hash_is_order_and_content_sensitive():
    records = make_records(10, seed=71)
    assert records_hash(records) == records_hash(records[np.arange(10)])
    assert records_hash(records) != records_hash(records[::-1])
    flipped = make_records(10, seed=71)
    flipped.label[0] = 1 - flipped.label[0]
    assert records_hash(records) != records_hash(flipped)


def test_records_hash_digests_one_json_list_per_row():
    # the digest stays comparable with result files written before the
    # log became columnar: one JSON list per row, null for a missing value
    log = click_log([2.0, 7.5], {"user": ["u1", "u2"], "item": ["i1", "i2"], "c1": ["b", "d"],
                                "c0": ["a", "c"]}, {"x0": [0.25, np.nan]}, [1, 0], "user", "item")
    expected = hashlib.sha256()
    expected.update(b'[2.0, "u1", "i1", [["c0", "a"], ["c1", "b"]], [["x0", 0.25]], 1]')
    expected.update(b'[7.5, "u2", "i2", [["c0", "c"], ["c1", "d"]], [["x0", null]], 0]')
    assert records_hash(log) == expected.hexdigest()
    no_item = click_log([1.0], {"u": ["u1"]}, {}, [1], user_field="u")
    assert records_hash(no_item) == hashlib.sha256(b'[1.0, "u1", null, [], [], 1]').hexdigest()


# Tokens and field names JSON must escape, or that the row template could
# mistake for its own syntax.
AWKWARD_TEXT = st.text(max_size=5) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "%s", "%", "[]", ", "])
ANY_FLOAT = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e16])


@st.composite
def click_logs(draw):
    n = draw(st.integers(0, 9))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    def fields(values, max_size):
        names = draw(st.lists(AWKWARD_TEXT, max_size=max_size, unique=True))
        return {name: column(values) for name in names}

    # the user and item fields, when drawn, are the first two categorical fields
    cat = fields(AWKWARD_TEXT, 5)
    user, item = (name if draw(st.booleans()) else None for name in [*cat, None, None][:2])
    return click_log(column(ANY_FLOAT), cat, fields(ANY_FLOAT, 2),
                     column(st.integers(-2 ** 63, 2 ** 63 - 1)), user, item)


@settings(max_examples=300, deadline=None)
@given(log=click_logs(), chunk_rows=st.integers(1, 4))
@example(log=click_log([], {}, {}, []), chunk_rows=1)
@example(log=click_log([1.0, math.nan], {"u": ["u", "v"]}, {}, [0, 1], user_field="u"),
         chunk_rows=1)
@example(log=click_log([-math.inf], {"i": ["i"], "c": ["\"\\\x01\u00e9"]},
                       {"x": [math.nan], "y": [math.inf]}, [1], item_field="i"), chunk_rows=4)
def test_records_hash_equals_one_json_dumps_per_row(log, chunk_rows):
    """Any rows, hashed in chunks of any size, give the digest of one
    json.dumps list per row."""
    with patch.object(data, "HASH_CHUNK_ROWS", chunk_rows):
        assert records_hash(log) == records_hash_oracle(log)
