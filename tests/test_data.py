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
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (click_csv_texts, csv_reader_oracle, csv_writer_line, log_rows,
                      make_records, records_hash_oracle, same_log)
from xdboost import data
from xdboost.data import (ClickLog, FeatureSchema, FieldSpec, SplitSpec,
                          build_schema, chronological_split, class_weights,
                          cold_start_filter, encode, ingest_csv, read_csv,
                          records_hash, sub_training)
from xdboost.errors import ConfigError, DataError, UsageError


# ---- field declarations --------------------------------------------------------

def test_field_spec_from_mapping():
    spec = FieldSpec.from_mapping({"uid": "user", "iid": "item",
                                   "slot": "categorical", "price": "continuous"})
    assert spec.user_field == "uid"
    assert spec.item_field == "iid"
    assert spec.categorical == ["slot"]
    assert spec.continuous == ["price"]
    assert spec.all_categorical() == ["uid", "iid", "slot"]
    assert FieldSpec.from_mapping(spec.to_mapping()) == spec


def test_field_spec_rejects_bad_mappings():
    with pytest.raises(ConfigError):
        FieldSpec.from_mapping({"a": "user", "b": "user"})
    with pytest.raises(ConfigError):
        FieldSpec.from_mapping({"a": "item", "b": "item"})
    with pytest.raises(ConfigError):
        FieldSpec.from_mapping({"a": "embedding"})


# ---- CSV ingestion ---------------------------------------------------------------

_SPEC = FieldSpec(user_field="user", item_field="item",
                  categorical=["c0"], continuous=["x0"])


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
    assert log.user_id.dtype == object and log.continuous["x0"].dtype == np.float64


def test_click_log_selects_rows_by_slice_index_array_and_mask():
    log = make_records(6, seed=3)
    rows = log_rows(log)
    assert len(log) == 6
    assert log_rows(log[2:5]) == rows[2:5]
    assert log_rows(log[np.array([4, 0, 4])]) == [rows[4], rows[0], rows[4]]
    mask = np.array([True, False, False, True, False, True])
    assert log_rows(log[mask]) == [rows[0], rows[3], rows[5]]
    assert len(log[:0]) == 0
    no_user = ClickLog([1, 2], None, ["a", "b"], {}, {}, [0, 1])
    assert no_user[1:].user_id is None
    assert log_rows(no_user[1:]) == [(2.0, None, "b", {}, {}, 1)]


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
    assert log.user_id.tolist() == ["__missing__", "u2"]
    assert log.categorical["c0"].tolist() == ["__missing__", "g1"]
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
    records = make_records(20, timestamps=[5.0] * 20)
    records.item_id[:] = [f"row{i}" for i in range(20)]
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


def test_split_partition_and_order_property():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(3, 400))
        ts = rng.integers(0, 50, size=n)  # duplicates on purpose
        records = make_records(n, timestamps=ts)
        records.item_id[:] = [f"row{i}" for i in range(n)]
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
        assert w.as_dict() == {0: w.weight_nonclick, 1: w.weight_click}


# ---- cold-start filtering ----------------------------------------------------------

def _records_with_items(items, offset=0):
    records = make_records(len(items), seed=offset)
    records.item_id[:] = items
    return records


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
        seen = set(train_rows.item_id)
        kept = cold_start_filter(test_rows, train_rows)
        # exactly the unseen rows survive, in their order
        assert log_rows(kept) == [r for r in log_rows(test_rows) if r[2] not in seen]


def test_cold_start_filter_requires_item_ids():
    rows = _records_with_items(["A"])
    rows.item_id = None
    with pytest.raises(DataError):
        cold_start_filter(rows, _records_with_items(["B"]))
    with pytest.raises(DataError):
        cold_start_filter(_records_with_items(["B"]), rows)


# ---- schema building and encoding ----------------------------------------------------

def test_vocabulary_counts_distinct_tokens_plus_oov():
    records = _records_with_items(["a", "b", "a"])
    spec = FieldSpec(user_field="user", item_field="item",
                     categorical=["c0"], continuous=["x0"])
    schema = build_schema(records, spec)
    assert len(schema.vocab["item"]) == 2
    assert schema.vocab_size("item") == 3
    assert schema.oov_index("item") == 2
    assert schema.vocab["item"] == {"a": 0, "b": 1}  # first-appearance order


def test_encode_is_consistent_and_maps_unseen_to_oov():
    records = make_records(40, seed=57)
    spec = FieldSpec(user_field="user", item_field="item",
                     categorical=["c0"], continuous=["x0"])
    schema = build_schema(records[:30], spec)
    X, y, ts = encode(records[:30], schema)
    assert X.cat.dtype == np.int64
    assert X.cont.dtype == np.float64
    assert y.dtype == np.float64 and np.array_equal(y, records.label[:30])
    assert np.array_equal(ts, records.timestamp[:30])

    item_col = schema.cat_fields.index("item")
    token_to_index = {}
    for row, item in zip(X.cat, records.item_id[:30]):
        token_to_index.setdefault(item, set()).add(int(row[item_col]))
    assert all(len(v) == 1 for v in token_to_index.values())
    assert {t: i.pop() for t, i in token_to_index.items()} == schema.vocab["item"]

    novel = _records_with_items(["never-seen"], offset=58)
    X_novel, _, _ = encode(novel, schema)
    assert X_novel.cat[0, item_col] == schema.oov_index("item")


def test_encode_minmax_scales_train_to_unit_interval():
    records = make_records(20, seed=59)
    records.continuous["x0"][:] = np.arange(20.0)
    spec = FieldSpec(user_field="user", item_field="item", continuous=["x0"])
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
    spec = FieldSpec(user_field="user", item_field="item", continuous=["x0"])
    schema = build_schema(records, spec, normalize=False)
    assert schema.cont_stats["x0"] == (1.0, 6.0, 3.0)
    holed = make_records(1, seed=62)
    holed.continuous["x0"][0] = np.nan
    X, _, _ = encode(holed, schema)
    assert X.cont[0, 0] == 3.0
    records.continuous["x0"][:] = np.nan
    assert build_schema(records, spec).cont_stats["x0"] == (0.0, 1.0, 0.0)


def test_encode_rejects_non_numeric_values(tmp_path):
    """A non-numeric continuous value never reaches encode: building or
    parsing the log rejects it."""
    records = make_records(2, seed=63)
    with pytest.raises(DataError, match="non-numeric value in a numeric column"):
        ClickLog(records.timestamp, records.user_id, records.item_id,
                 records.categorical, {"x0": [0.5, "expensive"]}, records.label)
    path = tmp_path / "log.csv"
    _write_log(path, [[1, "u1", "i1", "g0", 0.5, 1], [2, "u2", "i2", "g1", "expensive", 0]])
    with pytest.raises(DataError, match="line 3: bad continuous value in 'x0': 'expensive'"):
        ingest_csv(path, _SPEC)


def test_build_schema_needs_training_rows():
    spec = FieldSpec(user_field="user", item_field="item")
    with pytest.raises(DataError):
        build_schema(make_records(3)[:0], spec)


def test_schema_dict_roundtrip_and_hash():
    records = make_records(15, seed=67)
    spec = FieldSpec(user_field="user", item_field="item",
                     categorical=["c0"], continuous=["x0"])
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
    log = ClickLog([2.0, 7.5], ["u1", "u2"], ["i1", "i2"], {"c1": ["b", "d"], "c0": ["a", "c"]},
                   {"x0": [0.25, np.nan]}, [1, 0])
    expected = hashlib.sha256()
    expected.update(b'[2.0, "u1", "i1", [["c0", "a"], ["c1", "b"]], [["x0", 0.25]], 1]')
    expected.update(b'[7.5, "u2", "i2", [["c0", "c"], ["c1", "d"]], [["x0", null]], 0]')
    assert records_hash(log) == expected.hexdigest()
    no_item = ClickLog([1.0], ["u1"], None, {}, {}, [1])
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

    user, item = (None if draw(st.booleans()) else column(AWKWARD_TEXT) for _ in range(2))
    return ClickLog(column(ANY_FLOAT), user, item, fields(AWKWARD_TEXT, 3), fields(ANY_FLOAT, 2),
                    column(st.integers(-2 ** 63, 2 ** 63 - 1)))


@settings(max_examples=300, deadline=None)
@given(log=click_logs(), chunk_rows=st.integers(1, 4))
@example(log=ClickLog([], None, None, {}, {}, []), chunk_rows=1)
@example(log=ClickLog([1.0, math.nan], ["u", "v"], None, {}, {}, [0, 1]), chunk_rows=1)
@example(log=ClickLog([-math.inf], None, ["i"], {"c": ["\"\\\x01\u00e9"]},
                      {"x": [math.nan], "y": [math.inf]}, [1]), chunk_rows=4)
def test_records_hash_equals_one_json_dumps_per_row(log, chunk_rows):
    """Any rows, hashed in chunks of any size, give the digest of one
    json.dumps list per row."""
    with patch.object(data, "HASH_CHUNK_ROWS", chunk_rows):
        assert records_hash(log) == records_hash_oracle(log)
