"""Ingestion, chronological splitting, sub-training carving, class weights,
encoding and cold-start filtering. Split and weight rules are checked both
on hand-sized examples and as seeded random property loops.
"""

import json
import math

import numpy as np
import pytest

from conftest import make_records
from xdboost.data import (ClassWeights, FeatureSchema, FieldSpec, SplitSpec,
                          build_schema, chronological_split, class_weights,
                          cold_start_filter, encode, ingest_csv,
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


def test_field_spec_from_json_file(tmp_path):
    path = tmp_path / "fields.json"
    path.write_text(json.dumps({"uid": "user", "price": "continuous"}))
    spec = FieldSpec.from_json_file(path)
    assert spec.user_field == "uid"
    assert spec.continuous == ["price"]


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
    records = ingest_csv(path, _SPEC)
    assert [r.timestamp for r in records] == [3.0, 1.0]  # file order, not sorted
    assert records[0].user_id == "u1"
    assert records[0].item_id == "i1"
    assert records[0].categorical == {"c0": "g0"}
    assert records[0].continuous == {"x0": 0.25}
    assert [r.label for r in records] == [1, 0]


def test_ingest_missing_file_and_columns(tmp_path):
    with pytest.raises(DataError, match="not found"):
        ingest_csv(tmp_path / "absent.csv", _SPEC)
    path = tmp_path / "log.csv"
    path.write_text("timestamp,user,label\n1,u1,0\n")
    with pytest.raises(DataError, match="missing required columns"):
        ingest_csv(path, _SPEC)


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


def test_ingest_non_strict_skips_malformed_rows(tmp_path):
    path = tmp_path / "log.csv"
    _write_log(path, [[1, "u1", "i1", "g0", 0.5, 1],
                      [2, "u2", "i2", "g1", 0.5, 7],
                      [3, "u3", "i3", "g0", 0.5, 0]])
    records = ingest_csv(path, _SPEC, strict=False)
    assert [r.timestamp for r in records] == [1.0, 3.0]


def test_ingest_fills_missing_values(tmp_path):
    path = tmp_path / "log.csv"
    _write_log(path, [[1, "", "i1", "", "", 1]])
    record = ingest_csv(path, _SPEC)[0]
    assert record.user_id == "__missing__"
    assert record.categorical["c0"] == "__missing__"
    assert record.continuous["x0"] is None


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
    ordered = train + val + test
    assert [r.timestamp for r in ordered] == sorted(float(t) for t in range(50))


def test_split_with_equal_timestamps_keeps_input_order():
    records = make_records(20, timestamps=[5.0] * 20)
    train, val, test = chronological_split(records)
    assert [r is o for r, o in zip(train + val + test, records)] == [True] * 20


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
        train, val, test = chronological_split(records)
        assert len(train) + len(val) + len(test) == n
        assert len(val) == math.floor(0.08 * n)
        assert len(test) == math.floor(0.20 * n)
        assert sorted(map(id, train + val + test)) == sorted(map(id, records))
        chunks = [c for c in (train, val, test) if c]
        for early, late in zip(chunks, chunks[1:]):
            assert early[-1].timestamp <= late[0].timestamp


# ---- sub-training carving -----------------------------------------------------------

def test_sub_training_takes_the_most_recent_slice():
    records = make_records(100)
    train, _, _ = chronological_split(records)
    sub = sub_training(records, train, 10)
    assert len(sub) == 10
    assert sub == train[-10:]
    assert all(a is b for a, b in zip(sub, train[-10:]))


def test_sub_training_at_72_is_the_whole_region():
    records = make_records(100)
    train, _, _ = chronological_split(records)
    assert sub_training(records, train, 72) == train


def test_sub_training_one_percent_of_100_is_one_record():
    records = make_records(100)
    train, _, _ = chronological_split(records)
    sub = sub_training(records, train, 1)
    assert len(sub) == 1
    assert sub[0] is train[-1]


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
    assert sub_training(records, train, 80, split) == train[-80:]
    assert sub_training(records, train, 90, split) == train
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
        assert all(a is b for a, b in zip(reversed(smaller), reversed(larger)))


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
    for record, item in zip(records, items):
        record.item_id = item
    return records


def test_cold_start_filter_cases():
    test_rows = _records_with_items(["A", "B", "C"])
    assert cold_start_filter(test_rows, _records_with_items(["X", "Y"])) == test_rows
    assert cold_start_filter(test_rows, _records_with_items(["A", "B", "C"])) == []
    kept = cold_start_filter(test_rows, _records_with_items(["B"]))
    assert [r.item_id for r in kept] == ["A", "C"]


def test_cold_start_filter_soundness_property():
    rng = np.random.default_rng(53)
    for _ in range(25):
        test_rows = _records_with_items([f"i{rng.integers(8)}" for _ in range(30)])
        train_rows = _records_with_items([f"i{rng.integers(8)}" for _ in range(20)])
        seen = {r.item_id for r in train_rows}
        kept = cold_start_filter(test_rows, train_rows)
        assert all(r.item_id not in seen for r in kept)
        dropped = [r for r in test_rows if r not in kept]
        assert all(r.item_id in seen for r in dropped)


def test_cold_start_filter_requires_item_ids():
    rows = _records_with_items(["A"])
    rows[0].item_id = None
    with pytest.raises(DataError):
        cold_start_filter(rows, _records_with_items(["B"]))


# ---- schema building and encoding ----------------------------------------------------

def test_vocabulary_counts_distinct_tokens_plus_oov():
    records = make_records(3)
    records[0].item_id, records[1].item_id, records[2].item_id = "a", "b", "a"
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
    assert np.array_equal(y, [r.label for r in records[:30]])
    assert np.array_equal(ts, [r.timestamp for r in records[:30]])

    item_col = schema.cat_fields.index("item")
    token_to_index = {}
    for row, record in zip(X.cat, records[:30]):
        token_to_index.setdefault(record.item_id, set()).add(int(row[item_col]))
    assert all(len(v) == 1 for v in token_to_index.values())

    novel = make_records(1, seed=58)
    novel[0].item_id = "never-seen"
    X_novel, _, _ = encode(novel, schema)
    assert X_novel.cat[0, item_col] == schema.oov_index("item")


def test_encode_minmax_scales_train_to_unit_interval():
    records = make_records(20, seed=59)
    for i, r in enumerate(records):
        r.continuous["x0"] = float(i)
    spec = FieldSpec(user_field="user", item_field="item", continuous=["x0"])
    schema = build_schema(records, spec)
    X, _, _ = encode(records, schema)
    col = X.cont[:, 0]
    assert col.min() == 0.0 and col.max() == 1.0
    assert abs(col[10] - 10.0 / 19.0) < 1e-12

    out_of_range = make_records(2, seed=60)
    out_of_range[0].continuous["x0"] = -5.0
    out_of_range[1].continuous["x0"] = 99.0
    X_clamped, _, _ = encode(out_of_range, schema)
    assert np.array_equal(X_clamped.cont[:, 0], [0.0, 1.0])


def test_encode_imputes_missing_continuous_with_the_train_mean():
    records = make_records(4, seed=61)
    values = [1.0, 2.0, 3.0, 6.0]
    for r, v in zip(records, values):
        r.continuous["x0"] = v
    spec = FieldSpec(user_field="user", item_field="item", continuous=["x0"])
    schema = build_schema(records, spec, normalize=False)
    assert schema.cont_stats["x0"] == (1.0, 6.0, 3.0)
    holed = make_records(1, seed=62)
    holed[0].continuous["x0"] = None
    X, _, _ = encode(holed, schema)
    assert X.cont[0, 0] == 3.0


def test_encode_rejects_non_numeric_values():
    records = make_records(2, seed=63)
    spec = FieldSpec(user_field="user", item_field="item", continuous=["x0"])
    schema = build_schema(records, spec)
    records[1].continuous["x0"] = "expensive"
    with pytest.raises(DataError):
        encode(records, schema)


def test_build_schema_needs_training_rows():
    spec = FieldSpec(user_field="user", item_field="item")
    with pytest.raises(DataError):
        build_schema([], spec)


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
    assert records_hash(records) == records_hash(list(records))
    assert records_hash(records) != records_hash(records[::-1])
    flipped = make_records(10, seed=71)
    flipped[0].label = 1 - flipped[0].label
    assert records_hash(records) != records_hash(flipped)

