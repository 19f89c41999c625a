"""Synthetic click-log generator: determinism, meta bookkeeping, cold-start
planting and CSV round-trips."""

import hashlib
import math
import os

import numpy as np
import pytest

from conftest import log_rows, tokens_of
from xdboost import synth
from xdboost.data import chronological_split, cold_start_filter, ingest_csv, records_hash
from xdboost.errors import ConfigError


def test_generator_is_deterministic():
    config = synth.SynthConfig(n_rows=500, seed=11)
    a, meta_a = synth.generate_records(config)
    b, meta_b = synth.generate_records(config)
    assert records_hash(a) == records_hash(b)
    assert meta_a == meta_b
    c, _ = synth.generate_records(synth.SynthConfig(n_rows=500, seed=12))
    assert records_hash(a) != records_hash(c)


def test_generated_shape_and_meta():
    config = synth.SynthConfig(n_rows=800, seed=3)
    records, meta = synth.generate_records(config)
    assert len(records) == 800
    assert meta["n_rows"] == 800
    assert records.timestamp.tolist() == [float(i) for i in range(800)]
    assert set(records.label.tolist()) == {0, 1}
    assert meta["ctr"] == np.mean(records.label)
    assert 0.0 < meta["mean_click_probability"] < 1.0
    assert list(records.categorical) == ["user", "item", *synth.CONTEXT_FIELDS]
    assert (records.user_field, records.item_field) == ("user", "item")
    assert list(records.continuous) == list(synth.CONTINUOUS_FIELDS)
    for col in records.continuous.values():
        assert col.dtype == np.float64 and ((0.0 <= col) & (col <= 1.0)).all()
    for col in records.categorical.values():
        assert col.dtype == np.int64 and len(col) == 800
    assert all(u.startswith("u") for u in tokens_of(records, "user"))


def test_field_declarations_cover_the_columns():
    spec = synth.field_spec()
    mapping = synth.field_mapping()
    assert mapping[synth.USER_FIELD] == "user"
    assert mapping[synth.ITEM_FIELD] == "item"
    for name in synth.CONTEXT_FIELDS:
        assert mapping[name] == "categorical"
    for name in synth.CONTINUOUS_FIELDS:
        assert mapping[name] == "continuous"
    assert spec.categorical[:2] == [synth.USER_FIELD, synth.ITEM_FIELD]


def test_cold_start_planting_counts_and_placement():
    config = synth.SynthConfig(n_rows=1000, cold_start_fraction=0.3,
                               test_fraction=0.2, seed=7)
    records, meta = synth.generate_records(config)
    n_test = 200
    planted = round(0.3 * n_test)
    assert meta["n_test_region_rows"] == n_test
    assert meta["n_novel_item_rows"] == planted

    novel = np.array([item.startswith("i_new") for item in tokens_of(records, "item")])
    assert novel.sum() == planted
    assert (records.timestamp[novel] >= 1000 - n_test).all()
    # each planted row carries its own token, never reused, numbered in row order
    assert tokens_of(records[novel], "item") == [f"i_new{k}" for k in range(planted)]


def test_cold_start_fraction_zero_plants_nothing():
    records, meta = synth.generate_records(synth.SynthConfig(n_rows=400, seed=9))
    assert meta["n_novel_item_rows"] == 0
    assert not any(item.startswith("i_new") for item in tokens_of(records, "item"))


def test_planted_rows_survive_the_cold_start_filter():
    config = synth.SynthConfig(n_rows=2000, cold_start_fraction=0.25,
                               test_fraction=0.2, seed=13)
    records, meta = synth.generate_records(config)
    train, _, test = chronological_split(records)
    kept = cold_start_filter(test, train)
    novel_in_test = {item for item in tokens_of(test, "item") if item.startswith("i_new")}
    assert novel_in_test <= set(tokens_of(kept, "item"))
    assert len(novel_in_test) == meta["n_novel_item_rows"]


def test_config_validation():
    with pytest.raises(ConfigError):
        synth.SynthConfig(n_rows=0)
    with pytest.raises(ConfigError):
        synth.SynthConfig(vocab_size=0)
    with pytest.raises(ConfigError):
        synth.SynthConfig(cold_start_fraction=1.5)
    with pytest.raises(ConfigError):
        synth.SynthConfig(test_fraction=0.0)
    for bad in ({"latent_dim": 0}, {"seed": -1}, {"interaction_scale": math.nan},
                {"segment_scale": math.inf}, {"continuous_scale": -math.inf},
                {"base_logit": math.nan}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            synth.SynthConfig(**bad)


def test_csv_roundtrip_reproduces_the_records(tmp_path):
    records, _ = synth.generate_records(synth.SynthConfig(n_rows=300, seed=17))
    path = tmp_path / "log.csv"
    synth.write_csv(records, path)
    loaded = ingest_csv(path, synth.field_spec())
    assert log_rows(loaded) == log_rows(records)
    assert records_hash(loaded) == records_hash(records)


def test_write_csv_bytes_are_pinned(tmp_path):
    """The bytes csv.writer wrote for a small log with planted items."""
    records, _ = synth.generate_records(synth.SynthConfig(
        n_rows=300, vocab_size=8, cold_start_fraction=0.3, seed=5))
    path = tmp_path / "data.csv"
    synth.write_csv(records, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "6bc3773139cbe6b51d717b67672a0a875073783ffa4fbd3a29af1e78ef2898b0")


def test_write_csv_that_fails_partway_keeps_the_previous_file(tmp_path):
    records, _ = synth.generate_records(synth.SynthConfig(n_rows=300, seed=4))
    # a token the writer cannot join, drawn by row 200 alone
    records.tokens["user"] += (None,)
    records.categorical["user"][200] = len(records.tokens["user"]) - 1
    path = tmp_path / "data.csv"
    path.write_bytes(b"previous\r\n")
    with pytest.raises(TypeError):
        synth.write_csv(records, path)
    assert path.read_bytes() == b"previous\r\n"
    assert os.listdir(tmp_path) == ["data.csv"]
