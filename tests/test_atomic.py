"""atomic.replacing: a path holds its old file or the whole new one, never
a mix, and no temporary file is left beside it."""

import os

import pytest

from xdboost.atomic import replacing
from xdboost.errors import UsageError


def test_a_replacement_nested_in_one_of_the_same_path_keeps_both_writes(tmp_path):
    """Each write has a temporary file of its own, so the inner one's
    completed write stands until the outer one completes."""
    path = tmp_path / "out.txt"
    with replacing(path) as outer:
        outer.write("outer")
        with replacing(path) as inner:
            inner.write("inner")
        assert path.read_text() == "inner"
    assert path.read_text() == "outer"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_a_block_that_raises_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with pytest.raises(RuntimeError, match="midway"):
        with replacing(path) as fh:
            fh.write("new")
            raise RuntimeError("midway")
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_the_file_has_the_mode_a_plain_open_gives(tmp_path):
    with replacing(tmp_path / "atomic", "wb") as fh:
        fh.write(b"x")
    with open(tmp_path / "plain", "wb") as fh:
        fh.write(b"x")
    assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_a_directory_is_refused_before_anything_is_created(tmp_path):
    (tmp_path / "out").mkdir()
    with pytest.raises(UsageError, match="is a directory"):
        with replacing(tmp_path / "out") as fh:
            fh.write("never")
    assert os.listdir(tmp_path) == ["out"]
    assert os.listdir(tmp_path / "out") == []
