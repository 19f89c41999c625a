"""A job run in a forked child: its items in order, its failures, items
larger than a pipe's buffer, a child that dies or is closed mid-stream,
and the in-process fallback."""

import fcntl
import os
import signal

import numpy as np
import pytest

from conftest import _Unpicklable
from xdboost import child as child_module
from xdboost.child import _Child, _ChildTraceback
from xdboost.errors import DataError, EvaluationError, TrainingError


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """A child forks only with a second CPU to run on; these tests fork
    even on one CPU, as an in-process os._exit would end the test run."""
    monkeypatch.setattr(child_module, "_cpus", lambda: 2)


def _raise(exc):
    raise exc


def _child(job):
    return _Child(job, "the job", TrainingError)


@pytest.mark.parametrize("job, error, message", [
    (lambda: _raise(EvaluationError("single-class labels")), EvaluationError,
     "^single-class labels$"),
    (lambda: _raise(KeyError("k")), KeyError, "^'k'$"),
    (lambda: _raise(_Unpicklable(1, 2)), RuntimeError, "^_Unpicklable: 1 2$"),
    (lambda: os._exit(3), TrainingError,
     "the job exited with status 3 before the end of its output"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), TrainingError, "exited with status -9"),
], ids=["package-error", "other-error", "unpicklable-error", "exit", "killed"])
def test_a_child_s_failure_is_raised_in_the_parent(job, error, message):
    child = _child(job)
    try:
        with pytest.raises(error, match=message) as raised:
            child.result()
    finally:
        child.close()
    cause = raised.value.__cause__
    if message.startswith("^"):  # the job raised: its traceback is the cause
        assert isinstance(cause, _ChildTraceback)
        assert "in _raise\n" in str(cause) and str(cause).startswith("raised in the forked child:\nTraceback")
    else:
        assert cause is None


def test_a_child_s_result_larger_than_a_pipe_arrives_whole():
    big = np.random.default_rng(0).random(1 << 18)  # 2 MiB, past any pipe buffer
    child = _child(lambda: [("ok", big)])
    try:
        tag, got = child.result()
    finally:
        child.close()
    assert tag == "ok" and got.tobytes() == big.tobytes()


def test_a_child_on_one_cpu_runs_the_job_in_process(monkeypatch):
    monkeypatch.setattr(child_module, "_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", lambda: _raise(AssertionError("forked with one CPU")))
    pid = os.getpid()
    child = _child(lambda: [("ok", os.getpid())])
    try:
        assert child.result() == ("ok", pid)
    finally:
        child.close()


def _items(n=5, fail=None):
    """A job's items: (i, getpid, an array of 1 << 16 floats); ``fail``
    runs in place of item 3."""
    for i in range(n):
        if i == 3 and fail is not None:
            fail()
        yield i, os.getpid(), np.full(1 << 16, float(i))


def _stream(child):
    try:
        return [(i, pid, float(a[0]), a.shape) for i, pid, a in child]
    finally:
        child.close()


def test_a_child_s_items_arrive_in_order():
    got = _stream(_child(_items))
    assert [(i, a, shape) for i, _, a, shape in got] == [(i, float(i), (1 << 16,))
                                                        for i in range(5)]
    assert {pid for _, pid, _, _ in got} != {os.getpid()}  # made in the child


def test_a_child_s_stream_on_one_cpu_gives_the_same_items_in_process(monkeypatch):
    forked = [(i, a, shape) for i, _, a, shape in _stream(_child(_items))]
    monkeypatch.setattr(child_module, "_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", lambda: _raise(AssertionError("forked with one CPU")))
    got = _stream(_child(_items))
    assert [(i, a, shape) for i, _, a, shape in got] == forked
    assert {pid for _, pid, _, _ in got} == {os.getpid()}


def test_a_child_streams_when_its_pipe_cannot_be_widened(monkeypatch):
    monkeypatch.setattr(fcntl, "fcntl", lambda *args: _raise(OSError("not allowed")))
    assert [i for i, _, _, _ in _stream(_child(_items))] == list(range(5))


def test_an_exception_mid_stream_arrives_after_the_items_before_it():
    child, seen = _child(lambda: _items(fail=lambda: _raise(DataError("line 9: bad")))), []
    try:
        with pytest.raises(DataError, match="^line 9: bad$") as raised:
            for i, _, _ in child:
                seen.append(i)
    finally:
        child.close()
    assert seen == [0, 1, 2]
    cause = raised.value.__cause__
    assert isinstance(cause, _ChildTraceback) and "in _items\n" in str(cause)


def test_a_child_that_dies_mid_stream_is_an_error_not_the_end():
    child, seen = _child(lambda: _items(fail=lambda: os._exit(9))), []
    try:
        with pytest.raises(TrainingError, match="the job exited with status 9 before the end"):
            for i, _, _ in child:
                seen.append(i)
    finally:
        child.close()
    assert seen == [0, 1, 2]


def test_closing_a_child_mid_stream_kills_and_reaps_it():
    child = _child(lambda: _items(n=1000))
    pid = child._pid
    assert next(iter(child))[0] == 0
    child.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
