"""A job run in a forked child: its outcome, its failures and a result
larger than a pipe's buffer, read back in the parent."""

import os
import signal

import numpy as np
import pytest

from conftest import _Unpicklable
from xdboost import child as child_module
from xdboost.child import _Child, _ChildTraceback
from xdboost.errors import EvaluationError, TrainingError


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """A child forks only with a second CPU to run on; these tests fork
    even on one CPU, as an in-process os._exit would end the test run."""
    monkeypatch.setattr(child_module, "_cpus", lambda: 2)


def _raise(exc):
    raise exc


@pytest.mark.parametrize("job, error, message", [
    (lambda: _raise(EvaluationError("single-class labels")), EvaluationError,
     "^single-class labels$"),
    (lambda: _raise(KeyError("k")), KeyError, "^'k'$"),
    (lambda: _raise(_Unpicklable(1, 2)), RuntimeError, "^_Unpicklable: 1 2$"),
    (lambda: os._exit(3), TrainingError, "exited with status 3 without a result"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), TrainingError, "exited with status -9"),
], ids=["package-error", "other-error", "unpicklable-error", "exit", "killed"])
def test_a_child_s_failure_is_raised_in_the_parent(job, error, message):
    child = _Child(job)
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
    big = np.random.default_rng(0).random(1 << 17)  # 1 MiB, past any pipe buffer
    child = _Child(lambda: ("ok", big))
    try:
        tag, got = child.result()
    finally:
        child.close()
    assert tag == "ok" and got.tobytes() == big.tobytes()


def test_a_child_on_one_cpu_runs_the_job_in_process(monkeypatch):
    monkeypatch.setattr(child_module, "_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", lambda: _raise(AssertionError("forked with one CPU")))
    pid = os.getpid()
    child = _Child(lambda: ("ok", os.getpid()))
    try:
        assert child.result() == ("ok", pid)
    finally:
        child.close()
