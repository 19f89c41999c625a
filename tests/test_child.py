"""A job run in a forked child: its items in order, its failures, items
and messages larger than a pipe's buffer, a child that dies or is closed
mid-stream, and the in-process fallback. The validation process: a fit
validated there equals one validated in-process, bit for bit."""

import fcntl
import math
import os
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import _Unpicklable, make_matrix, make_schema
from xdboost import child as child_module
from xdboost.child import _Child, _ChildTraceback, _validations
from xdboost.errors import DataError, EvaluationError, TrainingError
from xdboost.models import BaseNet, BaseNetConfig


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
    (lambda _: _raise(EvaluationError("single-class labels")), EvaluationError,
     "^single-class labels$"),
    (lambda _: _raise(KeyError("k")), KeyError, "^'k'$"),
    (lambda _: _raise(_Unpicklable(1, 2)), RuntimeError, "^_Unpicklable: 1 2$"),
    (lambda _: os._exit(3), TrainingError,
     "the job exited with status 3 before the end of its output"),
    (lambda _: os.kill(os.getpid(), signal.SIGKILL), TrainingError, "exited with status -9"),
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
    child = _child(lambda _: [("ok", big)])
    try:
        tag, got = child.result()
    finally:
        child.close()
    assert tag == "ok" and got.tobytes() == big.tobytes()


def test_a_child_on_one_cpu_runs_the_job_in_process(monkeypatch):
    monkeypatch.setattr(child_module, "_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", lambda: _raise(AssertionError("forked with one CPU")))
    pid = os.getpid()
    child = _child(lambda _: [("ok", os.getpid())])
    try:
        assert child.result() == ("ok", pid)
    finally:
        child.close()


def _items(_requests=(), n=5, fail=None):
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
    child, seen = _child(lambda _: _items(fail=lambda: _raise(DataError("line 9: bad")))), []
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
    child, seen = _child(lambda _: _items(fail=lambda: os._exit(9))), []
    try:
        with pytest.raises(TrainingError, match="the job exited with status 9 before the end"):
            for i, _, _ in child:
                seen.append(i)
    finally:
        child.close()
    assert seen == [0, 1, 2]


def test_closing_a_child_mid_stream_kills_and_reaps_it():
    child = _child(lambda _: _items(n=1000))
    pid = child._pid
    assert next(iter(child))[0] == 0
    child.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def _echo(requests):
    yield from requests


def test_a_child_s_job_reads_the_messages_sent_in_order():
    big = np.random.default_rng(1).random(1 << 18)  # 2 MiB, past any pipe buffer
    child = _child(_echo)
    try:
        for message in (1, big, ("a", None)):
            child.send(message)
        items = iter(child)
        got = [next(items) for _ in range(3)]
    finally:
        child.close()
    assert got[0] == 1 and got[1].tobytes() == big.tobytes() and got[2] == ("a", None)


def test_a_message_to_a_killed_child_raises_its_exit_status():
    child = _child(_echo)
    pid = child._pid
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # its pipes' ends are closed
    try:
        with pytest.raises(TrainingError, match="the job exited with status -9 before the end"):
            child.send(np.zeros(8))
    finally:
        child.close()
    assert not child.forked


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists descriptors in /proc")
def test_closing_a_child_closes_both_of_its_pipes():
    before = set(os.listdir("/proc/self/fd"))
    child = _child(_echo)
    child.send("ping")
    assert next(iter(child)) == "ping"
    assert len(set(os.listdir("/proc/self/fd")) - before) == 2
    child.close()
    assert set(os.listdir("/proc/self/fd")) == before


# ---- the validation process -------------------------------------------------------

def _validation_case(n_rows=70, n_val=25):
    """A net's schema, training rows and labels, and validation rows and labels."""
    schema = make_schema((4, 3, 2), n_cont=2, n_placeholders=1)
    rng = np.random.default_rng(31)
    X = make_matrix(rng, schema, n_rows, zero_placeholders=False)
    val_X = make_matrix(rng, schema, n_val, zero_placeholders=False)
    y = (X.cat[:, 0] >= 2).astype(np.float64)
    flip = rng.random(n_rows) < 0.25
    y[flip] = 1.0 - y[flip]
    return schema, X, y, val_X, (val_X.cat[:, 0] >= 2).astype(np.float64)


def _diverging_at(monkeypatch, epoch, n_batches):
    """Make every training batch loss of ``epoch`` non-finite; the list of
    epochs whose loss was made so, one entry per batch."""
    loss, hits, calls = BaseNet._loss, [], []

    def diverging(net, out, terms):
        calls.append(1)
        if epoch is not None and (len(calls) - 1) // n_batches == epoch:
            hits.append(epoch)
            return math.inf
        return loss(net, out, terms)

    monkeypatch.setattr(BaseNet, "_loss", diverging)
    return hits


def _fit_outcome(monkeypatch, cpus, config, val, diverge_at, class_weights):
    """Fit a fresh net with a validator made on ``cpus`` CPUs: (the history
    or the TrainingError's message, arena, Adam m, v and t, shuffle RNG
    state, whether a process validated, the epochs made to diverge)."""
    schema, X, y, val_X, val_y = _validation_case()
    with monkeypatch.context() as patch:
        patch.setattr(child_module, "_cpus", lambda: cpus)
        hits = _diverging_at(patch, diverge_at, -(-X.n_rows // config.batch_size))
        validator = _Child(_validations, "the validation process", TrainingError)
        try:
            net = BaseNet(schema, config, seed=37)
            try:
                outcome = net.fit(X, y, class_weights,
                                  val=(val_X, val_y) if val else None,
                                  validator=validator).to_dict()
            except TrainingError as exc:
                outcome = str(exc)
            forked = validator.forked
        finally:
            validator.close()
    return (outcome, net.flat.tobytes(), net.optimizer.m.tobytes(), net.optimizer.v.tobytes(),
            net.optimizer.t, net._shuffle_rng.bit_generator.state), forked, hits


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(head=st.sampled_from(["sigmoid", "tanh"]), shuffle=st.booleans(),
       patience=st.integers(0, 3), epochs=st.integers(1, 6),
       batch_size=st.sampled_from([8, 16, 30, 64]), val=st.booleans(),
       learning_rate=st.sampled_from([0.05, 0.5]),
       diverge_at=st.none() | st.integers(0, 6), expect=st.none())
# the loss that stops the fit comes before the epoch that diverges: both
# fits return, the one with a process after training that epoch ahead
@example(head="sigmoid", shuffle=True, patience=0, epochs=6, batch_size=16, val=True,
         learning_rate=0.5, diverge_at=2, expect="returns")
# the epoch that diverges comes before the stop: both fits raise it
@example(head="tanh", shuffle=False, patience=3, epochs=6, batch_size=30, val=True,
         learning_rate=0.05, diverge_at=2, expect="raises")
def test_a_fit_validated_in_the_process_equals_one_validated_in_process(
        monkeypatch, head, shuffle, patience, epochs, batch_size, val, learning_rate,
        diverge_at, expect):
    config = BaseNetConfig(embedding_dim=3, hidden_layers=(5,), head=head,
                           learning_rate=learning_rate, epochs=epochs, patience=patience,
                           batch_size=batch_size, shuffle=shuffle)
    class_weights = (1.0, 1.5) if head == "sigmoid" else None
    alone, alone_forked, alone_hits = _fit_outcome(monkeypatch, 1, config, val, diverge_at,
                                                   class_weights)
    beside, beside_forked, beside_hits = _fit_outcome(monkeypatch, 2, config, val, diverge_at,
                                                      class_weights)
    assert (alone_forked, beside_forked) == (False, True)
    assert beside == alone
    if expect == "returns":  # the epoch trained ahead of the stop diverged and was dropped
        assert alone[0]["epochs_run"] == diverge_at
        assert not alone_hits and beside_hits
    elif expect == "raises":
        assert alone[0] == f"non-finite training loss at epoch {diverge_at}, batch row 0"


def test_a_fit_that_fails_with_a_loss_unread_closes_the_validation_process(monkeypatch):
    """Epoch 1 trains while epoch 0's loss is unread; an error there
    closes the process, so no later fit reads that loss."""
    schema, X, y, val_X, val_y = _validation_case()
    loss, calls = BaseNet._loss, []

    def failing(net, out, terms):
        calls.append(1)
        if len(calls) == 3:  # epoch 1's first batch, two batches an epoch
            raise KeyError("k")
        return loss(net, out, terms)

    monkeypatch.setattr(BaseNet, "_loss", failing)
    validator = _Child(_validations, "the validation process", TrainingError)
    try:
        net = BaseNet(schema, BaseNetConfig(embedding_dim=3, epochs=4, batch_size=64), seed=37)
        with pytest.raises(KeyError):
            net.fit(X, y, val=(val_X, val_y), validator=validator)
        assert not validator.forked
    finally:
        validator.close()
