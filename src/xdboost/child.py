"""Work run in a forked child process beside its caller.

``_Child`` forks, runs a job in the child and reads each item the job
yields back through a pipe, pickled, while the caller works on the items
before; the caller may send the job messages through a second pipe,
pickled the same way. Where it cannot fork, or where the process may run
on one CPU only, so that the two would only take turns, it runs the job
in-process as its items are asked for, with no messages. The experiment
harness runs three jobs this way: the unboosted reference's fits while
the boosting loop goes on, as a stream of one item, when a reference fit
is left to run; ``predict``'s reading and encoding of its CSV while it
scores and writes the chunks before; and ``_validations``, the
validation process an experiment forks once, so that each epoch of a fit
is validated there while the next epoch trains (``BaseNet.fit``). A fit
whose validation child did not fork validates in-process, each loss
before the next epoch.

On Python 3.12 and later os.fork warns when the process runs other
threads. OpenBLAS stops its thread pool before a fork, so a process
whose only other threads are OpenBLAS's sees no warning; a caller with
threads of its own will.
"""

import os
import pickle
import signal
import traceback

import numpy as np

from .models import BaseNet

# A pipe's buffer is 64 KiB by default, so a child that writes a chunk of
# megabytes blocks at each 64 KiB and the scheduler keeps both processes
# on one CPU; 1 MiB is the size an unprivileged process may ask for.
PIPE_BYTES = 1 << 20


def _cpus():
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _may_fork():
    """Whether a forked child could run beside this process: os.fork
    exists and a second CPU is there to run it."""
    return hasattr(os, "fork") and _cpus() > 1


class _Child:
    """The items of the iterable ``job(requests)``, made in a forked child
    beside the caller: iterating the _Child yields them in order, each
    pickled through a pipe, and ``requests`` yields each message ``send``
    pickles to the child through another. Where ``_cpus`` reports one
    CPU, where os.fork does not exist, or where a pipe or the fork fails,
    the job runs in-process instead, as its items are asked for, and its
    ``requests`` yields nothing.

    An exception the job raises is raised after the items before it, with
    its class and message and the child's traceback as its cause (one that
    cannot be pickled comes back as a RuntimeError naming its class). A
    child that dies before its end message is ``error`` naming ``name``
    and its exit status, never the stream's end; ``send`` to a child that
    is gone raises as reading its stream does. ``result`` reads a job of
    one item; ``close`` kills and reaps a child whose stream was not read
    to its end.
    """

    def __init__(self, job, name, error):
        self._name, self._error, self._pid = name, error, None
        self._fh = self._requests = None
        self._items = self._in_process(job)
        if not _may_fork():
            return
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:  # e.g. a process limit: run the job in-process
            for fd in fds:
                os.close(fd)
            return
        read_fd, write_fd, request_read_fd, request_write_fd = fds
        if pid == 0:
            os.close(read_fd)
            os.close(request_write_fd)
            _send_and_exit(job, request_read_fd, write_fd)
        os.close(write_fd)
        os.close(request_read_fd)
        self._pid, self._items = pid, self._read()
        self._fh, self._requests = os.fdopen(read_fd, "rb"), os.fdopen(request_write_fd, "wb")

    def __iter__(self):
        return self._items

    def result(self):
        (value,) = self
        return value

    def send(self, message):
        """Pickle message to the job's ``requests``. A child that is gone
        raises its own failure, or ``error`` naming its exit status."""
        try:
            self._requests.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
            self._requests.flush()
        except BrokenPipeError:  # the child is gone; its stream says how
            for _ in self._items:
                pass
            raise self._error(f"{self._name} ended before reading its requests") from None

    def close(self):
        self._items.close()
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            self._reap()

    @staticmethod
    def _in_process(job):
        yield from job(())

    def _read(self):
        while True:
            try:
                message = pickle.load(self._fh)
            except (EOFError, pickle.UnpicklingError):  # the pipe's end, or a message cut short
                code = self._reap()
                raise self._error(f"{self._name} exited with status {code} "
                                  "before the end of its output") from None
            if message is None:
                self._reap()
                return
            ok, value, child_traceback = message
            if not ok:
                self._reap()
                raise value from _ChildTraceback(child_traceback)
            yield value

    @property
    def forked(self):
        """Whether a child runs the job (until the stream is read to its end)."""
        return self._pid is not None

    def _reap(self):
        """Close both pipes and wait for the child; its exit status."""
        self._fh.close()
        try:
            self._requests.close()
        except BrokenPipeError:  # a message cut short by the child's end
            pass
        self._fh = self._requests = None
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        return os.waitstatus_to_exitcode(status)


class _ChildTraceback(Exception):
    """The traceback of an exception raised in the child, as text; the
    cause of the exception the parent raises again."""

    def __str__(self):
        return f"raised in the forked child:\n{self.args[0]}"


def _send_and_exit(job, read_fd, write_fd):
    """In a forked child: run job on the messages pickled to read_fd, and
    pickle (True, item, None) to write_fd for each item it yields, then
    the end message None, or, where the job raises, (False, its
    exception, its formatted traceback); then exit at once, so none of
    the parent's cleanup runs here. Each message is pickled whole before
    it is written, so a failed pickle writes nothing."""
    import fcntl  # POSIX only, as os.fork is

    status = 1
    try:
        for fd in (read_fd, write_fd):
            try:
                fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            except (AttributeError, OSError):  # no such setting here: the default buffer serves
                pass
        with os.fdopen(read_fd, "rb") as requests, os.fdopen(write_fd, "wb") as fh:
            def send(message):
                fh.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
                fh.flush()

            try:
                for item in job(_received(requests)):
                    send((True, item, None))
                end = None
            except BaseException as exc:  # raised again in the parent
                end = (False, _portable(exc), traceback.format_exc())
            send(end)
        status = 0
    finally:
        os._exit(status)


def _received(fh):
    """Each message pickled to fh, until the pipe's end."""
    while True:
        try:
            yield pickle.load(fh)
        except EOFError:
            return


def _portable(exc):
    """exc, or a RuntimeError naming its class where exc would not come
    through a pickle round trip. Not an XDBoostError, so the run fails as
    it would had exc been raised in-process: exit 1, a sweep aborted."""
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _validations(requests):
    """In the validation process: the loss of each arena requested, on the
    inputs of the fit last begun, by the same ``eval_loss`` under fit's
    error state, so no bit differs from an in-process loss. A tuple
    begins a fit: (schema, config, validation batches, targets, class
    weights); bytes are an arena's float64 values."""
    for request in requests:
        if isinstance(request, tuple):
            schema, config, batches, targets, class_weights = request
            net = BaseNet(schema, config)
            continue
        net.flat[...] = np.frombuffer(request)
        with np.errstate(over="ignore", invalid="ignore"):  # as in BaseNet.fit
            yield net.eval_loss(batches, targets, class_weights)
