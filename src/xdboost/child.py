"""Work run in a forked child process beside its caller.

``_Child`` forks, runs a job in the child and reads each item the job
yields back through a pipe, pickled, while the caller works on the items
before; where it cannot fork, or where the process may run on one CPU
only, so that the two would only take turns, it runs the job in-process
as its items are asked for. The experiment harness runs the unboosted
reference's fits this way while the boosting loop goes on, as a stream
of one item, when a reference fit is left to run; ``predict`` reads and
encodes its CSV this way while it scores and writes the chunks before.

``_Validator`` is a _Child whose job also reads requests: the validation
process an experiment forks once, so that each epoch of a fit is
validated there while the next epoch trains (``BaseNet.fit``). Where it
cannot fork, or on one CPU, it starts nothing and every fit validates
in-process, each loss before the next epoch.

On Python 3.12 and later os.fork warns when the process runs other
threads. OpenBLAS stops its thread pool before a fork, so a process
whose only other threads are OpenBLAS's sees no warning; a caller with
threads of its own will.
"""

import os
import pickle
import signal
import struct
import traceback

import numpy as np

from .errors import TrainingError
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
    """The items of the iterable ``job()``, made in a forked child beside
    the caller: iterating the _Child yields them in order, each pickled
    through a pipe. Where ``_cpus`` reports one CPU, where os.fork does
    not exist, or where the pipe or the fork fails, the job runs
    in-process instead, as its items are asked for.

    An exception the job raises is raised after the items before it, with
    its class and message and the child's traceback as its cause (one that
    cannot be pickled comes back as a RuntimeError naming its class). A
    child that dies before its end message is ``error`` naming ``name``
    and its exit status, never the stream's end. ``result`` reads a job of
    one item; ``close`` kills and reaps a child whose stream was not read
    to its end.
    """

    def __init__(self, job, name, error):
        self._name, self._error, self._pid, self._fh = name, error, None, None
        self._items = self._in_process(job)
        if not _may_fork():
            return
        fds = ()
        try:
            fds = read_fd, write_fd = os.pipe()
            pid = os.fork()
        except OSError:  # e.g. a process limit: run the job in-process
            for fd in fds:
                os.close(fd)
            return
        if pid == 0:
            os.close(read_fd)
            _send_and_exit(job, write_fd)
        os.close(write_fd)
        self._pid, self._fh, self._items = pid, os.fdopen(read_fd, "rb"), self._read()

    def __iter__(self):
        return self._items

    def result(self):
        (value,) = self
        return value

    def close(self):
        self._items.close()
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            self._reap()

    @staticmethod
    def _in_process(job):
        yield from job()

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
        """Close the pipe and wait for the child; its exit status."""
        self._fh.close()
        self._fh = None
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        return os.waitstatus_to_exitcode(status)


class _ChildTraceback(Exception):
    """The traceback of an exception raised in the child, as text; the
    cause of the exception the parent raises again."""

    def __str__(self):
        return f"raised in the forked child:\n{self.args[0]}"


def _send_and_exit(job, write_fd):
    """In a forked child: pickle (True, item, None) to write_fd for each
    item of job(), then the end message None, or, where the job raises,
    (False, its exception, its formatted traceback); then exit at once, so
    none of the parent's cleanup runs here. Each message is pickled whole
    before it is written, so a failed pickle writes nothing."""
    import fcntl  # POSIX only, as os.fork is

    status = 1
    try:
        try:
            fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except (AttributeError, OSError):  # no such setting here: the default buffer serves
            pass
        with os.fdopen(write_fd, "wb") as fh:
            def send(message):
                fh.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
                fh.flush()

            try:
                for item in job():
                    send((True, item, None))
                end = None
            except BaseException as exc:  # raised again in the parent
                end = (False, _portable(exc), traceback.format_exc())
            send(end)
        status = 0
    finally:
        os._exit(status)


def _portable(exc):
    """exc, or a RuntimeError naming its class where exc would not come
    through a pickle round trip. Not an XDBoostError, so the run fails as
    it would had exc been raised in-process: exit 1, a sweep aborted."""
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


class _Validator:
    """The validation process of one experiment's fits: each epoch's
    validation loss is computed in a forked child while the fit trains
    its next epoch (see ``BaseNet.fit``).

    ``begin`` sends a fit's prepared validation batches, targets, class
    weights, schema and config; ``submit`` sends an arena and ``loss``
    reads back its float64 loss, by the same ``eval_loss`` under fit's
    error state, so no bit differs from an in-process loss. Requests go
    through a pipe of their own: an arena as its raw bytes, read straight
    into the process's net; a fit's inputs as a small pickle followed by
    its arrays' raw bytes (protocol 5's out-of-band buffers). So no
    message is copied into a byte string; the losses come back as a
    _Child stream.
    Where ``_cpus`` reports one CPU, where os.fork does not exist, or
    where a pipe or the fork fails, no process starts, and ``begin``
    returns False, as it does after ``close``. A process that dies is a
    TrainingError naming it, raised by the call that finds it gone.
    """

    NAME = "the validation process"

    def __init__(self):
        self._child = self._requests = None
        self._pending = 0
        if not _may_fork():
            return
        try:
            read_fd, write_fd = os.pipe()
        except OSError:  # e.g. a descriptor limit: validate in-process
            return
        child = _Child(lambda: _validations(read_fd, write_fd), self.NAME, TrainingError)
        os.close(read_fd)
        if not child.forked:  # the fork failed; nothing runs the job
            child.close()
            os.close(write_fd)
            return
        self._child, self._losses = child, iter(child)
        self._requests = os.fdopen(write_fd, "wb")

    def begin(self, net, batches, targets, class_weights):
        """Send a fit's validation inputs; whether the process validates
        this fit's epochs. Losses a failed fit left unread are read first."""
        if self._child is None:
            return False
        while self._pending:
            self.loss()
        self._send((net.schema, net.config, batches, targets, class_weights))
        return True

    def submit(self, flat):
        """Send an arena to validate; ``loss`` reads its loss."""
        self._send(flat)
        self._pending += 1

    def loss(self):
        """The loss of the earliest arena submitted and not yet read."""
        try:
            value = next(self._losses)
        except BaseException:
            self.close()
            raise
        self._pending -= 1
        return value

    def close(self):
        """Kill and reap the process; later fits validate in-process."""
        if self._child is None:
            return
        child, requests, self._child, self._requests = self._child, self._requests, None, None
        child.close()
        try:
            requests.close()
        except BrokenPipeError:  # a request cut short by the process's death
            pass

    def _send(self, request):
        try:
            _write_request(self._requests, request)
        except BrokenPipeError:  # the process is gone; its stream says how
            try:
                for _ in self._losses:
                    pass
            finally:
                self.close()
            raise TrainingError(f"{self.NAME} stopped reading its requests") from None


def _write_request(fh, request):
    """Write request to fh. An arena is the count -1, then its raw bytes,
    written from the array itself. A fit's inputs are pickled with their
    arrays out of band: the count of arrays, the pickle's size and each
    array's, the pickle, then each array's raw bytes."""
    if isinstance(request, np.ndarray):
        fh.write(struct.pack("<q", -1))
        fh.write(request)
    else:
        buffers = []
        head = pickle.dumps(request, 5, buffer_callback=buffers.append)
        views = [buffer.raw() for buffer in buffers]
        fh.write(struct.pack(f"<{2 + len(views)}q", len(views), len(head),
                             *(view.nbytes for view in views)))
        fh.write(head)
        for view in views:
            fh.write(view)
    fh.flush()


def _read_inputs(fh, count):
    """A fit's inputs, after their count of out-of-band arrays."""
    head_size, *sizes = struct.unpack(f"<{1 + count}q", fh.read(8 * (1 + count)))
    head = fh.read(head_size)
    buffers = [bytearray(size) for size in sizes]
    for buffer in buffers:
        fh.readinto(buffer)
    return pickle.loads(head, buffers=buffers)


def _validations(read_fd, write_fd):
    """In the validation process: the loss of each arena requested, on the
    inputs of the fit last begun, until the parent closes the pipe. An
    arena is read straight into the net built for the fit."""
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as requests:
        while count := requests.read(8):
            (count,) = struct.unpack("<q", count)
            if count >= 0:
                schema, config, batches, targets, class_weights = _read_inputs(requests, count)
                net = BaseNet(schema, config)
                continue
            requests.readinto(net.flat)
            with np.errstate(over="ignore", invalid="ignore"):  # as in BaseNet.fit
                yield net.eval_loss(batches, targets, class_weights)
