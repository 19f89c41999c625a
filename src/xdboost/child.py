"""A job run in a forked child process beside its caller.

``_Child`` forks, runs a job in the child and reads the job's pickled
outcome back through a pipe; where it cannot fork, or where the process
may run on one CPU only, so that the two would only take turns, it runs
the job in-process when the outcome is asked for. The experiment harness
runs the unboosted reference's fits this way while the boosting loop
goes on.

On Python 3.12 and later os.fork warns when the process runs other
threads. OpenBLAS stops its thread pool before a fork, so a process
whose only other threads are OpenBLAS's sees no warning; a caller with
threads of its own will.
"""

import os
import pickle
import signal
import traceback

from .errors import TrainingError


def _cpus():
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Child:
    """``job()`` run in a forked child beside the caller; ``result`` reads
    its pickled outcome back through a pipe. Where ``_cpus`` reports one
    CPU, where os.fork does not exist, or where the pipe or the fork
    fails, ``result`` runs the job in-process instead.

    ``result`` returns what the job returned or raises what it raised, with
    its class and message and the child's traceback as its cause (an
    exception that cannot be pickled comes back as a RuntimeError naming
    its class); a child that dies or sends nothing is a TrainingError
    naming its exit status. ``close`` kills and reaps a child whose result
    was never read.
    """

    def __init__(self, job):
        self._job, self._pid, self._fd = job, None, None
        if not (hasattr(os, "fork") and _cpus() > 1):
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
        self._pid, self._fd = pid, read_fd

    def result(self):
        if self._pid is None:
            return self._job()
        # read to EOF before waiting, or a child blocked on a full pipe never exits
        with os.fdopen(self._fd, "rb") as fh:
            self._fd = None
            data = fh.read()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        code = os.waitstatus_to_exitcode(status)
        if code or not data:
            raise TrainingError(f"the reference's training process exited with status "
                                f"{code} without a result")
        ok, value, child_traceback = pickle.loads(data)
        if not ok:
            raise value from _ChildTraceback(child_traceback)
        return value

    def close(self):
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class _ChildTraceback(Exception):
    """The traceback of an exception raised in the child, as text; the
    cause of the exception ``_Child.result`` raises again."""

    def __str__(self):
        return f"raised in the forked child:\n{self.args[0]}"


def _send_and_exit(job, write_fd):
    """In a forked child: pickle (True, job(), None) or (False, its
    exception, its formatted traceback) to write_fd and exit at once, so
    none of the parent's cleanup runs here."""
    status = 1
    try:
        try:
            outcome = (True, job(), None)
        except BaseException as exc:  # raised again in the parent
            outcome = (False, _portable(exc), traceback.format_exc())
        with os.fdopen(write_fd, "wb") as fh:
            pickle.dump(outcome, fh, pickle.HIGHEST_PROTOCOL)
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
