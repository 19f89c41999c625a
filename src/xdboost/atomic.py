"""Output files replaced atomically.

A file is written beside its final path, flushed, synced to disk and only
then renamed over that path. Readers therefore see the previous file or the
complete new one, never a partial write, and a failed write leaves nothing
behind. A directory at an output path is refused before anything is
created, and a command refuses every output path it will write before it
reads or generates data.
"""

import os
import secrets
from contextlib import contextmanager

from .errors import UsageError


def refuse_directories(*paths):
    """A UsageError naming the first of paths that is a directory."""
    for path in paths:
        if os.path.isdir(path):
            raise UsageError(f"{os.fspath(path)} is a directory; remove it to write a file there")


@contextmanager
def replacing(path, mode="w", **open_kwargs):
    """Open a new ``<path>.<random>.tmp``, this call's own, with the mode a
    plain open gives; when the block completes, flush and fsync it and
    rename it over path. If the block raises, path keeps its old content
    and the temporary file is removed. A directory at path is a UsageError
    (refuse_directories)."""
    refuse_directories(path)
    tmp = f"{os.fspath(path)}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, mode.replace("w", "x"), **open_kwargs)  # "x" fails if tmp exists
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
