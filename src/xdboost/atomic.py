"""Output files replaced atomically.

A file is written beside its final path, flushed, synced to disk and only
then renamed over that path. Readers therefore see the previous file or the
complete new one, never a partial write, and a failed write leaves nothing
behind.
"""

import os
from contextlib import contextmanager


@contextmanager
def replacing(path, mode="w", **open_kwargs):
    """Open ``<path>.tmp`` for writing; when the block completes, flush and
    fsync it and rename it over path. If the block raises, path keeps its
    old content and the temporary file is removed."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
