"""File outputs: atomic writes, and a check that an output can be written
at all, made before the work that produces it. A leaf module: it imports
nothing from dxtraj."""

from __future__ import annotations

import errno
import os
import tempfile


def check_writable(*paths) -> None:
    """Raise OSError naming the first path whose directory does not exist,
    is not a directory or is not writable, or that is itself a directory.
    None stands for an output not asked for and is skipped."""
    for path in paths:
        if path is None:
            continue
        path = os.fspath(path)
        directory = os.path.dirname(path) or "."
        if not os.path.exists(directory):
            code = errno.ENOENT
        elif not os.path.isdir(directory):
            code = errno.ENOTDIR
        elif not os.access(directory, os.W_OK | os.X_OK):
            code = errno.EACCES
        elif os.path.isdir(path):
            code = errno.EISDIR
        else:
            continue
        raise OSError(code, os.strerror(code), path)


def atomic_write_bytes(path, blob: bytes) -> None:
    """Write to a temp file in the same directory, then rename: the file at
    path is replaced whole or not at all."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-dxtraj-")
    except OSError as exc:  # name the path asked for, not the temp file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode())
