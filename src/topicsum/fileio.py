"""Output files that are replaced whole or not at all."""

from __future__ import annotations

import contextlib
import os
import secrets

__all__ = ["atomic_write"]


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a new temporary file in `path`'s directory for writing (UTF-8
    in text mode); when the block ends, it replaces `path` in one rename.

    `path` holds its old contents or the whole new file, never part of
    one.  If the block or the rename raises, the temporary file is removed
    and `path` is left as it was.  The file gets the permissions `open`
    would give a new file.
    """
    directory, base = os.path.split(os.fspath(path))
    temporary = os.path.join(directory, f".{base}.{secrets.token_hex(4)}.tmp")
    fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise
