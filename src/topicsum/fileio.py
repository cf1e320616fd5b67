"""Text read with bad bytes located; output files replaced whole or not at all."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

__all__ = ["read_lines", "atomic_write"]


def read_lines(path):
    """The lines of `path` as `open(path, encoding="utf-8")` yields them; a
    byte sequence that is not UTF-8 raises ValueError naming `path` and its
    line in universal newlines, which `bytes.splitlines` counts.  The file
    decodes ahead of the line read, so that line is found by decoding again."""
    with open(path, encoding="utf-8") as handle:
        try:
            yield from handle
        except UnicodeDecodeError:
            try:
                Path(path).read_bytes().decode("utf-8")
            except UnicodeDecodeError as bad:
                line = len(bad.object[:bad.start + 1].splitlines())
                raise ValueError(f"{path}:{line}: not UTF-8 at offset {bad.start} ({bad.reason})")
            raise


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a new temporary file in `path`'s directory for writing (UTF-8
    in text mode); when the block ends, it replaces `path` in one rename.

    `path` holds its old contents or the whole new file, never part of
    one.  If the block or the rename raises, the temporary file is removed
    and `path` is left as it was; a temporary file that cannot be made
    raises OSError naming `path`.  The file gets the permissions `open`
    would give a new file.
    """
    directory, base = os.path.split(os.fspath(path))
    # not `secrets`, whose import loads OpenSSL through `hashlib`
    temporary = os.path.join(directory, f".{base}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise
