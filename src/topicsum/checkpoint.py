"""Binary named-tensor archive for model checkpoints.

Layout: the magic bytes, then per tensor a little-endian u32 name length,
the UTF-8 name, a u32 rank, one u32 per dimension, and the float32
little-endian values in row-major order.  Round-trips are bit-exact.
"""

from __future__ import annotations

import os
import struct
import tempfile
from typing import Mapping

import numpy as np

__all__ = ["MAGIC", "save_tensors", "load_tensors", "load_into"]

MAGIC = b"TWAGCKPT1"


def _as_array(value) -> np.ndarray:
    return np.asarray(getattr(value, "data", value))


def save_tensors(path, tensors: Mapping[str, object]) -> None:
    """Write named arrays (or Tensors) in dict order.

    The archive goes to a temporary file in `path`'s directory, which then
    replaces `path` in one rename: `path` holds its old contents or the
    whole new archive, never part of one.  On any error the temporary file
    is removed and `path` is left as it was.
    """
    directory, base = os.path.split(os.fspath(path))
    fd, temporary = tempfile.mkstemp(dir=directory or ".", prefix=f".{base}.", suffix=".tmp")
    try:
        with open(fd, "wb") as handle:
            handle.write(MAGIC)
            for name, value in tensors.items():
                arr = np.ascontiguousarray(_as_array(value), dtype="<f4")
                encoded = name.encode("utf-8")
                handle.write(struct.pack("<I", len(encoded)))
                handle.write(encoded)
                handle.write(struct.pack("<I", arr.ndim))
                if arr.ndim:
                    handle.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                handle.write(arr.tobytes(order="C"))
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


def load_tensors(path) -> dict[str, np.ndarray]:
    """Named arrays of an archive: writable views into one buffer that holds
    the whole file, so the values are read once and not copied."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw[:len(MAGIC)].tobytes() != MAGIC:
        raise ValueError(f"{path}: not a tensor archive (bad magic)")
    offset = len(MAGIC)
    total = len(raw)

    def take(count: int) -> int:
        """Skip `count` bytes; returns the offset where they start."""
        nonlocal offset
        if offset + count > total:
            raise ValueError(f"{path}: truncated archive at byte {offset}")
        offset += count
        return offset - count

    tensors: dict[str, np.ndarray] = {}
    while offset < total:
        (name_len,) = struct.unpack_from("<I", raw, take(4))
        start = take(name_len)
        name = raw[start:start + name_len].tobytes().decode("utf-8")
        if name in tensors:
            raise ValueError(f"{path}: duplicate tensor '{name}'")
        (rank,) = struct.unpack_from("<I", raw, take(4))
        shape = struct.unpack_from(f"<{rank}I", raw, take(4 * rank)) if rank else ()
        count = 1
        for dim in shape:
            count *= dim
        tensors[name] = np.frombuffer(raw, dtype="<f4", count=count,
                                      offset=take(4 * count)).reshape(shape)
    return tensors


def load_into(params: Mapping[str, object], path) -> None:
    """Fill existing parameter tensors from an archive, by name.

    Names present in the archive but not in `params` (and vice versa) are an
    error, as is any shape mismatch; errors name the offending tensors.
    """
    loaded = load_tensors(path)
    unknown = sorted(set(loaded) - set(params))
    if unknown:
        raise ValueError(f"{path}: unknown tensor names in archive: {', '.join(unknown)}")
    missing = sorted(set(params) - set(loaded))
    if missing:
        raise ValueError(f"{path}: archive is missing tensors: {', '.join(missing)}")
    for name, arr in loaded.items():
        target = params[name]
        data = getattr(target, "data", None)
        if data is None or not isinstance(data, np.ndarray):
            raise ValueError(f"parameter '{name}' has no array data to fill")
        if tuple(arr.shape) != tuple(data.shape):
            raise ValueError(f"{path}: tensor '{name}' has shape {tuple(arr.shape)}, "
                             f"model expects {tuple(data.shape)}")
        data[...] = arr
