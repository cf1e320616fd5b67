"""Binary named-tensor archive for model checkpoints.

Layout: the magic bytes, then per tensor a little-endian u32 name length,
the UTF-8 name, a u32 rank, one u32 per dimension, and the float32
little-endian values in row-major order.  Round-trips are bit-exact.

Each reader first walks every header, seeking past the values, and checks
the whole archive against the file's size before it reads any value, so an
archive that is bad when it is opened raises ValueError naming the path and
changes nothing.  A file cut after that walk raises the same error from the
read that falls short, after `load_into` has filled the tensors before it.
"""

from __future__ import annotations

import os
import struct
from typing import BinaryIO, Mapping, NamedTuple

import numpy as np

from . import autodiff as ad
from .fileio import atomic_write

__all__ = ["MAGIC", "save_tensors", "tensor_shapes", "load_tensors", "load_into"]

MAGIC = b"TWAGCKPT1"


def _as_array(value) -> np.ndarray:
    return np.asarray(getattr(value, "data", value))


def _buffer(value):
    """The array that `value.data` reads, without drawing a pending parameter."""
    return ad.buffer(value) if isinstance(value, ad.Tensor) else getattr(value, "data", None)


def save_tensors(path, tensors: Mapping[str, object]) -> None:
    """Write named arrays (or Tensors) in dict order; names must be
    printable.

    Written through `atomic_write`: `path` holds its old contents or the
    whole new archive, never part of one.
    """
    with atomic_write(path, "wb") as handle:
        handle.write(MAGIC)
        for name, value in tensors.items():
            if not name.isprintable():
                raise ValueError(f"tensor name {name!r} is not printable")
            arr = np.asarray(_as_array(value), dtype="<f4", order="C")   # keeps 0-d
            encoded = name.encode("utf-8")
            handle.write(struct.pack("<I", len(encoded)))
            handle.write(encoded)
            handle.write(struct.pack("<I", arr.ndim))
            if arr.ndim:
                handle.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            handle.write(memoryview(arr.reshape(-1)).cast("B"))


class _Entry(NamedTuple):
    name: str
    shape: tuple[int, ...]
    offset: int   # byte offset of the values


def _walk(handle: BinaryIO, path) -> list[_Entry]:
    """Every tensor's header, in file order, read without the values.

    Checks the magic, each length against the bytes left in the file, the
    names (UTF-8, printable, distinct); leaves `handle` at end of file.
    """
    size = os.fstat(handle.fileno()).st_size
    if handle.read(len(MAGIC)) != MAGIC:
        raise ValueError(f"{path}: not a tensor archive (bad magic)")
    offset = len(MAGIC)

    def take(count: int) -> bytes:
        nonlocal offset
        if count > size - offset:
            raise ValueError(f"{path}: truncated archive at byte {offset}")
        offset += count
        return handle.read(count)

    entries: list[_Entry] = []
    seen: set[str] = set()
    while offset < size:
        (name_len,) = struct.unpack("<I", take(4))
        start = offset
        raw = take(name_len)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            name = None
        if name is None or not name.isprintable():
            raise ValueError(f"{path}: tensor name at byte {start} is not printable UTF-8")
        if name in seen:
            raise ValueError(f"{path}: duplicate tensor '{name}'")
        seen.add(name)
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        count = 1
        for dim in shape:
            count *= dim
        data_offset = offset
        if 4 * count > size - offset:
            raise ValueError(f"{path}: truncated archive at byte {offset}")
        offset = handle.seek(4 * count, os.SEEK_CUR)
        entries.append(_Entry(name, shape, data_offset))
    return entries


def _read_values(handle: BinaryIO, path, entry: _Entry, out: np.ndarray) -> None:
    """Read one tensor's values into the C-contiguous `<f4` array `out`."""
    handle.seek(entry.offset)
    if handle.readinto(memoryview(out.reshape(-1)).cast("B")) != out.nbytes:
        raise ValueError(f"{path}: truncated archive at byte {entry.offset}")


def tensor_shapes(path) -> dict[str, tuple[int, ...]]:
    """Each tensor's shape by name, read from the headers alone."""
    with open(path, "rb") as handle:
        return {entry.name: entry.shape for entry in _walk(handle, path)}


def load_tensors(path) -> dict[str, np.ndarray]:
    """Named arrays of an archive, each a writable array of its own; the
    whole archive is checked before any value is read."""
    with open(path, "rb") as handle:
        entries = _walk(handle, path)
        tensors: dict[str, np.ndarray] = {}
        for entry in entries:
            tensors[entry.name] = np.empty(entry.shape, dtype="<f4")
            _read_values(handle, path, entry, tensors[entry.name])
    return tensors


def load_into(params: Mapping[str, object], path) -> None:
    """Fill existing parameter tensors from an archive, by name.

    Names present in the archive but not in `params` (and vice versa) are an
    error, as is any shape mismatch; errors name the offending tensors.  The
    whole archive is checked before any parameter is written, so after an
    error of that check every parameter holds what it held before.  A file
    cut after the check raises when a read falls short: the parameters
    before that tensor in the archive hold their new values, that tensor
    holds the values read before the cut and its old ones after them (or
    only its old ones, when it is read through a temporary), and the rest
    are unchanged.  Values go from the
    file straight into each parameter's buffer, through a temporary only
    when that buffer is not C-contiguous `<f4`.  A parameter whose seeded
    draw is pending (`autodiff.parameter`) is never drawn: its shape is
    checked on its buffer, and only once its values are read is it marked
    `written`, so after an error it is still pending, the one that was cut
    too, and its first read draws its seeded values over the bytes read.
    """
    with open(path, "rb") as handle:
        entries = _walk(handle, path)
        unknown = sorted(e.name for e in entries if e.name not in params)
        if unknown:
            raise ValueError(f"{path}: unknown tensor names in archive: {', '.join(unknown)}")
        missing = sorted(set(params) - {e.name for e in entries})
        if missing:
            raise ValueError(f"{path}: archive is missing tensors: {', '.join(missing)}")
        for entry in entries:
            data = _buffer(params[entry.name])
            if not isinstance(data, np.ndarray):
                raise ValueError(f"parameter '{entry.name}' has no array data to fill")
            if entry.shape != data.shape:
                raise ValueError(f"{path}: tensor '{entry.name}' has shape {entry.shape}, "
                                 f"model expects {data.shape}")
        for entry in entries:
            data = _buffer(params[entry.name])
            if data.dtype == np.dtype("<f4") and data.flags.c_contiguous:
                _read_values(handle, path, entry, data)
            else:
                values = np.empty(entry.shape, dtype="<f4")
                _read_values(handle, path, entry, values)
                data[...] = values
            ad.written(params[entry.name])
