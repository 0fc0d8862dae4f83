"""Binary checkpoint container.

Layout (all integers little-endian):

    magic   4 bytes  b"FDCN"
    version u32      currently 1
    count   u32      number of tensors
    then per tensor, in strictly increasing path order:
        path_len u16, path utf-8 bytes
        ndim     u8,  ndim * u32 dims
        payload  float64 little-endian, C order

Sorting by path makes the byte stream a pure function of the tensor dict.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .fileio import atomic_writer

MAGIC = b"FDCN"
VERSION = 1


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Write the tensors to ``path`` atomically, one record at a time."""
    with atomic_writer(path) as fh:
        fh.write(struct.pack("<4sII", MAGIC, VERSION, len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            enc = name.encode("utf-8")
            fh.write(struct.pack("<H", len(enc)))
            fh.write(enc)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise FileFormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, count = struct.unpack_from("<4sII", raw, 0)
    if magic != MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    off = 12
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            (plen,) = struct.unpack_from("<H", raw, off)
            off += 2
            name = raw[off : off + plen].decode("utf-8")
            off += plen
            (ndim,) = struct.unpack_from("<B", raw, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}I", raw, off)
            off += 4 * ndim
            n = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(shape)
            off += 8 * n
        except (struct.error, ValueError) as exc:
            raise FileFormatError(f"{path}: truncated tensor record: {exc}") from None
        # the writer sorts the paths, so a repeat or a step back is corruption
        if out and name <= last:
            raise FileFormatError(f"{path}: tensor path {name!r} does not sort after {last!r}")
        # the model takes the arrays as they are, past Tensor's finite-only rule
        if not np.isfinite(arr).all():
            raise FileFormatError(f"{path}: tensor {name!r} holds non-finite values")
        out[name] = arr.astype(np.float64)
        last = name
    if off != len(raw):
        raise FileFormatError(f"{path}: {len(raw) - off} trailing bytes")
    return out
