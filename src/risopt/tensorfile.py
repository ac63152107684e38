"""Minimal binary container for float32 tensors.

One file holds one or more records back to back.  Each record is:

    magic   4 bytes  b"RIST"
    version u16      1
    rank    u8
    dims    u32 * rank
    payload float32 * prod(dims), C order

Everything is little-endian.  The format has no index or compression;
readers walk records until end of file.  Any structural problem
(wrong magic, unknown version, payload shorter than the header claims,
trailing bytes that are not a full record) raises
:class:`TensorFormatError` and no partial data is returned.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"RIST"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sHB")


class TensorFormatError(ValueError):
    """File does not conform to the tensor container layout."""


def save_tensors(path, tensors) -> None:
    """Write a sequence of arrays as float32 records.

    Values are cast to float32; the write is deterministic, so equal
    inputs always produce byte-identical files.  Every record is cast
    and checked before the file is opened, so a rejected one leaves an
    existing file as it was; then each record is written from its own
    buffer, with no copy of the whole file in memory.
    """
    records = []
    for arr in tensors:
        arr = np.asarray(arr, dtype="<f4", order="C")
        if arr.ndim > 255:
            raise ValueError("tensor rank exceeds the u8 header field")
        if any(d >= 2**32 for d in arr.shape):
            raise ValueError("tensor dimension exceeds the u32 header field")
        records.append(arr)
    with open(path, "wb") as f:
        for arr in records:
            f.write(_HEADER.pack(MAGIC, FORMAT_VERSION, arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.reshape(-1))  # C order, float32 little-endian


def load_tensors(path) -> list:
    """Read every record of a tensor file; inverse of :func:`save_tensors`."""
    data = Path(path).read_bytes()
    out = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < _HEADER.size:
            raise TensorFormatError(f"truncated record header at byte {offset}")
        magic, version, rank = _HEADER.unpack_from(data, offset)
        if magic != MAGIC:
            raise TensorFormatError(f"bad magic {magic!r} at byte {offset}")
        if version != FORMAT_VERSION:
            raise TensorFormatError(f"unsupported format version {version}")
        offset += _HEADER.size
        if total - offset < 4 * rank:
            raise TensorFormatError("truncated dimension list")
        dims = struct.unpack_from(f"<{rank}I", data, offset)
        offset += 4 * rank
        count = 1
        for d in dims:
            count *= d
        nbytes = 4 * count
        if total - offset < nbytes:
            raise TensorFormatError(
                f"payload needs {nbytes} bytes, file has {total - offset} left"
            )
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
        out.append(arr.reshape(dims).copy())
        offset += nbytes
    return out
