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

import math
import os
import stat
import struct

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
        if any(d >= 2**32 for d in arr.shape):
            raise ValueError("tensor dimension exceeds the u32 header field")
        records.append(arr)
    with open(path, "wb") as f:
        for arr in records:
            f.write(_HEADER.pack(MAGIC, FORMAT_VERSION, arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.reshape(-1))  # C order, float32 little-endian


def load_tensors(path) -> list:
    """Read every record of a tensor file; inverse of :func:`save_tensors`,
    each record straight into its own array once its size fits what the
    file has left.  A path that is not a regular file is refused unopened."""
    if not stat.S_ISREG(os.stat(path).st_mode):  # opening a FIFO with no writer blocks
        raise TensorFormatError(f"{path} is not a regular file")
    out = []
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        while (offset := f.tell()) < size:
            header = f.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise TensorFormatError(f"truncated record header at byte {offset}")
            magic, version, rank = _HEADER.unpack(header)
            if magic != MAGIC:
                raise TensorFormatError(f"bad magic {magic!r} at byte {offset}")
            if version != FORMAT_VERSION:
                raise TensorFormatError(f"unsupported format version {version}")
            raw = f.read(4 * rank)
            if len(raw) < 4 * rank:
                raise TensorFormatError("truncated dimension list")
            dims = struct.unpack(f"<{rank}I", raw)
            if 4 * math.prod(dims) > size - f.tell():
                raise TensorFormatError(f"record at byte {offset}: {dims} overruns the file")
            arr = np.empty(dims, "<f4")
            if f.readinto(arr) != arr.nbytes:
                raise TensorFormatError(f"record at byte {offset}: the file ends inside it")
            out.append(arr)
    return out
