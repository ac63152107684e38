"""Tensor container round trips and byte-level layout checks."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from risopt.tensorfile import TensorFormatError, load_tensors, save_tensors

REPO = Path(__file__).resolve().parents[1]


def test_round_trip_single(tmp_path):
    path = tmp_path / "a.rist"
    arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    save_tensors(path, [arr])
    (back,) = load_tensors(path)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, arr)


def test_round_trip_multi_record(tmp_path):
    path = tmp_path / "b.rist"
    rng = np.random.default_rng(3)
    tensors = [
        rng.standard_normal((5, 5, 2)).astype(np.float32),
        rng.standard_normal(7).astype(np.float32),
        np.float32(4.25).reshape(()),  # rank-0 scalar record
    ]
    save_tensors(path, tensors)
    back = load_tensors(path)
    assert len(back) == 3
    for got, want in zip(back, tensors):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def test_exact_byte_layout(tmp_path):
    # Hand-assembled reference file: the format is pinned byte by byte.
    path = tmp_path / "c.rist"
    save_tensors(path, [np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)])
    want = (
        b"RIST"
        + struct.pack("<H", 1)
        + struct.pack("<B", 2)
        + struct.pack("<II", 2, 2)
        + struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)
    )
    assert path.read_bytes() == want


def test_float64_input_is_cast(tmp_path):
    path = tmp_path / "d.rist"
    save_tensors(path, [np.array([0.1, 0.2])])
    (back,) = load_tensors(path)
    np.testing.assert_array_equal(back, np.array([0.1, 0.2], dtype=np.float32))


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(9)
    arr = rng.standard_normal((4, 6)).astype(np.float32)
    p1, p2 = tmp_path / "e1", tmp_path / "e2"
    save_tensors(p1, [arr, arr[::-1]])
    save_tensors(p2, [arr, arr[::-1]])
    assert p1.read_bytes() == p2.read_bytes()


def test_records_are_written_in_c_order_little_endian(tmp_path):
    # views that are not C-contiguous, and big-endian input, still write
    # the C-order little-endian float32 payload
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    path = tmp_path / "views.rist"
    save_tensors(path, [arr.T, arr[:, ::2], arr.astype(">f8")])
    want = b"".join(struct.pack("<4sHB", b"RIST", 1, 2) + struct.pack("<2I", *a.shape)
                    + np.ascontiguousarray(a, dtype="<f4").tobytes()
                    for a in (arr.T, arr[:, ::2], arr))
    assert path.read_bytes() == want


def test_rejected_record_leaves_an_existing_file_unchanged(tmp_path):
    # every record is cast before the file is opened
    path = tmp_path / "keep.rist"
    save_tensors(path, [np.arange(6, dtype=np.float32).reshape(2, 3)])
    before = path.read_bytes()
    with pytest.raises(ValueError, match="could not convert"):
        save_tensors(path, [np.zeros(4), np.array(["not a number"])])
    assert path.read_bytes() == before


def test_empty_file_yields_no_tensors(tmp_path):
    path = tmp_path / "empty.rist"
    save_tensors(path, [])
    assert load_tensors(path) == []


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.rist"
    path.write_bytes(b"JUNK" + bytes(20))
    with pytest.raises(TensorFormatError):
        load_tensors(path)


def test_bad_version(tmp_path):
    path = tmp_path / "ver.rist"
    path.write_bytes(b"RIST" + struct.pack("<H", 7) + struct.pack("<B", 0) + b"\0" * 4)
    with pytest.raises(TensorFormatError):
        load_tensors(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.rist"
    save_tensors(path, [np.ones((3, 3), dtype=np.float32)])
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(TensorFormatError):
        load_tensors(path)


def test_declared_count_exceeds_payload(tmp_path):
    # Header claims 100 floats but only 2 follow.
    path = tmp_path / "short.rist"
    path.write_bytes(
        b"RIST" + struct.pack("<H", 1) + struct.pack("<B", 1)
        + struct.pack("<I", 100) + struct.pack("<2f", 1.0, 2.0)
    )
    with pytest.raises(TensorFormatError):
        load_tensors(path)


def test_header_claiming_more_than_memory(tmp_path):
    # (2**32 - 1)**2 floats is about 74 EB: the claim is checked against the
    # file's size before any array is allocated
    path = tmp_path / "huge.rist"
    path.write_bytes(b"RIST" + struct.pack("<HBII", 1, 2, 2**32 - 1, 2**32 - 1)
                     + struct.pack("<2f", 1.0, 2.0))
    with pytest.raises(TensorFormatError, match="overruns the file"):
        load_tensors(path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_path_that_is_not_a_regular_file_is_refused(tmp_path):
    # a pipe holding a whole valid file, and a directory
    save_tensors(tmp_path / "one.rist", [np.ones(3, dtype=np.float32)])
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, (tmp_path / "one.rist").read_bytes())
        os.close(write_end)
        for path in (f"/dev/fd/{read_end}", tmp_path):
            with pytest.raises(TensorFormatError, match=f"{path} is not a regular file"):
                load_tensors(path)
    finally:
        os.close(read_end)


_READ = "import sys; from risopt.tensorfile import load_tensors; load_tensors(sys.argv[1])"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_fifo_with_no_writer_is_refused_without_blocking(tmp_path):
    # opening a FIFO with no writer blocks, so the read runs in a child
    # process: a hang fails the timeout instead of stalling the suite
    fifo = tmp_path / "config.rist"
    os.mkfifo(fifo)
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _READ, str(fifo)], capture_output=True,
                          text=True, timeout=10, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 1
    assert f"TensorFormatError: {fifo} is not a regular file" in proc.stderr


def test_trailing_garbage(tmp_path):
    path = tmp_path / "tail.rist"
    save_tensors(path, [np.zeros(2, dtype=np.float32)])
    path.write_bytes(path.read_bytes() + b"xy")
    with pytest.raises(TensorFormatError):
        load_tensors(path)


def test_corruption_in_second_record(tmp_path):
    # First record intact, second mangled: the load fails as a whole.
    path = tmp_path / "two.rist"
    save_tensors(path, [np.zeros(2, dtype=np.float32)])
    good = path.read_bytes()
    path.write_bytes(good + b"RIST" + struct.pack("<H", 1))
    with pytest.raises(TensorFormatError):
        load_tensors(path)


# ---------------------------------------------------------------- properties

# any float32 bit pattern, NaN payloads and signed zeros included
records = st.lists(
    hnp.arrays(np.uint32, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4))
    .map(lambda bits: bits.view(np.float32)),
    max_size=4)


def encode(tensors, tmp_path):
    """File bytes of ``tensors`` and the byte offsets where each record ends."""
    path = tmp_path / "p.rist"
    ends = []
    for i in range(len(tensors)):
        save_tensors(path, tensors[: i + 1])
        ends.append(path.stat().st_size)
    save_tensors(path, tensors)
    return path, path.read_bytes(), ends


@settings(max_examples=150, deadline=None)
@given(records)
def test_round_trip_property(tmp_path_factory, tensors):
    path, _, _ = encode(tensors, tmp_path_factory.mktemp("rt"))
    back = load_tensors(path)
    assert len(back) == len(tensors)
    for got, want in zip(back, tensors):
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(records.filter(len), st.data())
def test_truncation_property(tmp_path_factory, tensors, data):
    # every cut that is not a record boundary leaves a malformed file
    path, blob, ends = encode(tensors, tmp_path_factory.mktemp("cut"))
    cut = data.draw(st.integers(1, len(blob) - 1).filter(lambda c: c not in ends))
    path.write_bytes(blob[:cut])
    with pytest.raises(TensorFormatError):
        load_tensors(path)


@settings(max_examples=150, deadline=None)
@given(records.filter(len), st.data())
def test_header_corruption_property(tmp_path_factory, tensors, data):
    # any changed byte of a record's magic or version is caught
    path, blob, ends = encode(tensors, tmp_path_factory.mktemp("bad"))
    start = data.draw(st.sampled_from([0] + ends[:-1]))
    pos = start + data.draw(st.integers(0, 5))
    value = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]))
    path.write_bytes(blob[:pos] + bytes([value]) + blob[pos + 1:])
    with pytest.raises(TensorFormatError):
        load_tensors(path)
