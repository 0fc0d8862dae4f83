"""Fuzzed .fdcd and .fdcn readers: a corrupt or hostile file raises
FileFormatError and nothing else, or reads back as a well-formed result."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import rng
from fdcnet.checkpoint import MAGIC as CKPT_MAGIC
from fdcnet.checkpoint import VERSION as CKPT_VERSION
from fdcnet.checkpoint import load_checkpoint, save_checkpoint
from fdcnet.dataset import MAGIC, VERSION, load_dataset, new_dataset, record_dtype, save_dataset
from fdcnet.errors import FileFormatError

FUZZ = settings(max_examples=150, deadline=None)


def _edges(bits):
    """Integers of `bits` bits, weighted toward the values that break arithmetic."""
    top = 2**bits - 1
    return st.one_of(st.sampled_from([0, 1, 2, 7, 2**31 - 1, 2**31, top - 1, top]),
                     st.integers(0, top))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "file"


@pytest.fixture(scope="module")
def dataset_bytes(tmp_path_factory):
    r = rng(11)
    ds = new_dataset(3, 2, 5)
    ds.clean = r.normal(size=(3, 2, 5))
    ds.noisy = r.normal(size=(3, 2, 5))
    ds.valence, ds.arousal, ds.subject_id = 1, 0, [0, 1, 2]
    ds.achieved_snr_db = r.normal(size=3)
    path = tmp_path_factory.mktemp("valid") / "d.fdcd"
    save_dataset(path, ds)
    return path.read_bytes()


def _read_dataset(scratch, raw):
    """The loaded dataset, or None when the reader rejected the file."""
    scratch.write_bytes(raw)
    try:
        ds = load_dataset(scratch)
    except FileFormatError:
        return None
    _, _, c, t, count = struct.unpack_from("<4sIIIQ", raw)
    assert isinstance(ds, np.recarray) and ds.shape == (count,)
    if count:
        assert ds.dtype == record_dtype(c, t)
    return ds


def _read_checkpoint(scratch, raw):
    scratch.write_bytes(raw)
    try:
        state = load_checkpoint(scratch)
    except FileFormatError:
        return None
    assert all(isinstance(v, np.ndarray) and v.dtype == np.float64 for v in state.values())
    return state


class TestDatasetReader:
    @FUZZ
    @given(cut=st.integers(0, 10**6))
    def test_truncation(self, scratch, dataset_bytes, cut):
        assert _read_dataset(scratch, dataset_bytes[: cut % len(dataset_bytes)]) is None

    @FUZZ
    @given(bit=st.integers(0, 10**6))
    def test_bit_flip(self, scratch, dataset_bytes, bit):
        raw = bytearray(dataset_bytes)
        bit %= 8 * len(raw)
        raw[bit // 8] ^= 1 << (bit % 8)
        ds = _read_dataset(scratch, bytes(raw))
        if bit < 8 * 24:  # any header change is caught by the size check
            assert ds is None

    @FUZZ
    @given(c=_edges(32), t=_edges(32), count=_edges(64), body=st.integers(0, 400), exact=st.booleans())
    @example(c=2**32 - 1, t=2**32 - 1, count=0, body=0, exact=False)
    @example(c=0, t=2**32 - 1, count=1, body=14, exact=False)
    @example(c=2**31 - 1, t=0, count=2, body=28, exact=False)
    @example(c=2**16, t=2**16, count=0, body=0, exact=False)
    def test_hostile_header(self, scratch, c, t, count, body, exact):
        if exact and count * (14 + 16 * c * t) <= 4096:
            body = count * (14 + 16 * c * t)
        _read_dataset(scratch, struct.pack("<4sIIIQ", MAGIC, VERSION, c, t, count) + bytes(body))


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    r = rng(12)
    path = tmp_path_factory.mktemp("valid") / "m.fdcn"
    save_checkpoint(path, {"a.w": r.normal(size=(2, 3)), "b": np.array(1.5), "c": np.zeros(0)})
    return path.read_bytes()


class TestCheckpointReader:
    @FUZZ
    @given(cut=st.integers(0, 10**6))
    def test_truncation(self, scratch, checkpoint_bytes, cut):
        assert _read_checkpoint(scratch, checkpoint_bytes[: cut % len(checkpoint_bytes)]) is None

    @FUZZ
    @given(bit=st.integers(0, 10**6))
    def test_bit_flip(self, scratch, checkpoint_bytes, bit):
        raw = bytearray(checkpoint_bytes)
        bit %= 8 * len(raw)
        raw[bit // 8] ^= 1 << (bit % 8)
        _read_checkpoint(scratch, bytes(raw))

    @FUZZ
    @given(count=_edges(32), ndim=st.integers(0, 255), dims=st.lists(_edges(32), max_size=255),
           payload=st.integers(0, 400))
    @example(count=1, ndim=255, dims=[2**32 - 1] * 255, payload=0)
    @example(count=1, ndim=4, dims=[2**16] * 4, payload=0)
    @example(count=1, ndim=65, dims=[0] * 65, payload=0)
    @example(count=1, ndim=2, dims=[0, 2**32 - 1], payload=0)
    @example(count=0, ndim=0, dims=[], payload=0)
    def test_hostile_header(self, scratch, count, ndim, dims, payload):
        dims = (dims + [1] * ndim)[:ndim]
        record = struct.pack("<H", 1) + b"x" + struct.pack(f"<B{ndim}I", ndim, *dims) + bytes(payload)
        raw = struct.pack("<4sII", CKPT_MAGIC, CKPT_VERSION, count) + (record if count else b"")
        state = _read_checkpoint(scratch, raw)
        if count == 0:
            assert state == {}
