"""Fuzzed .fdcd, .fdcn, config and eval-CSV readers: a corrupt or hostile
file raises FileFormatError and nothing else, or reads back as a
well-formed result."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import rng
from fdcnet.checkpoint import MAGIC as CKPT_MAGIC
from fdcnet.checkpoint import VERSION as CKPT_VERSION
from fdcnet.checkpoint import load_checkpoint, save_checkpoint
from fdcnet.configfile import read_config, write_config
from fdcnet.dataset import MAGIC, VERSION, load_dataset, new_dataset, record_dtype, save_dataset
from fdcnet.errors import FileFormatError
from fdcnet.trainer import EvalReport, EvalRow, read_eval_csv, write_eval_csv

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


# -- text readers ----------------------------------------------------------

BOM = "\ufeff".encode()
# bytes that mean something to a config line or a CSV record, and bytes
# that are not UTF-8
_MARKS = [b"\x00", BOM, b"\n", b"\r", b"\r\n", b"=", b"[", b"]", b"[]", b"#", b",", b'"',
          b"average", b"nan", b"inf", b"-", b".", b"e", b"\xff", b"\xc3", b"\xe2\x80\xa8"]


def _blobs():
    """Inserted bytes: marks, short random runs, oversized fields and huge
    digit strings."""
    return st.one_of(
        st.sampled_from(_MARKS),
        st.binary(max_size=16),
        st.builds(lambda ch, n: ch * n, st.sampled_from([b"9", b"x", b"0", b" "]),
                  st.sampled_from([4301, 10**4, 131073, 3 * 10**5])),
    )


def _insert(raw, at, blob):
    at %= len(raw) + 1
    return raw[:at] + blob + raw[at:]


@pytest.fixture(scope="module")
def config_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("valid") / "run_config.txt"
    write_config(path, {"train": {"epochs": 2, "lr": 0.001, "desk": True, "data": "d.fdcd"},
                        "eval": {"snr_grid": "-3:3:1", "use": "test"}})
    return path.read_bytes()


def _read_config(scratch, raw):
    scratch.write_bytes(raw)
    try:
        sections = read_config(scratch)
    except FileFormatError:
        return None
    for name, body in sections.items():
        assert isinstance(name, str) and name
        for key, value in body.items():
            assert isinstance(key, str) and isinstance(value, (bool, int, float, str))
            assert not isinstance(value, float) or math.isfinite(value)
    return sections


class TestConfigReader:
    @FUZZ
    @given(cut=st.integers(0, 10**6))
    def test_truncation(self, scratch, config_bytes, cut):
        _read_config(scratch, config_bytes[: cut % (len(config_bytes) + 1)])

    @FUZZ
    @given(at=st.integers(0, 10**6), blob=_blobs())
    @example(at=0, blob=BOM)
    @example(at=8, blob=b"\x00")
    @example(at=17, blob=b"9" * 5000)
    def test_inserted_bytes(self, scratch, config_bytes, at, blob):
        _read_config(scratch, _insert(config_bytes, at, blob))

    @FUZZ
    @given(value=st.one_of(st.text(max_size=40), st.sampled_from(
        ["9" * 4301, "-" + "9" * 10**4, "1e" + "9" * 400, "0x10", "1_000", "1e309", "-nan", "'"])))
    def test_any_value(self, scratch, value):
        _read_config(scratch, f"[s]\nk = {value}\n".encode())


@pytest.fixture(scope="module")
def eval_csv_bytes(tmp_path_factory):
    row = EvalRow(-2.5, 1.25, 80.0, 0.5, 0.25)
    path = tmp_path_factory.mktemp("valid") / "eval.csv"
    write_eval_csv(path, EvalReport(grid=[-3.0, 0.0], rows=[row, row], average=row))
    return path.read_bytes()


def _read_eval(scratch, raw):
    scratch.write_bytes(raw)
    try:
        report = read_eval_csv(scratch)
    except FileFormatError:
        return None
    assert isinstance(report, EvalReport) and report.rows
    assert len(report.grid) == len(report.rows)
    for row in report.rows + [report.average]:
        assert isinstance(row, EvalRow)
        assert all(isinstance(v, float) and math.isfinite(v) for v in vars(row).values())
    assert all(isinstance(g, float) and math.isfinite(g) for g in report.grid)
    return report


class TestEvalCsvReader:
    @FUZZ
    @given(cut=st.integers(0, 10**6))
    def test_truncation(self, scratch, eval_csv_bytes, cut):
        _read_eval(scratch, eval_csv_bytes[: cut % (len(eval_csv_bytes) + 1)])

    @FUZZ
    @given(at=st.integers(0, 10**6), blob=_blobs())
    @example(at=0, blob=BOM)
    @example(at=80, blob=b"\x00")
    @example(at=75, blob=b"9" * 5000)
    @example(at=75, blob=b"x" * 131073)
    def test_inserted_bytes(self, scratch, eval_csv_bytes, at, blob):
        _read_eval(scratch, _insert(eval_csv_bytes, at, blob))
