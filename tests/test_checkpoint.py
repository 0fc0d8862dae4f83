"""Checkpoint container: round trips, ordering, and corruption handling."""

import struct

import numpy as np
import pytest

from conftest import rng, write_past_size_limit
from fdcnet.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from fdcnet.errors import FileFormatError


def _sample_state():
    r = rng(3)
    return {
        "encoder.pe.alpha_logits": r.normal(size=(42,)),
        "denoiser.stem.w": r.normal(size=(4, 2, 7)),
        "classifier.head.b2": r.normal(size=(2,)),
        "scalar": np.array(3.25),
    }


def write_records(path, records):
    """A checkpoint file holding the (path, array) records in the given order."""
    blobs = [struct.pack("<4sII", MAGIC, VERSION, len(records))]
    for name, arr in records:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        enc = name.encode("utf-8")
        blobs.append(struct.pack("<H", len(enc)))
        blobs.append(enc)
        blobs.append(struct.pack("<B", arr.ndim))
        blobs.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        blobs.append(arr.tobytes())
    path.write_bytes(b"".join(blobs))


def joined_save_checkpoint(path, tensors):
    """The earlier writer, which built the whole file in memory first."""
    write_records(path, [(name, tensors[name]) for name in sorted(tensors)])


class TestRoundTrip:
    def test_bit_identical(self, tmp_path):
        path = tmp_path / "m.fdcn"
        state = _sample_state()
        save_checkpoint(path, state)
        back = load_checkpoint(path)
        assert set(back) == set(state)
        for k, v in state.items():
            np.testing.assert_array_equal(back[k], v)
            assert back[k].dtype == np.float64

    def test_deterministic_bytes_regardless_of_insertion_order(self, tmp_path):
        state = _sample_state()
        reversed_state = dict(reversed(list(state.items())))
        p1, p2 = tmp_path / "a.fdcn", tmp_path / "b.fdcn"
        save_checkpoint(p1, state)
        save_checkpoint(p2, reversed_state)
        assert p1.read_bytes() == p2.read_bytes()

    def test_paths_stored_sorted(self, tmp_path):
        path = tmp_path / "m.fdcn"
        save_checkpoint(path, _sample_state())
        raw = path.read_bytes()
        positions = [raw.index(k.encode()) for k in sorted(_sample_state())]
        assert positions == sorted(positions)

    def test_empty_state(self, tmp_path):
        path = tmp_path / "empty.fdcn"
        save_checkpoint(path, {})
        assert load_checkpoint(path) == {}

    @pytest.mark.parametrize("extra", [{}, {"fortran": np.asfortranarray(np.ones((3, 4))),
                                            "f32": np.arange(5, dtype=np.float32),
                                            "ünïcode": np.zeros((2, 0, 3))}])
    def test_bytes_equal_joined_writer(self, tmp_path, extra):
        state = {**_sample_state(), **extra}
        save_checkpoint(tmp_path / "a.fdcn", state)
        joined_save_checkpoint(tmp_path / "b.fdcn", state)
        assert (tmp_path / "a.fdcn").read_bytes() == (tmp_path / "b.fdcn").read_bytes()

    def test_failed_write_leaves_no_file(self, tmp_path):
        state = {**_sample_state(), "zzz": np.array(["not a number"])}
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "m.fdcn", state)
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_write_keeps_existing_file(self, tmp_path):
        path = tmp_path / "m.fdcn"
        save_checkpoint(path, _sample_state())
        before = path.read_bytes()
        code = (
            "import sys\nimport numpy as np\n"
            "from fdcnet.checkpoint import save_checkpoint\n"
            "try:\n"
            f"    save_checkpoint({str(path)!r}, {{'a': np.ones(4096), 'b': np.ones(65536)}})\n"
            "except OSError:\n"
            "    sys.exit(3)\n"
        )
        assert write_past_size_limit(code, 65536) == 3
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.fdcn"
        save_checkpoint(path, _sample_state())
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.fdcn"
        save_checkpoint(path, _sample_state())
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.fdcn"
        save_checkpoint(path, _sample_state())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "m.fdcn"
        save_checkpoint(path, _sample_state())
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(FileFormatError):
            load_checkpoint(path)

    def test_repeated_path_rejected(self, tmp_path):
        # a reader that kept the last record would load {"a": [1, 1, 1]}
        path = tmp_path / "m.fdcn"
        write_records(path, [("a", np.zeros(3)), ("a", np.ones(3))])
        with pytest.raises(FileFormatError, match="'a' does not sort after 'a'"):
            load_checkpoint(path)

    def test_paths_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "m.fdcn"
        write_records(path, [("b", np.zeros(2)), ("a", np.ones(2))])
        with pytest.raises(FileFormatError, match="'a' does not sort after 'b'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, value):
        # the model copies loaded arrays into its parameters in place, so no
        # Tensor construction would catch the value before a forward pass
        path = tmp_path / "m.fdcn"
        state = _sample_state()
        state["classifier.head.b2"][1] = value
        save_checkpoint(path, state)
        with pytest.raises(FileFormatError, match=r"m\.fdcn: tensor 'classifier\.head\.b2' holds non-finite"):
            load_checkpoint(path)

    def test_records_in_increasing_order_load(self, tmp_path):
        path = tmp_path / "m.fdcn"
        write_records(path, [("", np.zeros(1)), ("a", np.ones(2)), ("a.b", np.full(3, 2.0))])
        back = load_checkpoint(path)
        assert list(back) == ["", "a", "a.b"] and back["a.b"].tolist() == [2.0, 2.0, 2.0]
