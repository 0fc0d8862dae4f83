"""Dataset build, file format, seed derivation, and train/test splitting."""

import struct

import numpy as np
import pytest

from conftest import rng, write_past_size_limit
from fdcnet.dataset import (
    _SEG_HEAD,
    MAGIC,
    VERSION,
    EegSegment,
    build_dataset,
    derive_seed,
    load_dataset,
    save_dataset,
    split_indices,
)
from fdcnet.errors import ConfigError, DimensionError, FileFormatError
from fdcnet.noise import NoiseSpec, inject_noise
from fdcnet.synth import SynthSpec, synth_clean_eeg


def _segments(n=3, c=2, t=128, seed=0):
    r = rng(seed)
    out = []
    for i in range(n):
        out.append(
            EegSegment(
                clean=r.normal(size=(c, t)),
                noisy=r.normal(size=(c, t)),
                valence=int(r.integers(0, 2)),
                arousal=int(r.integers(0, 2)),
                subject_id=i % 2,
                achieved_snr_db=float(r.normal()),
            )
        )
    return out


def joined_save_dataset(path, segments):
    """The earlier writer, which built the whole file in memory first."""
    c, t = segments[0].clean.shape if segments else (0, 0)
    blobs = [struct.pack("<4sIIIQ", MAGIC, VERSION, c, t, len(segments))]
    for seg in segments:
        blobs.append(_SEG_HEAD.pack(seg.subject_id, seg.valence, seg.arousal, seg.achieved_snr_db))
        blobs.append(np.ascontiguousarray(seg.clean, dtype="<f8").tobytes())
        blobs.append(np.ascontiguousarray(seg.noisy, dtype="<f8").tobytes())
    path.write_bytes(b"".join(blobs))


class TestFileFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        path = tmp_path / "d.fdcd"
        segs = _segments(5)
        save_dataset(path, segs)
        back = load_dataset(path)
        assert len(back) == 5
        for a, b in zip(segs, back):
            np.testing.assert_array_equal(a.clean, b.clean)
            np.testing.assert_array_equal(a.noisy, b.noisy)
            assert (a.valence, a.arousal, a.subject_id) == (b.valence, b.arousal, b.subject_id)
            assert a.achieved_snr_db == b.achieved_snr_db

    def test_empty_list_header_only(self, tmp_path):
        path = tmp_path / "empty.fdcd"
        save_dataset(path, [])
        raw = path.read_bytes()
        # magic + version u32 + C u32 + T u32 + count u64
        assert len(raw) == 24
        assert raw[:4] == b"FDCD"
        assert load_dataset(path) == []

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "d.fdcd"
        save_dataset(path, _segments(1))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            load_dataset(path)

    def test_corrupted_count_is_truncation_error(self, tmp_path):
        path = tmp_path / "d.fdcd"
        save_dataset(path, _segments(2))
        raw = bytearray(path.read_bytes())
        raw[16:24] = struct.pack("<Q", 99)  # count field
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            load_dataset(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "d.fdcd"
        save_dataset(path, _segments(2))
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(FileFormatError):
            load_dataset(path)

    def test_mixed_shapes_rejected(self, tmp_path):
        segs = _segments(2)
        bad = EegSegment(
            clean=np.zeros((3, 128)), noisy=np.zeros((3, 128)),
            valence=0, arousal=0, subject_id=0, achieved_snr_db=0.0,
        )
        with pytest.raises(DimensionError):
            save_dataset(tmp_path / "bad.fdcd", segs + [bad])

    @pytest.mark.parametrize("n, c, t", [(0, 2, 128), (1, 2, 128), (5, 3, 7), (40, 32, 128)])
    def test_bytes_equal_joined_writer(self, tmp_path, n, c, t):
        segs = _segments(n, c, t, seed=n)
        if segs:
            # a transposed view and a float32 field take the conversion paths
            segs[0].clean = np.asfortranarray(segs[0].clean)
            segs[-1].noisy = segs[-1].noisy.astype(np.float32)
        save_dataset(tmp_path / "a.fdcd", segs)
        joined_save_dataset(tmp_path / "b.fdcd", segs)
        assert (tmp_path / "a.fdcd").read_bytes() == (tmp_path / "b.fdcd").read_bytes()

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_failed_write_leaves_no_file(self, tmp_path, k):
        segs = _segments(5)
        segs[k] = EegSegment(
            clean=np.zeros((2, 64)) if k else np.zeros((2, 128)), noisy=np.zeros((2, 64)),
            valence=0, arousal=0, subject_id=0, achieved_snr_db=0.0,
        )
        with pytest.raises(DimensionError, match=f"segment {k}"):
            save_dataset(tmp_path / "bad.fdcd", segs)
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_write_keeps_existing_file(self, tmp_path):
        path = tmp_path / "d.fdcd"
        save_dataset(path, _segments(2))
        before = path.read_bytes()
        code = (
            "import sys\nimport numpy as np\n"
            "from fdcnet.dataset import EegSegment, save_dataset\n"
            "seg = EegSegment(np.ones((8, 128)), np.ones((8, 128)), 0, 0, 0, 0.0)\n"
            "try:\n"
            f"    save_dataset({str(path)!r}, [seg] * 100)\n"
            "except OSError:\n"
            "    sys.exit(3)\n"
        )
        assert write_past_size_limit(code, 65536) == 3
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "noise", 3) == derive_seed(7, "noise", 3)

    def test_distinct_across_labels_indices_roots(self):
        seeds = {
            derive_seed(0, "noise", 0),
            derive_seed(0, "noise", 1),
            derive_seed(0, "val-noise", 0),
            derive_seed(1, "noise", 0),
            derive_seed(0, "noise", 0, 1),
        }
        assert len(seeds) == 5

    def test_many_indices_unique(self):
        seeds = [derive_seed(0, "train-noise", e, i) for e in range(20) for i in range(50)]
        assert len(set(seeds)) == len(seeds)


class TestBuildDataset:
    def test_counts_and_snr(self):
        spec = SynthSpec(n_subjects=2, trials_per_subject=2, n_channels=3,
                         trial_length_s=2.0, seed=3)
        segs = build_dataset(spec, target_snr_db=1.0)
        # 256-sample trials, window 128 stride 64: 3 windows per trial
        assert len(segs) == 2 * 2 * 3
        for s in segs:
            assert s.clean.shape == (3, 128)
            assert abs(s.achieved_snr_db - 1.0) < 0.1
            assert not np.array_equal(s.clean, s.noisy)

    def test_determinism(self, tmp_path):
        spec = SynthSpec(n_subjects=1, trials_per_subject=2, n_channels=2,
                         trial_length_s=1.5, seed=5)
        a = build_dataset(spec, 0.0)
        b = build_dataset(spec, 0.0)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.noisy, sb.noisy)

    def test_trial_i_draws_from_stream_keyed_by_file_and_index(self):
        spec = SynthSpec(n_subjects=1, trials_per_subject=3, n_channels=2,
                         trial_length_s=2.0, seed=8)
        segs = build_dataset(spec, -1.0, gaussian_sigma=0.02)
        nspec = NoiseSpec(-1.0, gaussian_sigma=0.02, seed=derive_seed(8, "noise"))
        for i, (trial, *_) in enumerate(synth_clean_eeg(spec)):
            noisy, achieved = inject_noise(trial, nspec, i)
            first = segs[3 * i]
            assert first.noisy.tobytes() == noisy[:, :128].tobytes()
            assert first.achieved_snr_db == achieved

    def test_noise_varies_per_trial(self):
        spec = SynthSpec(n_subjects=1, trials_per_subject=2, n_channels=2,
                         trial_length_s=1.0 + 0.005, seed=6)
        segs = build_dataset(spec, 0.0)
        n0 = segs[0].noisy - segs[0].clean
        n1 = segs[1].noisy - segs[1].clean
        assert not np.array_equal(n0, n1)


class TestSplit:
    def test_partition(self):
        train, test = split_indices(100, 0.8, seed=0)
        assert len(train) == 80 and len(test) == 20
        assert sorted(list(train) + list(test)) == list(range(100))

    def test_deterministic_and_seed_sensitive(self):
        a = split_indices(50, 0.7, seed=1)
        b = split_indices(50, 0.7, seed=1)
        c = split_indices(50, 0.7, seed=2)
        np.testing.assert_array_equal(a[0], b[0])
        assert not np.array_equal(a[0], c[0])

    def test_not_a_head_tail_cut(self):
        train, _ = split_indices(1000, 0.5, seed=3)
        assert not np.array_equal(train, np.arange(500))

    def test_subject_level(self):
        subjects = [i // 10 for i in range(100)]  # 10 subjects x 10 segments
        train, test = split_indices(100, 0.8, seed=4, subjects=subjects)
        train_subj = {subjects[i] for i in train}
        test_subj = {subjects[i] for i in test}
        assert train_subj.isdisjoint(test_subj)
        assert len(train) + len(test) == 100

    def test_invalid_fraction(self):
        with pytest.raises(ConfigError):
            split_indices(10, 0.0, seed=0)
        with pytest.raises(ConfigError):
            split_indices(10, 1.0, seed=0)
