"""Dataset build, file format, seed derivation, and train/test splitting."""

import os
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import rng, write_past_size_limit
from fdcnet.dataset import (
    CHUNK_BYTES,
    MAGIC,
    VERSION,
    build_dataset,
    derive_seed,
    load_dataset,
    new_dataset,
    record_dtype,
    save_dataset,
    split_indices,
)
from fdcnet.errors import ConfigError, DegenerateDataError, DimensionError, FileFormatError
from fdcnet.noise import NoiseSpec, inject_noise
from fdcnet.synth import SynthSpec, synth_clean_eeg

# the synth command's default noise and windowing settings
SETTINGS = {"gaussian_sigma": 0.01, "emg_eog_ratio": 1.0, "window": 128, "overlap": 0.5}


def _segments(n=3, c=2, t=128, seed=0):
    r = rng(seed)
    ds = new_dataset(n, c, t)
    ds.clean = r.normal(size=(n, c, t))
    ds.noisy = r.normal(size=(n, c, t))
    ds.valence = r.integers(0, 2, n)
    ds.arousal = r.integers(0, 2, n)
    ds.subject_id = np.arange(n) % 2
    ds.achieved_snr_db = r.normal(size=n)
    return ds


def joined_save_dataset(path, segments):
    """The earlier writer, which built the whole file in memory first."""
    c, t = segments.clean.shape[1:] if len(segments) else (0, 0)
    blobs = [struct.pack("<4sIIIQ", MAGIC, VERSION, c, t, len(segments))]
    for seg in segments:
        blobs.append(struct.pack("<IBBd", seg.subject_id, seg.valence, seg.arousal, seg.achieved_snr_db))
        blobs.append(np.ascontiguousarray(seg.clean, dtype="<f8").tobytes())
        blobs.append(np.ascontiguousarray(seg.noisy, dtype="<f8").tobytes())
    path.write_bytes(b"".join(blobs))


def frombuffer_load_dataset(path):
    """The earlier reader: the whole file in memory, then one cast copy."""
    raw = path.read_bytes()
    _, _, c, t, count = struct.unpack_from("<4sIIIQ", raw, 0)
    packed, aligned = record_dtype(c, t, packed=True), record_dtype(c, t)
    return np.frombuffer(raw, packed, count, 24).astype(aligned).view(np.recarray)


# records of (2, 4) segments per chunk of the chunked reader
STEP = CHUNK_BYTES // record_dtype(2, 4, packed=True).itemsize


class TestChunkedReader:
    @pytest.mark.parametrize("n", [0, 1, STEP - 1, STEP, STEP + 1])
    def test_equals_frombuffer_reader(self, tmp_path, n):
        path = tmp_path / "d.fdcd"
        save_dataset(path, _segments(n, 2, 4, seed=n))
        back, want = load_dataset(path), frombuffer_load_dataset(path)
        assert isinstance(back, np.recarray) and back.dtype == want.dtype and back.shape == want.shape
        for name in want.dtype.names:
            assert back[name].tobytes() == want[name].tobytes(), name

    def test_file_cut_after_header_check(self, tmp_path, monkeypatch):
        path = tmp_path / "d.fdcd"
        save_dataset(path, _segments(STEP + 1, 2, 4))
        full = path.stat().st_size
        os.truncate(path, full - 5)
        # the size the header promises, as if the file shrank after fstat
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=full))
        with pytest.raises(FileFormatError, match=f"ends inside segment {STEP} of the {STEP + 1}"):
            load_dataset(path)

    def test_peak_memory_is_one_copy(self, tmp_path):
        path = tmp_path / "d.fdcd"
        save_dataset(path, _segments(400, 8, 128))
        tracemalloc.start()
        try:
            back = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= back.nbytes + 2 * 2**20, f"{peak} bytes for a {back.nbytes}-byte array"


    @pytest.mark.parametrize("n", [0, 1, STEP - 1, STEP, STEP + 1])
    @pytest.mark.parametrize("fields", [("subject_id", "valence", "arousal", "clean"), ("noisy", "valence")])
    def test_field_subset_equals_full_load(self, tmp_path, n, fields):
        path = tmp_path / "d.fdcd"
        save_dataset(path, _segments(n, 2, 4, seed=n))
        back, full = load_dataset(path, fields), load_dataset(path)
        assert isinstance(back, np.recarray) and back.dtype.names == fields and back.shape == full.shape
        assert back.dtype.isalignedstruct
        # one (2, 4) float field and 8 bytes of labels; a file of no records declares (0, 0)
        assert back.dtype.itemsize == (8 + 8 * 2 * 4 if n else 8)
        for name in fields:
            assert back[name].tobytes() == full[name].tobytes(), name

    def test_field_subset_peak_memory(self, tmp_path):
        path = tmp_path / "d.fdcd"
        save_dataset(path, _segments(400, 8, 128))
        tracemalloc.start()
        try:
            back = load_dataset(path, ("valence", "clean"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.nbytes == 400 * (8 + 8 * 8 * 128)
        assert peak <= back.nbytes + 2 * 2**20, f"{peak} bytes for a {back.nbytes}-byte array"


class TestFileFormat:
    def test_round_trip_field_by_field(self, tmp_path):
        path = tmp_path / "d.fdcd"
        segs = _segments(5)
        save_dataset(path, segs)
        back = load_dataset(path)
        assert isinstance(back, np.recarray) and back.shape == (5,)
        assert back.dtype == segs.dtype == record_dtype(2, 128)
        for name in segs.dtype.names:
            np.testing.assert_array_equal(back[name], segs[name])

    def test_record_sizes(self):
        for c, t in [(0, 0), (2, 128), (3, 7), (32, 128)]:
            assert record_dtype(c, t, packed=True).itemsize == 14 + 16 * c * t
            assert record_dtype(c, t).itemsize == 16 + 16 * c * t

    def test_loaded_fields_aligned_and_records_contiguous(self, tmp_path):
        path = tmp_path / "d.fdcd"
        save_dataset(path, _segments(4, 3, 7))
        back = load_dataset(path)
        assert back.dtype.isalignedstruct and back.flags.aligned and back.flags.writeable
        for name in ("achieved_snr_db", "clean", "noisy"):
            assert back.dtype.fields[name][1] % 8 == 0
            assert back[name].ctypes.data % 8 == 0
        for rec in back:
            assert rec.clean.flags.c_contiguous and rec.clean.flags.aligned
            assert rec.noisy.flags.c_contiguous and rec.noisy.flags.aligned

    def test_sequence_interface(self, tmp_path):
        # the benchmark's checks read a dataset through this interface
        path = tmp_path / "d.fdcd"
        segs = _segments(6)
        save_dataset(path, segs)
        back = load_dataset(path)
        assert len(back) == 6
        part = back[1:4]
        assert isinstance(part, np.recarray) and len(part) == 3
        np.testing.assert_array_equal(part.clean, segs.clean[1:4])
        picked = back[np.array([5, 0, 2])]
        assert len(picked) == 3
        # a fancy-indexed column is a C-contiguous copy, as batches need
        assert back.clean[[5, 0, 2]].flags.c_contiguous
        np.testing.assert_array_equal(picked.noisy, segs.noisy[[5, 0, 2]])
        for i, rec in enumerate(back):
            assert rec.clean.shape == rec.noisy.shape == (2, 128)
            assert rec.clean.tobytes() == segs.clean[i].tobytes()
            assert (rec.valence, rec.arousal, rec.subject_id, rec.achieved_snr_db) == (
                segs.valence[i], segs.arousal[i], segs.subject_id[i], segs.achieved_snr_db[i])
        stacked = np.stack([s.noisy for s in back[:2]])
        np.testing.assert_array_equal(stacked, segs.noisy[:2])

    def test_empty_header_only(self, tmp_path):
        path = tmp_path / "empty.fdcd"
        save_dataset(path, new_dataset(0, 2, 128))
        raw = path.read_bytes()
        # magic + version u32 + C u32 + T u32 + count u64
        assert raw == struct.pack("<4sIIIQ", MAGIC, VERSION, 0, 0, 0)
        back = load_dataset(path)
        assert isinstance(back, np.recarray) and len(back) == 0

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

    def test_oversized_header_shape_with_no_records(self, tmp_path):
        path = tmp_path / "d.fdcd"
        path.write_bytes(struct.pack("<4sIIIQ", MAGIC, VERSION, 2**32 - 1, 2**32 - 1, 0))
        with pytest.raises(FileFormatError, match="too large"):
            load_dataset(path)

    @pytest.mark.parametrize("c, t", [(4, 0), (0, 128), (0, 0)])
    def test_records_of_empty_shape_rejected(self, tmp_path, c, t):
        # 8 records of 14 bytes each: the size check alone passes the file
        path = tmp_path / "d.fdcd"
        path.write_bytes(struct.pack("<4sIIIQ", MAGIC, VERSION, c, t, 8) + bytes(8 * 14))
        with pytest.raises(FileFormatError, match=rf"8 segments of empty shape \({c}, {t}\)"):
            load_dataset(path)

    @pytest.mark.parametrize("n, c, t", [(0, 2, 128), (1, 2, 128), (5, 3, 7), (40, 32, 128)])
    def test_bytes_equal_joined_writer(self, tmp_path, n, c, t):
        segs = _segments(n, c, t, seed=n)
        save_dataset(tmp_path / "a.fdcd", segs)
        joined_save_dataset(tmp_path / "b.fdcd", segs)
        assert (tmp_path / "a.fdcd").read_bytes() == (tmp_path / "b.fdcd").read_bytes()
        # strided and fancy-indexed selections, the packed dtype and a
        # float32 noisy field take the same path
        f4_noisy = [(name, "<f4" if name == "noisy" else segs.dtype[name].base, segs.dtype[name].shape)
                    for name in segs.dtype.names]
        for part in (segs[::-2], segs[np.arange(n)[::3]],
                     segs.astype(record_dtype(c, t, packed=True)).view(np.recarray),
                     segs.astype(f4_noisy).view(np.recarray)):
            save_dataset(tmp_path / "a.fdcd", part)
            joined_save_dataset(tmp_path / "b.fdcd", part)
            assert (tmp_path / "a.fdcd").read_bytes() == (tmp_path / "b.fdcd").read_bytes()

    def test_mismatched_noisy_shape_leaves_no_file(self, tmp_path):
        dtype = np.dtype([(name, record_dtype(2, 4).fields[name][0]) for name in
                          ("subject_id", "valence", "arousal", "achieved_snr_db", "clean")]
                         + [("noisy", "<f8", (2, 3))])
        with pytest.raises(DimensionError, match="noisy shape"):
            save_dataset(tmp_path / "bad.fdcd", np.zeros(3, dtype).view(np.recarray))
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_write_keeps_existing_file(self, tmp_path):
        path = tmp_path / "d.fdcd"
        save_dataset(path, _segments(2))
        before = path.read_bytes()
        code = (
            "import sys\n"
            "from fdcnet.dataset import new_dataset, save_dataset\n"
            "segs = new_dataset(100, 8, 128)\n"
            "segs.clean = segs.noisy = 1.0\n"
            "try:\n"
            f"    save_dataset({str(path)!r}, segs)\n"
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
        segs = build_dataset(spec, target_snr_db=1.0, **SETTINGS)
        # 256-sample trials, window 128 stride 64: 3 windows per trial
        assert len(segs) == 2 * 2 * 3
        for s in segs:
            assert s.clean.shape == (3, 128)
            assert abs(s.achieved_snr_db - 1.0) < 0.1
            assert not np.array_equal(s.clean, s.noisy)

    def test_determinism(self, tmp_path):
        spec = SynthSpec(n_subjects=1, trials_per_subject=2, n_channels=2,
                         trial_length_s=1.5, seed=5)
        a = build_dataset(spec, 0.0, **SETTINGS)
        b = build_dataset(spec, 0.0, **SETTINGS)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.noisy, sb.noisy)

    def test_trial_i_draws_from_stream_keyed_by_file_and_index(self):
        spec = SynthSpec(n_subjects=1, trials_per_subject=3, n_channels=2,
                         trial_length_s=2.0, seed=8)
        segs = build_dataset(spec, -1.0, **{**SETTINGS, "gaussian_sigma": 0.02})
        nspec = NoiseSpec(gaussian_sigma=0.02)
        for i, (trial, *_) in enumerate(synth_clean_eeg(spec)):
            noisy, achieved = inject_noise(trial[None], nspec, -1.0, derive_seed(8, "noise"), [i])
            first = segs[3 * i]
            assert first.noisy.tobytes() == noisy[0, :, :128].tobytes()
            assert first.achieved_snr_db == achieved[0]

    @pytest.mark.parametrize("name, value", [("gaussian_sigma", -1.0), ("emg_eog_ratio", 0.0)])
    def test_bad_noise_setting_rejected_before_synthesis(self, monkeypatch, name, value):
        import fdcnet.dataset

        monkeypatch.setattr(fdcnet.dataset, "synth_clean_eeg",
                            lambda spec: pytest.fail("synthesised before the noise settings were checked"))
        with pytest.raises(ConfigError, match=name):
            build_dataset(SynthSpec(n_subjects=1, trials_per_subject=1, n_channels=2), 0.0,
                          **{**SETTINGS, name: value})

    def test_noise_varies_per_trial(self):
        spec = SynthSpec(n_subjects=1, trials_per_subject=2, n_channels=2,
                         trial_length_s=1.0 + 0.005, seed=6)
        segs = build_dataset(spec, 0.0, **SETTINGS)
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
        # every segment of a training subject is in the training side
        assert list(train) == [i for i in range(100) if subjects[i] in train_subj]
        np.testing.assert_array_equal(split_indices(100, 0.8, seed=4, subjects=np.array(subjects))[0], train)

    def test_invalid_fraction(self):
        with pytest.raises(ConfigError):
            split_indices(10, 0.0, seed=0)
        with pytest.raises(ConfigError):
            split_indices(10, 1.0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            split_indices(10, 0.8, seed=-1)

    @pytest.mark.parametrize("split", [0.2, 0.4, 0.5, 0.8, 0.95])
    def test_one_subject_cannot_fill_both_sides(self, split):
        # round(split) puts the one subject on one side and leaves the other empty
        with pytest.raises(DegenerateDataError, match="at least 2 subjects, got 1"):
            split_indices(20, split, seed=0, subjects=[7] * 20)

    @staticmethod
    def _per_segment_oracle(n, split, seed):
        """The per-segment split as a separate algorithm: the first k of one
        permutation of the n segments train."""
        perm = np.random.default_rng(np.random.SeedSequence((seed, 0x5B117))).permutation(n)
        k = min(max(int(round(n * split)), 1), n - 1)
        return np.sort(perm[:k]), np.sort(perm[k:])

    @pytest.mark.parametrize("n", [*range(40), 100, 400, 1999, 2000])
    def test_without_subjects_each_segment_is_its_own_group(self, n):
        for split in (0.1, 0.25, 0.5, 0.8, 0.95):
            for seed in (0, 1, 2, 3, 7, 2**32 + 5):
                if n < 2:
                    with pytest.raises(DegenerateDataError, match=f"at least 2 segments, got {n}"):
                        split_indices(n, split, seed)
                    continue
                got = split_indices(n, split, seed)
                want = self._per_segment_oracle(n, split, seed)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype
                    np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("seed", range(6))
    def test_subject_split_matches_subject_id_oracle(self, seed):
        # the split as computed before it worked on group indices: whole
        # subjects drawn from the sorted unique subject ids
        r = rng(seed)
        subjects = r.choice([3, 7, 11, 40, 2**31 + 1], size=int(r.integers(1, 200))).tolist()
        for split in (0.2, 0.5, 0.8):
            uniq = np.unique(subjects)
            perm = np.random.default_rng(np.random.SeedSequence((seed, 0x5B117))).permutation(len(uniq))
            k = int(round(len(uniq) * split))
            k = min(max(k, 1), len(uniq) - 1) if len(uniq) >= 2 else k
            mask = np.isin(subjects, uniq[perm[:k]])
            got = split_indices(len(subjects), split, seed, subjects=subjects)
            np.testing.assert_array_equal(got[0], np.flatnonzero(mask))
            np.testing.assert_array_equal(got[1], np.flatnonzero(~mask))
