"""Windowed EEG segments and the binary dataset container.

A dataset is an ``np.recarray`` of shape (N,), one record per (C, T)
segment, with the fields of ``record_dtype(C, T)``:

    subject_id <u4, valence u1, arousal u1, achieved_snr_db <f8,
    clean <f8 (C, T), noisy <f8 (C, T)

Loaded and built datasets hold the aligned form, 16 + 16*C*T bytes per
record with every float field 8-byte aligned; the file holds the packed
form, 14 + 16*C*T bytes per record. A command that reads only some fields
loads only those (``load_dataset(path, fields)``), aligned the same way.

File layout (little-endian):

    magic   4 bytes  b"FDCD"
    version u32      currently 1
    C       u32      channels (0 for an empty file)
    T       u32      samples per window (0 for an empty file)
    count   u64
    then count packed records
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ConfigError, DegenerateDataError, DimensionError, FileFormatError
from .fileio import atomic_writer
from .noise import NoiseSpec, check_snr_db, inject_noise
from .synth import SynthSpec, min_artifact_length, segment_windows, synth_clean_eeg

MAGIC = b"FDCD"
VERSION = 1
# file bytes per chunk cast and written by save_dataset, read and copied by
# load_dataset
CHUNK_BYTES = 1 << 20


def derive_seed(root: int, label: str, *indices: int) -> int:
    """Stable u64 sub-stream seed for (root seed, purpose label, indices)."""
    tag = int.from_bytes(label.encode("utf-8")[:8].ljust(8, b"\0"), "little")
    ss = np.random.SeedSequence((root, tag, *indices))
    return int(ss.generate_state(1, np.uint64)[0])


def record_dtype(c: int, t: int, *, packed: bool = False) -> np.dtype:
    """The record of one (C, T) segment: packed as in the file, else aligned."""
    return np.dtype(
        [("subject_id", "<u4"), ("valence", "u1"), ("arousal", "u1"), ("achieved_snr_db", "<f8"),
         ("clean", "<f8", (c, t)), ("noisy", "<f8", (c, t))],
        align=not packed,
    )


def new_dataset(n: int, c: int, t: int) -> np.recarray:
    """n zeroed records of (C, T) segments."""
    return np.zeros(n, record_dtype(c, t)).view(np.recarray)


def write_header(fh, c: int, t: int, count: int) -> None:
    """The file header of ``count`` records of (C, T) segments; a file of no
    records declares C = T = 0."""
    fh.write(struct.pack("<4sIIIQ", MAGIC, VERSION, c if count else 0, t if count else 0, count))


def save_dataset(path, segments: np.recarray) -> None:
    """Write a dataset to ``path`` atomically, a bounded chunk at a time."""
    c, t = segments.dtype["clean"].shape if len(segments) else (0, 0)
    if len(segments) and segments.dtype["noisy"].shape != (c, t):
        raise DimensionError(f"noisy shape {segments.dtype['noisy'].shape} != clean shape ({c}, {t})")
    packed = record_dtype(c, t, packed=True)
    step = max(1, CHUNK_BYTES // packed.itemsize)
    with atomic_writer(path) as fh:
        write_header(fh, c, t, len(segments))
        for lo in range(0, len(segments), step):
            fh.write(segments[lo : lo + step].astype(packed))


class DatasetReader:
    """A dataset file open for reading, its header checked against its size.

    ``shape`` is the segment shape (C, T), ``count`` the number of records,
    and ``packed`` and ``aligned`` their record dtypes in the file and in
    memory. The checks come before anything is allocated, so no header can
    make a reader allocate more than its file holds.
    """

    def __init__(self, path):
        self.path = path
        self._fh = fh = open(path, "rb")
        try:
            head = fh.read(24)
            if len(head) < 24:
                raise FileFormatError(f"{path}: truncated header ({len(head)} bytes)")
            magic, version, c, t, count = struct.unpack("<4sIIIQ", head)
            if magic != MAGIC:
                raise FileFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
            if version != VERSION:
                raise FileFormatError(f"{path}: unsupported version {version}")
            if count and not c * t:
                raise FileFormatError(f"{path}: {count} segments of empty shape ({c}, {t})")
            try:
                self.packed, self.aligned = record_dtype(c, t, packed=True), record_dtype(c, t)
            except ValueError:  # a dimension or the record size exceeds a C int
                raise FileFormatError(f"{path}: segment shape ({c}, {t}) is too large") from None
            size = os.fstat(fh.fileno()).st_size
            if size != 24 + count * self.packed.itemsize:
                raise FileFormatError(
                    f"{path}: expected {24 + count * self.packed.itemsize} bytes for {count} segments, got {size}"
                )
        except BaseException:
            fh.close()
            raise
        self.shape, self.count = (c, t), count

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def chunks(self, records: int):
        """(first record index, packed records) of up to ``records`` records
        at a time, in file order. Every chunk is the same buffer, refilled."""
        buf = np.empty(min(records, self.count), self.packed)
        for lo in range(0, self.count, records):
            chunk = buf[: min(records, self.count - lo)]
            got = self._fh.readinto(chunk)
            if got != chunk.nbytes:
                raise FileFormatError(f"{self.path}: file ends inside segment {lo + got // self.packed.itemsize} "
                                      f"of the {self.count} its header declares")
            yield lo, chunk


def load_dataset(path, fields=None) -> np.recarray:
    """Read a dataset file into one aligned record array, a bounded chunk at
    a time. With ``fields`` (names of ``record_dtype`` fields) the records
    hold only those fields.

    The records need no more memory than the returned array plus one chunk
    of packed records.
    """
    with DatasetReader(path) as reader:
        names = reader.aligned.names if fields is None else fields
        dtype = np.dtype([(name, reader.aligned.fields[name][0]) for name in names], align=True)
        segments = np.zeros(reader.count, dtype)
        for lo, chunk in reader.chunks(max(1, CHUNK_BYTES // reader.packed.itemsize)):
            rows = segments[lo : lo + len(chunk)]
            for name in names:
                rows[name] = chunk[name]
    return segments.view(np.recarray)


def build_dataset(
    spec: SynthSpec,
    target_snr_db: float,
    *,
    gaussian_sigma: float,
    emg_eog_ratio: float,
    window: int,
    overlap: float,
) -> np.recarray:
    """Full pipeline: synthesize trials, inject noise per trial, then window.

    Noise is injected before segmentation so adjacent windows share artifact
    context. Trial i draws its noise from the stream keyed
    (derive_seed(spec.seed, "noise"), i); see fdcnet.noise.
    """
    # every setting is checked before the trials are synthesised
    spec.validate()
    noise = NoiseSpec(emg_eog_ratio, gaussian_sigma, spec.sample_rate_hz)
    noise.validate()
    check_snr_db("target_snr_db", target_snr_db)
    if spec.n_samples < window:
        raise ConfigError(f"trial holds {spec.n_samples} samples; need at least one {window}-sample window")
    if not 0.0 <= overlap < 1.0:
        raise ConfigError(f"overlap must be in [0, 1), got {overlap}")
    if int(round(window * (1.0 - overlap))) < 1:
        raise ConfigError(f"window {window} with overlap {overlap} gives stride < 1")
    need = min_artifact_length(spec.sample_rate_hz)
    if spec.n_samples < need:
        raise ConfigError(
            f"trial holds {spec.n_samples} samples; noise injection needs at least {need} "
            f"at {spec.sample_rate_hz:g} Hz"
        )
    trials = synth_clean_eeg(spec)
    noise_seed = derive_seed(spec.seed, "noise")
    # every trial has spec.n_samples samples, so the same number of windows
    for i, (trial, valence, arousal, subject) in enumerate(trials):
        noisy, achieved = inject_noise(trial[None], noise, target_snr_db, noise_seed, [i])
        clean = segment_windows(trial, window, overlap)
        if i == 0:
            per_trial = len(clean)
            segments = new_dataset(len(trials) * per_trial, len(trial), window)
        rows = segments[i * per_trial : (i + 1) * per_trial]
        rows.clean = clean
        rows.noisy = segment_windows(noisy[0], window, overlap)
        rows.valence, rows.arousal, rows.subject_id = valence, arousal, subject
        rows.achieved_snr_db = achieved[0]
    return segments


def split_indices(
    n: int, split: float, seed: int, *, subjects=None
) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive train/test index split; pure function of
    (n, split, seed). Whole groups go to one side: the subjects when
    `subjects` (one id per segment, a list or an array) is given, so no
    subject identity leaks across the split, else single segments. Each
    side gets at least one group, so fewer than two groups is an error."""
    if not 0.0 < split < 1.0:
        raise ConfigError(f"split fraction must be in (0, 1), got {split}")
    if seed < 0:
        raise ConfigError(f"split seed must be >= 0, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5B117)))
    groups = np.arange(n) if subjects is None else np.asarray(subjects)
    # NumPy 2.4's np.unique imports numpy.ma (1.4 MB of RSS) unless asked for indices
    uniq, group_of = np.unique(groups, return_inverse=True)
    if len(uniq) < 2:
        kind = "segments" if subjects is None else "subjects"
        raise DegenerateDataError(f"a train/test split needs at least 2 {kind}, got {len(uniq)}")
    perm = rng.permutation(len(uniq))
    k = min(max(int(round(len(uniq) * split)), 1), len(uniq) - 1)
    mask = np.isin(group_of, perm[:k])
    idx = np.arange(n)
    return idx[mask], idx[~mask]
