"""Windowed EEG segments and the binary dataset container.

A dataset is an ``np.recarray`` of shape (N,), one record per (C, T)
segment, with the fields of ``record_dtype(C, T)``:

    subject_id <u4, valence u1, arousal u1, achieved_snr_db <f8,
    clean <f8 (C, T), noisy <f8 (C, T)

Loaded and built datasets hold the aligned form, 16 + 16*C*T bytes per
record with every float field 8-byte aligned; the file holds the packed
form, 14 + 16*C*T bytes per record.

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

from .errors import ConfigError, DimensionError, FileFormatError
from .fileio import atomic_writer
from .noise import NoiseSpec, inject_noise
from .synth import SynthSpec, segment_windows, synth_clean_eeg

MAGIC = b"FDCD"
VERSION = 1
# file bytes per chunk cast and written by save_dataset, read and cast by
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


def save_dataset(path, segments: np.recarray) -> None:
    """Write a dataset to ``path`` atomically, a bounded chunk at a time."""
    c, t = segments.dtype["clean"].shape if len(segments) else (0, 0)
    if len(segments) and segments.dtype["noisy"].shape != (c, t):
        raise DimensionError(f"noisy shape {segments.dtype['noisy'].shape} != clean shape ({c}, {t})")
    packed = record_dtype(c, t, packed=True)
    step = max(1, CHUNK_BYTES // packed.itemsize)
    with atomic_writer(path) as fh:
        fh.write(struct.pack("<4sIIIQ", MAGIC, VERSION, c, t, len(segments)))
        for lo in range(0, len(segments), step):
            fh.write(segments[lo : lo + step].astype(packed))


def load_dataset(path) -> np.recarray:
    """Read a dataset file into one aligned array, a bounded chunk at a time.

    The header is checked against the file's size before anything is
    allocated, so the records need no more memory than the returned array
    plus one chunk of packed records.
    """
    with open(path, "rb") as fh:
        head = fh.read(24)
        if len(head) < 24:
            raise FileFormatError(f"{path}: truncated header ({len(head)} bytes)")
        magic, version, c, t, count = struct.unpack("<4sIIIQ", head)
        if magic != MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise FileFormatError(f"{path}: unsupported version {version}")
        try:
            packed, aligned = record_dtype(c, t, packed=True), record_dtype(c, t)
        except ValueError:  # a dimension or the record size exceeds a C int
            raise FileFormatError(f"{path}: segment shape ({c}, {t}) is too large") from None
        size = os.fstat(fh.fileno()).st_size
        if size != 24 + count * packed.itemsize:
            raise FileFormatError(
                f"{path}: expected {24 + count * packed.itemsize} bytes for {count} segments, got {size}"
            )
        segments = np.zeros(count, aligned)
        step = max(1, CHUNK_BYTES // packed.itemsize)
        buf = np.empty(min(step, count), packed)
        for lo in range(0, count, step):
            chunk = buf[: min(step, count - lo)]
            got = fh.readinto(chunk)
            if got != chunk.nbytes:
                raise FileFormatError(f"{path}: file ends inside segment {lo + got // packed.itemsize} "
                                      f"of the {count} its header declares")
            segments[lo : lo + len(chunk)] = chunk
    return segments.view(np.recarray)


def build_dataset(
    spec: SynthSpec,
    target_snr_db: float,
    *,
    gaussian_sigma: float = 0.01,
    emg_eog_ratio: float = 1.0,
    window: int = 128,
    overlap: float = 0.5,
) -> np.recarray:
    """Full pipeline: synthesize trials, inject noise per trial, then window.

    Noise is injected before segmentation so adjacent windows share artifact
    context. Trial i draws its noise from the stream keyed
    (derive_seed(spec.seed, "noise"), i); see fdcnet.noise.
    """
    trials = synth_clean_eeg(spec)
    nspec = NoiseSpec(
        target_snr_db=target_snr_db,
        emg_eog_ratio=emg_eog_ratio,
        gaussian_sigma=gaussian_sigma,
        seed=derive_seed(spec.seed, "noise"),
        sample_rate_hz=spec.sample_rate_hz,
    )
    # every trial has spec.n_samples samples, so the same number of windows
    for i, (trial, valence, arousal, subject) in enumerate(trials):
        noisy, achieved = inject_noise(trial, nspec, i)
        clean = segment_windows(trial, window, overlap)
        if i == 0:
            per_trial = len(clean)
            segments = new_dataset(len(trials) * per_trial, len(trial), window)
        rows = segments[i * per_trial : (i + 1) * per_trial]
        rows.clean = clean
        rows.noisy = segment_windows(noisy, window, overlap)
        rows.valence, rows.arousal, rows.subject_id = valence, arousal, subject
        rows.achieved_snr_db = achieved
    return segments


def split_indices(
    n: int, split: float, seed: int, *, subjects=None
) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive train/test index split; pure function of
    (n, split, seed). With `subjects` (one id per segment, a list or an
    array) given, whole subjects are assigned to one side so no subject
    identity leaks across the split."""
    if not 0.0 < split < 1.0:
        raise ConfigError(f"split fraction must be in (0, 1), got {split}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5B117)))
    if subjects is None:
        perm = rng.permutation(n)
        k = int(round(n * split))
        k = min(max(k, 1), n - 1) if n >= 2 else k
        return np.sort(perm[:k]), np.sort(perm[k:])
    subjects_arr = np.asarray(subjects)
    uniq = np.unique(subjects_arr)
    perm = rng.permutation(len(uniq))
    k = int(round(len(uniq) * split))
    k = min(max(k, 1), len(uniq) - 1) if len(uniq) >= 2 else k
    mask = np.isin(subjects_arr, uniq[perm[:k]])
    idx = np.arange(n)
    return idx[mask], idx[~mask]
