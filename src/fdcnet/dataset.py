"""Windowed EEG segments and the binary dataset container.

File layout (little-endian):

    magic   4 bytes  b"FDCD"
    version u32      currently 1
    C       u32      channels (0 for an empty file)
    T       u32      samples per window (0 for an empty file)
    count   u64
    then per segment:
        subject_id u32, valence u8, arousal u8, achieved_snr_db f64,
        clean C*T f64, noisy C*T f64
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, FileFormatError
from .fileio import atomic_writer
from .noise import NoiseSpec, inject_noise
from .synth import SynthSpec, segment_windows, synth_clean_eeg

MAGIC = b"FDCD"
VERSION = 1
_SEG_HEAD = struct.Struct("<IBBd")


def derive_seed(root: int, label: str, *indices: int) -> int:
    """Stable u64 sub-stream seed for (root seed, purpose label, indices)."""
    tag = int.from_bytes(label.encode("utf-8")[:8].ljust(8, b"\0"), "little")
    ss = np.random.SeedSequence((root, tag, *indices))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class EegSegment:
    clean: np.ndarray  # (C, T)
    noisy: np.ndarray  # (C, T)
    valence: int  # {0, 1}
    arousal: int  # {0, 1}
    subject_id: int
    achieved_snr_db: float


def save_dataset(path, segments: list[EegSegment]) -> None:
    """Write segments to ``path`` atomically, one field at a time."""
    if segments:
        c, t = segments[0].clean.shape
    else:
        c = t = 0
    with atomic_writer(path) as fh:
        fh.write(struct.pack("<4sIIIQ", MAGIC, VERSION, c, t, len(segments)))
        for i, seg in enumerate(segments):
            if seg.clean.shape != (c, t) or seg.noisy.shape != (c, t):
                raise DimensionError(
                    f"segment {i} shape {seg.clean.shape}/{seg.noisy.shape} != dataset shape ({c}, {t})"
                )
            fh.write(_SEG_HEAD.pack(seg.subject_id, seg.valence, seg.arousal, seg.achieved_snr_db))
            fh.write(np.ascontiguousarray(seg.clean, dtype="<f8"))
            fh.write(np.ascontiguousarray(seg.noisy, dtype="<f8"))


def load_dataset(path) -> list[EegSegment]:
    raw = Path(path).read_bytes()
    if len(raw) < 24:
        raise FileFormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, c, t, count = struct.unpack_from("<4sIIIQ", raw, 0)
    if magic != MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    seg_bytes = _SEG_HEAD.size + 2 * 8 * c * t
    if len(raw) != 24 + count * seg_bytes:
        raise FileFormatError(
            f"{path}: expected {24 + count * seg_bytes} bytes for {count} segments, got {len(raw)}"
        )
    out: list[EegSegment] = []
    off = 24
    for _ in range(count):
        subject_id, valence, arousal, snr = _SEG_HEAD.unpack_from(raw, off)
        off += _SEG_HEAD.size
        clean = np.frombuffer(raw, dtype="<f8", count=c * t, offset=off).reshape(c, t)
        off += 8 * c * t
        noisy = np.frombuffer(raw, dtype="<f8", count=c * t, offset=off).reshape(c, t)
        off += 8 * c * t
        out.append(
            EegSegment(
                clean=clean.astype(np.float64),
                noisy=noisy.astype(np.float64),
                valence=valence,
                arousal=arousal,
                subject_id=subject_id,
                achieved_snr_db=snr,
            )
        )
    return out


def build_dataset(
    spec: SynthSpec,
    target_snr_db: float,
    *,
    gaussian_sigma: float = 0.01,
    emg_eog_ratio: float = 1.0,
    window: int = 128,
    overlap: float = 0.5,
) -> list[EegSegment]:
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
    segments: list[EegSegment] = []
    for i, (trial, valence, arousal, subject) in enumerate(trials):
        noisy, achieved = inject_noise(trial, nspec, i)
        for w_clean, w_noisy in zip(
            segment_windows(trial, window, overlap), segment_windows(noisy, window, overlap)
        ):
            segments.append(
                EegSegment(
                    clean=w_clean,
                    noisy=w_noisy,
                    valence=valence,
                    arousal=arousal,
                    subject_id=subject,
                    achieved_snr_db=achieved,
                )
            )
    return segments


def split_indices(
    n: int, split: float, seed: int, *, subjects: list[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive train/test index split; pure function of
    (n, split, seed). With `subjects` given, whole subjects are assigned to
    one side so no subject identity leaks across the split."""
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
    train_subj = set(uniq[perm[:k]].tolist())
    mask = np.array([s in train_subj for s in subjects_arr])
    idx = np.arange(n)
    return idx[mask], idx[~mask]
