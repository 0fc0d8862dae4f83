"""SNR-targeted artifact injection.

Every segment draws its noise from one counter-based stream (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11): NumPy's Philox keyed
by the two 64-bit words (seed, segment id), counter at zero. From it the
segment draws, in this order, the EMG white noise (C, 2, T), the EOG step
levels (C, n_steps), the blink uniforms (C, n_blinks, 3) and last the
Gaussian floor (C, T), so gaussian_sigma cannot change the bio-artifact
draws. A segment's noisy bytes depend only on its key and its own clean
signal, not on the other segments of the call, their order or the chunking.

The mixed bio-artifact for each channel is an independent EMG/EOG realization
combined at the configured ratio. Its amplitude coefficient is chosen per
channel so the channel hits the target SNR exactly; the global SNR (signal
power over scaled-artifact power) then also equals the target. The Gaussian
floor is added afterward and is excluded from the achieved-SNR measurement.
Artifacts are shaped one chunk of segments at a time, about CHUNK_BYTES of
EMG white noise per chunk. Each call builds one Generator per segment of a
chunk and re-keys them for every chunk, which draws the same numbers as
building a fresh Philox keyed (seed, id) for every segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError, DimensionError
from .synth import synth_artifact

# far beyond any useful target, and far inside the range where 10**(snr/20)
# and the scaled artifact power stay finite and non-zero (±400 dB still works)
MAX_ABS_SNR_DB = 300.0

# EMG white noise per chunk (16 segments at 8 x 128); the other temporaries
# are about this size or smaller. 1 MB chunks were no faster and raised peak RSS
CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class NoiseSpec:
    """The artifact settings: what inject_noise adds, apart from the SNR
    target and the stream seed of each call."""

    emg_eog_ratio: float = 1.0
    gaussian_sigma: float = 0.01
    sample_rate_hz: float = 128.0

    def validate(self) -> None:
        for name in ("emg_eog_ratio", "gaussian_sigma", "sample_rate_hz"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sample_rate_hz <= 0:
            raise ConfigError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
        if self.gaussian_sigma < 0:
            raise ConfigError(f"gaussian_sigma must be >= 0, got {self.gaussian_sigma}")
        if self.emg_eog_ratio <= 0:
            raise ConfigError(f"emg_eog_ratio must be > 0, got {self.emg_eog_ratio}")


def _rekey(gen: np.random.Generator, seed: int, segment_id: int) -> np.random.Generator:
    """Put ``gen`` in the state a fresh Philox keyed (seed, segment_id)
    starts in: the noise stream of one segment."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([seed, segment_id], np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def inject_noise(clean, spec: NoiseSpec, target_snr_db: float, seed: int, ids=None):
    """Returns (noisy, achieved_snr_db).

    `clean` holds N segments as an (N, C, T) array, and `ids` their N segment
    ids (default 0..N-1); segment k draws from the Philox stream keyed
    (seed, ids[k]). noisy is (N, C, T) and achieved_snr_db an (N,) array.

    noisy = clean + lambda_c * n_c + Gaussian(0, sigma), with
    lambda_c = RMS(clean_c) / (RMS(n_c) * 10^(target/20)) per channel.
    achieved_snr_db is measured against the scaled bio-artifact only.
    """
    spec.validate()
    if not math.isfinite(target_snr_db):
        raise ConfigError(f"target_snr_db must be finite, got {target_snr_db}")
    if abs(target_snr_db) > MAX_ABS_SNR_DB:
        raise ConfigError(f"target_snr_db must be within ±{MAX_ABS_SNR_DB:g} dB, got {target_snr_db}")
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if clean.ndim != 3:
        raise DimensionError(f"inject_noise expects (N, C, T), got shape {clean.shape}")
    n, c, t = clean.shape
    ids = np.arange(n) if ids is None else np.asarray(ids).reshape(-1)
    if ids.shape != (n,):
        raise DimensionError(f"inject_noise got {ids.size} segment ids for {n} segments")
    if n and not (np.issubdtype(ids.dtype, np.integer) and ids.min() >= 0):
        raise ConfigError(f"segment ids must be non-negative integers, got {ids}")
    ratio = spec.emg_eog_ratio
    amp_ratio = 10.0 ** (target_snr_db / 20.0)
    noisy = np.empty((n, c, t))
    achieved = np.empty(n)
    step = max(1, CHUNK_BYTES // max(1, 16 * c * t))
    # one Generator per segment of a chunk; _rekey sets each one's key
    pool = [np.random.Generator(np.random.Philox(0)) for _ in range(min(step, n))]
    for lo in range(0, n, step):
        # C order keeps each row's reductions the same pairwise sums as a 1-D row
        x = np.ascontiguousarray(clean[lo : lo + step], dtype=np.float64)
        k = len(x)
        clean_power = np.sum(np.square(x.reshape(k, c * t)), axis=-1)
        if not clean_power.all():
            raise DegenerateDataError(
                f"clean signal of segment {lo + int(np.argmin(clean_power))} has zero RMS; "
                "SNR target undefined"
            )
        rngs = [_rekey(g, seed, i) for g, i in zip(pool, ids[lo : lo + k])]
        emg = synth_artifact("emg", t, rngs, spec.sample_rate_hz, rows=c)
        eog = synth_artifact("eog", t, rngs, spec.sample_rate_hz, rows=c)
        mix = (emg + ratio * eog) / math.sqrt(1.0 + ratio * ratio)
        rows = x.reshape(k * c, t)
        rms_n = np.sqrt(np.mean(np.square(mix), axis=-1))
        rms_c = np.sqrt(np.mean(np.square(rows), axis=-1))
        scaled = (rms_c / (rms_n * amp_ratio))[:, None] * mix
        out = rows + scaled
        if spec.gaussian_sigma > 0:
            out += spec.gaussian_sigma * np.concatenate([g.standard_normal((c, t)) for g in rngs])
        noisy[lo : lo + k] = out.reshape(k, c, t)
        scaled_power = np.sum(np.square(scaled.reshape(k, c * t)), axis=-1)
        # libm's scalar log10; NumPy's vectorised log10 can differ by a few ulps
        achieved[lo : lo + k] = [10.0 * math.log10(p / q) for p, q in zip(clean_power, scaled_power)]
    return noisy, achieved
