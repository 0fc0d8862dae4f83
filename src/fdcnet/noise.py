"""SNR-targeted artifact injection.

Every segment draws its noise from one counter-based stream (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11): NumPy's Philox keyed
by the two 64-bit words (seed, segment id), counter at zero. From it the
segment draws, in this order, the EMG white noise (C, 2, T), the EOG step
levels (C, n_steps), the blink uniforms (C, n_blinks, 3) and last the
Gaussian floor (C, T), so gaussian_sigma cannot change the bio-artifact
draws. A segment's noisy bytes depend only on its key and its own clean
signal, not on the other segments of the call or their order.

The mixed bio-artifact for each channel is an independent EMG/EOG realization
combined at the configured ratio. Its amplitude coefficient is chosen per
channel so the channel hits the target SNR exactly; the global SNR (signal
power over scaled-artifact power) then also equals the target. The Gaussian
floor is added afterward and is excluded from the achieved-SNR measurement.
Each call shapes the artifacts of all its segments in one pass, one
synth_artifact call per artifact kind.
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


def check_snr_db(name: str, value: float) -> None:
    """Reject an SNR target, named ``name`` in the message, that inject_noise cannot meet."""
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if abs(value) > MAX_ABS_SNR_DB:
        raise ConfigError(f"{name} must be within ±{MAX_ABS_SNR_DB:g} dB, got {value}")


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
    check_snr_db("target_snr_db", target_snr_db)
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if clean.ndim != 3:
        raise DimensionError(f"inject_noise expects (N, C, T), got shape {clean.shape}")
    n, c, t = clean.shape
    ids = np.arange(n) if ids is None else np.asarray(ids).reshape(-1)
    if ids.shape != (n,):
        raise DimensionError(f"inject_noise got {ids.size} segment ids for {n} segments")
    if n == 0:  # synth_artifact needs at least one generator
        return np.empty((0, c, t)), np.empty(0)
    if not (np.issubdtype(ids.dtype, np.integer) and ids.min() >= 0):
        raise ConfigError(f"segment ids must be non-negative integers, got {ids}")
    # allocated before the temporaries, so the space they free stays one
    # block that the caller's next arrays can reuse (peak RSS)
    noisy = np.empty((n, c, t))
    # C order keeps each row's reductions the same pairwise sums as a 1-D row
    x = np.ascontiguousarray(clean, dtype=np.float64)
    clean_power = np.sum(np.square(x.reshape(n, c * t)), axis=-1)
    if not clean_power.all():
        raise DegenerateDataError(
            f"clean signal of segment {int(np.argmin(clean_power))} has zero RMS; "
            "SNR target undefined"
        )
    # a uint64 array, not a tuple: NumPy rounds a tuple word above 2**63
    rngs = [np.random.Generator(np.random.Philox(key=np.array([seed, i], np.uint64))) for i in ids]
    emg = synth_artifact("emg", t, rngs, spec.sample_rate_hz, rows=c)
    eog = synth_artifact("eog", t, rngs, spec.sample_rate_hz, rows=c)
    ratio = spec.emg_eog_ratio
    mix = (emg + ratio * eog) / math.sqrt(1.0 + ratio * ratio)
    rms_n = np.sqrt(np.mean(np.square(mix), axis=-1))
    rms_c = np.sqrt(np.mean(np.square(x.reshape(n * c, t)), axis=-1))
    scaled = (rms_c / (rms_n * 10.0 ** (target_snr_db / 20.0)))[:, None] * mix
    np.add(x, scaled.reshape(n, c, t), out=noisy)
    if spec.gaussian_sigma > 0:
        noisy += spec.gaussian_sigma * np.stack([g.standard_normal((c, t)) for g in rngs])
    scaled_power = np.sum(np.square(scaled.reshape(n, c * t)), axis=-1)
    # libm's scalar log10; NumPy's vectorised log10 can differ by a few ulps
    achieved = np.array([10.0 * math.log10(p / q) for p, q in zip(clean_power, scaled_power)])
    return noisy, achieved
