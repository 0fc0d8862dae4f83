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

A call makes its noise in two steps. draw_artifacts draws segment after
segment from one re-keyed generator and shapes all its artifacts in one
synth_artifact call per artifact kind; the target SNR then only sets each
channel's gain. An SNR sweep draws each segment once and hands that draw to
inject_noise at every level, with the bytes of a call that draws it anew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError, DimensionError
from .synth import artifact_draws, synth_artifact

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


def _segment_ids(n: int, seed, ids) -> np.ndarray:
    """The checked stream key of n segments: `ids` (default 0..n-1) as an
    (n,) array, with seed in [0, 2**64)."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    ids = np.arange(n) if ids is None else np.asarray(ids).reshape(-1)
    if ids.shape != (n,):
        raise DimensionError(f"got {ids.size} segment ids for {n} segments")
    if n and not (np.issubdtype(ids.dtype, np.integer) and ids.min() >= 0):
        raise ConfigError(f"segment ids must be non-negative integers, got {ids}")
    return ids


def draw_artifacts(spec: NoiseSpec, shape: tuple[int, int, int], seed: int, ids=None):
    """The keyed draw-and-shape step of inject_noise for N segments of an
    (N, C, T) shape: what it adds at any target SNR before each channel's
    gain. Returns (mix, rms, floor): the mixed bio-artifact of each channel
    (N*C, T), its RMS (N*C,), and gaussian_sigma times the Gaussian floor
    (N, C, T), or None when gaussian_sigma is 0."""
    spec.validate()
    n, c, t = shape
    ids = _segment_ids(n, seed, ids)
    if n == 0:  # synth_artifact needs at least one segment's draws
        raise DimensionError("draw_artifacts needs at least one segment")
    return _draw(spec, c, t, seed, ids)


def _draw(spec: NoiseSpec, c: int, t: int, seed: int, ids: np.ndarray):
    """draw_artifacts on checked arguments: a valid spec and a non-empty
    (N,) ids array from _segment_ids."""
    # one Philox re-keyed (seed, id) per segment: a fresh Philox(key=[seed, id])'s draws
    bits = np.random.Philox(key=np.zeros(2, np.uint64))
    g, state = np.random.Generator(bits), bits.state
    state["state"]["counter"] = state["buffer"] = [0] * 4  # a fresh state; int lists set fastest
    fs, emg, eog, floor = spec.sample_rate_hz, [], [], []
    for i in ids.tolist():
        state["state"]["key"] = [seed, i]
        bits.state = state
        emg.append(artifact_draws("emg", t, g, fs, rows=c))
        eog.append(artifact_draws("eog", t, g, fs, rows=c))
        if spec.gaussian_sigma > 0:
            floor.append(g.standard_normal((c, t)))
    emg = synth_artifact("emg", t, emg, fs)
    eog = synth_artifact("eog", t, eog, fs)
    ratio = spec.emg_eog_ratio
    mix = (emg + ratio * eog) / math.sqrt(1.0 + ratio * ratio)
    rms = np.sqrt(np.mean(np.square(mix), axis=-1))
    return mix, rms, spec.gaussian_sigma * np.stack(floor) if floor else None


def inject_noise(clean, spec: NoiseSpec, target_snr_db: float, seed: int, ids=None, *, artifacts=None):
    """Returns (noisy, achieved_snr_db).

    `clean` holds N segments as an (N, C, T) array, and `ids` their N segment
    ids (default 0..N-1); segment k draws from the Philox stream keyed
    (seed, ids[k]). noisy is (N, C, T) and achieved_snr_db an (N,) array.
    `artifacts`, when given, is draw_artifacts(spec, clean.shape, seed, ids):
    a sweep draws once and mixes that draw at each of its targets, with the
    bytes of a call that draws it here.

    noisy = clean + lambda_c * n_c + Gaussian(0, sigma), with
    lambda_c = RMS(clean_c) / (RMS(n_c) * 10^(target/20)) per channel.
    achieved_snr_db is measured against the scaled bio-artifact only.
    """
    spec.validate()
    check_snr_db("target_snr_db", target_snr_db)
    if clean.ndim != 3:
        raise DimensionError(f"inject_noise expects (N, C, T), got shape {clean.shape}")
    n, c, t = clean.shape
    ids = _segment_ids(n, seed, ids)
    if n == 0:
        return np.empty((0, c, t)), np.empty(0)
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
    mix, rms_n, floor = _draw(spec, c, t, seed, ids) if artifacts is None else artifacts
    rms_c = np.sqrt(np.mean(np.square(x.reshape(n * c, t)), axis=-1))
    scaled = (rms_c / (rms_n * 10.0 ** (target_snr_db / 20.0)))[:, None] * mix
    np.add(x, scaled.reshape(n, c, t), out=noisy)
    if floor is not None:
        noisy += floor
    scaled_power = np.sum(np.square(scaled.reshape(n, c * t)), axis=-1)
    # libm's scalar log10; NumPy's vectorised log10 can differ by a few ulps
    achieved = np.array([10.0 * math.log10(p / q) for p, q in zip(clean_power, scaled_power)])
    return noisy, achieved
