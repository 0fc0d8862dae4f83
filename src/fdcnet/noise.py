"""SNR-targeted artifact injection.

The mixed bio-artifact for each channel is an independent EMG/EOG realization
combined at the configured ratio. Its amplitude coefficient is chosen per
channel so the channel hits the target SNR exactly; the global SNR (signal
power over scaled-artifact power) then also equals the target. The Gaussian
floor is added afterward and is excluded from the achieved-SNR measurement.
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
    target_snr_db: float
    emg_eog_ratio: float = 1.0
    gaussian_sigma: float = 0.01
    seed: int = 0
    sample_rate_hz: float = 128.0

    def validate(self) -> None:
        for name in ("target_snr_db", "emg_eog_ratio", "gaussian_sigma", "sample_rate_hz"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if abs(self.target_snr_db) > MAX_ABS_SNR_DB:
            raise ConfigError(
                f"target_snr_db must be within ±{MAX_ABS_SNR_DB:g} dB, got {self.target_snr_db}"
            )
        if self.sample_rate_hz <= 0:
            raise ConfigError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
        if self.gaussian_sigma < 0:
            raise ConfigError(f"gaussian_sigma must be >= 0, got {self.gaussian_sigma}")
        if self.emg_eog_ratio <= 0:
            raise ConfigError(f"emg_eog_ratio must be > 0, got {self.emg_eog_ratio}")


def inject_noise(clean: np.ndarray, spec: NoiseSpec) -> tuple[np.ndarray, float]:
    """Returns (noisy, achieved_snr_db).

    noisy = clean + lambda_c * n_c + Gaussian(0, sigma), with
    lambda_c = RMS(clean_c) / (RMS(n_c) * 10^(target/20)) per channel.
    achieved_snr_db is measured against the scaled bio-artifact only.
    """
    spec.validate()
    # C order keeps each row's reductions the same pairwise sums as a 1-D row
    clean = np.ascontiguousarray(clean, dtype=np.float64)
    if clean.ndim != 2:
        raise DimensionError(f"inject_noise expects (C, T), got shape {clean.shape}")
    c, t = clean.shape
    clean_power = float(np.sum(np.square(clean)))
    if clean_power == 0.0:
        raise DegenerateDataError("clean signal has zero RMS; SNR target undefined")

    root = np.random.SeedSequence(spec.seed)
    emg_ss, eog_ss, gauss_ss = root.spawn(3)
    # one generator per channel, each from its own SeedSequence child
    emg = synth_artifact("emg", t, emg_ss.spawn(c), spec.sample_rate_hz)
    eog = synth_artifact("eog", t, eog_ss.spawn(c), spec.sample_rate_hz)
    ratio = spec.emg_eog_ratio
    n = (emg + ratio * eog) / math.sqrt(1.0 + ratio * ratio)
    rms_n = np.sqrt(np.mean(np.square(n), axis=-1))
    rms_c = np.sqrt(np.mean(np.square(clean), axis=-1))
    lam = rms_c / (rms_n * 10.0 ** (spec.target_snr_db / 20.0))
    scaled = lam[:, None] * n

    noisy = clean + scaled
    if spec.gaussian_sigma > 0:
        noisy = noisy + np.random.default_rng(gauss_ss).normal(0.0, spec.gaussian_sigma, clean.shape)
    achieved = 10.0 * math.log10(clean_power / float(np.sum(np.square(scaled))))
    return noisy, achieved
