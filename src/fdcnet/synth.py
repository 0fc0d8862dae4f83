"""Synthetic clean-EEG generation, artifact surrogates, and windowing.

Clean trials are sums of band-limited random-phase sinusoid mixtures over the
canonical EEG bands plus 1/f pink noise. Labels are planted spectrally:
valence scales alpha-band power and arousal scales beta-band power by
(1 ± label_effect), which makes the classification task learnable from band
power while keeping everything else label-independent.

All generation is a pure function of the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError, DimensionError

# canonical band edges in Hz
BANDS: dict[str, tuple[float, float]] = {
    "delta": (1.0, 4.0),
    "theta": (4.0, 8.0),
    "alpha": (8.0, 13.0),
    "beta": (13.0, 30.0),
    "gamma": (30.0, 45.0),
}

# relative band powers; together with PINK_POWER they sum to 1 so a trial
# has RMS close to 1 and the sigma=0.01 Gaussian floor sits near -40 dB
BAND_POWERS: dict[str, float] = {
    "delta": 0.10,
    "theta": 0.25,
    "alpha": 0.30,
    "beta": 0.15,
    "gamma": 0.05,
}
PINK_POWER = 0.15


@dataclass(frozen=True)
class SynthSpec:
    n_subjects: int = 4
    trials_per_subject: int = 25
    n_channels: int = 32
    sample_rate_hz: float = 128.0
    trial_length_s: float = 10.5
    label_effect: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        if self.n_subjects < 1 or self.trials_per_subject < 1 or self.n_channels < 1:
            raise ConfigError("n_subjects, trials_per_subject, n_channels must be >= 1")
        for name in ("sample_rate_hz", "trial_length_s"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sample_rate_hz <= 0 or self.trial_length_s <= 0:
            raise ConfigError("sample_rate_hz and trial_length_s must be positive")
        # the pink-noise RMS of a one-sample trial is 0, which makes it NaN
        if self.n_samples < 2:
            raise ConfigError(f"trial holds {self.n_samples} samples; synthesis needs at least 2")
        if not 0.0 <= self.label_effect <= 1.0:
            raise ConfigError(f"label_effect must be in [0, 1], got {self.label_effect}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def n_samples(self) -> int:
        return int(round(self.sample_rate_hz * self.trial_length_s))


def _sinusoid_sums(freqs, phases, amps, n: int, fs: float) -> np.ndarray:
    """Row sums of amps * sin(2*pi*freqs*k/fs + phases) for k in [0, n).

    freqs, phases and amps are (C, J); the result is (C, n). Writing
    k = b*m + l with m = ceil(sqrt(n)) splits each sine by the angle-sum
    identity into a table over block starts b*m and a table over offsets l,
    so each row is one (nb, 2J) @ (2J, m) product and costs 2*J*(nb + m)
    transcendental calls instead of J*n. Every sample uses one entry of each
    table, so rounding does not grow with k.
    """
    m = math.isqrt(n - 1) + 1
    nb = -(-n // m)
    w = (2.0 * math.pi / fs) * freqs
    alpha = w[:, None, :] * (m * np.arange(nb))[:, None] + phases[:, None, :]  # (C, nb, J)
    beta = w[:, :, None] * np.arange(m)  # (C, J, m)
    amps = amps[:, None, :]
    blocks = np.concatenate([amps * np.sin(alpha), amps * np.cos(alpha)], axis=-1)
    offsets = np.concatenate([np.cos(beta), np.sin(beta)], axis=1)
    return (blocks @ offsets).reshape(len(freqs), nb * m)[:, :n]


def _pink_noise(white: np.ndarray, fs: float, power: float) -> np.ndarray:
    """1/f-power noise shaped from a (C, n) white block, each row normalized
    to mean power `power`."""
    n = white.shape[-1]
    f = np.fft.rfftfreq(n, 1.0 / fs)
    shape = np.zeros_like(f)
    shape[1:] = 1.0 / np.sqrt(f[1:])
    x = np.fft.irfft(np.fft.rfft(white) * shape, n)
    r = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True))
    return x * (math.sqrt(power) / r)


def _channel_draws(rng: np.random.Generator, bands, n_ch: int, n: int):
    """The draws of n_ch channels of one trial: (white, freqs, phases), the
    (n_ch, n) pink-noise white samples and the (n_ch, J) sinusoid
    frequencies and phases of the bands, given as (lo, hi, n_sin). Channel
    after channel, the generator draws its white samples, then for each band
    its frequencies, uniform in [lo, hi), and its phases, uniform in
    [0, 2*pi). The uniforms of a channel come from one rng.random call and
    are scaled per band afterwards: rng.uniform(lo, hi, k) is
    lo + (hi - lo) * rng.random(k) bit for bit."""
    j_total = sum(n_sin for _, _, n_sin in bands)
    white, u = np.empty((n_ch, n)), np.empty((n_ch, 2 * j_total))
    for c in range(n_ch):
        rng.standard_normal(out=white[c])
        rng.random(out=u[c])
    freqs, phases = np.empty((n_ch, j_total)), np.empty((n_ch, j_total))
    j = 0
    for lo, hi, n_sin in bands:
        freqs[:, j : j + n_sin] = lo + (hi - lo) * u[:, 2 * j : 2 * j + n_sin]
        phases[:, j : j + n_sin] = 2.0 * math.pi * u[:, 2 * j + n_sin : 2 * (j + n_sin)]
        j += n_sin
    return white, freqs, phases


def synth_clean_eeg(spec: SynthSpec) -> list[tuple[np.ndarray, int, int, int]]:
    """Generate all trials described by a SynthSpec.

    Returns a list of (trial (C, n_samples) float64, valence, arousal,
    subject_id), deterministic per spec.seed.

    Each channel is 1/f pink noise plus, for every band with non-zero power,
    a sum of random-phase sinusoids with uniform random frequencies in the
    band and expected total power equal to the band power. Per channel the
    generator draws the pink-noise white samples, then for each band in
    BANDS order its frequencies and then its phases.
    """
    spec.validate()
    n = spec.n_samples
    fs = spec.sample_rate_hz
    n_ch = spec.n_channels
    root = np.random.SeedSequence(spec.seed)
    children = root.spawn(spec.n_subjects * spec.trials_per_subject)
    out = []
    idx = 0
    for subject in range(spec.n_subjects):
        for _ in range(spec.trials_per_subject):
            rng = np.random.default_rng(children[idx])
            idx += 1
            valence = int(rng.random() < 0.5)
            arousal = int(rng.random() < 0.5)
            powers = dict(BAND_POWERS)
            e = spec.label_effect
            powers["alpha"] *= (1.0 + e) if valence else (1.0 - e)
            powers["beta"] *= (1.0 + e) if arousal else (1.0 - e)
            # (lo, hi, n_sin) per band that draws, with one amplitude per
            # sinusoid; label_effect 1 zeroes alpha or beta, which then draws
            # nothing
            bands, amps = [], []
            for name, (lo, hi) in BANDS.items():
                power = powers[name]
                if power != 0.0:
                    n_sin = max(3, int(round(hi - lo)))
                    bands.append((lo, hi, n_sin))
                    amps += [math.sqrt(2.0 * power / n_sin)] * n_sin
            white, freqs, phases = _channel_draws(rng, bands, n_ch, n)
            sines = _sinusoid_sums(freqs, phases, np.broadcast_to(amps, freqs.shape), n, fs)
            trial = _pink_noise(white, fs, PINK_POWER) + sines
            out.append((trial, valence, arousal, subject))
    return out


# EMG pass bands in Hz: the burst carrier, then its slow envelope
_EMG_BANDS = ((20.0, 45.0), (0.0, 1.0))


def _emg_masks(f: np.ndarray) -> np.ndarray:
    """One row per EMG band: which of the frequencies f lie in it."""
    return np.array([(f >= lo) & (f <= hi) for lo, hi in _EMG_BANDS])


def min_artifact_length(sample_rate: float) -> int:
    """The fewest samples synth_artifact can shape at sample_rate: every
    EMG band must hold a frequency bin of the length's rfft."""
    if not (math.isfinite(sample_rate) and sample_rate > 0):
        raise ConfigError(f"sample rate must be finite and > 0, got {sample_rate}")
    # a band above the Nyquist frequency holds no bin at any length
    if max(lo for lo, _ in _EMG_BANDS) <= sample_rate / 2:
        for length in range(1, 1 << 16):
            if _emg_masks(np.fft.rfftfreq(length, 1.0 / sample_rate)).any(axis=1).all():
                return length
    raise ConfigError(f"no segment length shapes the EMG bands {_EMG_BANDS} Hz at {sample_rate} Hz")


def _eog_hold(fs: float) -> int:
    # random-step drift: piecewise-constant levels held ~0.7 s each
    return max(1, int(round(0.7 * fs)))


def artifact_draws(kind: str, length: int, rng: np.random.Generator,
                   sample_rate: float = 128.0, rows: int = 1) -> list[np.ndarray]:
    """The blocks one generator draws for `rows` rows of a kind, in draw
    order: for emg the white noise (rows, 2, length); for eog the step
    levels (rows, n_steps), then the blink uniforms (rows, n_blinks, 3)."""
    if kind == "emg":
        return [rng.standard_normal((rows, len(_EMG_BANDS), length))]
    if kind == "eog":
        n_blinks = max(1, int(round(length / sample_rate * 0.25)))
        return [rng.standard_normal((rows, length // _eog_hold(sample_rate) + 2)),
                rng.random((rows, n_blinks, 3))]
    raise ConfigError(f"unknown artifact kind {kind!r}; expected 'emg' or 'eog'")


def synth_artifact(kind: str, length: int, draws: list[list[np.ndarray]],
                   sample_rate: float = 128.0) -> np.ndarray:
    """Unit-RMS artifact surrogate.

    emg: 20-45 Hz filtered white noise under a slow random burst envelope.
    eog: sub-4 Hz smoothed random-step drift plus blink bumps.

    `draws` holds each generator's blocks as artifact_draws returns them.
    All their rows, in order, are shaped at once, each with arithmetic of its
    own, so a row's bytes depend only on its own draws: (rows, length).
    """
    if length < 1:
        raise DimensionError(f"artifact length must be >= 1, got {length}")
    fs = sample_rate
    f = np.fft.rfftfreq(length, 1.0 / fs)
    if kind == "emg":
        # white noise hard-masked in the frequency domain to each band
        masks = _emg_masks(f)
        for (lo, hi), mask in zip(_EMG_BANDS, masks):
            if not mask.any():
                raise DegenerateDataError(
                    f"emg: no frequency bins in [{lo}, {hi}] Hz for length {length} at {fs} Hz"
                )
        white = np.concatenate([d[0] for d in draws])
        band, slow = np.fft.irfft(np.fft.rfft(white) * masks, length).swapaxes(0, 1)
        env = 0.2 + (slow - slow.min(axis=-1, keepdims=True))
        x = band * env
    elif kind == "eog":
        # blink bumps: positive Gaussian transients with uniform center,
        # width and amplitude, drawn as lo + (hi - lo) * U[0, 1)
        lo = np.array([0.0, 0.08, 1.0])
        hi = np.array([length / fs, 0.15, 3.0])
        levels = np.concatenate([d[0] for d in draws])
        bumps = lo + (hi - lo) * np.concatenate([d[1] for d in draws])
        steps = np.repeat(levels, _eog_hold(fs), axis=-1)[:, :length]
        t = np.arange(length) / fs
        blinks = np.zeros((len(levels), length))
        for center, width, amp in bumps.transpose(1, 2, 0)[..., None]:
            blinks += amp * np.exp(-0.5 * ((t - center) / width) ** 2)
        raw = steps + blinks
        # hard low-pass keeps the spectrum strictly below 4 Hz
        x = np.fft.irfft(np.fft.rfft(raw) * (f < 3.5), length)
    else:
        raise ConfigError(f"unknown artifact kind {kind!r}; expected 'emg' or 'eog'")
    r = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True))
    if not r.all():
        raise DegenerateDataError(f"{kind} surrogate degenerated to zero RMS at length {length}")
    return x / r


def segment_windows(trial: np.ndarray, window: int, overlap: float) -> np.ndarray:
    """Sliding windows along the last axis as a read-only (count, ..., window)
    view of the trial; stride = window*(1-overlap), trailing remainder dropped.
    build_dataset checks that the stride is at least 1."""
    trial = np.asarray(trial, dtype=np.float64)
    t = trial.shape[-1]
    if t < window:
        raise DimensionError(f"trial length {t} shorter than window {window}")
    stride = int(round(window * (1.0 - overlap)))
    wins = np.lib.stride_tricks.sliding_window_view(trial, window, axis=-1)[..., ::stride, :]
    return np.moveaxis(wins, -2, 0)
