"""Signal-quality metrics: SNR (dB), Pearson correlation, MSE. The segment_*
forms give, for each segment of an (N, ...) stack, its metric_* value."""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateDataError, DimensionError

SNR_CLAMP_DB = 100.0


def _rows(clean, denoised) -> tuple[np.ndarray, np.ndarray]:
    """Both as float64 (segments, samples) rows in C order."""
    clean = np.asarray(clean, dtype=np.float64)
    denoised = np.asarray(denoised, dtype=np.float64)
    if clean.shape != denoised.shape:
        raise DimensionError(f"shape mismatch: {clean.shape} vs {denoised.shape}")
    shape = (len(clean), math.prod(clean.shape[1:]))
    return clean.reshape(shape), denoised.reshape(shape)


def segment_snr(clean, denoised) -> np.ndarray:
    """10*log10(sum(clean^2) / sum((clean-denoised)^2)), clamped at +100 dB."""
    clean, denoised = _rows(clean, denoised)
    sig = np.sum(np.square(clean), axis=-1)
    if not sig.all():
        raise DegenerateDataError(f"segment {int(np.argmin(sig))}: clean signal has zero power; SNR undefined")
    res = np.sum(np.square(clean - denoised), axis=-1)
    # libm's scalar log10; NumPy's vectorised log10 can differ by a few ulps
    return np.array([SNR_CLAMP_DB if r == 0.0 else min(10.0 * math.log10(s / r), SNR_CLAMP_DB)
                     for s, r in zip(sig.tolist(), res.tolist())])


def segment_cc(clean, denoised) -> np.ndarray:
    """Pearson correlation over the flattened samples, in [-1, 1]."""
    a, b = _rows(clean, denoised)
    a = a - a.mean(axis=-1, keepdims=True)
    b = b - b.mean(axis=-1, keepdims=True)
    # vecdot takes each row's product as `a @ b` takes one row's
    va, vb = np.vecdot(a, a), np.vecdot(b, b)
    if not (va.all() and vb.all()):
        raise DegenerateDataError(f"segment {int(np.argmin(np.minimum(va, vb)))}: zero variance; CC undefined")
    return np.clip(np.vecdot(a, b) / np.sqrt(va * vb), -1.0, 1.0)


def segment_mse(clean, denoised) -> np.ndarray:
    clean, denoised = _rows(clean, denoised)
    return np.mean(np.square(clean - denoised), axis=-1)


def metric_snr(clean, denoised) -> float:
    return float(segment_snr(np.asarray(clean)[None], np.asarray(denoised)[None])[0])


def metric_cc(clean, denoised) -> float:
    return float(segment_cc(np.asarray(clean)[None], np.asarray(denoised)[None])[0])


def metric_mse(clean, denoised) -> float:
    return float(segment_mse(np.asarray(clean)[None], np.asarray(denoised)[None])[0])
