"""Signal-quality metrics: SNR, Pearson correlation, MSE."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from conftest import rng
from fdcnet.errors import DegenerateDataError, DimensionError
from fdcnet.metrics import (
    SNR_CLAMP_DB,
    metric_cc,
    metric_mse,
    metric_snr,
    segment_cc,
    segment_mse,
    segment_snr,
)


class TestSnr:
    def test_perfect_reconstruction_clamps(self):
        x = rng(0).normal(size=(2, 64))
        assert metric_snr(x, x.copy()) == SNR_CLAMP_DB == 100.0

    def test_zero_denoised_gives_zero_db(self):
        x = rng(1).normal(size=(3, 32))
        assert abs(metric_snr(x, np.zeros_like(x))) < 1e-12

    def test_tenth_rms_residual_gives_20db(self):
        x = rng(2).normal(size=(128,))
        denoised = x - x / 10.0
        assert abs(metric_snr(x, denoised) - 20.0) < 1e-9

    def test_zero_clean_rejected(self):
        with pytest.raises(DegenerateDataError):
            metric_snr(np.zeros(8), np.ones(8))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            metric_snr(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_monotone_in_residual_norm(self):
        x = rng(3).normal(size=(64,))
        e = rng(4).normal(size=(64,))
        values = [metric_snr(x, x + s * e) for s in (0.1, 0.2, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestCc:
    def test_self_correlation(self):
        x = rng(5).normal(size=(4, 16))
        assert abs(metric_cc(x, x.copy()) - 1.0) < 1e-12

    def test_anticorrelation(self):
        x = rng(6).normal(size=(64,))
        assert abs(metric_cc(x, -x) + 1.0) < 1e-12

    def test_worked_example_matches_pearson_oracle(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([2.0, 4.0, 6.0, 9.0])
        expect, _ = stats.pearsonr(x, y)
        got = metric_cc(x, y)
        assert abs(got - expect) < 1e-12
        assert abs(got - 0.9943767126843689) < 1e-12

    def test_affine_invariance(self):
        x = rng(7).normal(size=(128,))
        y = rng(8).normal(size=(128,))
        base = metric_cc(x, y)
        assert abs(metric_cc(2.5 * x + 3.0, y) - base) < 1e-10
        assert abs(metric_cc(x, 0.1 * y - 7.0) - base) < 1e-10

    def test_constant_input_rejected(self):
        with pytest.raises(DegenerateDataError):
            metric_cc(np.full(8, 2.0), np.arange(8.0))

    def test_flattens_multichannel(self):
        x = rng(9).normal(size=(3, 20))
        y = rng(10).normal(size=(3, 20))
        expect, _ = stats.pearsonr(x.ravel(), y.ravel())
        assert abs(metric_cc(x, y) - expect) < 1e-12


class TestMse:
    def test_identical(self):
        x = rng(11).normal(size=(5, 5))
        assert metric_mse(x, x.copy()) == 0.0

    def test_constant_offset(self):
        x = rng(12).normal(size=(4, 8))
        assert abs(metric_mse(x, x + 2.0) - 4.0) < 1e-12

    def test_hand_arithmetic(self):
        assert metric_mse(np.array([1.0, 2.0]), np.array([0.0, 4.0])) == 2.5

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            metric_mse(np.zeros(3), np.zeros(4))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_cc_matches_scipy_property(seed):
    r = np.random.default_rng(seed)
    x = r.normal(size=(50,))
    y = r.normal(size=(50,)) + 0.3 * x
    expect, _ = stats.pearsonr(x, y)
    assert abs(metric_cc(x, y) - expect) < 1e-10


# the scalar forms as they were before the segment_* forms: one segment per
# call, sums over the flattened float64 samples
def _old_snr(clean, denoised):
    clean, denoised = np.asarray(clean, np.float64), np.asarray(denoised, np.float64)
    sig = float(np.sum(np.square(clean)))
    if sig == 0.0:
        raise DegenerateDataError("zero power")
    res = float(np.sum(np.square(clean - denoised)))
    return SNR_CLAMP_DB if res == 0.0 else min(10.0 * math.log10(sig / res), SNR_CLAMP_DB)


def _old_cc(clean, denoised):
    a = np.asarray(clean, np.float64).ravel()
    b = np.asarray(denoised, np.float64).ravel()
    a, b = a - a.mean(), b - b.mean()
    va, vb = float(a @ a), float(b @ b)
    if va == 0.0 or vb == 0.0:
        raise DegenerateDataError("zero variance")
    return float(np.clip((a @ b) / math.sqrt(va * vb), -1.0, 1.0))


def _old_mse(clean, denoised):
    clean, denoised = np.asarray(clean, np.float64), np.asarray(denoised, np.float64)
    return float(np.mean(np.square(clean - denoised)))


SEGMENT_FORMS = [(segment_snr, metric_snr, _old_snr), (segment_cc, metric_cc, _old_cc),
                 (segment_mse, metric_mse, _old_mse)]


def _stack(shape, dtype):
    """float64 clean segments (as a dataset holds them) and a denoised stack
    in dtype, with an exact reconstruction (the +100 dB clamp) in mid-stack."""
    r = rng(40)
    clean = r.normal(size=shape)
    denoised = (clean + 0.3 * r.normal(size=shape)).astype(dtype)
    denoised[len(denoised) // 2] = clean[len(denoised) // 2]
    return clean, denoised


class TestSegmentForms:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(64, 8, 128), (3, 32, 1344), (5, 1, 3)])
    @pytest.mark.parametrize("batched, scalar, old", SEGMENT_FORMS)
    def test_each_segment_matches_the_old_scalar_form(self, dtype, shape, batched, scalar, old):
        clean, denoised = _stack(shape, dtype)
        want = [old(c, d) for c, d in zip(clean, denoised)]
        got = batched(clean, denoised)
        assert got.shape == (len(clean),) and got.dtype == np.float64
        assert got.tolist() == want
        assert [scalar(c, d) for c, d in zip(clean, denoised)] == want

    def test_clamp_in_mid_batch(self):
        clean, denoised = _stack((6, 2, 16), np.float64)
        got = segment_snr(clean, denoised)
        assert got[3] == SNR_CLAMP_DB and (got[[0, 1, 2, 4, 5]] < SNR_CLAMP_DB).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_power_segment_in_mid_batch_rejected(self, dtype):
        clean, denoised = _stack((6, 2, 16), dtype)
        clean[2] = 0.0
        with pytest.raises(DegenerateDataError, match="segment 2"):
            segment_snr(clean, denoised)
        with pytest.raises(DegenerateDataError, match="segment 2"):
            segment_cc(clean, denoised)
        with pytest.raises(DegenerateDataError, match="segment 2"):
            segment_cc(denoised, clean)

    def test_shape_mismatch(self):
        for batched, _, _ in SEGMENT_FORMS:
            with pytest.raises(DimensionError):
                batched(np.zeros((2, 3, 4)), np.zeros((2, 4, 3)))

    def test_empty_stack(self):
        for batched, _, _ in SEGMENT_FORMS:
            assert batched(np.zeros((0, 3, 4)), np.zeros((0, 3, 4))).shape == (0,)
