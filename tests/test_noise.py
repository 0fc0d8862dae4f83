"""SNR-targeted noise injection: amplitude law, determinism, degeneracy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rng
from fdcnet.errors import ConfigError, DegenerateDataError
from fdcnet.noise import NoiseSpec, inject_noise
from fdcnet.synth import synth_artifact


def _clean(seed=0, c=4, t=256):
    return rng(seed).normal(size=(c, t))


def recomputed_snr(clean, noisy):
    resid = noisy - clean
    return 10.0 * np.log10((clean ** 2).sum() / (resid ** 2).sum())


def per_channel_oracle(clean, spec):
    """inject_noise as a loop over channels, one single-seed synth_artifact
    call per channel and kind; the batched code must match it bit for bit."""
    c, t = clean.shape
    emg_ss, eog_ss, gauss_ss = np.random.SeedSequence(spec.seed).spawn(3)
    emg_children, eog_children = emg_ss.spawn(c), eog_ss.spawn(c)
    ratio = spec.emg_eog_ratio
    amp_ratio = 10.0 ** (spec.target_snr_db / 20.0)
    scaled = np.empty_like(clean)
    for ch in range(c):
        emg = synth_artifact("emg", t, np.random.default_rng(emg_children[ch]), spec.sample_rate_hz)
        eog = synth_artifact("eog", t, np.random.default_rng(eog_children[ch]), spec.sample_rate_hz)
        n = (emg + ratio * eog) / math.sqrt(1.0 + ratio * ratio)
        rms_n = math.sqrt(float(np.mean(np.square(n))))
        rms_c = math.sqrt(float(np.mean(np.square(clean[ch]))))
        scaled[ch] = rms_c / (rms_n * amp_ratio) * n
    noisy = clean + scaled
    if spec.gaussian_sigma > 0:
        noisy = noisy + np.random.default_rng(gauss_ss).normal(0.0, spec.gaussian_sigma, clean.shape)
    achieved = 10.0 * math.log10(float(np.sum(np.square(clean))) / float(np.sum(np.square(scaled))))
    return noisy, achieved


class TestPerChannelOracle:
    @pytest.mark.parametrize("shape", [(8, 128), (32, 1344), (1, 128)])
    @pytest.mark.parametrize("target", [-3.0, 3.0])
    @pytest.mark.parametrize("ratio", [1e-9, 1.0, 1e9])
    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    def test_batched_matches_per_channel_bytes(self, shape, target, ratio, sigma):
        clean = rng(shape[0]).normal(size=shape)
        spec = NoiseSpec(target, emg_eog_ratio=ratio, gaussian_sigma=sigma, seed=shape[1] + 17)
        noisy, achieved = inject_noise(clean, spec)
        want, want_achieved = per_channel_oracle(clean, spec)
        assert noisy.tobytes() == want.tobytes()
        assert achieved == want_achieved


class TestTargeting:
    def test_zero_db_matches_rms(self):
        clean = _clean(1)
        noisy, achieved = inject_noise(clean, NoiseSpec(0.0, gaussian_sigma=0.0, seed=5))
        scaled = noisy - clean
        r_clean = np.sqrt((clean ** 2).mean())
        r_noise = np.sqrt((scaled ** 2).mean())
        assert abs(r_noise / r_clean - 1.0) < 1e-3
        assert abs(achieved) < 0.05

    def test_plus3_db_recompute(self):
        clean = _clean(2)
        noisy, achieved = inject_noise(clean, NoiseSpec(3.0, gaussian_sigma=0.0, seed=6))
        assert abs(recomputed_snr(clean, noisy) - 3.0) < 0.01
        assert abs(achieved - 3.0) < 0.01

    def test_lambda_halves_per_6db(self):
        # +6.0206 dB on the target halves the injected amplitude
        clean = _clean(3)
        spec_lo = NoiseSpec(0.0, gaussian_sigma=0.0, seed=7)
        spec_hi = NoiseSpec(20.0 * np.log10(2.0), gaussian_sigma=0.0, seed=7)
        n_lo = inject_noise(clean, spec_lo)[0] - clean
        n_hi = inject_noise(clean, spec_hi)[0] - clean
        np.testing.assert_allclose(n_hi, n_lo / 2.0, atol=1e-12)

    def test_gaussian_floor_excluded_from_achieved(self):
        clean = _clean(4)
        _, a0 = inject_noise(clean, NoiseSpec(1.0, gaussian_sigma=0.0, seed=8))
        _, a1 = inject_noise(clean, NoiseSpec(1.0, gaussian_sigma=0.01, seed=8))
        assert a0 == a1  # same bio-artifact stream, floor not counted

    def test_gaussian_floor_present_in_signal(self):
        clean = _clean(5)
        n0 = inject_noise(clean, NoiseSpec(1.0, gaussian_sigma=0.0, seed=9))[0]
        n1 = inject_noise(clean, NoiseSpec(1.0, gaussian_sigma=0.01, seed=9))[0]
        diff = n1 - n0
        assert np.abs(diff).max() > 0.0
        assert abs(diff.std() - 0.01) < 0.002

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2 ** 31 - 1),
        st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
    )
    def test_targets_within_005_db(self, seed, target):
        clean = np.random.default_rng(seed).normal(size=(3, 200))
        noisy, achieved = inject_noise(
            clean, NoiseSpec(target, gaussian_sigma=0.0, seed=seed)
        )
        assert abs(recomputed_snr(clean, noisy) - target) < 0.05
        assert abs(achieved - target) < 0.05


class TestMixing:
    def test_ratio_extremes_select_component(self):
        clean = _clean(6)
        only_emg = inject_noise(clean, NoiseSpec(0.0, emg_eog_ratio=1e-9,
                                                 gaussian_sigma=0.0, seed=10))[0] - clean
        only_eog = inject_noise(clean, NoiseSpec(0.0, emg_eog_ratio=1e9,
                                                 gaussian_sigma=0.0, seed=10))[0] - clean

        def hf_fraction(x):
            spec = np.abs(np.fft.rfft(x, axis=-1)) ** 2
            freqs = np.fft.rfftfreq(x.shape[-1], d=1.0 / 128.0)
            return spec[:, freqs >= 15.0].sum() / spec.sum()

        assert hf_fraction(only_emg) > 0.9  # EMG lives at 20-45 Hz
        assert hf_fraction(only_eog) < 0.1  # EOG lives below 4 Hz

    def test_per_channel_independence(self):
        clean = np.ones((3, 512))
        noise = inject_noise(clean, NoiseSpec(0.0, gaussian_sigma=0.0, seed=11))[0] - clean
        c01 = np.corrcoef(noise[0], noise[1])[0, 1]
        c02 = np.corrcoef(noise[0], noise[2])[0, 1]
        assert abs(c01) < 0.3 and abs(c02) < 0.3


class TestContracts:
    def test_zero_clean_rejected(self):
        with pytest.raises(DegenerateDataError):
            inject_noise(np.zeros((2, 128)), NoiseSpec(0.0, seed=0))

    def test_empty_artifact_band_names_kind(self):
        with pytest.raises(DegenerateDataError, match="emg"):
            inject_noise(np.ones((2, 2)), NoiseSpec(0.0, seed=0))

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            NoiseSpec(0.0, emg_eog_ratio=0.0).validate()
        with pytest.raises(ConfigError):
            NoiseSpec(0.0, gaussian_sigma=-0.1).validate()
        with pytest.raises(ConfigError):
            NoiseSpec(0.0, sample_rate_hz=0.0).validate()

    @pytest.mark.parametrize("field", ["target_snr_db", "emg_eog_ratio", "gaussian_sigma",
                                       "sample_rate_hz"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            NoiseSpec(**{"target_snr_db": 0.0, field: value}).validate()

    @pytest.mark.parametrize("target", [300.0001, -300.0001, 7000.0, -7000.0])
    def test_snr_beyond_300_db_rejected(self, target):
        with pytest.raises(ConfigError, match="target_snr_db"):
            NoiseSpec(target).validate()

    @pytest.mark.parametrize("target", [300.0, -300.0])
    def test_snr_at_300_db_is_finite(self, target):
        noisy, achieved = inject_noise(_clean(6), NoiseSpec(target, seed=3))
        assert np.isfinite(noisy).all()
        assert abs(achieved - target) < 1e-6

    def test_determinism(self):
        clean = _clean(7)
        spec = NoiseSpec(2.0, seed=31)
        a, sa = inject_noise(clean, spec)
        b, sb = inject_noise(clean, spec)
        np.testing.assert_array_equal(a, b)
        assert sa == sb

    def test_seed_changes_noise(self):
        clean = _clean(8)
        a, _ = inject_noise(clean, NoiseSpec(2.0, seed=1))
        b, _ = inject_noise(clean, NoiseSpec(2.0, seed=2))
        assert not np.array_equal(a, b)
