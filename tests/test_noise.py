"""SNR-targeted noise injection: amplitude law, determinism, degeneracy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rng
from fdcnet.errors import ConfigError, DegenerateDataError, DimensionError
from fdcnet.noise import NoiseSpec, inject_noise


def _clean(seed=0, c=4, t=256):
    """One (C, T) segment as a block of one."""
    return rng(seed).normal(size=(1, c, t))


def recomputed_snr(clean, noisy):
    resid = noisy - clean
    return 10.0 * np.log10((clean ** 2).sum() / (resid ** 2).sum())


def fresh_stream(seed, segment_id):
    """The noise stream of one segment: a fresh Philox keyed (seed, segment_id)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, segment_id], np.uint64)))


def reference_segment(clean, spec, target, seed, segment_id):
    """inject_noise for one (C, T) segment, unbatched: a fresh Philox stream
    keyed (seed, segment_id) draws the EMG white noise, the EOG step
    levels, the blink uniforms and the Gaussian floor in that order, then
    each channel is shaped with 1-D arithmetic. inject_noise must match it
    bit for bit."""
    c, t = clean.shape
    fs = spec.sample_rate_hz
    hold = max(1, int(round(0.7 * fs)))
    n_steps = t // hold + 2
    n_blinks = max(1, int(round(t / fs * 0.25)))
    g = fresh_stream(seed, segment_id)
    white = g.standard_normal((c, 2, t))
    levels = g.standard_normal((c, n_steps))
    u = g.random((c, n_blinks, 3))
    floor = g.standard_normal((c, t))
    f = np.fft.rfftfreq(t, 1.0 / fs)
    time_s = np.arange(t) / fs
    ratio = spec.emg_eog_ratio
    amp_ratio = 10.0 ** (target / 20.0)
    scaled = np.empty_like(clean)
    for ch in range(c):
        band = np.fft.irfft(np.fft.rfft(white[ch, 0]) * ((f >= 20.0) & (f <= 45.0)), t)
        slow = np.fft.irfft(np.fft.rfft(white[ch, 1]) * ((f >= 0.0) & (f <= 1.0)), t)
        emg = band * (0.2 + (slow - slow.min()))
        emg = emg / math.sqrt(float(np.mean(np.square(emg))))
        raw = np.repeat(levels[ch], hold)[:t]
        blinks = np.zeros(t)
        for b in range(n_blinks):
            center = 0.0 + (t / fs - 0.0) * u[ch, b, 0]
            width = 0.08 + (0.15 - 0.08) * u[ch, b, 1]
            amp = 1.0 + (3.0 - 1.0) * u[ch, b, 2]
            blinks += amp * np.exp(-0.5 * ((time_s - center) / width) ** 2)
        eog = np.fft.irfft(np.fft.rfft(raw + blinks) * (f < 3.5), t)
        eog = eog / math.sqrt(float(np.mean(np.square(eog))))
        n = (emg + ratio * eog) / math.sqrt(1.0 + ratio * ratio)
        rms_n = math.sqrt(float(np.mean(np.square(n))))
        rms_c = math.sqrt(float(np.mean(np.square(clean[ch]))))
        scaled[ch] = rms_c / (rms_n * amp_ratio) * n
    noisy = clean + scaled
    if spec.gaussian_sigma > 0:
        noisy = noisy + spec.gaussian_sigma * floor
    achieved = 10.0 * math.log10(float(np.sum(np.square(clean))) / float(np.sum(np.square(scaled))))
    return noisy, achieved


IDS = [5, 0, 2**40 + 3]


class TestSegmentReference:
    @pytest.mark.parametrize("shape", [(8, 128), (32, 1344), (1, 128)])
    @pytest.mark.parametrize("target", [-3.0, 3.0])
    @pytest.mark.parametrize("ratio", [1e-9, 1.0, 1e9])
    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    def test_block_matches_reference_bytes(self, shape, target, ratio, sigma):
        clean = rng(shape[0]).normal(size=(len(IDS),) + shape)
        spec = NoiseSpec(emg_eog_ratio=ratio, gaussian_sigma=sigma)
        noisy, achieved = inject_noise(clean, spec, target, shape[1] + 17, IDS)
        assert noisy.shape == clean.shape and achieved.shape == (len(IDS),)
        for k, i in enumerate(IDS):
            want, want_achieved = reference_segment(clean[k], spec, target, shape[1] + 17, i)
            assert noisy[k].tobytes() == want.tobytes()
            assert achieved[k] == want_achieved

    def test_single_segment_defaults_to_id_zero(self):
        clean = _clean(9)
        spec = NoiseSpec()
        noisy, achieved = inject_noise(clean, spec, 1.0, 2**64 - 1)
        want, want_achieved = reference_segment(clean[0], spec, 1.0, 2**64 - 1, 0)
        assert noisy[0].tobytes() == want.tobytes()
        assert achieved.shape == (1,) and achieved[0] == want_achieved


class TestStreamInvariance:
    N, C, T = 20, 3, 128

    def _block(self):
        return rng(40).normal(size=(self.N, self.C, self.T)), np.arange(100, 100 + self.N)

    @pytest.mark.parametrize("chunk", [1, 7, N])
    def test_chunk_size_does_not_change_bytes(self, chunk):
        # the block injected as consecutive calls of `chunk` segments each
        clean, ids = self._block()
        want, want_achieved = inject_noise(clean, NoiseSpec(), -2.0, 77, ids)
        parts = [inject_noise(clean[s : s + chunk], NoiseSpec(), -2.0, 77, ids[s : s + chunk])
                 for s in range(0, self.N, chunk)]
        assert np.concatenate([p[0] for p in parts]).tobytes() == want.tobytes()
        assert np.concatenate([p[1] for p in parts]).tobytes() == want_achieved.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_segments_draw_as_fresh_streams(self, seed):
        r = rng(90 + seed)
        n = int(r.integers(6, 16))
        clean, ids = r.normal(size=(n, 2, 64)), r.integers(0, 2**62, n)
        target, key = float(r.uniform(-3.0, 3.0)), int(r.integers(0, 2**62))
        spec = NoiseSpec()
        got, achieved = inject_noise(clean, spec, target, key, ids)
        for k, i in enumerate(ids):
            want, want_achieved = reference_segment(clean[k], spec, target, key, int(i))
            assert got[k].tobytes() == want.tobytes()
            assert achieved[k] == want_achieved

    def test_reversed_order_gives_reversed_bytes(self):
        clean, ids = self._block()
        spec = NoiseSpec()
        want, want_achieved = inject_noise(clean, spec, 0.5, 78, ids)
        got, achieved = inject_noise(clean[::-1], spec, 0.5, 78, ids[::-1])
        assert got[::-1].tobytes() == want.tobytes()
        assert achieved[::-1].tobytes() == want_achieved.tobytes()

    def test_subset_and_single_calls_give_same_bytes(self):
        clean, ids = self._block()
        spec = NoiseSpec()
        want, want_achieved = inject_noise(clean, spec, 3.0, 79, ids)
        pick = [13, 2, 19, 7]
        got, achieved = inject_noise(clean[pick], spec, 3.0, 79, ids[pick])
        for k, j in enumerate(pick):
            assert got[k].tobytes() == want[j].tobytes()
            assert achieved[k] == want_achieved[j]
            one, one_achieved = inject_noise(clean[j : j + 1], spec, 3.0, 79, ids[j : j + 1])
            assert one[0].tobytes() == want[j].tobytes()
            assert one_achieved[0] == want_achieved[j]

    def test_segment_noise_ignores_other_segments_signal(self):
        clean, ids = self._block()
        want, _ = inject_noise(clean, NoiseSpec(), 1.0, 80, ids)
        other = clean.copy()
        other[1:] *= 5.0
        got, _ = inject_noise(other, NoiseSpec(), 1.0, 80, ids)
        assert got[0].tobytes() == want[0].tobytes()

    def test_id_and_seed_select_the_stream(self):
        clean = np.concatenate([_clean(10)] * 2)
        same_id, _ = inject_noise(clean, NoiseSpec(), 0.0, 81, [4, 4])
        assert same_id[0].tobytes() == same_id[1].tobytes()
        other_id, _ = inject_noise(clean, NoiseSpec(), 0.0, 81, [4, 5])
        assert not np.array_equal(other_id[0], other_id[1])
        # every bit of the 64-bit seed word keys the stream
        a, _ = inject_noise(clean[:1], NoiseSpec(), 0.0, 2**63)
        b, _ = inject_noise(clean[:1], NoiseSpec(), 0.0, 2**63 + 1)
        assert not np.array_equal(a, b)

    def test_empty_block(self):
        noisy, achieved = inject_noise(np.zeros((0, 2, 128)), NoiseSpec(), 0.0, 0, [])
        assert noisy.shape == (0, 2, 128) and achieved.shape == (0,)


class TestTargeting:
    def test_zero_db_matches_rms(self):
        clean = _clean(1)
        noisy, achieved = inject_noise(clean, NoiseSpec(gaussian_sigma=0.0), 0.0, 5)
        scaled = noisy - clean
        r_clean = np.sqrt((clean ** 2).mean())
        r_noise = np.sqrt((scaled ** 2).mean())
        assert abs(r_noise / r_clean - 1.0) < 1e-3
        assert abs(achieved[0]) < 0.05

    def test_plus3_db_recompute(self):
        clean = _clean(2)
        noisy, achieved = inject_noise(clean, NoiseSpec(gaussian_sigma=0.0), 3.0, 6)
        assert abs(recomputed_snr(clean, noisy) - 3.0) < 0.01
        assert abs(achieved[0] - 3.0) < 0.01

    def test_lambda_halves_per_6db(self):
        # +6.0206 dB on the target halves the injected amplitude
        clean = _clean(3)
        spec = NoiseSpec(gaussian_sigma=0.0)
        n_lo = inject_noise(clean, spec, 0.0, 7)[0] - clean
        n_hi = inject_noise(clean, spec, 20.0 * np.log10(2.0), 7)[0] - clean
        np.testing.assert_allclose(n_hi, n_lo / 2.0, atol=1e-12)

    def test_gaussian_floor_excluded_from_achieved(self):
        clean = _clean(4)
        _, a0 = inject_noise(clean, NoiseSpec(gaussian_sigma=0.0), 1.0, 8)
        _, a1 = inject_noise(clean, NoiseSpec(gaussian_sigma=0.01), 1.0, 8)
        assert a0[0] == a1[0]  # same bio-artifact stream, floor not counted

    def test_gaussian_floor_present_in_signal(self):
        clean = _clean(5)
        n0 = inject_noise(clean, NoiseSpec(gaussian_sigma=0.0), 1.0, 9)[0]
        n1 = inject_noise(clean, NoiseSpec(gaussian_sigma=0.01), 1.0, 9)[0]
        diff = n1 - n0
        assert np.abs(diff).max() > 0.0
        assert abs(diff.std() - 0.01) < 0.002

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2 ** 31 - 1),
        st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
    )
    def test_targets_within_005_db(self, seed, target):
        clean = np.random.default_rng(seed).normal(size=(1, 3, 200))
        noisy, achieved = inject_noise(clean, NoiseSpec(gaussian_sigma=0.0), target, seed)
        assert abs(recomputed_snr(clean, noisy) - target) < 0.05
        assert abs(achieved[0] - target) < 0.05


class TestMixing:
    def test_ratio_extremes_select_component(self):
        clean = _clean(6)
        only_emg = inject_noise(clean, NoiseSpec(emg_eog_ratio=1e-9, gaussian_sigma=0.0),
                                0.0, 10)[0] - clean
        only_eog = inject_noise(clean, NoiseSpec(emg_eog_ratio=1e9, gaussian_sigma=0.0),
                                0.0, 10)[0] - clean

        def hf_fraction(x):
            spec = np.abs(np.fft.rfft(x, axis=-1)) ** 2
            freqs = np.fft.rfftfreq(x.shape[-1], d=1.0 / 128.0)
            return spec[..., freqs >= 15.0].sum() / spec.sum()

        assert hf_fraction(only_emg) > 0.9  # EMG lives at 20-45 Hz
        assert hf_fraction(only_eog) < 0.1  # EOG lives below 4 Hz

    def test_per_channel_independence(self):
        # channels of one segment correlate no more than channels of
        # different segments, whose streams are independent by their keys
        clean = np.ones((200, 3, 512))
        noise_ = inject_noise(clean, NoiseSpec(gaussian_sigma=0.0), 0.0, 11)[0] - clean
        z = noise_ - noise_.mean(axis=-1, keepdims=True)
        z /= np.linalg.norm(z, axis=-1, keepdims=True)
        within = np.abs(np.concatenate([(z[:, 0] * z[:, 1]).sum(-1), (z[:, 0] * z[:, 2]).sum(-1)]))
        across = np.abs(np.concatenate([(z[:-1, 0] * z[1:, 0]).sum(-1), (z[:-1, 1] * z[1:, 2]).sum(-1)]))
        assert within.mean() < 0.2
        assert abs(within.mean() - across.mean()) < 0.03


class TestContracts:
    def test_zero_clean_rejected(self):
        with pytest.raises(DegenerateDataError):
            inject_noise(np.zeros((1, 2, 128)), NoiseSpec(), 0.0, 0)

    def test_empty_artifact_band_names_kind(self):
        with pytest.raises(DegenerateDataError, match="emg"):
            inject_noise(np.ones((1, 2, 2)), NoiseSpec(), 0.0, 0)

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            NoiseSpec(emg_eog_ratio=0.0).validate()
        with pytest.raises(ConfigError):
            NoiseSpec(gaussian_sigma=-0.1).validate()
        with pytest.raises(ConfigError):
            NoiseSpec(sample_rate_hz=0.0).validate()

    @pytest.mark.parametrize("field", ["target_snr_db", "emg_eog_ratio", "gaussian_sigma",
                                       "sample_rate_hz"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            if field == "target_snr_db":  # a per-call argument, not a setting
                inject_noise(_clean(), NoiseSpec(), value, 0)
            else:
                NoiseSpec(**{field: value}).validate()

    @pytest.mark.parametrize("target", [300.0001, -300.0001, 7000.0, -7000.0])
    def test_snr_beyond_300_db_rejected(self, target):
        with pytest.raises(ConfigError, match="target_snr_db"):
            inject_noise(_clean(), NoiseSpec(), target, 0)

    @pytest.mark.parametrize("target", [300.0, -300.0])
    def test_snr_at_300_db_is_finite(self, target):
        noisy, achieved = inject_noise(_clean(6), NoiseSpec(), target, 3)
        assert np.isfinite(noisy).all()
        assert abs(achieved[0] - target) < 1e-6

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "3"])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            inject_noise(_clean(), NoiseSpec(), 0.0, seed)

    def test_ids_must_match_segments(self):
        with pytest.raises(DimensionError, match="ids"):
            inject_noise(np.ones((3, 2, 128)), NoiseSpec(), 0.0, 0, [0, 1])
        # one (C, T) segment is a block of one, not a form of its own
        for shape in [(128,), (2, 128)]:
            with pytest.raises(DimensionError):
                inject_noise(np.ones(shape), NoiseSpec(), 0.0, 0)

    @pytest.mark.parametrize("ids", [[0, -1], [0.0, 1.0]])
    def test_ids_must_be_non_negative_integers(self, ids):
        with pytest.raises(ConfigError, match="ids"):
            inject_noise(np.ones((2, 2, 128)), NoiseSpec(), 0.0, 0, ids)

    def test_zero_segment_in_block_named(self):
        clean = np.ones((3, 2, 128))
        clean[1] = 0.0
        with pytest.raises(DegenerateDataError, match="segment 1"):
            inject_noise(clean, NoiseSpec(), 0.0, 0)

    def test_determinism(self):
        clean = _clean(7)
        a, sa = inject_noise(clean, NoiseSpec(), 2.0, 31)
        b, sb = inject_noise(clean, NoiseSpec(), 2.0, 31)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(sa, sb)

    def test_seed_changes_noise(self):
        clean = _clean(8)
        a, _ = inject_noise(clean, NoiseSpec(), 2.0, 1)
        b, _ = inject_noise(clean, NoiseSpec(), 2.0, 2)
        assert not np.array_equal(a, b)
