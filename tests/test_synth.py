"""Synthetic EEG and artifact generation: spectra, labels, segmentation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import welch

from fdcnet.errors import ConfigError, DegenerateDataError, DimensionError
from fdcnet.synth import (
    BAND_POWERS,
    BANDS,
    PINK_POWER,
    SynthSpec,
    _sinusoid_sums,
    min_artifact_length,
    segment_windows,
    synth_artifact,
    synth_clean_eeg,
)


def band_power(x: np.ndarray, lo: float, hi: float, fs: float = 128.0) -> float:
    """Welch-estimated power in [lo, hi) Hz, averaged over channels."""
    f, p = welch(x, fs=fs, nperseg=min(256, x.shape[-1]), axis=-1)
    mask = (f >= lo) & (f < hi)
    return float(np.trapezoid(p[..., mask], f[mask], axis=-1).mean())


def _oracle_band_mixture(rng, n, fs, lo, hi, power):
    """One band of one channel, one np.sin per sample and sinusoid."""
    if power == 0.0:
        return np.zeros(n)
    n_sin = max(3, int(round(hi - lo)))
    freqs = rng.uniform(lo, hi, n_sin)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_sin)
    amp = np.sqrt(2.0 * power / n_sin)
    t = np.arange(n) / fs
    return amp * np.sin(2.0 * np.pi * freqs[:, None] * t + phases[:, None]).sum(axis=0)


def _oracle_pink_noise(rng, n, fs, power):
    if power == 0.0 or n < 2:
        return np.zeros(n)
    white = rng.standard_normal(n)
    f = np.fft.rfftfreq(n, 1.0 / fs)
    shape = np.zeros_like(f)
    shape[1:] = 1.0 / np.sqrt(f[1:])
    x = np.fft.irfft(np.fft.rfft(white) * shape, n)
    r = np.sqrt(np.mean(np.square(x)))
    return x * (np.sqrt(power) / r) if r > 0 else x


def oracle_clean_eeg(spec):
    """Per-channel reference for synth_clean_eeg with the same draw order."""
    n, fs = spec.n_samples, spec.sample_rate_hz
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_subjects * spec.trials_per_subject)
    out = []
    for idx, child in enumerate(children):
        rng = np.random.default_rng(child)
        valence = int(rng.random() < 0.5)
        arousal = int(rng.random() < 0.5)
        powers = dict(BAND_POWERS)
        e = spec.label_effect
        if "alpha" in powers:
            powers["alpha"] *= (1.0 + e) if valence else (1.0 - e)
        if "beta" in powers:
            powers["beta"] *= (1.0 + e) if arousal else (1.0 - e)
        trial = np.empty((spec.n_channels, n))
        for c in range(spec.n_channels):
            sig = _oracle_pink_noise(rng, n, fs, PINK_POWER)
            for name, (lo, hi) in BANDS.items():
                sig = sig + _oracle_band_mixture(rng, n, fs, lo, hi, powers.get(name, 0.0))
            trial[c] = sig
        out.append((trial, valence, arousal, idx // spec.trials_per_subject))
    return out


_ORACLE_SPECS = {
    "c32-10.5s": SynthSpec(n_subjects=1, trials_per_subject=2, n_channels=32, seed=41),
    "c8-10.5s": SynthSpec(n_subjects=2, trials_per_subject=2, n_channels=8, seed=1),
    "n128": SynthSpec(n_subjects=1, trials_per_subject=3, n_channels=3,
                      trial_length_s=1.0, seed=2),
    "n256-square": SynthSpec(n_subjects=1, trials_per_subject=3, n_channels=3,
                             trial_length_s=2.0, seed=3),
    "n166": SynthSpec(n_subjects=1, trials_per_subject=3, n_channels=3,
                      trial_length_s=1.3, seed=4),
    "n129-odd": SynthSpec(n_subjects=1, trials_per_subject=3, n_channels=3,
                          sample_rate_hz=129.0, trial_length_s=1.0, seed=5),
    "effect-0": SynthSpec(n_subjects=1, trials_per_subject=4, n_channels=4,
                          label_effect=0.0, seed=10),
    "effect-1": SynthSpec(n_subjects=2, trials_per_subject=4, n_channels=4,
                          label_effect=1.0, seed=11),
}


class TestBatchedSynthesis:
    @pytest.mark.parametrize("spec", _ORACLE_SPECS.values(), ids=_ORACLE_SPECS.keys())
    def test_matches_per_channel_oracle(self, spec):
        got = synth_clean_eeg(spec)
        want = oracle_clean_eeg(spec)
        assert len(got) == len(want)
        for (tg, vg, ag, sg), (tw, vw, aw, sw) in zip(got, want):
            assert (vg, ag, sg) == (vw, aw, sw)
            assert tg.shape == tw.shape == (spec.n_channels, spec.n_samples)
            np.testing.assert_allclose(tg, tw, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("n", [1, 2, 3, 128, 129, 1344])
    def test_sinusoid_sums_match_np_sin(self, n):
        rng = np.random.default_rng(n)
        fs = 128.0
        freqs = rng.uniform(0.5, 60.0, (3, 7))
        phases = rng.uniform(0.0, 2.0 * np.pi, (3, 7))
        amps = rng.uniform(0.1, 2.0, (3, 7))
        k = np.arange(n)
        want = (amps[..., None]
                * np.sin(2.0 * np.pi * freqs[..., None] * k / fs + phases[..., None])).sum(axis=1)
        got = _sinusoid_sums(freqs, phases, amps, n, fs)
        assert got.shape == (3, n)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)

    def test_sinusoid_sums_without_sinusoids_is_zero(self):
        got = _sinusoid_sums(np.empty((2, 0)), np.empty((2, 0)), np.empty((2, 0)), 130, 128.0)
        np.testing.assert_array_equal(got, np.zeros((2, 130)))


class TestCleanEeg:
    def test_shapes_and_labels(self):
        spec = SynthSpec(n_subjects=2, trials_per_subject=3, n_channels=4,
                         trial_length_s=2.0, seed=1)
        trials = synth_clean_eeg(spec)
        assert len(trials) == 6
        for trial, v, a, sid in trials:
            assert trial.shape == (4, 256)
            assert v in (0, 1) and a in (0, 1)
            assert 0 <= sid < 2

    def test_determinism(self):
        spec = SynthSpec(n_subjects=2, trials_per_subject=2, n_channels=3,
                         trial_length_s=1.5, seed=9)
        a = synth_clean_eeg(spec)
        b = synth_clean_eeg(spec)
        for (ta, va, aa, sa), (tb, vb, ab, sb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            assert (va, aa, sa) == (vb, ab, sb)

    def test_null_effect_gives_chance_classifier(self):
        # with label_effect=0 an alpha-power threshold classifier sits at chance
        spec = SynthSpec(n_subjects=4, trials_per_subject=250, n_channels=2,
                         trial_length_s=2.0, label_effect=0.0, seed=42)
        trials = synth_clean_eeg(spec)
        powers = np.array([band_power(t, *BANDS["alpha"]) for t, _, _, _ in trials])
        labels = np.array([v for _, v, _, _ in trials])
        pred = powers > np.median(powers)
        acc = (pred == labels).mean()
        assert abs(acc - 0.5) < 0.05, f"null-effect classifier scored {acc}"

    def test_planted_alpha_effect_wins_paired_comparisons(self):
        spec = SynthSpec(n_subjects=20, trials_per_subject=20, n_channels=2,
                         trial_length_s=2.0, label_effect=0.5, seed=7)
        trials = synth_clean_eeg(spec)
        wins = checks = 0
        for sid in range(20):
            mine = [(t, v) for t, v, _, s in trials if s == sid]
            pos = [band_power(t, *BANDS["alpha"]) for t, v in mine if v == 1]
            neg = [band_power(t, *BANDS["alpha"]) for t, v in mine if v == 0]
            if pos and neg:
                checks += 1
                wins += np.mean(pos) > np.mean(neg)
        assert checks >= 15
        assert wins / checks > 0.95

    def test_planted_beta_effect_for_arousal(self):
        spec = SynthSpec(n_subjects=12, trials_per_subject=20, n_channels=2,
                         trial_length_s=2.0, label_effect=0.5, seed=8)
        trials = synth_clean_eeg(spec)
        pos = [band_power(t, *BANDS["beta"]) for t, _, a, _ in trials if a == 1]
        neg = [band_power(t, *BANDS["beta"]) for t, _, a, _ in trials if a == 0]
        assert np.mean(pos) > 2.0 * np.mean(neg)

    def test_band_structure_present(self):
        # each canonical band should carry roughly its configured power share
        spec = SynthSpec(n_subjects=1, trials_per_subject=20, n_channels=4,
                         trial_length_s=4.0, label_effect=0.0, seed=11)
        trials = synth_clean_eeg(spec)
        stack = np.concatenate([t for t, _, _, _ in trials], axis=0)
        total = band_power(stack, 0.5, 64.0)
        for name, share in BAND_POWERS.items():
            got = band_power(stack, *BANDS[name]) / total
            assert got > 0.4 * share, f"{name}: {got:.3f} vs configured {share}"

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            SynthSpec(n_subjects=0).validate()
        with pytest.raises(ConfigError):
            SynthSpec(trial_length_s=1 / 128).validate()  # one sample: pink-noise RMS 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["sample_rate_hz", "trial_length_s"])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SynthSpec(**{field: value}).validate()


def _artifact(kind, length, seed):
    """One (length,) realization from a single seeded generator."""
    return synth_artifact(kind, length, [np.random.default_rng(seed)])[0]


class TestArtifacts:
    @pytest.mark.parametrize("kind", ["emg", "eog"])
    def test_unit_rms(self, kind):
        x = _artifact(kind, 4096, 3)
        assert abs(np.sqrt(np.mean(x ** 2)) - 1.0) < 1e-9

    def test_eog_is_low_frequency(self):
        x = _artifact("eog", 8192, 4)
        f, p = welch(x, fs=128.0, nperseg=2048)
        below = np.trapezoid(p[f < 4.0], f[f < 4.0])
        total = np.trapezoid(p, f)
        assert below / total > 0.90

    def test_emg_is_broadband_high(self):
        x = _artifact("emg", 8192, 5)
        f, p = welch(x, fs=128.0, nperseg=2048)
        inband = np.trapezoid(p[(f >= 20.0) & (f <= 45.0)], f[(f >= 20.0) & (f <= 45.0)])
        total = np.trapezoid(p, f)
        assert inband / total > 0.80

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            _artifact("ecg", 128, 0)

    @pytest.mark.parametrize("kind", ["emg", "eog"])
    @pytest.mark.parametrize("length", [3, 128, 1344])
    def test_generator_list_rows_equal_single_generator_calls(self, kind, length):
        rows = synth_artifact(kind, length, [np.random.default_rng(s) for s in (7, 8, 9)])
        assert rows.shape == (3, length)
        singles = [_artifact(kind, length, s) for s in (7, 8, 9)]
        for row, single in zip(rows, singles):
            assert row.tobytes() == single.tobytes()

    @pytest.mark.parametrize("kind", ["emg", "eog"])
    def test_rows_are_one_block_per_generator(self, kind):
        rows = synth_artifact(kind, 256, [np.random.default_rng(s) for s in (3, 4)], rows=3)
        assert rows.shape == (6, 256)
        for k, s in enumerate((3, 4)):
            block = synth_artifact(kind, 256, [np.random.default_rng(s)], rows=3)
            assert rows[3 * k:3 * k + 3].tobytes() == block.tobytes()
        assert len({r.tobytes() for r in rows}) == 6

    def test_eog_draws_levels_then_blink_uniforms(self):
        # 1344 samples at 128 Hz: 90-sample holds, 16 levels and 3 blinks a row
        g = np.random.default_rng(5)
        levels, u = g.standard_normal((2, 16)), g.random((2, 3, 3))
        x = synth_artifact("eog", 1344, [np.random.default_rng(5)], rows=2)
        f = np.fft.rfftfreq(1344, 1.0 / 128.0)
        t = np.arange(1344) / 128.0
        for r in range(2):
            raw = np.repeat(levels[r], 90)[:1344]
            for center, width, amp in u[r] * [10.5, 0.07, 2.0] + [0.0, 0.08, 1.0]:
                raw = raw + amp * np.exp(-0.5 * ((t - center) / width) ** 2)
            want = np.fft.irfft(np.fft.rfft(raw) * (f < 3.5), 1344)
            np.testing.assert_allclose(x[r], want / np.sqrt(np.mean(want**2)), rtol=0, atol=1e-12)

    def test_zero_rms_error_names_kind(self):
        class Silent(np.random.Generator):
            def standard_normal(self, size=None, *args, **kwargs):
                return np.zeros(size)

        for rngs in ([Silent(np.random.PCG64(0))],
                     [np.random.default_rng(1), Silent(np.random.PCG64(0))]):
            with pytest.raises(DegenerateDataError, match="emg"):
                synth_artifact("emg", 128, rngs)

    def test_empty_band_error_names_kind(self):
        # two samples at 128 Hz hold only the 0 and 64 Hz bins
        for n in (1, 2):
            with pytest.raises(DegenerateDataError, match="emg"):
                synth_artifact("emg", 2, [np.random.default_rng(s) for s in range(n)])

    @pytest.mark.parametrize("fs", [40.0, 41.0, 90.0, 128.0, 129.0, 256.0, 1000.0])
    def test_min_artifact_length_is_the_shortest_that_shapes(self, fs):
        n = min_artifact_length(fs)
        for kind in ("emg", "eog"):
            assert synth_artifact(kind, n, [np.random.default_rng(0)], fs).shape == (1, n)
        for length in range(1, n):
            with pytest.raises(DegenerateDataError, match="emg"):
                synth_artifact("emg", length, [np.random.default_rng(0)], fs)

    @pytest.mark.parametrize("fs", [39.0, 0.0, -128.0, np.nan, np.inf])
    def test_min_artifact_length_rejects_rates_no_length_serves(self, fs):
        with pytest.raises(ConfigError):
            min_artifact_length(fs)

    def test_determinism(self):
        np.testing.assert_array_equal(_artifact("emg", 512, 12), _artifact("emg", 512, 12))
        assert not np.array_equal(_artifact("emg", 512, 12), _artifact("emg", 512, 13))


class TestSegmentation:
    def test_three_windows_at_256(self):
        trial = np.arange(2 * 256, dtype=float).reshape(2, 256)
        wins = segment_windows(trial, window=128, overlap=0.5)
        assert len(wins) == 3
        for k, off in enumerate((0, 64, 128)):
            np.testing.assert_array_equal(wins[k], trial[:, off : off + 128])

    def test_single_window(self):
        wins = segment_windows(np.zeros((3, 128)), 128, 0.5)
        assert len(wins) == 1

    def test_count_at_1000(self):
        wins = segment_windows(np.zeros((1, 1000)), 128, 0.5)
        assert len(wins) == (1000 - 128) // 64 + 1 == 14

    def test_too_short(self):
        with pytest.raises(DimensionError):
            segment_windows(np.zeros((2, 100)), 128, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(128, 2048))
    def test_count_matches_enumeration(self, t_trial):
        wins = segment_windows(np.zeros((1, t_trial)), 128, 0.5)
        count = 0
        off = 0
        while off + 128 <= t_trial:
            count += 1
            off += 64
        assert len(wins) == count
