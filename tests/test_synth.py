"""Synthetic EEG and artifact generation: spectra, labels, segmentation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import welch

from fdcnet.errors import ConfigError, DegenerateDataError, DimensionError
from fdcnet.synth import (
    BANDS,
    DEFAULT_BAND_POWERS,
    SynthSpec,
    segment_windows,
    synth_artifact,
    synth_clean_eeg,
)


def band_power(x: np.ndarray, lo: float, hi: float, fs: float = 128.0) -> float:
    """Welch-estimated power in [lo, hi) Hz, averaged over channels."""
    f, p = welch(x, fs=fs, nperseg=min(256, x.shape[-1]), axis=-1)
    mask = (f >= lo) & (f < hi)
    return float(np.trapezoid(p[..., mask], f[mask], axis=-1).mean())


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
        for name, share in DEFAULT_BAND_POWERS.items():
            got = band_power(stack, *BANDS[name]) / total
            assert got > 0.4 * share, f"{name}: {got:.3f} vs configured {share}"

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            SynthSpec(n_subjects=0).validate()
        with pytest.raises(ConfigError):
            SynthSpec(trial_length_s=0.25).validate()  # shorter than one window


class TestArtifacts:
    @pytest.mark.parametrize("kind", ["emg", "eog"])
    def test_unit_rms(self, kind):
        x = synth_artifact(kind, 4096, seed=3)
        assert abs(np.sqrt(np.mean(x ** 2)) - 1.0) < 1e-9

    def test_eog_is_low_frequency(self):
        x = synth_artifact("eog", 8192, seed=4)
        f, p = welch(x, fs=128.0, nperseg=2048)
        below = np.trapezoid(p[f < 4.0], f[f < 4.0])
        total = np.trapezoid(p, f)
        assert below / total > 0.90

    def test_emg_is_broadband_high(self):
        x = synth_artifact("emg", 8192, seed=5)
        f, p = welch(x, fs=128.0, nperseg=2048)
        inband = np.trapezoid(p[(f >= 20.0) & (f <= 45.0)], f[(f >= 20.0) & (f <= 45.0)])
        total = np.trapezoid(p, f)
        assert inband / total > 0.80

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            synth_artifact("ecg", 128, seed=0)

    @pytest.mark.parametrize("kind", ["emg", "eog"])
    @pytest.mark.parametrize("length", [3, 128, 1344])
    def test_seed_list_rows_equal_single_seed_calls(self, kind, length):
        seeds = [7, np.random.SeedSequence(8), np.random.default_rng(9)]
        rows = synth_artifact(kind, length, seeds)
        assert rows.shape == (3, length)
        singles = [synth_artifact(kind, length, s) for s in (7, np.random.SeedSequence(8),
                                                           np.random.default_rng(9))]
        for row, single in zip(rows, singles):
            assert row.tobytes() == single.tobytes()

    def test_zero_rms_error_names_kind(self):
        class Silent(np.random.Generator):
            def standard_normal(self, size=None, *args, **kwargs):
                return np.zeros(size)

        for seed in (Silent(np.random.PCG64(0)), [1, Silent(np.random.PCG64(0))]):
            with pytest.raises(DegenerateDataError, match="emg"):
                synth_artifact("emg", 128, seed)

    def test_empty_band_error_names_kind(self):
        # two samples at 128 Hz hold only the 0 and 64 Hz bins
        for seed in (0, [0, 1]):
            with pytest.raises(DegenerateDataError, match="emg"):
                synth_artifact("emg", 2, seed)

    def test_determinism(self):
        np.testing.assert_array_equal(
            synth_artifact("emg", 512, seed=12), synth_artifact("emg", 512, seed=12)
        )
        assert not np.array_equal(
            synth_artifact("emg", 512, seed=12), synth_artifact("emg", 512, seed=13)
        )


class TestSegmentation:
    def test_three_windows_at_256(self):
        trial = np.arange(2 * 256, dtype=float).reshape(2, 256)
        wins = segment_windows(trial, window=128, overlap=0.5)
        assert len(wins) == 3
        for k, off in enumerate((0, 64, 128)):
            np.testing.assert_array_equal(wins[k], trial[:, off : off + 128])

    def test_single_window(self):
        wins = segment_windows(np.zeros((3, 128)))
        assert len(wins) == 1

    def test_count_at_1000(self):
        wins = segment_windows(np.zeros((1, 1000)))
        assert len(wins) == (1000 - 128) // 64 + 1 == 14

    def test_too_short(self):
        with pytest.raises(DimensionError):
            segment_windows(np.zeros((2, 100)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(128, 2048))
    def test_count_matches_enumeration(self, t_trial):
        wins = segment_windows(np.zeros((1, t_trial)))
        count = 0
        off = 0
        while off + 128 <= t_trial:
            count += 1
            off += 64
        assert len(wins) == count
