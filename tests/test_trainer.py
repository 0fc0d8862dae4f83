"""Curriculum schedule, the training loop, and the SNR-sweep evaluator."""

import csv
import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcnet import noise, trainer
from fdcnet.cli import parse_snr_grid
from fdcnet.dataset import build_dataset, derive_seed, split_indices
from fdcnet.errors import ConfigError, DegenerateDataError
from fdcnet.model import FdcNet, ModelConfig
from fdcnet.noise import NoiseSpec, draw_artifacts, inject_noise
from fdcnet.synth import SynthSpec
from fdcnet.trainer import (
    EvalRow,
    LogRow,
    TrainConfig,
    _reinject,
    curriculum_snr,
    desk_preset,
    evaluate,
    train,
    write_eval_csv,
    write_log_csv,
)


def tiny_segments(n_subjects=2, trials=3, channels=2, seed=0):
    spec = SynthSpec(
        n_subjects=n_subjects,
        trials_per_subject=trials,
        n_channels=channels,
        trial_length_s=2.0,
        seed=seed,
    )
    return build_dataset(spec, target_snr_db=0.0, gaussian_sigma=0.01, emg_eog_ratio=1.0,
                         window=128, overlap=0.5)


# a two-channel model small enough to train in a test
TINY_MODEL = ModelConfig(n_channels=2, d_model=8, n_layers=1, n_heads=2, ff_dim=16,
                         head_hidden=8, gate_reduction=2, kernel_size=5)


def tiny_cfg(**kw):
    base = dict(epochs=2, batch_size=8, seed=0, model=TINY_MODEL)
    base.update(kw)
    return TrainConfig(**base)


class TestCurriculum:
    def test_endpoints_exact(self):
        cfg = TrainConfig()
        assert curriculum_snr(0, 20, cfg) == 3.0
        assert curriculum_snr(19, 20, cfg) == -3.0

    def test_monotone_non_increasing(self):
        cfg = TrainConfig()
        vals = [curriculum_snr(e, 20, cfg) for e in range(20)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_single_epoch_uses_start(self):
        assert curriculum_snr(0, 1, TrainConfig(snr_start=2.5)) == 2.5

    def test_midpoint_linear(self):
        cfg = TrainConfig(snr_start=3.0, snr_end=-3.0)
        assert curriculum_snr(5, 11, cfg) == pytest.approx(0.0, abs=1e-12)

    @given(
        total=st.integers(min_value=2, max_value=200),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_values_bracketed_by_endpoints(self, total, data):
        epoch = data.draw(st.integers(min_value=0, max_value=total - 1))
        cfg = TrainConfig(snr_start=4.0, snr_end=-6.0)
        v = curriculum_snr(epoch, total, cfg)
        assert cfg.snr_end - 1e-12 <= v <= cfg.snr_start + 1e-12


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(epochs=0),
            dict(batch_size=0),
            dict(lr=-0.1),
            dict(snr_start=-3.0, snr_end=3.0),
            dict(split=0.0),
            dict(split=1.0),
            dict(alpha=1.5),
            dict(snr_start=7000.0),
            dict(snr_end=-7000.0),
            dict(snr_start=float("nan")),
            dict(lr=float("inf")),
            dict(lr=float("nan")),
            dict(weight_decay=float("nan")),
            dict(weight_decay=float("inf")),
            dict(weight_decay=-0.01),
            dict(alpha=-0.1),
            dict(noise=NoiseSpec(gaussian_sigma=-1.0)),
            dict(noise=NoiseSpec(gaussian_sigma=float("nan"))),
            dict(noise=NoiseSpec(emg_eog_ratio=0.0)),
            dict(noise=NoiseSpec(sample_rate_hz=0.0)),
        ],
    )
    def test_validate_rejects(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw).validate()

    def test_desk_preset_shrinks_model(self):
        cfg = desk_preset()
        assert cfg.model == replace(ModelConfig(), d_model=32, n_layers=1, n_heads=4, ff_dim=64)
        assert replace(desk_preset(), epochs=3).epochs == 3

    def test_model_config_propagates_ablations(self):
        # the model takes the config's ablations and the dataset's channel count
        segs = tiny_segments()
        for ablation in ("no_feedback", "no_cross", "no_eegsp"):
            mc = replace(TINY_MODEL, n_channels=32).with_ablations(**{ablation: True})
            model, _ = train(segs, tiny_cfg(epochs=1, model=mc))
            assert model.cfg == replace(mc, n_channels=2)
            assert model.cfg.feedback == (ablation == "no_eegsp")
            assert model.cfg.cross == (ablation != "no_cross")
            assert model.cfg.eegsp == (ablation != "no_eegsp")


class TestTrainLoop:
    def test_smoke_run_shapes_and_log(self, tmp_path):
        segs = tiny_segments()
        path = tmp_path / "m.fdcn"
        model, log = train(segs, tiny_cfg())
        model.save(path)
        assert path.exists()
        assert len(log) == 2
        assert [r.epoch for r in log] == [0, 1]
        cfg = tiny_cfg()
        for r in log:
            assert r.snr_db == curriculum_snr(r.epoch, cfg.epochs, cfg)
            assert np.isfinite([r.loss_total, r.loss_mse, r.loss_cls]).all()
            assert 0.0 <= r.val_acc <= 1.0
            assert -1.0 <= r.val_cc <= 1.0
        # joint objective composes the two parts with the mixing weight
        for r in log:
            assert r.loss_total == pytest.approx(
                cfg.alpha * r.loss_mse + (1 - cfg.alpha) * r.loss_cls, rel=1e-9
            )

    def test_bit_reproducible(self, tmp_path):
        segs = tiny_segments()
        p1, p2 = tmp_path / "a.fdcn", tmp_path / "b.fdcn"
        m1, log1 = train(segs, tiny_cfg())
        m2, log2 = train(segs, tiny_cfg())
        m1.save(p1)
        m2.save(p2)
        assert log1 == log2
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_trajectory(self):
        segs = tiny_segments()
        _, log1 = train(segs, tiny_cfg(seed=0))
        _, log2 = train(segs, tiny_cfg(seed=1))
        assert log1[-1].loss_total != log2[-1].loss_total

    def test_empty_dataset_rejected(self):
        with pytest.raises(DegenerateDataError):
            train([], tiny_cfg())

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            train(tiny_segments(), tiny_cfg(epochs=0))


class TestEvaluate:
    def test_identity_model_keeps_input_snr(self):
        segs = tiny_segments()[:24]
        model = FdcNet(TINY_MODEL, seed=0)
        report = evaluate(model, segs, [-3.0, 0.0, 3.0], eval_seed=7)
        assert report.grid == [-3.0, 0.0, 3.0]
        for target, row in zip(report.grid, report.rows):
            # a fresh model returns its float32 input exactly: each sample is
            # the noisy one rounded to float32 (2**-24 relative), which moves
            # the SNR by far less than 1e-5 dB
            assert row.output_snr_db == pytest.approx(row.input_snr_db, abs=1e-5)
            assert row.input_snr_db == pytest.approx(target, abs=0.2)
            assert row.mse > 0.0
            assert 0.0 <= row.acc_4class <= 1.0

    def test_average_row_is_mean(self):
        segs = tiny_segments()[:16]
        model = FdcNet(TINY_MODEL, seed=0)
        report = evaluate(model, segs, [-2.0, 2.0], eval_seed=3)
        for field in ("input_snr_db", "output_snr_db", "cc_percent", "mse", "acc_4class"):
            vals = [getattr(r, field) for r in report.rows]
            assert getattr(report.average, field) == pytest.approx(np.mean(vals), rel=1e-12)

    def test_eval_seed_fixed_noise(self):
        segs = tiny_segments()[:8]
        model = FdcNet(TINY_MODEL, seed=0)
        a = evaluate(model, segs, [0.0], eval_seed=5)
        b = evaluate(model, segs, [0.0], eval_seed=5)
        assert a.rows == b.rows
        c = evaluate(model, segs, [0.0], eval_seed=6)
        assert a.rows[0].output_snr_db != c.rows[0].output_snr_db

    def test_rejects_empty(self):
        model = FdcNet(TINY_MODEL, seed=0)
        with pytest.raises(DegenerateDataError):
            evaluate(model, [], [0.0])

    @pytest.mark.parametrize("grid", [[], [0.0, float("nan")], [1.0, float("inf")], [-301.0], [0.0, 400.0]])
    def test_grid_checked_before_any_work(self, monkeypatch, grid):
        def no_work(*args, **kwargs):
            raise AssertionError("evaluate worked on a bad grid")

        monkeypatch.setattr(FdcNet, "forward", no_work)
        monkeypatch.setattr(trainer, "draw_artifacts", no_work)
        with pytest.raises(ConfigError, match="SNR grid"):
            evaluate(FdcNet(TINY_MODEL, seed=0), tiny_segments()[:4], grid)

    def test_each_level_mixes_the_bytes_of_inject_noise(self, monkeypatch):
        segs = tiny_segments()[:10]
        spec = NoiseSpec(gaussian_sigma=0.02)
        mixed, inject = [], trainer.inject_noise

        def recording(clean, spec, snr_db, seed, ids, **kwargs):
            noisy = inject(clean, spec, snr_db, seed, ids, **kwargs)
            mixed.append((clean, snr_db, seed, ids, noisy))
            return noisy

        monkeypatch.setattr(trainer, "inject_noise", recording)
        monkeypatch.setattr(trainer, "EVAL_BATCH_SIZE", 4)
        evaluate(FdcNet(TINY_MODEL, seed=0), segs, [-2.0, 0.5, 3.0], eval_seed=9, noise=spec)
        assert len(mixed) == 3 * 3
        for clean, snr_db, seed, ids, (noisy, achieved) in mixed:
            assert seed == derive_seed(9, "eval-noise")
            assert clean.tobytes() == segs.clean[ids].tobytes()
            want, want_snr = inject_noise(segs.clean[ids], spec, snr_db, derive_seed(9, "eval-noise"), ids)
            assert noisy.tobytes() == want.tobytes()
            assert achieved.tobytes() == want_snr.tobytes()

    def test_level_row_does_not_depend_on_the_grid(self):
        segs = tiny_segments()[:12]
        model = FdcNet(TINY_MODEL, seed=0)
        grid = parse_snr_grid("-3:3:1")
        sweep = evaluate(model, segs, grid, eval_seed=4)
        for level in (-3.0, 1.0, 3.0):
            alone = evaluate(model, segs, [level], eval_seed=4)
            assert alone.rows == [sweep.rows[grid.index(level)]]

    @pytest.mark.parametrize("grid", [[0.0], parse_snr_grid("-3:3:1")])
    def test_sweep_draws_each_segment_once_a_batch_at_a_time(self, monkeypatch, grid):
        segs = tiny_segments()[:11]
        events, inject = [], trainer.inject_noise

        def recording_draw(spec, shape, seed, ids=None):
            events.append(("draw", [int(i) for i in ids]))
            return draw_artifacts(spec, shape, seed, ids)

        def recording_inject(clean, spec, snr_db, seed, ids, **kwargs):
            events.append(("mix", [int(i) for i in ids]))
            return inject(clean, spec, snr_db, seed, ids, **kwargs)

        monkeypatch.setattr(trainer, "draw_artifacts", recording_draw)
        monkeypatch.setattr(trainer, "inject_noise", recording_inject)
        monkeypatch.setattr(trainer, "EVAL_BATCH_SIZE", 4)
        evaluate(FdcNet(TINY_MODEL, seed=0), segs, grid)
        batches = [list(range(lo, min(lo + 4, 11))) for lo in range(0, 11, 4)]
        # each batch draws once, then every level mixes that batch
        assert events == [e for ids in batches for e in [("draw", ids)] + [("mix", ids)] * len(grid)]


class TestReinject:
    def test_segment_i_draws_from_stream_keyed_by_call_and_index(self):
        segs = tiny_segments()
        spec = NoiseSpec(gaussian_sigma=0.02)
        got = _reinject(segs, [5, 0, 11], -1.0, spec, "train-noise", 3, seed=4)
        for k, i in enumerate([5, 0, 11]):
            want, _ = inject_noise(segs.clean[i : i + 1], spec, -1.0, derive_seed(4, "train-noise", 3), [i])
            assert got[k].tobytes() == want[0].tobytes()

    def test_subset_and_order_keep_each_segments_bytes(self):
        segs = tiny_segments()
        spec = NoiseSpec()
        full = _reinject(segs, range(len(segs)), 2.0, spec, "train-noise", 1, seed=0)
        pick = np.array([9, 2, 14, 3])
        part = _reinject(segs, pick, 2.0, spec, "train-noise", 1, seed=0)
        assert part.tobytes() == full[pick].tobytes()
        other = _reinject(segs, pick, 2.0, spec, "train-noise", 2, seed=0)
        assert not np.array_equal(other, part)

    def test_label_is_the_fifth_parameter(self):
        # perfbench/tracing.py reads each call's label as its fifth positional
        # argument to tell training noise from validation noise; a label moved
        # elsewhere zeroes the traced trainer phase times without an error
        label = list(inspect.signature(_reinject).parameters.values())[4]
        assert label.name == "label" and label.kind is label.POSITIONAL_OR_KEYWORD

    def test_callers_inject_one_batch_at_a_time(self, monkeypatch):
        segs = tiny_segments()
        calls = []

        def recording(spec, c, t, seed, ids):
            calls.append((seed, [int(i) for i in ids]))
            return draw(spec, c, t, seed, ids)

        # every draw runs the one core: training's inside inject_noise,
        # validation's and eval's through draw_artifacts in the sweep
        draw = noise._draw
        monkeypatch.setattr(noise, "_draw", recording)
        monkeypatch.setattr(trainer, "EVAL_BATCH_SIZE", 4)
        model, _ = train(segs, tiny_cfg(batch_size=3))
        evaluate(model, segs, [0.0, 1.0])
        train_idx, test_idx = split_indices(len(segs), 0.8, 0)
        sets = {derive_seed(0, "eval-noise"): np.arange(len(segs))}
        for epoch in range(2):
            sets[derive_seed(0, "train-noise", epoch)] = train_idx
            sets[derive_seed(0, "val-noise", epoch)] = test_idx
        assert {seed for seed, _ in calls} == set(sets)
        eval_seed = derive_seed(0, "eval-noise")
        assert max(len(ids) for seed, ids in calls if seed != eval_seed) <= 3
        assert max(len(ids) for seed, ids in calls if seed == eval_seed) <= 4
        # each stream key still draws every segment of its set exactly once,
        # the eval key once for the whole grid
        for key, want in sets.items():
            got = [i for seed, ids in calls if seed == key for i in ids]
            assert sorted(got) == sorted(want.tolist())


class TestBatches:
    def test_forward_and_noise_get_contiguous_aligned_copies(self, monkeypatch):
        from fdcnet import trainer
        from fdcnet.model import FdcNet

        segs = tiny_segments()
        seen = []
        forward, inject = FdcNet.forward, trainer.inject_noise

        def recording_forward(self, x, *args, **kwargs):
            seen.append(x)
            return forward(self, x, *args, **kwargs)

        def recording_inject(clean, *args, **kwargs):
            seen.append(clean)
            return inject(clean, *args, **kwargs)

        monkeypatch.setattr(FdcNet, "forward", recording_forward)
        monkeypatch.setattr(trainer, "inject_noise", recording_inject)
        monkeypatch.setattr(trainer, "EVAL_BATCH_SIZE", 4)
        model, _ = train(segs, tiny_cfg(batch_size=3))
        evaluate(model, segs, [0.0])
        assert len(seen) > 10
        for x in seen:
            assert x.flags.c_contiguous and x.flags.aligned and x.flags.owndata
            assert not np.shares_memory(x, segs)

    def test_forward_gets_float32_and_noise_float64(self, monkeypatch):
        segs = tiny_segments()
        dtypes = {"forward": set(), "noise": set()}
        forward, inject = FdcNet.forward, trainer.inject_noise

        def recording_forward(self, x, *args, **kwargs):
            dtypes["forward"].add(x.dtype)
            return forward(self, x, *args, **kwargs)

        def recording_inject(clean, *args, **kwargs):
            noisy = inject(clean, *args, **kwargs)
            dtypes["noise"].update((clean.dtype, noisy[0].dtype))
            return noisy

        monkeypatch.setattr(FdcNet, "forward", recording_forward)
        monkeypatch.setattr(trainer, "inject_noise", recording_inject)
        model, _ = train(segs, tiny_cfg(batch_size=3))
        evaluate(model, segs, [0.0])
        assert dtypes == {"forward": {np.dtype(np.float32)}, "noise": {np.dtype(np.float64)}}
        assert all(p.data.dtype == np.float64 for p in model.named_parameters().values())


class TestCsvRoundTrips:
    def test_log_csv(self, tmp_path):
        rows = [
            LogRow(0, 3.0, 1.25, 0.5, 2.375, 0.625, 0.875),
            LogRow(1, 2.0, 1.0, 0.375, 1.9375, 0.75, 0.9375),
        ]
        path = tmp_path / "log.csv"
        write_log_csv(path, rows)
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["epoch", "snr_db", "loss_total", "loss_mse", "loss_cls", "val_acc", "val_cc"]
        assert len(got) == 3
        assert int(got[1][0]) == 0
        assert float(got[1][2]) == 1.25
        assert float(got[2][6]) == 0.9375

    def test_eval_csv(self, tmp_path):
        from fdcnet.trainer import EvalReport

        rows = [
            EvalRow(-3.0, 1.0, 80.0, 0.5, 0.625),
            EvalRow(3.0, 5.0, 90.0, 0.25, 0.75),
        ]
        avg = EvalRow(0.0, 3.0, 85.0, 0.375, 0.6875)
        report = EvalReport(grid=[-3.0, 3.0], rows=rows, average=avg)
        path = tmp_path / "eval.csv"
        write_eval_csv(path, report)
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0][0] == "target_snr_db"
        assert len(got) == 4  # header + 2 rows + average
        assert got[-1][0] == "average"
        assert float(got[1][2]) == 1.0
