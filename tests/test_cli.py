"""Command-line surface: parsing, exit codes, config round trips, pipeline."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fdcnet.cli import main, parse_snr_grid
from fdcnet.errors import ConfigError
from fdcnet.trainer import desk_preset

SRC = str(Path(__file__).resolve().parents[1] / "src")
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS")


class TestSnrGrid:
    def test_range(self):
        assert parse_snr_grid("-3:3:1") == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]

    def test_descending(self):
        assert parse_snr_grid("3:-3:-3") == [3.0, 0.0, -3.0]

    def test_single_value(self):
        assert parse_snr_grid("0") == [0.0]
        assert parse_snr_grid("-2.5") == [-2.5]

    def test_endpoint_overshoot_trimmed(self):
        grid = parse_snr_grid("0:1:0.4")
        assert grid == pytest.approx([0.0, 0.4, 0.8])

    def test_zero_step(self):
        with pytest.raises(ConfigError):
            parse_snr_grid("0:3:0")

    def test_step_against_direction(self):
        with pytest.raises(ConfigError):
            parse_snr_grid("3:-3:1")

    def test_garbage(self):
        with pytest.raises(ConfigError):
            parse_snr_grid("a:b:c")
        with pytest.raises(ConfigError):
            parse_snr_grid("1:2:3:4")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "nan:3:1", "-inf:3:1",
                                      "-3:inf:1", "-3:3:nan"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ConfigError, match="finite"):
            parse_snr_grid(text)

    @pytest.mark.parametrize("text", ["7000", "-7000", "0:301:1", "-301:0:1"])
    def test_levels_beyond_300_db_rejected(self, text):
        with pytest.raises(ConfigError, match="300"):
            parse_snr_grid(text)

    def test_large_step_is_not_a_level(self):
        assert parse_snr_grid("-3:3:7000") == [-3.0]


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_suggests(self, capsys):
        code = main(["train", "--epochz", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--epochs" in err

    def test_prefix_abbreviation_accepted(self, tmp_path):
        # argparse prefix matching: --subj resolves to --subjects
        out = tmp_path / "d.fdcd"
        code = main(["synth", "--subj", "1", "--trials", "1", "--channels", "2",
                     "--trial-seconds", "1", "--out", str(out)])
        assert code == 0

    def test_missing_required_flags(self, capsys):
        assert main(["train"]) == 1
        err = capsys.readouterr().err
        assert "--data" in err and "--out-dir" in err

    def test_missing_input_file_is_runtime_error(self, tmp_path, capsys):
        code = main(
            ["train", "--data", str(tmp_path / "nope.fdcd"), "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_bad_config_value(self, tmp_path, capsys):
        data = tmp_path / "d.fdcd"
        assert (
            main(
                ["synth", "--subjects", "1", "--trials", "1", "--channels", "2",
                 "--trial-seconds", "1", "--out", str(data)]
            )
            == 0
        )
        code = main(
            ["train", "--data", str(data), "--out-dir", str(tmp_path / "run"),
             "--epochs", "0"]
        )
        assert code == 2
        assert "epochs" in capsys.readouterr().err


class TestConfigValueTypes:
    """--config values take the same type and choice checks as their flags."""

    @pytest.mark.parametrize("command, line, flags", [
        ("train", "epochs = 2.5", ["--data", "d.fdcd", "--out-dir", "run"]),
        ("train", "batch_size = true", ["--data", "d.fdcd", "--out-dir", "run"]),
        ("train", "lr = fast", ["--data", "d.fdcd", "--out-dir", "run"]),
        ("train", "desk = 1", ["--data", "d.fdcd", "--out-dir", "run"]),
        ("synth", "channels = 2.5", ["--out", "run/d.fdcd"]),
        ("eval", "use = bogus", ["--model", "m.fdcn", "--data", "d.fdcd", "--out", "run/e.csv"]),
    ])
    def test_bad_value_is_usage_error_naming_key(self, tmp_path, capsys, command, line, flags):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"[{command}]\n{line}\n")
        flags = [f if f.startswith("--") else str(tmp_path / f) for f in flags]
        assert main([command, "--config", str(cfg), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert f"[{command}] {line.split()[0]}" in err
        assert not (tmp_path / "run").exists()

    def test_values_take_the_flag_type(self, tmp_path):
        from fdcnet.configfile import read_config

        cfg = tmp_path / "c.txt"
        cfg.write_text("[synth]\nsubjects = 1\ntrials = 1\nchannels = 2\n"
                       "trial_seconds = 1\nsnr = 2\n")
        out = tmp_path / "d.fdcd"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        written = read_config(tmp_path / "run_config.txt")["synth"]
        assert written["snr"] == 2.0 and isinstance(written["snr"], float)
        assert written["trial_seconds"] == 1.0 and isinstance(written["trial_seconds"], float)


class TestSynthRejectsNonFinite:
    @pytest.mark.parametrize("flag, value", [
        ("--sample-rate", "nan"), ("--trial-seconds", "inf"), ("--snr", "nan"),
        ("--sigma", "nan"), ("--ratio", "inf"),
    ])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out" / "data.fdcd"
        code = main(
            ["synth", "--subjects", "1", "--trials", "1", "--channels", "2",
             "--trial-seconds", "1", flag, value, "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []


class TestLargeSnrRejected:
    @pytest.mark.parametrize("value", ["7000", "-7000"])
    def test_synth_exits_2_and_writes_nothing(self, tmp_path, capsys, value):
        out = tmp_path / "out" / "data.fdcd"
        code = main(
            ["synth", "--subjects", "1", "--trials", "1", "--channels", "2",
             "--trial-seconds", "1", f"--snr={value}", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_eval_exits_2_and_writes_nothing(self, pipeline, tmp_path, capsys):
        _, data, run = pipeline
        code = main(["eval", "--model", str(run / "model.fdcn"), "--data", str(data),
                     "--snr-grid", "7000", "--out", str(tmp_path / "out" / "e.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []


class TestCorruptTextInputs:
    @pytest.mark.parametrize("content", [b"\xff\xfe", b"[train]\nlr = nan\n"])
    def test_train_config_exits_2_and_writes_nothing(self, tmp_path, capsys, content):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(content)
        code = main(["train", "--config", str(cfg), "--data", str(tmp_path / "d.fdcd"),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.cfg" in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("corrupt", ["bytes", "nan"])
    def test_report_exits_2_and_writes_nothing(self, tmp_path, capsys, corrupt):
        from fdcnet.trainer import EvalReport, EvalRow, write_eval_csv

        csv_path = tmp_path / "e.csv"
        if corrupt == "bytes":
            csv_path.write_bytes(b"\xff\xfe")
        else:
            row = EvalRow(0.0, 1.0, 80.0, 0.5, float("nan"))
            write_eval_csv(csv_path, EvalReport(grid=[0.0], rows=[row], average=row))
        code = main(["report", "--out-dir", str(tmp_path / "report"), str(csv_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "e.csv" in err
        assert list(tmp_path.iterdir()) == [csv_path]


class TestSizesRejected:
    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("sizes") / "d.fdcd"
        assert main(["synth", "--subjects", "2", "--trials", "2", "--channels", "8",
                     "--trial-seconds", "2", "--out", str(data)]) == 0
        return data

    @pytest.mark.parametrize("flag", [
        "--n-heads=0", "--gate-reduction=0", "--d-model=0", "--kernel-size=0", "--ff-dim=0",
        "--head-hidden=0", "--n-heads=-4", "--d-model=-4", "--ff-dim=-1", "--head-hidden=-1",
        "--kernel-size=-1", "--n-layers=-1", "--kernel-size=4", "--lr=inf",
        "--weight-decay=nan", "--weight-decay=-0.1",
    ])
    def test_train_exits_2_and_writes_no_model(self, corpus, tmp_path, capsys, flag):
        run = tmp_path / "run"
        code = main(["train", "--desk", "--epochs", "1", "--data", str(corpus),
                     "--out-dir", str(run), flag])
        assert code == 2
        # the message names the field, before any training step runs
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag[2:].split("=")[0].replace("-", "_") in err
        assert not (run / "model.fdcn").exists()

    def test_eval_of_zero_heads_config_exits_2(self, pipeline, tmp_path, capsys):
        _, data, run = pipeline
        cfg = tmp_path / "m.cfg"
        text = (run / "model.cfg").read_text()
        assert "n_heads = 2\n" in text
        cfg.write_text(text.replace("n_heads = 2\n", "n_heads = 0\n"))
        out = tmp_path / "eval.csv"
        code = main(["eval", "--model", str(run / "model.fdcn"), "--model-config", str(cfg),
                     "--data", str(data), "--snr-grid", "0", "--out", str(out)])
        assert code == 2
        assert "n_heads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_denoise_batch_size_below_1_exits_2_and_writes_nothing(self, pipeline, tmp_path,
                                                                    capsys, size):
        _, data, run = pipeline
        code = main(["denoise", "--model", str(run / "model.fdcn"), "--data", str(data),
                     f"--batch-size={size}", "--out", str(tmp_path / "out" / "d.fdcd")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "batch_size" in err
        assert list(tmp_path.iterdir()) == []


def test_synth_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 200 s trials make each channel's sinusoid product (160, 88) @ (88, 160),
    # large enough that OpenBLAS splits it across two threads
    outputs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
        env["FDCNET_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}.fdcd"
        subprocess.run(
            [sys.executable, "-m", "fdcnet.cli", "synth", "--subjects", "1", "--trials", "1",
             "--channels", "2", "--trial-seconds", "200", "--seed", "5", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_import_leaves_out_xml_and_urllib():
    # xml.sax.saxutils pulls urllib.request, http.client and email into every start
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    probe = "import sys, fdcnet.cli; print(sorted(m for m in ('xml.sax', 'urllib.request') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny synth+train run shared by the pipeline assertions."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.fdcd"
    run = root / "run"
    assert (
        main(
            ["synth", "--subjects", "2", "--trials", "2", "--channels", "2",
             "--trial-seconds", "2", "--seed", "3", "--out", str(data)]
        )
        == 0
    )
    assert (
        main(
            ["train", "--data", str(data), "--out-dir", str(run),
             "--epochs", "2", "--batch-size", "8", "--d-model", "8",
             "--n-layers", "1", "--n-heads", "2", "--ff-dim", "16",
             "--head-hidden", "8", "--gate-reduction", "2", "--kernel-size", "5"]
        )
        == 0
    )
    return root, data, run


class TestPipeline:
    def test_train_outputs(self, pipeline):
        _, _, run = pipeline
        assert (run / "model.fdcn").exists()
        assert (run / "model.cfg").exists()
        assert (run / "training_log.csv").exists()
        assert (run / "run_config.txt").exists()

    def test_eval_and_report(self, pipeline):
        root, data, run = pipeline
        out_csv = root / "eval.csv"
        code = main(
            ["eval", "--model", str(run / "model.fdcn"), "--data", str(data),
             "--snr-grid", "-3:3:3", "--use", "test", "--out", str(out_csv)]
        )
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("target_snr_db,")
        assert len(lines) == 5  # header + 3 grid rows + average
        report_dir = root / "report"
        assert main(["report", str(out_csv), "--out-dir", str(report_dir)]) == 0
        assert (report_dir / "summary.txt").exists()
        svgs = list(report_dir.glob("*.svg"))
        assert svgs

    def test_denoise_round_trip(self, pipeline):
        from fdcnet.dataset import load_dataset

        root, data, run = pipeline
        out = root / "denoised.fdcd"
        code = main(
            ["denoise", "--model", str(run / "model.fdcn"), "--data", str(data),
             "--out", str(out)]
        )
        assert code == 0
        orig = load_dataset(data)
        den = load_dataset(out)
        assert len(den) == len(orig)
        np.testing.assert_array_equal(den[0].noisy, orig[0].noisy)
        assert den[0].valence == orig[0].valence

    def test_denoise_batches_are_copies(self, pipeline, tmp_path, monkeypatch):
        from fdcnet.dataset import load_dataset
        from fdcnet.model import FdcNet

        root, data, run = pipeline
        seen = []
        forward = FdcNet.forward

        def recording(self, x, *args, **kwargs):
            seen.append(x)
            return forward(self, x, *args, **kwargs)

        monkeypatch.setattr(FdcNet, "forward", recording)
        out = tmp_path / "den.fdcd"
        assert main(["denoise", "--model", str(run / "model.fdcn"), "--data", str(data),
                     "--batch-size", "5", "--out", str(out)]) == 0
        orig, den = load_dataset(data), load_dataset(out)
        assert max(len(x) for x in seen) == 5
        for x in seen:
            assert x.flags.c_contiguous and x.flags.aligned and x.flags.owndata
        np.testing.assert_array_equal(np.concatenate(seen), orig.noisy)
        assert den.noisy.tobytes() == orig.noisy.tobytes()

    def test_run_config_keys_in_flag_order(self, pipeline):
        from fdcnet.configfile import read_config

        root, _, _ = pipeline
        sections = read_config(root / "run_config.txt")
        assert list(sections["synth"]) == [
            "subjects", "trials", "channels", "trial_seconds", "sample_rate", "label_effect",
            "snr", "sigma", "ratio", "window", "overlap", "seed", "out"]
        assert list(sections["eval"]) == [
            "model", "data", "snr_grid", "seed", "sigma", "ratio", "sample_rate",
            "use", "split", "split_seed", "out"]
        assert list(sections["denoise"]) == ["model", "data", "batch_size", "out"]

    @pytest.mark.parametrize("command, flags, out_name", [
        ("eval", ["--snr-grid", "-1:1:1", "--use", "test"], "eval.csv"),
        ("denoise", ["--batch-size", "3"], "den.fdcd"),
    ])
    def test_config_replay_keeps_model_config(self, pipeline, tmp_path, command, flags, out_name):
        import shutil

        root, data, run = pipeline
        # a checkpoint with no .cfg beside it needs --model-config
        (tmp_path / "ckpt").mkdir()
        (tmp_path / "cfgs").mkdir()
        shutil.copy(run / "model.fdcn", tmp_path / "ckpt" / "model.fdcn")
        shutil.copy(run / "model.cfg", tmp_path / "cfgs" / "m.cfg")
        first = tmp_path / "first" / out_name
        assert main([command, "--model", str(tmp_path / "ckpt" / "model.fdcn"),
                     "--model-config", str(tmp_path / "cfgs" / "m.cfg"), "--data", str(data),
                     *flags, "--out", str(first)]) == 0
        replay = tmp_path / "replay" / out_name
        assert main([command, "--config", str(first.parent / "run_config.txt"),
                     "--out", str(replay)]) == 0
        assert replay.read_bytes() == first.read_bytes()

    def test_config_replay_keeps_hash_in_out_path(self, pipeline, tmp_path):
        root, data, run = pipeline
        out = tmp_path / "x#y.csv"
        assert main(["eval", "--model", str(run / "model.fdcn"), "--data", str(data),
                     "--snr-grid", "0", "--out", str(out)]) == 0
        first = out.read_bytes()
        out.unlink()
        assert main(["eval", "--config", str(tmp_path / "run_config.txt")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run_config.txt", "x#y.csv"]
        assert out.read_bytes() == first

    def test_run_config_accumulates_sections(self, pipeline):
        root, _, _ = pipeline
        text = (root / "run_config.txt").read_text()
        assert "[synth]" in text
        assert "[eval]" in text
        assert "[denoise]" in text

    def test_config_round_trip_reproduces_synth(self, pipeline, tmp_path):
        root, data, _ = pipeline
        cfg = root / "run_config.txt"
        copy = tmp_path / "copy.fdcd"
        code = main(["synth", "--config", str(cfg), "--out", str(copy)])
        assert code == 0
        assert copy.read_bytes() == data.read_bytes()

    def test_model_config_value_of_wrong_type_exits_2(self, pipeline, tmp_path, capsys):
        root, data, run = pipeline
        cfg = tmp_path / "m.cfg"
        text = (run / "model.cfg").read_text()
        assert "d_model = 8\n" in text
        cfg.write_text(text.replace("d_model = 8\n", "d_model = 8.0\n"))
        out = tmp_path / "eval.csv"
        code = main(["eval", "--model", str(run / "model.fdcn"), "--model-config", str(cfg),
                     "--data", str(data), "--snr-grid", "0", "--out", str(out)])
        assert code == 2
        assert "d_model" in capsys.readouterr().err
        assert not out.exists()

    def test_config_flag_override(self, pipeline, tmp_path):
        root, data, _ = pipeline
        cfg = root / "run_config.txt"
        other = tmp_path / "other.fdcd"
        assert main(["synth", "--config", str(cfg), "--seed", "99", "--out", str(other)]) == 0
        assert other.read_bytes() != data.read_bytes()


class TestTrainFlags:
    def test_one_flag_per_train_config_field(self):
        from dataclasses import fields

        from fdcnet import cli
        from fdcnet.trainer import TrainConfig

        parser = cli._build_train(cli._Parser(prog="fdcnet").add_subparsers(parser_class=cli._Parser))
        unset = parser.parse_args([])
        for f in fields(TrainConfig):
            assert getattr(unset, f.name) is (False if isinstance(f.default, bool) else None)
        args = parser.parse_args(["--epochs", "3", "--lr", "0.5", "--split-by-subject", "--no-cross"])
        assert cli._train_config(args) == TrainConfig(epochs=3, lr=0.5, split_by_subject=True,
                                                      no_cross=True)
        assert cli._train_config(parser.parse_args(["--desk"])) == desk_preset()


class TestDeskPreset:
    def test_desk_flag_fills_model_dims(self, tmp_path, capsys):
        data = tmp_path / "d.fdcd"
        main(["synth", "--subjects", "2", "--trials", "4", "--channels", "4",
              "--trial-seconds", "2", "--out", str(data)])
        run = tmp_path / "run"
        code = main(
            ["train", "--data", str(data), "--out-dir", str(run), "--desk",
             "--epochs", "1"]
        )
        assert code == 0
        cfg_text = (run / "run_config.txt").read_text()
        assert "d_model = 32" in cfg_text
        assert "epochs = 1" in cfg_text


class TestEvalSplit:
    """eval --use test evaluates on the model's own held-out split."""

    TINY = ["--epochs", "1", "--batch-size", "8", "--d-model", "8", "--n-layers", "1",
            "--n-heads", "2", "--ff-dim", "16", "--head-hidden", "8",
            "--gate-reduction", "2", "--kernel-size", "5"]

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("split") / "data.fdcd"
        assert main(["synth", "--subjects", "3", "--trials", "4", "--channels", "2",
                     "--trial-seconds", "2", "--seed", "5", "--out", str(data)]) == 0
        return data

    def _evaluated(self, monkeypatch, tmp_path, data, run, *flags):
        """Corpus indices of the segments eval hands to the evaluator, or
        the exit code when eval fails."""
        from fdcnet import cli
        from fdcnet.dataset import load_dataset

        captured = []

        def capture(model, segments, *args, **kwargs):
            captured.extend(segments)
            return evaluate(model, segments, *args, **kwargs)

        evaluate = cli.evaluate
        monkeypatch.setattr(cli, "evaluate", capture)
        code = main(["eval", "--model", str(run / "model.fdcn"), "--data", str(data),
                     "--snr-grid", "0", "--use", "test", "--out", str(tmp_path / "e.csv"),
                     *flags])
        if code != 0:
            return code
        index = {s.clean.tobytes(): i for i, s in enumerate(load_dataset(data))}
        return {index[s.clean.tobytes()] for s in captured}

    @pytest.mark.parametrize("flags", [["--seed", "3"], ["--split-by-subject"]])
    def test_test_split_is_disjoint_from_training(self, corpus, tmp_path, monkeypatch, flags):
        from fdcnet.dataset import load_dataset, split_indices

        run = tmp_path / "run"
        assert main(["train", "--data", str(corpus), "--out-dir", str(run), *self.TINY, *flags]) == 0
        segments = load_dataset(corpus)
        seed = 3 if "--seed" in flags else 0
        subjects = [s.subject_id for s in segments] if "--split-by-subject" in flags else None
        train_idx, test_idx = split_indices(len(segments), 0.8, seed, subjects=subjects)
        # the split an evaluation from --split-seed 0 alone would use leaks here
        assert set(split_indices(len(segments), 0.8, 0)[1]) & set(train_idx.tolist())

        evaluated = self._evaluated(monkeypatch, tmp_path, corpus, run)
        assert evaluated == set(test_idx.tolist())
        assert not evaluated & set(train_idx.tolist())
        # a flag that agrees with the recorded split is accepted
        assert self._evaluated(monkeypatch, tmp_path, corpus, run, "--split-seed", str(seed)) == evaluated

    def test_conflicting_split_flags_are_usage_errors(self, corpus, tmp_path, monkeypatch, capsys):
        run = tmp_path / "run"
        assert main(["train", "--data", str(corpus), "--out-dir", str(run), *self.TINY,
                     "--seed", "3"]) == 0
        assert self._evaluated(monkeypatch, tmp_path, corpus, run, "--split-seed", "0") == 1
        assert "--split-seed" in capsys.readouterr().err
        assert self._evaluated(monkeypatch, tmp_path, corpus, run, "--split", "0.5") == 1

    def test_config_without_split_section_keeps_flags(self, corpus, tmp_path, monkeypatch):
        from fdcnet.configfile import read_config, write_config
        from fdcnet.dataset import load_dataset, split_indices

        run = tmp_path / "run"
        assert main(["train", "--data", str(corpus), "--out-dir", str(run), *self.TINY,
                     "--seed", "3"]) == 0
        write_config(run / "model.cfg", {"model": read_config(run / "model.cfg")["model"]})
        n = len(load_dataset(corpus))
        assert self._evaluated(monkeypatch, tmp_path, corpus, run) == set(
            split_indices(n, 0.8, 0)[1].tolist())
        assert self._evaluated(monkeypatch, tmp_path, corpus, run, "--split-seed", "3") == set(
            split_indices(n, 0.8, 3)[1].tolist())

        # a [split] section missing a key is a malformed file, not a crash
        sections = read_config(run / "model.cfg")
        sections["split"] = {"split": 0.8, "seed": 3}
        write_config(run / "model.cfg", sections)
        assert self._evaluated(monkeypatch, tmp_path, corpus, run) == 2
