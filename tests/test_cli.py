"""Command-line surface: parsing, exit codes, config round trips, pipeline."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import write_past_size_limit
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

    # 1e-320 overflows the level count to inf; 1e-12 asks for 6e12 levels
    @pytest.mark.parametrize("text", ["-3:3:1e-320", "-3:3:1e-12", "3:-3:-1e-12",
                                      "0:234.3984375:0.0234375"])
    def test_grid_beyond_the_level_cap_rejected(self, text):
        with pytest.raises(ConfigError, match="levels"):
            parse_snr_grid(text)

    def test_grid_at_the_level_cap(self):
        # 234.375 / 0.0234375 is exactly 10000 steps
        assert len(parse_snr_grid("0:234.375:0.0234375")) == 10_001


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
        ("report", "csv = it's.csv", ["--out-dir", "run"]),  # shell words: an unclosed quote
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

    @pytest.mark.parametrize("grid", ["7000", "-3:3:1e-320"])
    def test_eval_exits_2_and_writes_nothing(self, pipeline, tmp_path, capsys, grid):
        _, data, run = pipeline
        code = main(["eval", "--model", str(run / "model.fdcn"), "--data", str(data),
                     "--snr-grid", grid, "--out", str(tmp_path / "out" / "e.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []


class TestSettingsCheckedFirst:
    def test_eval_names_a_bad_noise_setting_before_reading_files(self, tmp_path, capsys):
        # neither the model nor the data exists
        code = main(["eval", "--model", str(tmp_path / "none.fdcn"), "--data", str(tmp_path / "none.fdcd"),
                     "--sigma", "-1", "--out", str(tmp_path / "out" / "e.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "gaussian_sigma" in err
        assert list(tmp_path.iterdir()) == []

    def test_synth_windows_shorter_than_the_default_fit(self, tmp_path):
        from fdcnet.dataset import load_dataset

        out = tmp_path / "d.fdcd"
        assert main(["synth", "--subjects", "1", "--trials", "2", "--channels", "2",
                     "--trial-seconds", "0.75", "--window", "64", "--out", str(out)]) == 0
        # 96-sample trials: windows of 64 at stride 32 start at samples 0 and 32
        assert load_dataset(out).clean.shape == (2 * 2, 2, 64)

    def test_synth_trial_shorter_than_window_rejected_before_synthesis(self, tmp_path, capsys,
                                                                      monkeypatch):
        import fdcnet.dataset

        monkeypatch.setattr(fdcnet.dataset, "synth_clean_eeg",
                            lambda spec: pytest.fail("synthesised before the window was checked"))
        out = tmp_path / "out" / "d.fdcd"
        code = main(["synth", "--subjects", "1", "--trials", "2", "--channels", "2",
                     "--trial-seconds", "0.75", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "128-sample window" in err
        assert list(tmp_path.iterdir()) == []

    def test_synth_trial_too_short_for_noise_rejected_before_synthesis(self, tmp_path, capsys,
                                                                      monkeypatch):
        import fdcnet.dataset

        monkeypatch.setattr(fdcnet.dataset, "synth_clean_eeg",
                            lambda spec: pytest.fail("synthesised before the trial length was checked"))
        # 2 samples at 128 Hz: one 2-sample window, but noise injection needs 3
        code = main(["synth", "--subjects", "1", "--trials", "2", "--channels", "2",
                     "--trial-seconds", "0.015625", "--window", "2", "--out", str(tmp_path / "out" / "d.fdcd")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: trial holds 2 samples; noise injection needs at least 3 at 128 Hz\n"
        )
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("flag, message", [
        ("--overlap=1.5", "overlap must be in [0, 1), got 1.5"),
        ("--overlap=-0.5", "overlap must be in [0, 1), got -0.5"),
        ("--window=0", "window 0 with overlap 0.5 gives stride < 1"),
        ("--window=-3", "window -3 with overlap 0.5 gives stride < 1"),
        ("--snr=500", "target_snr_db must be within ±300 dB, got 500.0"),
    ])
    def test_synth_stride_and_snr_rejected_before_synthesis(self, tmp_path, capsys, monkeypatch,
                                                           flag, message):
        import fdcnet.dataset

        monkeypatch.setattr(fdcnet.dataset, "synth_clean_eeg",
                            lambda spec: pytest.fail("synthesised before the settings were checked"))
        code = main(["synth", "--subjects", "1", "--trials", "1", "--channels", "2",
                     "--trial-seconds", "1", flag, "--out", str(tmp_path / "out" / "d.fdcd")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestRunConfigReadFirst:
    @pytest.mark.parametrize("command", ["synth", "train", "eval", "denoise", "report"])
    def test_corrupt_run_config_exits_2_before_any_work(self, pipeline, tmp_path, capsys, monkeypatch,
                                                        command):
        import fdcnet.cli
        import fdcnet.dataset
        from fdcnet.model import FdcNet
        from fdcnet.trainer import EvalReport, EvalRow, write_eval_csv

        _, data, run = pipeline
        out = tmp_path / "out"
        csv_path = tmp_path / "e.csv"
        row = EvalRow(0.0, 1.0, 80.0, 0.5, 0.5)
        write_eval_csv(csv_path, EvalReport(grid=[0.0], rows=[row], average=row))
        model = ["--model", str(run / "model.fdcn"), "--data", str(data)]
        argv, owner, step = {
            "synth": (["--subjects", "1", "--trials", "1", "--channels", "2", "--trial-seconds", "1",
                       "--out", str(out / "d.fdcd")], fdcnet.dataset, "synth_clean_eeg"),
            "train": (["--data", str(data), "--out-dir", str(out)], fdcnet.cli, "train"),
            "eval": ([*model, "--out", str(out / "e.csv")], fdcnet.cli, "evaluate"),
            "denoise": ([*model, "--out", str(out / "d.fdcd")], FdcNet, "forward"),
            "report": (["--out-dir", str(out), str(csv_path)], fdcnet.cli, "write_report"),
        }[command]
        monkeypatch.setattr(owner, step, lambda *a, **k: pytest.fail(f"{step} ran before run_config.txt was read"))
        out.mkdir()
        (out / "run_config.txt").write_text("junk\n")
        before = sorted(tmp_path.rglob("*"))
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "run_config.txt" in err
        assert sorted(tmp_path.rglob("*")) == before
        assert (out / "run_config.txt").read_text() == "junk\n"


def test_synth_past_the_size_limit_leaves_no_directory(tmp_path):
    out = tmp_path / "new" / "sub" / "x.fdcd"
    code = (
        "import sys\n"
        "from fdcnet.cli import main\n"
        "sys.exit(main(['synth', '--subjects', '1', '--trials', '2', '--channels', '2',\n"
        f"               '--trial-seconds', '2', '--out', {str(out)!r}]))\n"
    )
    assert write_past_size_limit(code, 4096) == 2
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
        assert not run.exists()

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

    SHAPES = [(4, 1), (4, 2), (4, 3), (4, 513), (1, 128), (4, 0)]

    @pytest.fixture(scope="class")
    def shaped(self, tmp_path_factory):
        """An untrained 4-channel desk model and an 8-record file of each
        segment shape in SHAPES."""
        from fdcnet.configfile import write_config
        from fdcnet.dataset import new_dataset, save_dataset
        from fdcnet.model import FdcNet

        root = tmp_path_factory.mktemp("shapes")
        model = FdcNet(replace(desk_preset().model, n_channels=4), seed=0)
        model.save(root / "model.fdcn")
        split = {"split": 0.8, "seed": 0, "split_by_subject": False}
        write_config(root / "model.cfg", {"model": model.cfg.to_dict(), "split": split})
        r = np.random.default_rng(6)
        for c, t in self.SHAPES:
            ds = new_dataset(8, c, t)
            ds.clean = r.normal(size=ds.clean.shape)
            ds.noisy = ds.clean + r.normal(size=ds.clean.shape)
            # any 6 of the 8 records hold both classes of each label
            ds.valence, ds.arousal = [0, 1] * 4, [0, 0, 1, 1] * 2
            save_dataset(root / f"{c}x{t}.fdcd", ds)
        return root

    @pytest.mark.parametrize("command", ["train", "eval", "denoise"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_segment_shape_exits_cleanly(self, shaped, tmp_path, capsys, command, shape):
        # shapes the model never checks itself: they reach the readers, the
        # entry checks and the kernels, which exit 0 or 2 with one error line
        data = str(shaped / f"{shape[0]}x{shape[1]}.fdcd")
        model = ["--model", str(shaped / "model.fdcn")]
        argv = {
            "train": ["train", "--desk", "--epochs", "1", "--data", data, "--out-dir", str(tmp_path / "run")],
            "eval": ["eval", *model, "--data", data, "--out", str(tmp_path / "e.csv")],
            "denoise": ["denoise", *model, "--data", data, "--out", str(tmp_path / "d.fdcd")],
        }[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out, err = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        assert code in (0, 2) and "Traceback" not in out + err
        if code == 2:
            assert err.startswith("error:") and err.count("\n") == 1
            assert list(tmp_path.iterdir()) == []
        else:
            assert err == ""

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("t", [1, 2])
    def test_short_segments_are_rejected_before_any_work(self, shaped, tmp_path, capsys, command, t):
        # noise injection needs a frequency bin in the 20-45 Hz EMG band:
        # 3 samples at 128 Hz
        data = str(shaped / f"4x{t}.fdcd")
        argv = {
            "train": ["train", "--desk", "--epochs", "1", "--data", data, "--out-dir", str(tmp_path / "run")],
            "eval": ["eval", "--model", str(shaped / "model.fdcn"), "--data", data,
                     "--out", str(tmp_path / "e.csv")],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {data}: segments of length T = {t} are too short for noise injection, "
            "which needs T >= 3 at 128 Hz\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_long_segments_are_rejected_before_loading(self, shaped, tmp_path, capsys, monkeypatch,
                                                       command):
        import fdcnet.cli

        # the desk model's t_max is 512, read from its .cfg; the check reads
        # the data file's header alone
        for name, obj in (("load_dataset", fdcnet.cli), ("load", fdcnet.cli.FdcNet)):
            monkeypatch.setattr(obj, name, lambda *a, name=name: pytest.fail(f"{name} ran before the length check"))
        data = str(shaped / "4x513.fdcd")
        argv = {
            "train": ["train", "--desk", "--epochs", "1", "--data", data, "--out-dir", str(tmp_path / "run")],
            "eval": ["eval", "--model", str(shaped / "model.fdcn"), "--data", data,
                     "--out", str(tmp_path / "e.csv")],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {data}: segments of length T = 513 exceed the model's t_max = 512\n"
        )
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

        root, _, run = pipeline
        sections = read_config(root / "run_config.txt")
        assert list(sections["synth"]) == [
            "subjects", "trials", "channels", "trial_seconds", "sample_rate", "label_effect",
            "snr", "sigma", "ratio", "window", "overlap", "seed", "out"]
        assert list(sections["eval"]) == [
            "model", "data", "snr_grid", "seed", "sigma", "ratio", "sample_rate",
            "use", "split", "split_seed", "out"]
        assert list(sections["denoise"]) == ["model", "data", "batch_size", "out"]
        train_keys = list(read_config(run / "run_config.txt")["train"])
        assert train_keys == [
            "data", "out_dir", "desk", "epochs", "batch_size", "lr", "weight_decay", "alpha",
            "snr_start", "snr_end", "seed", "split", "split_by_subject",
            "emg_eog_ratio", "gaussian_sigma", "sample_rate_hz",
            "d_model", "n_layers", "n_heads", "ff_dim", "dropout", "t_fb", "gate_reduction",
            "head_hidden", "kernel_size", "no_feedback", "no_cross", "no_eegsp"]

    @pytest.mark.parametrize("command, flags, outputs", [
        ("eval", ["--snr-grid", "-1:1:1", "--use", "test"], ["eval.csv"]),
        ("denoise", ["--batch-size", "3"], ["den.fdcd"]),
        ("train", ["--epochs", "1", "--batch-size", "8", "--d-model", "8", "--n-layers", "1",
                   "--n-heads", "2", "--ff-dim", "16", "--head-hidden", "8",
                   "--gate-reduction", "2", "--kernel-size", "5", "--seed", "2"],
         ["model.fdcn", "training_log.csv", "model.cfg"]),
    ])
    def test_config_replay_keeps_model_config(self, pipeline, tmp_path, command, flags, outputs):
        import shutil

        root, data, run = pipeline
        inputs, out_flag, out_name = [], "--out-dir", ""
        if command != "train":
            # a checkpoint with no .cfg beside it needs --model-config
            (tmp_path / "ckpt").mkdir()
            (tmp_path / "cfgs").mkdir()
            shutil.copy(run / "model.fdcn", tmp_path / "ckpt" / "model.fdcn")
            shutil.copy(run / "model.cfg", tmp_path / "cfgs" / "m.cfg")
            inputs = ["--model", str(tmp_path / "ckpt" / "model.fdcn"),
                      "--model-config", str(tmp_path / "cfgs" / "m.cfg")]
            out_flag, out_name = "--out", outputs[0]
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert main([command, *inputs, "--data", str(data), *flags,
                     out_flag, str(first / out_name)]) == 0
        assert main([command, "--config", str(first / "run_config.txt"),
                     out_flag, str(replay / out_name)]) == 0
        for name in outputs:
            assert (replay / name).read_bytes() == (first / name).read_bytes()

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

    @pytest.mark.parametrize("names", [["my dir/e.csv"], ["my dir/e.csv", "plain/f.csv"],
                                       ["plain/f.csv"]])
    def test_report_config_replay_keeps_csv_paths(self, pipeline, tmp_path, names):
        root, data, run = pipeline
        csvs = [str(tmp_path / name) for name in names]
        for out in csvs:
            assert main(["eval", "--model", str(run / "model.fdcn"), "--data", str(data),
                         "--snr-grid", "0", "--out", out]) == 0
        first, replay = tmp_path / "rep", tmp_path / "replay"
        assert main(["report", *csvs, "--out-dir", str(first)]) == 0
        config = (first / "run_config.txt").read_text()
        if names == ["plain/f.csv"]:
            assert f"csv = {csvs[0]}\n" in config  # a path without spaces is written bare
        assert main(["report", "--config", str(first / "run_config.txt"),
                     "--out-dir", str(replay)]) == 0
        written = sorted(p.name for p in first.iterdir() if p.name != "run_config.txt")
        assert written == sorted(p.name for p in replay.iterdir() if p.name != "run_config.txt")
        for name in written:
            assert (replay / name).read_bytes() == (first / name).read_bytes()

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
        from fdcnet.model import ModelConfig
        from fdcnet.noise import NoiseSpec
        from fdcnet.trainer import TrainConfig

        parser = cli._build_train(cli._Parser(prog="fdcnet").add_subparsers(parser_class=cli._Parser))
        unset = vars(parser.parse_args([]))
        own = [f for f in fields(TrainConfig) if f.name not in ("noise", "model")]
        noise = list(fields(NoiseSpec))
        sizes = [f for f in fields(ModelConfig)
                 if not isinstance(f.default, bool) and f.name not in ("n_channels", "t_max")]
        for f in own + noise + sizes:
            assert unset.pop(f.name) is (False if isinstance(f.default, bool) else None)
        assert unset == {"config": None, "data": None, "out_dir": None, "desk": False,
                         "no_feedback": False, "no_cross": False, "no_eegsp": False}
        args = parser.parse_args(["--epochs", "3", "--lr", "0.5", "--split-by-subject", "--no-cross",
                                  "--gaussian-sigma", "0.02", "--d-model", "16"])
        model = replace(ModelConfig(), d_model=16, feedback=False, cross=False)
        assert cli._train_config(args) == TrainConfig(epochs=3, lr=0.5, split_by_subject=True,
                                                      noise=NoiseSpec(gaussian_sigma=0.02),
                                                      model=model)
        assert cli._train_config(parser.parse_args(["--desk"])) == desk_preset()
        desk = cli._train_config(parser.parse_args(["--desk", "--ff-dim", "48", "--no-eegsp",
                                                    "--sample-rate-hz", "256"]))
        assert desk.model == replace(desk_preset().model, ff_dim=48, eegsp=False)
        assert desk.noise == NoiseSpec(sample_rate_hz=256.0)


class TestModelSettingsDeclaredOnce:
    # a value other than the default for each ModelConfig field train has a flag for
    SIZES = {"d_model": 8, "n_layers": 1, "n_heads": 2, "ff_dim": 16, "dropout": 0.2,
             "t_fb": 3, "gate_reduction": 2, "head_hidden": 8, "kernel_size": 5}
    # and for each NoiseSpec field
    NOISE = {"emg_eog_ratio": 1.5, "gaussian_sigma": 0.02, "sample_rate_hz": 256.0}

    def test_each_model_setting_is_declared_once(self, pipeline, tmp_path):
        import inspect
        from dataclasses import fields

        from fdcnet.configfile import read_config
        from fdcnet.model import ModelConfig
        from fdcnet.noise import NoiseSpec
        from fdcnet.trainer import TrainConfig, evaluate

        own = {f.name for f in fields(TrainConfig)}
        assert own & {f.name for f in fields(ModelConfig)} == set()
        assert [f.name for f in fields(NoiseSpec)] == list(self.NOISE)
        assert all(self.NOISE[f.name] != f.default for f in fields(NoiseSpec))
        assert own & set(self.NOISE) == set()
        assert set(inspect.signature(evaluate).parameters) & set(self.NOISE) == set()
        numeric = [f for f in fields(ModelConfig)
                   if not isinstance(f.default, bool) and f.name not in ("n_channels", "t_max")]
        assert [f.name for f in numeric] == list(self.SIZES)
        assert all(self.SIZES[f.name] != f.default for f in numeric)
        _, data, _ = pipeline
        flags = [tok for name, value in {**self.SIZES, **self.NOISE}.items()
                 for tok in (f"--{name.replace('_', '-')}", str(value))]
        assert main(["train", "--data", str(data), "--out-dir", str(tmp_path), "--epochs", "1",
                     *flags]) == 0
        written = read_config(tmp_path / "model.cfg")["model"]
        assert {name: written[name] for name in self.SIZES} == self.SIZES
        recorded = read_config(tmp_path / "run_config.txt")["train"]
        assert {name: recorded[name] for name in self.NOISE} == self.NOISE

    # a [train] section in the key order written while TrainConfig mirrored
    # the model settings: the sizes after snr_end, the switches after
    # split_by_subject
    EARLIER_ORDER = """[train]
data = {data}
out_dir = {out}
desk = false
epochs = 1
batch_size = 8
lr = 0.001
weight_decay = 0.01
alpha = 0.6
snr_start = 3.0
snr_end = -3.0
d_model = 8
n_layers = 1
n_heads = 2
ff_dim = 16
dropout = 0.2
t_fb = 3
head_hidden = 8
gate_reduction = 2
kernel_size = 5
seed = 2
split = 0.8
split_by_subject = false
no_feedback = false
no_cross = {no_cross}
no_eegsp = false
emg_eog_ratio = 1.0
gaussian_sigma = 0.01
sample_rate_hz = 128.0
"""

    @pytest.mark.parametrize("no_cross", [False, True])
    def test_earlier_key_order_replays_like_its_flags(self, pipeline, tmp_path, no_cross):
        from fdcnet.configfile import format_value, read_config

        _, data, _ = pipeline
        replay, flagged = tmp_path / "replay", tmp_path / "flags"
        text = self.EARLIER_ORDER.format(data=data, out=replay, no_cross=format_value(no_cross))
        (tmp_path / "earlier.txt").write_text(text)
        assert main(["train", "--config", str(tmp_path / "earlier.txt")]) == 0
        flags = [tok for key, value in read_config(tmp_path / "earlier.txt")["train"].items()
                 if key not in ("data", "out_dir") and value is not False
                 for tok in ([f"--{key.replace('_', '-')}"]
                             + ([] if value is True else [format_value(value)]))]
        assert main(["train", "--data", str(data), "--out-dir", str(flagged), *flags]) == 0
        for name in ("model.cfg", "model.fdcn", "training_log.csv"):
            assert (replay / name).read_bytes() == (flagged / name).read_bytes()
        # only the order of the keys moved
        assert (sorted((replay / "run_config.txt").read_text().splitlines())
                == sorted(text.splitlines()))
        model = read_config(replay / "model.cfg")["model"]
        assert (model["feedback"], model["cross"]) == (not no_cross, not no_cross)


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


class TestOneSubjectSplitRejected:
    @pytest.fixture(scope="class")
    def one_subject(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("one") / "d.fdcd"
        assert main(["synth", "--subjects", "1", "--trials", "4", "--channels", "4",
                     "--out", str(data)]) == 0
        return data

    # --split 0.4 puts the one subject on the test side, the default 0.8 on
    # the training side
    @pytest.mark.parametrize("flags", [["--split", "0.4"], []], ids=["empty-train", "empty-test"])
    def test_train_exits_2_and_writes_nothing(self, one_subject, tmp_path, capsys, flags):
        run = tmp_path / "run"
        code = main(["train", "--desk", "--epochs", "1", "--split-by-subject", *flags,
                     "--data", str(one_subject), "--out-dir", str(run)])
        assert code == 2
        assert capsys.readouterr().err == "error: a train/test split needs at least 2 subjects, got 1\n"
        assert not run.exists()


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

    @pytest.mark.parametrize("key, value", [
        ("split", "abc"), ("split", True), ("split", 1.0), ("seed", -1), ("seed", True),
        ("seed", 0.5), ("split_by_subject", "maybe"), ("split_by_subject", 1),
    ])
    def test_bad_split_value_exits_2_and_writes_nothing(self, corpus, tmp_path, capsys, key, value):
        from fdcnet.configfile import read_config, write_config

        run = tmp_path / "run"
        assert main(["train", "--data", str(corpus), "--out-dir", str(run), *self.TINY]) == 0
        sections = read_config(run / "model.cfg")
        sections["split"][key] = value
        write_config(run / "model.cfg", sections)
        out = tmp_path / "eval" / "e.csv"
        code = main(["eval", "--model", str(run / "model.fdcn"), "--data", str(corpus),
                     "--snr-grid", "0", "--use", "test", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"[split] {key} " in err
        assert not out.parent.exists()


class TestNegativeSeedRejected:
    @pytest.mark.parametrize("command", ["synth", "train", "eval"])
    def test_exits_2_and_writes_nothing(self, pipeline, tmp_path, capsys, command):
        _, data, run = pipeline
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", "--subjects", "1", "--trials", "1", "--channels", "2",
                      "--trial-seconds", "1", "--out", str(out / "d.fdcd")],
            "train": ["train", "--data", str(data), "--out-dir", str(out), "--epochs", "1"],
            "eval": ["eval", "--model", str(run / "model.fdcn"), "--data", str(data),
                     "--snr-grid", "0", "--out", str(out / "e.csv")],
        }[command]
        assert main([*argv, "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    """A dataset of the desk corpus size, 2000 segments of 8 x 128 (32.8 MB
    as a file), and an untrained desk model for it."""
    from fdcnet.configfile import write_config
    from fdcnet.dataset import new_dataset, save_dataset
    from fdcnet.model import FdcNet

    root = tmp_path_factory.mktemp("desk")
    r = np.random.default_rng(5)
    ds = new_dataset(2000, 8, 128)
    ds.clean = r.normal(size=ds.clean.shape)
    ds.noisy = ds.clean + r.normal(size=ds.clean.shape)
    ds.subject_id = np.arange(2000) // 500
    ds.valence, ds.arousal = r.integers(0, 2, 2000), r.integers(0, 2, 2000)
    save_dataset(root / "data.fdcd", ds)
    model = FdcNet(replace(desk_preset().model, n_channels=8), seed=0)
    model.save(root / "model.fdcn")
    split = {"split": 0.8, "seed": 0, "split_by_subject": False}
    write_config(root / "model.cfg", {"model": model.cfg.to_dict(), "split": split})
    return root


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRecordsHeld:
    """Each command holds only the records and fields it reads."""

    def test_eval_holds_the_read_fields_and_its_split(self, desk_corpus, monkeypatch):
        from fdcnet import cli
        from fdcnet.dataset import CHUNK_BYTES

        seen = []

        def capture(model, segments, *args, **kwargs):
            # the peak so far covers reading the file and taking the split
            seen.append((segments.dtype.names, len(segments), tracemalloc.get_traced_memory()[1]))
            return evaluate(model, segments, *args, **kwargs)

        evaluate = cli.evaluate
        monkeypatch.setattr(cli, "evaluate", capture)
        argv = ["eval", "--model", str(desk_corpus / "model.fdcn"), "--data", str(desk_corpus / "data.fdcd"),
                "--use", "test", "--snr-grid", "0", "--out", str(desk_corpus / "eval" / "e.csv")]
        _traced_peak(lambda: main(argv))
        (names, n, peak), = seen
        # 8200-byte records without noisy: the whole file's, then the split's
        # copy, while one chunk of packed records is read; 2 MiB for the rest
        bound = (2000 + 400) * 8200 + CHUNK_BYTES + 2 * 2**20
        assert peak <= bound, f"{peak} bytes before evaluating, bound {bound}"
        assert names == ("subject_id", "valence", "arousal", "clean") and n == 400

    def test_denoise_peak_is_well_below_the_file_size(self, desk_corpus, tmp_path):
        data = desk_corpus / "data.fdcd"
        out = tmp_path / "den.fdcd"
        # an eval-mode pass of the desk model takes about 0.6 MiB of arrays a
        # segment; at 8 segments a batch, a reader of the whole file would show
        peak = _traced_peak(lambda: main(["denoise", "--model", str(desk_corpus / "model.fdcn"),
                                          "--data", str(data), "--batch-size", "8", "--out", str(out)]))
        size = data.stat().st_size
        assert out.stat().st_size == size
        assert peak <= size / 4, f"{peak} bytes for a {size}-byte file"


class TestStreamingDenoise:
    def _denoise(self, run, data, out, *flags):
        return main(["denoise", "--model", str(run / "model.fdcn"), "--data", str(data),
                     "--batch-size", "5", "--out", str(out), *flags])

    @pytest.mark.parametrize("when", ["before", "while streaming"])
    def test_truncated_data_exits_2_and_writes_nothing(self, pipeline, tmp_path, monkeypatch, capsys, when):
        from fdcnet.model import FdcNet

        _, data, run = pipeline
        cut = tmp_path / "in" / "data.fdcd"
        cut.parent.mkdir()
        cut.write_bytes(data.read_bytes())
        count = int.from_bytes(cut.read_bytes()[16:24], "little")
        assert count > 10
        # keep 7 whole records: the file ends inside the second chunk of 5
        keep = 24 + 7 * (cut.stat().st_size - 24) // count
        if when == "before":
            os.truncate(cut, keep)
        else:
            forward = FdcNet.forward

            def cutting(self, x, *args, **kwargs):
                os.truncate(cut, keep)
                return forward(self, x, *args, **kwargs)

            monkeypatch.setattr(FdcNet, "forward", cutting)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert self._denoise(run, cut, out_dir / "den.fdcd") == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(out_dir.iterdir()) == []

    def test_rejected_records_leave_no_directory(self, pipeline, desk_corpus, tmp_path, capsys):
        _, _, run = pipeline
        # a 2-channel model on 8-channel records fails at the first chunk
        assert self._denoise(run, desk_corpus / "data.fdcd", tmp_path / "new" / "sub" / "den.fdcd") == 2
        assert "expected (B, 2, T) input" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_equal_to_data_writes_the_same_bytes(self, pipeline, tmp_path):
        _, data, run = pipeline
        same = tmp_path / "same.fdcd"
        same.write_bytes(data.read_bytes())
        assert self._denoise(run, data, tmp_path / "fresh.fdcd") == 0
        assert self._denoise(run, same, same) == 0
        assert same.read_bytes() == (tmp_path / "fresh.fdcd").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.fdcd", "run_config.txt", "same.fdcd"]

    def test_file_of_no_records(self, pipeline, tmp_path):
        from fdcnet.dataset import new_dataset, save_dataset

        _, _, run = pipeline
        save_dataset(tmp_path / "empty.fdcd", new_dataset(0, 2, 256))
        assert self._denoise(run, tmp_path / "empty.fdcd", tmp_path / "den.fdcd") == 0
        assert (tmp_path / "den.fdcd").read_bytes() == (tmp_path / "empty.fdcd").read_bytes()
