"""Command-line surface: parsing, exit codes, config round trips, pipeline."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fdcnet.cli import main, parse_snr_grid
from fdcnet.errors import ConfigError

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

    def test_config_flag_override(self, pipeline, tmp_path):
        root, data, _ = pipeline
        cfg = root / "run_config.txt"
        other = tmp_path / "other.fdcd"
        assert main(["synth", "--config", str(cfg), "--seed", "99", "--out", str(other)]) == 0
        assert other.read_bytes() != data.read_bytes()


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
