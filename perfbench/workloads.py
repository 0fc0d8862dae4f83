"""The benchmark workloads: set-up, one timed round, and output checks.

Every workload is a closed batch job run by one client through
``fdcnet.cli.main``; its inputs are a function of the workload seed. Each
round runs the same commands on the same inputs into an emptied round
directory, so rounds are interchangeable and their outputs byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import math
import shutil
import struct
import time
from pathlib import Path

import numpy as np

# desk corpus of scripts/run_desk_scale.py: 4 subjects x 25 trials of
# 10.5 s at 128 Hz, cut into 128-sample windows at 50% overlap
CORPUS_FLAGS = ["--subjects", "4", "--trials", "25", "--label-effect", "0.5"]
WINDOWS_PER_TRIAL = 20
WINDOW = 128
STRIDE = 64
SNR_GRID = "-3:3:1"
SNR_LEVELS = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
# eval-sweep trains its model with this fixed non-zero seed: the number of
# evaluated segments that fall in its training split then depends on no
# workload seed, so the failed share is the same in every run
EVAL_MODEL_SEED = 3
# synth-c32 writes 4 subjects x 6 trials (480 segments of 32x128) per round:
# a round of ~1.6 s, so that a run takes its median over many rounds
SYNTH_SUBJECTS = 4
SYNTH_TRIALS = 6
# synth-c32: the benchmark's SNR over non-overlapping windows of a trial
# lies within these tolerances (dB) of the requested SNR
SYNTH_SNR_DB = 0.0
SNR_TOL_TRIAL_DB = 0.5
SNR_TOL_MEAN_DB = 0.1


class Check:
    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name, self.ok, self.detail = name, bool(ok), detail


class Client:
    """Runs fdcnet commands in this process through the real entry point."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __call__(self, *argv) -> float:
        from fdcnet import cli

        argv = [str(a) for a in argv]
        t0 = time.perf_counter()
        if self.tracer is None:
            code = cli.main(argv)
        else:
            with self.tracer.span(f"cli.{argv[0]}"):
                code = cli.main(argv)
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"fdcnet {' '.join(argv)} exited with code {code}")
        return elapsed


def segment_count(path) -> int:
    with open(path, "rb") as fh:
        return struct.unpack("<4sIIIQ", fh.read(24))[4]


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file below ``root``, by relative path."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name = ""
    why = ""
    setup_repeats = 3
    typical_round_s = 0.0  # one round on a 2-core Xeon with 1 BLAS thread

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.round_dir = work / "round"
        self.corpus = work / "corpus.fdcd"

    def rounds(self, seconds: float) -> int:
        """The whole number of rounds that comes closest to ``seconds`` at the
        typical round time, at least one. The count does not depend on how
        fast this run goes, so every run of a workload does the same work."""
        return max(1, math.floor(seconds / self.typical_round_s + 0.5))

    def setup(self, client: Client) -> None:
        pass

    def run_round(self, client: Client) -> dict:
        """Empty the round directory and run the timed commands once.

        Returns ``segments_per_s`` (the headline command's rate), ``round_s``
        (wall time of all timed commands) and the per-command ``record``.
        """
        shutil.rmtree(self.round_dir, ignore_errors=True)
        self.round_dir.mkdir(parents=True)
        return self._round(client)

    def _round(self, client: Client) -> dict:
        raise NotImplementedError

    def attempted(self) -> int:
        raise NotImplementedError

    def failed(self) -> int:
        return 0

    def checks(self) -> list[Check]:
        raise NotImplementedError

    def _synth_corpus(self, client: Client, channels: int) -> None:
        client("synth", *CORPUS_FLAGS, "--channels", channels, "--seed", self.seed, "--out", self.corpus)


class TrainDesk(Workload):
    name = "train-desk"
    why = ("fdcnet train --desk on 2000 segments of 8x128 for a 2-epoch +3 to -3 dB "
           "curriculum: tape forward and backward, every kernel, AdamW and noise re-injection")
    epochs = 2
    typical_round_s = 30.0

    def setup(self, client):
        self._synth_corpus(client, 8)

    def _round(self, client):
        out = self.round_dir / "train"
        wall = client("train", "--desk", "--data", self.corpus, "--out-dir", out,
                      "--epochs", self.epochs, "--seed", self.seed)
        self.trained = self.epochs * int(round(segment_count(self.corpus) * 0.8))
        log = read_rows(out / "training_log.csv")
        rate = self.trained / wall
        return {"segments_per_s": rate, "round_s": wall,
                "record": {"train.segments_per_s": rate, "train.val_cc": float(log[-1]["val_cc"])}}

    def attempted(self):
        return self.trained

    def checks(self):
        out = self.round_dir / "train"
        log = read_rows(out / "training_log.csv")
        snr = [float(r["snr_db"]) for r in log]
        losses = [float(r[k]) for r in log for k in ("loss_total", "loss_mse", "loss_cls")]
        val_cc = float(log[-1]["val_cc"])
        # CC of clean with clean + noise at the final SNR; a trained denoiser
        # must track the clean signal more closely than its input does
        input_cc = math.sqrt(1.0 / (1.0 + 10.0 ** (-snr[-1] / 10.0)))
        fd, tape = directional_fd_check(out, self.corpus, self.seed)
        return [
            Check("curriculum runs +3 to -3 dB without rising",
                  snr[0] == 3.0 and snr[-1] == -3.0 and all(b <= a for a, b in zip(snr, snr[1:])),
                  f"snr_db column {snr}"),
            Check("every logged loss is finite", all(math.isfinite(v) for v in losses)),
            Check("final val_cc exceeds the CC of an input at the final SNR",
                  val_cc > input_cc, f"val_cc {val_cc:.4f} vs input {input_cc:.4f}"),
            Check("directional finite difference of the joint loss matches the tape gradient",
                  abs(fd - tape) <= 1e-6 * max(1.0, abs(tape)), f"fd {fd:.10g} tape {tape:.10g}"),
        ]


def directional_fd_check(model_dir: Path, corpus: Path, seed: int, batch: int = 16, eps: float = 1e-5):
    """Central difference of the eval-mode joint loss of the reloaded
    checkpoint along one random unit direction, and the tape's value for it."""
    from fdcnet.configfile import read_config
    from fdcnet.dataset import load_dataset
    from fdcnet.model import FdcNet, ModelConfig, class_weights, joint_loss
    from fdcnet.tensor import GradTape, backward, no_grad

    cfg = ModelConfig.from_dict(read_config(model_dir / "model.cfg")["model"])
    alpha = read_config(model_dir / "run_config.txt")["train"]["alpha"]
    model = FdcNet.load(model_dir / "model.fdcn", cfg)
    segments = load_dataset(corpus)
    labels = np.array([[s.valence, s.arousal] for s in segments], dtype=np.float64)
    weights = class_weights(labels)
    x = np.stack([s.noisy for s in segments[:batch]])
    clean = np.stack([s.clean for s in segments[:batch]])
    y = labels[:batch]
    params = model.named_parameters()
    rng = np.random.default_rng(seed)
    direction = {k: rng.standard_normal(p.shape) for k, p in params.items()}
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))

    def loss():
        out = model.forward(x, mode="eval")
        return joint_loss(clean, out.x_hat, out.p, y, weights, alpha)

    with GradTape():
        backward(loss())
    tape = sum(float(np.sum(p.grad * direction[k])) for k, p in params.items()) / norm
    saved = {k: p.data.copy() for k, p in params.items()}
    values = []
    for sign in (1.0, -1.0):
        for k, p in params.items():
            p.data[...] = saved[k] + sign * eps * direction[k] / norm
        with no_grad():
            values.append(loss().item())
    for k, p in params.items():
        p.data[...] = saved[k]
    return (values[0] - values[1]) / (2.0 * eps), tape


class EvalSweep(Workload):
    name = "eval-sweep"
    why = ("fdcnet eval over a -3..3 dB grid, denoise of the whole file and report with a "
           "trained desk model: forward-only passes, eval noise injection and metrics")
    setup_repeats = 1  # set-up trains a model for ~17 s; see README "How a run works"
    typical_round_s = 22.0

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.model_dir = work / "model"
        self.evaluated = None

    def setup(self, client):
        from fdcnet import cli

        self._synth_corpus(client, 8)
        client("train", "--desk", "--data", self.corpus, "--out-dir", self.model_dir,
               "--epochs", 1, "--seed", EVAL_MODEL_SEED)
        # keep a reference to the segments eval hands to the evaluator, so
        # the check can tell which segments were evaluated
        evaluate = cli.evaluate

        def capture(model, segments, *args, **kwargs):
            self.evaluated = segments
            return evaluate(model, segments, *args, **kwargs)

        cli.evaluate = capture

    def _round(self, client):
        model = self.model_dir / "model.fdcn"
        eval_csv = self.round_dir / "eval" / "eval_test.csv"
        t_eval = client("eval", "--model", model, "--data", self.corpus, "--use", "test",
                        "--snr-grid", SNR_GRID, "--seed", self.seed, "--out", eval_csv)
        t_denoise = client("denoise", "--model", model, "--data", self.corpus,
                           "--out", self.round_dir / "denoise" / "denoised.fdcd")
        t_report = client("report", "--out-dir", self.round_dir / "report", eval_csv)
        self.n_eval = len(self.evaluated)
        self.n_denoised = segment_count(self.corpus)
        eval_rate = self.n_eval * len(SNR_LEVELS) / t_eval
        return {"segments_per_s": eval_rate, "round_s": t_eval + t_denoise + t_report,
                "record": {"eval.segment_levels_per_s": eval_rate,
                           "denoise.segments_per_s": self.n_denoised / t_denoise,
                           "report.s": t_report}}

    def attempted(self):
        # one operation per evaluated segment, per denoised segment, and the report
        return self.n_eval + self.n_denoised + 1

    def failed(self):
        """Evaluated segments that lie in the model's training split."""
        from fdcnet.configfile import read_config
        from fdcnet.dataset import load_dataset, split_indices

        corpus = load_dataset(self.corpus)
        index = {s.clean.tobytes(): i for i, s in enumerate(corpus)}
        evaluated = {index[s.clean.tobytes()] for s in self.evaluated}
        train = read_config(self.model_dir / "run_config.txt")["train"]
        subjects = [s.subject_id for s in corpus] if train["split_by_subject"] else None
        train_idx, _ = split_indices(len(corpus), train["split"], train["seed"], subjects=subjects)
        return len(evaluated & set(train_idx.tolist()))

    def checks(self):
        from fdcnet.dataset import load_dataset

        rows = read_rows(self.round_dir / "eval" / "eval_test.csv")
        levels = [r for r in rows if r["target_snr_db"] != "average"]
        avg = next(r for r in rows if r["target_snr_db"] == "average")
        cols = ["input_snr_db", "output_snr_db", "cc_percent", "mse", "acc_4class"]
        grid_ok = [float(r["target_snr_db"]) for r in levels] == SNR_LEVELS
        in_err = max(abs(float(r["input_snr_db"]) - float(r["target_snr_db"])) for r in levels)
        mean_ok = all(
            math.isclose(float(avg[c]), sum(float(r[c]) for r in levels) / len(levels),
                         rel_tol=1e-8, abs_tol=1e-9)
            for c in cols
        )
        corpus = load_dataset(self.corpus)
        den = load_dataset(self.round_dir / "denoise" / "denoised.fdcd")
        same_meta = len(den) == len(corpus) and all(
            (a.valence, a.arousal, a.subject_id, a.achieved_snr_db)
            == (b.valence, b.arousal, b.subject_id, b.achieved_snr_db)
            for a, b in zip(corpus, den)
        )
        same_noisy = same_meta and all(a.noisy.tobytes() == b.noisy.tobytes() for a, b in zip(corpus, den))
        clean = np.stack([s.clean for s in corpus])
        mse_out = float(np.mean((np.stack([s.clean for s in den]) - clean) ** 2)) if same_meta else math.inf
        mse_in = float(np.mean((np.stack([s.noisy for s in corpus]) - clean) ** 2))
        report = self.round_dir / "report"
        return [
            Check("eval rows follow the -3..3 dB grid", grid_ok and len(levels) == len(SNR_LEVELS)),
            Check("input SNR within 0.05 dB of each grid level", grid_ok and in_err <= 0.05,
                  f"largest deviation {in_err:.4f} dB"),
            Check("mean output SNR exceeds mean input SNR",
                  float(avg["output_snr_db"]) > float(avg["input_snr_db"]),
                  f"{avg['output_snr_db']} vs {avg['input_snr_db']} dB"),
            Check("accuracy lies in [0, 1]", all(0.0 <= float(r["acc_4class"]) <= 1.0 for r in rows)),
            Check("average row is the mean of the level rows", mean_ok),
            Check("denoise keeps count, labels and noisy bytes", same_noisy),
            Check("denoised output is closer to clean than the noisy field (MSE)", mse_out < mse_in,
                  f"MSE {mse_out:.5g} vs {mse_in:.5g}"),
            Check("report writes summary.txt and its charts",
                  (report / "summary.txt").stat().st_size > 0 and len(list(report.glob("*.svg"))) == 4),
        ]


class SynthC32(Workload):
    name = "synth-c32"
    why = ("fdcnet synth at 32 channels then reading the file back: trial synthesis, the "
           "per-channel artifact loop and the .fdcd writer and reader, no model code")
    setup_repeats = 5  # set-up is interpreter start and imports, ~0.3 s
    typical_round_s = 1.6

    def _round(self, client):
        from fdcnet import dataset

        path = self.round_dir / "c32.fdcd"
        self.segments = None  # free the previous round's read-back first
        t_synth = client("synth", "--subjects", SYNTH_SUBJECTS, "--trials", SYNTH_TRIALS,
                         "--label-effect", "0.5", "--channels", 32, "--snr", SYNTH_SNR_DB,
                         "--seed", self.seed, "--out", path)
        t0 = time.perf_counter()
        self.segments = dataset.load_dataset(path)
        t_read = time.perf_counter() - t0
        rate = len(self.segments) / t_synth
        return {"segments_per_s": rate, "round_s": t_synth + t_read,
                "record": {"synth.segments_per_s": rate, "readback.segments_per_s": len(self.segments) / t_read}}

    def attempted(self):
        return len(self.segments)

    def checks(self):
        segs, self.segments = self.segments, []
        trials = SYNTH_SUBJECTS * SYNTH_TRIALS
        count_ok = len(segs) == trials * WINDOWS_PER_TRIAL
        shape_ok = count_ok and all(s.clean.shape == s.noisy.shape == (32, WINDOW) for s in segs)
        labels_ok = overlap_ok = shape_ok
        snrs = []
        for t in range(trials if shape_ok else 0):
            block = segs[t * WINDOWS_PER_TRIAL:(t + 1) * WINDOWS_PER_TRIAL]
            first = block[0]
            labels_ok &= first.valence in (0, 1) and first.arousal in (0, 1) and first.subject_id == t // SYNTH_TRIALS
            labels_ok &= all((s.valence, s.arousal, s.subject_id) == (first.valence, first.arousal, first.subject_id)
                             for s in block)
            for a, b in zip(block, block[1:]):
                overlap_ok &= np.array_equal(a.clean[:, STRIDE:], b.clean[:, :WINDOW - STRIDE])
                overlap_ok &= np.array_equal(a.noisy[:, STRIDE:], b.noisy[:, :WINDOW - STRIDE])
            clean = np.concatenate([s.clean for s in block[::WINDOW // STRIDE]], axis=1)
            noisy = np.concatenate([s.noisy for s in block[::WINDOW // STRIDE]], axis=1)
            snrs.append(10.0 * math.log10(float(np.sum(clean**2)) / float(np.sum((noisy - clean) ** 2))))
        worst = max((abs(v - SYNTH_SNR_DB) for v in snrs), default=math.inf)
        mean_err = abs(sum(snrs) / len(snrs) - SYNTH_SNR_DB) if snrs else math.inf
        return [
            Check(f"file reads back with {trials * WINDOWS_PER_TRIAL} segments of 32x{WINDOW}", shape_ok,
                  f"{len(segs)} segments"),
            Check("labels are binary and constant within each trial; subjects in order", labels_ok),
            Check("consecutive windows of a trial overlap by 50% exactly", overlap_ok),
            Check(f"per-trial SNR within {SNR_TOL_TRIAL_DB} dB and mean within {SNR_TOL_MEAN_DB} dB "
                  f"of {SYNTH_SNR_DB} dB", worst <= SNR_TOL_TRIAL_DB and mean_err <= SNR_TOL_MEAN_DB,
                  f"worst trial {worst:.3f} dB, mean error {mean_err:.4f} dB"),
        ]


WORKLOADS = {w.name: w for w in (TrainDesk, EvalSweep, SynthC32)}
