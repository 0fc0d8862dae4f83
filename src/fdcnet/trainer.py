"""Curriculum-scheduled joint training and SNR-sweep evaluation.

Each epoch re-injects fresh artifact noise into the clean training segments
at the scheduled SNR; only ``fdcnet denoise`` reads the stored noisy
signals, so train and eval load only the READ_FIELDS of a dataset.
Training, validation and the SNR sweep inject one batch at a time, so no
more than one batch of noisy segments is held; a segment's noise depends
only on its stream key, not on its batch.
All randomness is derived from the config seed, so training logs and
checkpoints are bit-reproducible.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .dataset import derive_seed, split_indices
from .errors import ConfigError, DegenerateDataError, FileFormatError, NonFiniteError
from .fileio import atomic_writer
from .metrics import metric_cc, metric_mse, metric_snr
from .model import FdcNet, ModelConfig, accuracy_4class, class_weights, joint_loss
from .noise import NoiseSpec, check_snr_db, inject_noise
from .optim import AdamW
from .tensor import GradTape, backward, no_grad


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 0.001
    weight_decay: float = 0.01
    alpha: float = 0.6
    snr_start: float = 3.0
    snr_end: float = -3.0
    seed: int = 0
    split: float = 0.8
    split_by_subject: bool = False
    # the artifact settings of the training and validation noise
    noise: NoiseSpec = NoiseSpec()
    # the model trained; train() sets n_channels to the dataset's C
    model: ModelConfig = ModelConfig()

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        for name in ("snr_start", "snr_end"):
            check_snr_db(name, getattr(self, name))
        if self.snr_start < self.snr_end:
            raise ConfigError(
                f"snr_start {self.snr_start} must be >= snr_end {self.snr_end}"
            )
        if not 0.0 < self.split < 1.0:
            raise ConfigError(f"split must be in (0, 1), got {self.split}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        self.noise.validate()


def desk_preset() -> TrainConfig:
    """Desk-scale model: trains on 2000 C=8 segments in minutes on CPU."""
    return TrainConfig(model=ModelConfig(d_model=32, n_layers=1, n_heads=4, ff_dim=64))


def curriculum_snr(epoch: int, total_epochs: int, cfg: TrainConfig) -> float:
    """Linear ramp from snr_start to snr_end, endpoints exact."""
    if total_epochs < 2:
        return cfg.snr_start
    frac = epoch / (total_epochs - 1)
    return cfg.snr_start + (cfg.snr_end - cfg.snr_start) * frac


@dataclass(frozen=True)
class EvalRow:
    input_snr_db: float
    output_snr_db: float
    cc_percent: float
    mse: float
    acc_4class: float


@dataclass
class EvalReport:
    grid: list[float]
    rows: list[EvalRow]
    average: EvalRow


@dataclass
class LogRow:
    epoch: int
    snr_db: float
    loss_total: float
    loss_mse: float
    loss_cls: float
    val_acc: float
    val_cc: float


LOG_COLUMNS = [f.name for f in fields(LogRow)]


def write_log_csv(path, rows: list[LogRow]) -> None:
    with atomic_writer(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for r in rows:
            writer.writerow(
                [r.epoch, f"{r.snr_db:.6g}", f"{r.loss_total:.10g}", f"{r.loss_mse:.10g}",
                 f"{r.loss_cls:.10g}", f"{r.val_acc:.10g}", f"{r.val_cc:.10g}"]
            )


# the dataset fields train and evaluate read
READ_FIELDS = ("subject_id", "valence", "arousal", "clean")


def _labels(segments) -> np.ndarray:
    return np.stack([segments.valence, segments.arousal], axis=1).astype(np.float64)


def _reinject(segments, indices, snr_db, noise: NoiseSpec, label: str, *key, seed: int) -> np.ndarray:
    """Fresh noisy realizations of segments[indices] at the given SNR, as an
    (N, C, T) stack in `indices` order. Segment i draws its noise from the
    stream keyed (derive_seed(seed, label, *key), i)."""
    ids = np.asarray(indices, dtype=np.int64)
    return inject_noise(segments.clean[ids], noise, snr_db, derive_seed(seed, label, *key), ids)[0]


def train(dataset: np.recarray, cfg: TrainConfig) -> tuple[FdcNet, list[LogRow]]:
    cfg.validate()
    if len(dataset) == 0:
        raise DegenerateDataError("empty dataset")
    subjects = dataset.subject_id if cfg.split_by_subject else None
    train_idx, test_idx = split_indices(len(dataset), cfg.split, cfg.seed, subjects=subjects)
    labels = _labels(dataset)
    weights = class_weights(labels[train_idx])

    model = FdcNet(replace(cfg.model, n_channels=dataset.clean.shape[1]), seed=cfg.seed)
    optimizer = AdamW(
        model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay
    )

    log: list[LogRow] = []
    for epoch in range(cfg.epochs):
        snr = curriculum_snr(epoch, cfg.epochs, cfg)
        order = np.random.default_rng(derive_seed(cfg.seed, "shuffle", epoch)).permutation(
            len(train_idx)
        )
        total = total_mse = total_cls = 0.0
        seen = 0
        for step, lo in enumerate(range(0, len(order), cfg.batch_size)):
            batch = order[lo : lo + cfg.batch_size]
            batch_ids = train_idx[batch]
            xb = _reinject(dataset, batch_ids, snr, cfg.noise, "train-noise", epoch, seed=cfg.seed)
            cb = dataset.clean[batch_ids]
            yb = labels[batch_ids]
            rng = np.random.default_rng(derive_seed(cfg.seed, "dropout", epoch, step))
            try:
                with GradTape():
                    out = model.forward(xb, mode="train", rng=rng)
                    loss, l_mse, l_cls = joint_loss(
                        cb, out.x_hat, out.p, yb, weights, cfg.alpha, return_parts=True
                    )
                    backward(loss)
            except NonFiniteError as exc:
                raise NonFiniteError(
                    f"non-finite value at epoch {epoch} step {step}: {exc}"
                ) from exc
            optimizer.step()
            optimizer.zero_grad()
            b = len(batch_ids)
            total += loss.item() * b
            total_mse += l_mse.item() * b
            total_cls += l_cls.item() * b
            seen += b
        val_acc, val_cc = _validate(model, dataset, test_idx, labels, snr, cfg, epoch)
        log.append(
            LogRow(
                epoch=epoch,
                snr_db=snr,
                loss_total=total / seen,
                loss_mse=total_mse / seen,
                loss_cls=total_cls / seen,
                val_acc=val_acc,
                val_cc=val_cc,
            )
        )
    return model, log


def _level_metrics(model, segments, indices, labels, snr_db, noise, label, *key,
                   seed, batch_size) -> tuple:
    """Metrics of segments[indices] at one SNR: each batch of batch_size
    gets its noise just before its eval-mode pass (see _reinject). Returns
    the means over segments of input SNR, output SNR, CC (as a fraction) and
    MSE, then the 4-class accuracy against labels[indices]."""
    in_snrs, out_snrs, ccs, mses, ps = [], [], [], [], []
    with no_grad():
        for lo in range(0, len(indices), batch_size):
            ids = indices[lo : lo + batch_size]
            noisy = _reinject(segments, ids, snr_db, noise, label, *key, seed=seed)
            out = model.forward(noisy, mode="eval")
            for clean, xn, xh in zip(segments.clean[ids], noisy, out.x_hat.numpy()):
                in_snrs.append(metric_snr(clean, xn))
                out_snrs.append(metric_snr(clean, xh))
                ccs.append(metric_cc(clean, xh))
                mses.append(metric_mse(clean, xh))
            ps.append(out.p.numpy())
    means = (float(np.mean(v)) for v in (in_snrs, out_snrs, ccs, mses))
    return (*means, accuracy_4class(np.concatenate(ps), labels[indices]))


def _validate(model, dataset, test_idx, labels, snr, cfg, epoch) -> tuple[float, float]:
    _, _, cc, _, acc = _level_metrics(model, dataset, test_idx, labels, snr, cfg.noise, "val-noise",
                                      epoch, seed=cfg.seed, batch_size=cfg.batch_size)
    return acc, cc


# segments per eval-mode forward pass of the SNR sweep
EVAL_BATCH_SIZE = 64


def evaluate(
    model: FdcNet,
    segments: np.recarray,
    snr_grid: list[float],
    *,
    eval_seed: int = 0,
    noise: NoiseSpec = NoiseSpec(),
) -> EvalReport:
    """Sweep the SNR grid: re-inject noise with the artifact settings `noise`
    into the clean segments at every grid level (fixed eval seed),
    denoise/classify in eval mode, and report per-level mean metrics plus
    the arithmetic average row."""
    if len(segments) == 0:
        raise DegenerateDataError("empty evaluation set")
    if eval_seed < 0:
        raise ConfigError(f"eval seed must be >= 0, got {eval_seed}")
    indices, labels = np.arange(len(segments)), _labels(segments)
    rows: list[EvalRow] = []
    for gi, snr in enumerate(snr_grid):
        in_snr, out_snr, cc, mse, acc = _level_metrics(
            model, segments, indices, labels, snr, noise, "eval-noise", gi,
            seed=eval_seed, batch_size=EVAL_BATCH_SIZE,
        )
        rows.append(EvalRow(in_snr, out_snr, cc * 100.0, mse, acc))
    average = EvalRow(*(float(np.mean(column)) for column in zip(*map(astuple, rows))))
    return EvalReport(grid=list(snr_grid), rows=rows, average=average)


EVAL_COLUMNS = [f.name for f in fields(EvalRow)]


def write_eval_csv(path, report: EvalReport) -> None:
    with atomic_writer(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target_snr_db"] + EVAL_COLUMNS)
        labels = [f"{snr:.6g}" for snr in report.grid] + ["average"]
        for label, r in zip(labels, report.rows + [report.average]):
            writer.writerow([label] + [f"{v:.10g}" for v in astuple(r)])


def read_eval_csv(path) -> EvalReport:
    rows: list[EvalRow] = []
    grid: list[float] = []
    average = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FileFormatError(f"{path}: not a CSV text file: {exc}") from None
    for lineno, rec in enumerate(records, start=1):
        if lineno == 1:
            if rec != ["target_snr_db"] + EVAL_COLUMNS:
                raise FileFormatError(f"{path}:{lineno}: unexpected header {rec}")
            continue
        if len(rec) != 6:
            raise FileFormatError(f"{path}:{lineno}: expected 6 fields, got {len(rec)}")
        is_average = rec[0] == "average"
        try:
            values = [float(v) for v in (rec[1:] if is_average else rec)]
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from None
        if not all(math.isfinite(v) for v in values):
            raise FileFormatError(f"{path}:{lineno}: non-finite value in {rec}")
        if is_average:
            average = EvalRow(*values)
        else:
            grid.append(values[0])
            rows.append(EvalRow(*values[1:]))
    if average is None or not rows:
        raise FileFormatError(f"{path}: missing data or average row")
    return EvalReport(grid=grid, rows=rows, average=average)
