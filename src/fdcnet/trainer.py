"""Curriculum-scheduled joint training and SNR-sweep evaluation.

Each epoch re-injects fresh artifact noise into the clean training segments
at the scheduled SNR (the stored noisy signals are only used as-is by eval
tooling working directly on dataset files). Training, validation and the SNR
sweep inject one batch at a time, so no more than one batch of noisy segments
is held; a segment's noise depends only on its stream key, not on its batch.
All randomness is derived from the config seed, so training logs and
checkpoints are bit-reproducible.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from .dataset import derive_seed, split_indices
from .errors import (
    ConfigError,
    ContractError,
    DegenerateDataError,
    FileFormatError,
    NonFiniteError,
)
from .fileio import atomic_writer
from .metrics import metric_cc, metric_mse, metric_snr
from .model import FdcNet, ModelConfig, accuracy_4class, class_weights, joint_loss
from .noise import MAX_ABS_SNR_DB, NoiseSpec, inject_noise
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
    d_model: int = 128
    n_layers: int = 2
    n_heads: int = 8
    ff_dim: int = 256
    dropout: float = 0.1
    t_fb: int = 2
    head_hidden: int = 64
    gate_reduction: int = 4
    kernel_size: int = 7
    seed: int = 0
    split: float = 0.8
    split_by_subject: bool = False
    no_feedback: bool = False
    no_cross: bool = False
    no_eegsp: bool = False
    emg_eog_ratio: float = 1.0
    gaussian_sigma: float = 0.01
    sample_rate_hz: float = 128.0

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
            if not abs(getattr(self, name)) <= MAX_ABS_SNR_DB:
                raise ConfigError(
                    f"{name} must be within ±{MAX_ABS_SNR_DB:g} dB, got {getattr(self, name)}"
                )
        if self.snr_start < self.snr_end:
            raise ConfigError(
                f"snr_start {self.snr_start} must be >= snr_end {self.snr_end}"
            )
        if not 0.0 < self.split < 1.0:
            raise ConfigError(f"split must be in (0, 1), got {self.split}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")


def desk_preset(**overrides) -> TrainConfig:
    """Desk-scale model: trains on 2000 C=8 segments in minutes on CPU."""
    base = TrainConfig(d_model=32, n_layers=1, n_heads=4, ff_dim=64)
    return replace(base, **overrides)


def model_config_from(cfg: TrainConfig, n_channels: int) -> ModelConfig:
    return ModelConfig(
        n_channels=n_channels,
        d_model=cfg.d_model,
        n_layers=cfg.n_layers,
        n_heads=cfg.n_heads,
        ff_dim=cfg.ff_dim,
        dropout=cfg.dropout,
        t_fb=cfg.t_fb,
        head_hidden=cfg.head_hidden,
        gate_reduction=cfg.gate_reduction,
        kernel_size=cfg.kernel_size,
    ).with_ablations(cfg.no_feedback, cfg.no_cross, cfg.no_eegsp)


def curriculum_snr(epoch: int, total_epochs: int, cfg: TrainConfig) -> float:
    """Linear ramp from snr_start to snr_end, endpoints exact."""
    if not 0 <= epoch < max(total_epochs, 1):
        raise ContractError(f"epoch {epoch} outside [0, {total_epochs})")
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


LOG_COLUMNS = ["epoch", "snr_db", "loss_total", "loss_mse", "loss_cls", "val_acc", "val_cc"]


def write_log_csv(path, rows: list[LogRow]) -> None:
    with atomic_writer(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for r in rows:
            writer.writerow(
                [r.epoch, f"{r.snr_db:.6g}", f"{r.loss_total:.10g}", f"{r.loss_mse:.10g}",
                 f"{r.loss_cls:.10g}", f"{r.val_acc:.10g}", f"{r.val_cc:.10g}"]
            )


def _labels(segments) -> np.ndarray:
    return np.stack([segments.valence, segments.arousal], axis=1).astype(np.float64)


def _reinject(segments, indices, snr_db, cfg: TrainConfig, label: str, *key) -> np.ndarray:
    """Fresh noisy realizations of segments[indices] at the given SNR, as an
    (N, C, T) stack in `indices` order. Segment i draws its noise from the
    stream keyed (derive_seed(cfg.seed, label, *key), i)."""
    spec = NoiseSpec(
        target_snr_db=snr_db,
        emg_eog_ratio=cfg.emg_eog_ratio,
        gaussian_sigma=cfg.gaussian_sigma,
        seed=derive_seed(cfg.seed, label, *key),
        sample_rate_hz=cfg.sample_rate_hz,
    )
    ids = np.asarray(indices, dtype=np.int64)
    return inject_noise(segments.clean[ids], spec, ids)[0]


def train(
    dataset: np.recarray,
    cfg: TrainConfig,
    checkpoint_path=None,
) -> tuple[FdcNet, list[LogRow]]:
    cfg.validate()
    if len(dataset) == 0:
        raise DegenerateDataError("empty dataset")
    subjects = dataset.subject_id if cfg.split_by_subject else None
    train_idx, test_idx = split_indices(len(dataset), cfg.split, cfg.seed, subjects=subjects)
    labels = _labels(dataset)
    weights = class_weights(labels[train_idx])

    model = FdcNet(model_config_from(cfg, dataset.clean.shape[1]), seed=cfg.seed)
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
            xb = _reinject(dataset, batch_ids, snr, cfg, "train-noise", epoch)
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
    if checkpoint_path is not None:
        model.save(checkpoint_path)
    return model, log


def _noisy_forward(model, segments, indices, snr_db, cfg, batch_size, label, *key):
    """Eval-mode forward over segments[indices], injecting each batch's noise
    just before its pass (see _reinject); yields (ids, noisy, x_hat, p)."""
    with no_grad():
        for lo in range(0, len(indices), batch_size):
            ids = indices[lo : lo + batch_size]
            noisy = _reinject(segments, ids, snr_db, cfg, label, *key)
            out = model.forward(noisy, mode="eval")
            yield ids, noisy, out.x_hat.numpy(), out.p.numpy()


def _validate(model, dataset, test_idx, labels, snr, cfg, epoch) -> tuple[float, float]:
    if len(test_idx) == 0:
        return float("nan"), float("nan")
    ccs = []
    ps = []
    batches = _noisy_forward(model, dataset, test_idx, snr, cfg, cfg.batch_size, "val-noise", epoch)
    for ids, _, x_hat, p in batches:
        ccs += [metric_cc(clean, xh) for clean, xh in zip(dataset.clean[ids], x_hat)]
        ps.append(p)
    acc = accuracy_4class(np.concatenate(ps), labels[test_idx])
    return acc, float(np.mean(ccs))


def evaluate(
    model: FdcNet,
    segments: np.recarray,
    snr_grid: list[float],
    *,
    eval_seed: int = 0,
    gaussian_sigma: float = 0.01,
    emg_eog_ratio: float = 1.0,
    sample_rate_hz: float = 128.0,
    batch_size: int = 64,
) -> EvalReport:
    """Sweep the SNR grid: re-inject noise into the clean segments at every
    grid level (fixed eval seed), denoise/classify in eval mode, and report
    per-level mean metrics plus the arithmetic average row."""
    if not snr_grid:
        raise ConfigError("snr_grid must be nonempty")
    if len(segments) == 0:
        raise DegenerateDataError("empty evaluation set")
    labels = _labels(segments)
    noise_cfg = TrainConfig(
        seed=eval_seed,
        emg_eog_ratio=emg_eog_ratio,
        gaussian_sigma=gaussian_sigma,
        sample_rate_hz=sample_rate_hz,
    )
    rows: list[EvalRow] = []
    for gi, snr in enumerate(snr_grid):
        in_snrs, out_snrs, ccs, mses, ps = [], [], [], [], []
        batches = _noisy_forward(
            model, segments, np.arange(len(segments)), snr, noise_cfg, batch_size, "eval-noise", gi
        )
        for ids, noisy, x_hat, p in batches:
            for clean, xn, xh in zip(segments.clean[ids], noisy, x_hat):
                in_snrs.append(metric_snr(clean, xn))
                out_snrs.append(metric_snr(clean, xh))
                ccs.append(metric_cc(clean, xh))
                mses.append(metric_mse(clean, xh))
            ps.append(p)
        rows.append(
            EvalRow(
                input_snr_db=float(np.mean(in_snrs)),
                output_snr_db=float(np.mean(out_snrs)),
                cc_percent=float(np.mean(ccs)) * 100.0,
                mse=float(np.mean(mses)),
                acc_4class=accuracy_4class(np.concatenate(ps), labels),
            )
        )
    average = EvalRow(*(float(np.mean(column)) for column in zip(*map(astuple, rows))))
    return EvalReport(grid=list(snr_grid), rows=rows, average=average)


EVAL_COLUMNS = ["input_snr_db", "output_snr_db", "cc_percent", "mse", "acc_4class"]


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
