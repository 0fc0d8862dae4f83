"""Command-line entry point: synth, train, eval, denoise, report.

Exit codes: 0 success, 1 usage error, 2 runtime failure. Every run writes
its effective configuration to run_config.txt next to the primary output;
feeding that file back through --config reproduces the run.
"""

from __future__ import annotations

import os

# Cap BLAS parallelism before numpy is imported anywhere in this process.
_threads = os.environ.get("FDCNET_THREADS")
if _threads and _threads.isdigit():
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import difflib
import math
import shlex
import sys
from dataclasses import fields, replace
from pathlib import Path

from .configfile import format_value, read_config, write_config
from .dataset import DatasetReader, build_dataset, load_dataset, save_dataset, split_indices, write_header
from .errors import ConfigError, DegenerateDataError, DimensionError, FdcnetError, FileFormatError
from .fileio import atomic_writer
from .model import FdcNet, ModelConfig
from .noise import MAX_ABS_SNR_DB, NoiseSpec
from .report import write_report
from .synth import SynthSpec, min_artifact_length
from .tensor import no_grad
from .trainer import (
    COMPUTE_DTYPE,
    EVAL_BATCH_SIZE,
    READ_FIELDS,
    TrainConfig,
    desk_preset,
    evaluate,
    read_eval_csv,
    train,
    write_eval_csv,
    write_log_csv,
)


class UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser | None = None):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of sys.exit(2)
        raise UsageError(message, self)


def _suggest(message: str, parser) -> str:
    if parser is None or "unrecognized arguments:" not in message:
        return message
    known = [s for s in getattr(parser, "_option_string_actions", {}) if s.startswith("--")]
    bad = [tok for tok in message.split(":", 1)[1].split() if tok.startswith("--")]
    hints = []
    for tok in bad:
        close = difflib.get_close_matches(tok, known, n=1)
        if close:
            hints.append(f"did you mean {close[0]}?")
    return message + (" (" + " ".join(hints) + ")" if hints else "")


MAX_SNR_LEVELS = 10_001


def parse_snr_grid(text: str) -> list[float]:
    """`start:end:step`, inclusive on both ends when step divides the range;
    a single number is a one-point grid."""
    parts = text.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(
            f"snr grid must be 'start:end:step' or a number, got {text!r}"
        ) from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"snr grid values must be finite, got {text!r}")
    # every level lies between the first two values; the step is not a level
    if any(abs(v) > MAX_ABS_SNR_DB for v in values[:2]):
        raise ConfigError(f"snr grid levels must be within ±{MAX_ABS_SNR_DB:g} dB, got {text!r}")
    if len(values) == 1:
        return values
    start, end, step = values
    if step == 0 or (end - start) * step < 0:
        raise ConfigError(f"inconsistent snr grid {text!r}")
    # counted before any list is built; a tiny step overflows to inf
    steps = (end - start) / step
    if not steps <= MAX_SNR_LEVELS - 1:
        raise ConfigError(f"snr grid {text!r} needs more than {MAX_SNR_LEVELS} levels")
    n = int(round(steps))
    grid = [start + i * step for i in range(n + 1)]
    if abs(grid[-1] - end) > 1e-9:
        grid = [g for g in grid if (g - end) * step <= 1e-9]
    return grid


def _config_value(action: argparse.Action, where: str, value, parser):
    """A config value checked and converted as its flag's command-line text
    would be; a store_true flag takes only true/false."""
    text = value if isinstance(value, str) else format_value(value)
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
        raise UsageError(f"config key {where}: expected true or false, got {text!r}", parser)
    try:
        value = action.type(text) if action.type else text
    except ValueError:
        raise UsageError(f"config key {where}: invalid {action.type.__name__} value {text!r}", parser) from None
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"config key {where}: {text!r} is not one of {list(action.choices)}", parser)
    return value


def _apply_config_defaults(parser: argparse.ArgumentParser, argv: list[str], section: str) -> None:
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    ns, _ = pre.parse_known_args(argv)
    if ns.config:
        sections = read_config(ns.config)
        body = sections.get(section, {})
        actions = {a.dest: a for a in parser._actions}
        unknown = set(body) - set(actions)
        if unknown:
            raise UsageError(f"unknown config keys in [{section}]: {sorted(unknown)}", parser)
        parser.set_defaults(**{key: _config_value(actions[key], f"[{section}] {key}", value, parser)
                               for key, value in body.items()})


def _read_run_config(primary_output) -> tuple[Path, dict]:
    """The run_config.txt beside ``primary_output`` and the sections other stages put there."""
    path = Path(primary_output).resolve().parent / "run_config.txt"
    return path, read_config(path) if path.exists() else {}


def _flag_values(args, parser) -> dict:
    """Every flag of ``parser`` except --config and help, in parser order,
    with the value it took; flags left unset are omitted."""
    values = {a.dest: getattr(args, a.dest) for a in parser._actions
              if a.option_strings and a.dest not in ("config", "help")}
    return {k: v for k, v in values.items() if v is not None}


# -- synth --------------------------------------------------------------------

def _require(args, parser, *keys):
    missing = [f"--{k.replace('_', '-')}" for k in keys if getattr(args, k) in (None, [])]
    if missing:
        raise UsageError(f"missing required flags: {' '.join(missing)}", parser)


def _build_synth(sub):
    p = sub.add_parser("synth", help="generate a synthetic labelled dataset file")
    p.add_argument("--config", help="key=value config file with a [synth] section")
    p.add_argument("--subjects", type=int, default=SynthSpec.n_subjects)
    p.add_argument("--trials", type=int, default=SynthSpec.trials_per_subject, help="trials per subject")
    # 8 channels for desk-scale files; SynthSpec's own default is 32
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--trial-seconds", type=float, default=SynthSpec.trial_length_s)
    p.add_argument("--sample-rate", type=float, default=SynthSpec.sample_rate_hz)
    p.add_argument("--label-effect", type=float, default=SynthSpec.label_effect)
    p.add_argument("--snr", type=float, default=0.0, help="stored-noisy target SNR in dB")
    p.add_argument("--sigma", type=float, default=NoiseSpec.gaussian_sigma, help="Gaussian floor std")
    p.add_argument("--ratio", type=float, default=NoiseSpec.emg_eog_ratio, help="EMG:EOG mixing ratio")
    p.add_argument("--window", type=int, default=128)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
    p.add_argument("--out", help="output .fdcd path")
    return p


def _run_synth(args, parser) -> int:
    _require(args, parser, "out")
    run_config, sections = _read_run_config(args.out)
    spec = SynthSpec(
        n_subjects=args.subjects,
        trials_per_subject=args.trials,
        n_channels=args.channels,
        sample_rate_hz=args.sample_rate,
        trial_length_s=args.trial_seconds,
        label_effect=args.label_effect,
        seed=args.seed,
    )
    segments = build_dataset(
        spec,
        args.snr,
        gaussian_sigma=args.sigma,
        emg_eog_ratio=args.ratio,
        window=args.window,
        overlap=args.overlap,
    )
    save_dataset(args.out, segments)
    write_config(run_config, {**sections, "synth": _flag_values(args, parser)})
    print(f"wrote {len(segments)} segments to {args.out}")
    return 0


# -- train --------------------------------------------------------------------

# train's flags: TrainConfig's own fields, then NoiseSpec's fields, then the
# numeric ModelConfig fields except n_channels (the dataset's) and t_max (no
# flag), then the ablation switches, which ModelConfig.with_ablations applies
_TRAIN_FIELDS = [f for f in fields(TrainConfig) if f.name not in ("noise", "model")]
_NOISE_FIELDS = fields(NoiseSpec)
_MODEL_FIELDS = [f for f in fields(ModelConfig)
                 if not isinstance(f.default, bool) and f.name not in ("n_channels", "t_max")]
_ABLATIONS = ("no_feedback", "no_cross", "no_eegsp")


def _build_train(sub):
    p = sub.add_parser("train", help="train a model on a dataset file")
    p.add_argument("--config", help="key=value config file with a [train] section")
    p.add_argument("--data", help="input .fdcd dataset")
    p.add_argument("--out-dir")
    p.add_argument("--desk", action="store_true",
                   help="desk-scale preset (d_model=32, n_layers=1, n_heads=4, ff_dim=64)")
    # numeric flags default to None so the desk preset can fill unset ones
    for f in (*_TRAIN_FIELDS, *_NOISE_FIELDS, *_MODEL_FIELDS):
        flag = f"--{f.name.replace('_', '-')}"
        if isinstance(f.default, bool):
            p.add_argument(flag, action="store_true")
        else:
            p.add_argument(flag, type=type(f.default), default=None)
    for name in _ABLATIONS:
        p.add_argument(f"--{name.replace('_', '-')}", action="store_true")
    return p


def _given(args, of) -> dict:
    """The flags of the fields `of` that the command line or --config set."""
    return {f.name: getattr(args, f.name) for f in of if getattr(args, f.name) is not None}


def _train_config(args) -> TrainConfig:
    base = desk_preset() if args.desk else TrainConfig()
    model = replace(base.model, **_given(args, _MODEL_FIELDS))
    model = model.with_ablations(*(getattr(args, name) for name in _ABLATIONS))
    noise = replace(base.noise, **_given(args, _NOISE_FIELDS))
    return replace(base, noise=noise, model=model, **_given(args, _TRAIN_FIELDS))


def _check_segment_length(path: str, sample_rate: float, t_max: int) -> None:
    """Reject a dataset whose segments are too short to take artifact
    noise at sample_rate, or longer than the model's t_max, from its header
    alone."""
    need = min_artifact_length(sample_rate)
    with DatasetReader(path) as reader:
        t = reader.shape[1]
    if t < need:
        raise DegenerateDataError(
            f"{path}: segments of length T = {t} are too short for noise injection, "
            f"which needs T >= {need} at {sample_rate:g} Hz"
        )
    if t > t_max:
        raise DimensionError(f"{path}: segments of length T = {t} exceed the model's t_max = {t_max}")


def _run_train(args, parser) -> int:
    _require(args, parser, "data", "out_dir")
    out_dir = Path(args.out_dir)
    run_config, sections = _read_run_config(out_dir / "model.fdcn")
    cfg = _train_config(args)
    _check_segment_length(args.data, cfg.noise.sample_rate_hz, cfg.model.t_max)
    # nothing is written until training has succeeded
    model, log = train(load_dataset(args.data, READ_FIELDS), cfg)
    # run_config.txt records the values the run used, the desk preset's included
    for obj, of in ((cfg, _TRAIN_FIELDS), (cfg.noise, _NOISE_FIELDS), (cfg.model, _MODEL_FIELDS)):
        vars(args).update({f.name: getattr(obj, f.name) for f in of})
    model.save(out_dir / "model.fdcn")
    write_log_csv(out_dir / "training_log.csv", log)
    split = {"split": cfg.split, "seed": cfg.seed, "split_by_subject": cfg.split_by_subject}
    write_config(out_dir / "model.cfg", {"model": model.cfg.to_dict(), "split": split})
    write_config(run_config, {**sections, "train": _flag_values(args, parser)})
    final = log[-1]
    print(
        f"trained {cfg.epochs} epochs; final loss {final.loss_total:.6f}, "
        f"val acc {final.val_acc:.4f}, val cc {final.val_cc:.4f}"
    )
    print(f"checkpoint: {out_dir / 'model.fdcn'}")
    return 0


# -- shared model loading ------------------------------------------------------

def _model_config(model_path: str, config_path: str | None) -> tuple[ModelConfig, dict]:
    """The model's config and its .cfg sections; [split] is absent in
    configs written before the training split was recorded."""
    cfg_path = Path(config_path) if config_path else Path(model_path).with_suffix(".cfg")
    if not cfg_path.exists():
        raise FileFormatError(
            f"model config {cfg_path} not found; pass --model-config explicitly"
        )
    sections = read_config(cfg_path)
    if "model" not in sections:
        raise FileFormatError(f"{cfg_path}: missing [model] section")
    return ModelConfig.from_dict(sections["model"]), sections


def _select_segments(segments, use: str, split: float, split_seed: int, by_subject: bool):
    if use == "all":
        return segments
    subjects = segments.subject_id if by_subject else None
    train_idx, test_idx = split_indices(len(segments), split, split_seed, subjects=subjects)
    return segments[train_idx if use == "train" else test_idx]


# -- eval ----------------------------------------------------------------------

def _build_eval(sub):
    p = sub.add_parser("eval", help="evaluate a model across an SNR grid")
    p.add_argument("--config", help="key=value config file with an [eval] section")
    p.add_argument("--model", help=".fdcn checkpoint")
    p.add_argument("--model-config", help="model .cfg (default: next to the checkpoint)")
    p.add_argument("--data")
    p.add_argument("--snr-grid", default="-3:3:1", help="start:end:step in dB")
    p.add_argument("--seed", type=int, default=0, help="evaluation noise seed")
    p.add_argument("--sigma", type=float, default=NoiseSpec.gaussian_sigma)
    p.add_argument("--ratio", type=float, default=NoiseSpec.emg_eog_ratio)
    p.add_argument("--sample-rate", type=float, default=NoiseSpec.sample_rate_hz)
    p.add_argument("--use", choices=["all", "train", "test"], default="all",
                   help="evaluate on the whole file or one side of a split")
    # default: the training split recorded in the model config, else 0.8 / 0
    p.add_argument("--split", type=float, default=None)
    p.add_argument("--split-seed", type=int, default=None)
    p.add_argument("--out", help="output CSV path")
    return p


def _resolve_split(args, recorded: dict | None, parser) -> bool:
    """Fill args.split and args.split_seed from the model's training split;
    returns whether that split is by subject. Flags that disagree with the
    recorded split are a usage error."""
    if recorded is None:
        args.split = 0.8 if args.split is None else args.split
        args.split_seed = 0 if args.split_seed is None else args.split_seed
        return False
    missing = {"split", "seed", "split_by_subject"} - set(recorded)
    if missing:
        raise FileFormatError(f"model config [split] section lacks {sorted(missing)}")
    split, seed, by_subject = recorded["split"], recorded["seed"], recorded["split_by_subject"]
    # exact types: a bool is not a number here
    for key, ok, expected in (
        ("split", type(split) in (int, float) and 0.0 < split < 1.0, "a number in (0, 1)"),
        ("seed", type(seed) is int and seed >= 0, "an integer >= 0"),
        ("split_by_subject", type(by_subject) is bool, "true or false"),
    ):
        if not ok:
            raise FileFormatError(f"model config [split] {key} must be {expected}, got {recorded[key]!r}")
    for flag, key in (("split", "split"), ("split_seed", "seed")):
        given = getattr(args, flag)
        if given is not None and given != recorded[key]:
            raise UsageError(
                f"--{flag.replace('_', '-')} {given} conflicts with the model's training "
                f"split ({key} = {recorded[key]})",
                parser,
            )
        setattr(args, flag, recorded[key])
    return by_subject


def _run_eval(args, parser) -> int:
    _require(args, parser, "model", "data", "out")
    run_config, sections = _read_run_config(args.out)
    noise = NoiseSpec(emg_eog_ratio=args.ratio, gaussian_sigma=args.sigma, sample_rate_hz=args.sample_rate)
    noise.validate()
    grid = parse_snr_grid(args.snr_grid)
    cfg, cfg_sections = _model_config(args.model, args.model_config)
    _check_segment_length(args.data, noise.sample_rate_hz, cfg.t_max)
    model = FdcNet.load(args.model, cfg)
    by_subject = _resolve_split(args, cfg_sections.get("split"), parser)
    segments = _select_segments(
        load_dataset(args.data, READ_FIELDS), args.use, args.split, args.split_seed, by_subject
    )
    report = evaluate(model, segments, grid, eval_seed=args.seed, noise=noise)
    write_eval_csv(args.out, report)
    write_config(run_config, {**sections, "eval": _flag_values(args, parser)})
    a = report.average
    print(
        f"evaluated {len(segments)} segments over {len(grid)} SNR levels: "
        f"mean output SNR {a.output_snr_db:.3f} dB, CC {a.cc_percent:.2f}%, "
        f"MSE {a.mse:.5g}, acc {a.acc_4class:.4f}"
    )
    return 0


# -- denoise -------------------------------------------------------------------

def _build_denoise(sub):
    p = sub.add_parser("denoise", help="denoise the stored noisy signals of a dataset file")
    p.add_argument("--config", help="key=value config file with a [denoise] section")
    p.add_argument("--model")
    p.add_argument("--model-config")
    p.add_argument("--data")
    p.add_argument("--batch-size", type=int, default=EVAL_BATCH_SIZE)
    p.add_argument("--out", help="output .fdcd: clean field holds the denoised signal")
    return p


def _run_denoise(args, parser) -> int:
    _require(args, parser, "model", "data", "out")
    run_config, sections = _read_run_config(args.out)
    if args.batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {args.batch_size}")
    model = FdcNet.load(args.model, _model_config(args.model, args.model_config)[0])
    # one --batch-size chunk of packed records at a time: its noisy field is
    # forwarded, x_hat replaces its clean field, and the chunk is appended
    with DatasetReader(args.data) as reader, atomic_writer(args.out) as fh, no_grad():
        write_header(fh, *reader.shape, reader.count)
        for _, chunk in reader.chunks(args.batch_size):
            chunk["clean"] = model.forward(chunk["noisy"].astype(COMPUTE_DTYPE), mode="eval").x_hat.numpy()
            fh.write(chunk)
    write_config(run_config, {**sections, "denoise": _flag_values(args, parser)})
    print(f"denoised {reader.count} segments into {args.out}")
    return 0


# -- report --------------------------------------------------------------------

def _build_report(sub):
    p = sub.add_parser("report", help="render SVG charts and a summary table from eval CSVs")
    p.add_argument("--config", help="key=value config file with a [report] section")
    p.add_argument("--out-dir")
    p.add_argument("csv", nargs="*", help="eval CSV paths; series keep this order")
    return p


def _run_report(args, parser) -> int:
    if isinstance(args.csv, str):
        # run_config.txt holds the list as shell words, so a path may hold spaces
        try:
            args.csv = shlex.split(args.csv)
        except ValueError as exc:
            raise UsageError(f"config key [report] csv: {exc}", parser) from None
    _require(args, parser, "out_dir", "csv")
    run_config, sections = _read_run_config(Path(args.out_dir) / "summary.txt")
    named = [(Path(path).stem, read_eval_csv(path)) for path in args.csv]
    written = write_report(args.out_dir, named)
    write_config(run_config, {**sections, "report": {"out_dir": args.out_dir, "csv": shlex.join(args.csv)}})
    for path in written:
        print(f"wrote {path}")
    return 0


# -- entry ---------------------------------------------------------------------

_BUILDERS = {
    "synth": (_build_synth, _run_synth),
    "train": (_build_train, _run_train),
    "eval": (_build_eval, _run_eval),
    "denoise": (_build_denoise, _run_denoise),
    "report": (_build_report, _run_report),
}


_DASH_VALUE_FLAGS = {"--snr-grid"}


def _join_dash_values(argv: list[str]) -> list[str]:
    """Merge `--flag -3:3:1` into `--flag=-3:3:1` so argparse does not read
    the value as an option string."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _DASH_VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = _join_dash_values(list(sys.argv[1:] if argv is None else argv))
    parser = _Parser(prog="fdcnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub_parsers = {}
    for name, (build, _) in _BUILDERS.items():
        sub_parsers[name] = build(sub)
    try:
        if argv and argv[0] in sub_parsers:
            _apply_config_defaults(sub_parsers[argv[0]], argv[1:], argv[0])
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        return _BUILDERS[args.command][1](args, sub_parsers[args.command])
    except UsageError as exc:
        hint_parser = exc.parser
        if argv and argv[0] in sub_parsers and "unrecognized arguments" in str(exc):
            hint_parser = sub_parsers[argv[0]]
        print(f"usage error: {_suggest(str(exc), hint_parser)}", file=sys.stderr)
        return 1
    except (FdcnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
