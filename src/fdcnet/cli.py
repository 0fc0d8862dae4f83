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
import sys
from dataclasses import fields
from pathlib import Path

from .configfile import format_value, read_config, write_config
from .dataset import build_dataset, load_dataset, save_dataset, split_indices
from .errors import ConfigError, FdcnetError, FileFormatError
from .model import FdcNet, ModelConfig
from .noise import MAX_ABS_SNR_DB
from .report import write_report
from .synth import SynthSpec
from .trainer import (
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
    n = int(round((end - start) / step))
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


def _write_run_config(primary_output: str, section: str, values: dict) -> None:
    out_dir = Path(primary_output).resolve().parent
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "run_config.txt"
    # keep sections written by other stages sharing this directory
    sections = read_config(path) if path.exists() else {}
    sections[section] = values
    write_config(path, sections)


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
    p.add_argument("--subjects", type=int, default=4)
    p.add_argument("--trials", type=int, default=25, help="trials per subject")
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--trial-seconds", type=float, default=10.5)
    p.add_argument("--sample-rate", type=float, default=128.0)
    p.add_argument("--label-effect", type=float, default=0.5)
    p.add_argument("--snr", type=float, default=0.0, help="stored-noisy target SNR in dB")
    p.add_argument("--sigma", type=float, default=0.01, help="Gaussian floor std")
    p.add_argument("--ratio", type=float, default=1.0, help="EMG:EOG mixing ratio")
    p.add_argument("--window", type=int, default=128)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output .fdcd path")
    return p


def _run_synth(args, parser) -> int:
    _require(args, parser, "out")
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
    Path(args.out).resolve().parent.mkdir(parents=True, exist_ok=True)
    save_dataset(args.out, segments)
    _write_run_config(args.out, "synth", _flag_values(args, parser))
    print(f"wrote {len(segments)} segments to {args.out}")
    return 0


# -- train --------------------------------------------------------------------

def _build_train(sub):
    p = sub.add_parser("train", help="train a model on a dataset file")
    p.add_argument("--config", help="key=value config file with a [train] section")
    p.add_argument("--data", help="input .fdcd dataset")
    p.add_argument("--out-dir")
    p.add_argument("--desk", action="store_true", help="desk-scale preset (d_model=32, 1 layer, 4 heads)")
    # one flag per TrainConfig field; numeric flags default to None so the
    # desk preset can fill unset ones
    for f in fields(TrainConfig):
        flag = f"--{f.name.replace('_', '-')}"
        if isinstance(f.default, bool):
            p.add_argument(flag, action="store_true")
        else:
            p.add_argument(flag, type=type(f.default), default=None)
    return p


def _train_config(args) -> TrainConfig:
    base = desk_preset() if args.desk else TrainConfig()
    values = {}
    for f in fields(TrainConfig):
        arg_val = getattr(args, f.name)
        values[f.name] = getattr(base, f.name) if arg_val is None else arg_val
    return TrainConfig(**values)


def _run_train(args, parser) -> int:
    _require(args, parser, "data", "out_dir")
    cfg = _train_config(args)
    dataset = load_dataset(args.data)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model, log = train(dataset, cfg, checkpoint_path=out_dir / "model.fdcn")
    write_log_csv(out_dir / "training_log.csv", log)
    split = {"split": cfg.split, "seed": cfg.seed, "split_by_subject": cfg.split_by_subject}
    write_config(out_dir / "model.cfg", {"model": model.cfg.to_dict(), "split": split})
    run_values = {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}
    run_values["data"] = args.data
    run_values["out_dir"] = str(out_dir)
    run_values["desk"] = args.desk
    write_config(out_dir / "run_config.txt", {"train": run_values})
    final = log[-1]
    print(
        f"trained {cfg.epochs} epochs; final loss {final.loss_total:.6f}, "
        f"val acc {final.val_acc:.4f}, val cc {final.val_cc:.4f}"
    )
    print(f"checkpoint: {out_dir / 'model.fdcn'}")
    return 0


# -- shared model loading ------------------------------------------------------

def _load_model(model_path: str, config_path: str | None) -> tuple[FdcNet, dict]:
    """The model and its .cfg sections; [split] is absent in configs written
    before the training split was recorded."""
    cfg_path = Path(config_path) if config_path else Path(model_path).with_suffix(".cfg")
    if not cfg_path.exists():
        raise FileFormatError(
            f"model config {cfg_path} not found; pass --model-config explicitly"
        )
    sections = read_config(cfg_path)
    if "model" not in sections:
        raise FileFormatError(f"{cfg_path}: missing [model] section")
    cfg = ModelConfig.from_dict(sections["model"])
    return FdcNet.load(model_path, cfg), sections


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
    p.add_argument("--sigma", type=float, default=0.01)
    p.add_argument("--ratio", type=float, default=1.0)
    p.add_argument("--sample-rate", type=float, default=128.0)
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
    for flag, key in (("split", "split"), ("split_seed", "seed")):
        given = getattr(args, flag)
        if given is not None and given != recorded[key]:
            raise UsageError(
                f"--{flag.replace('_', '-')} {given} conflicts with the model's training "
                f"split ({key} = {recorded[key]})",
                parser,
            )
        setattr(args, flag, recorded[key])
    return bool(recorded["split_by_subject"])


def _run_eval(args, parser) -> int:
    _require(args, parser, "model", "data", "out")
    model, sections = _load_model(args.model, args.model_config)
    by_subject = _resolve_split(args, sections.get("split"), parser)
    segments = _select_segments(
        load_dataset(args.data), args.use, args.split, args.split_seed, by_subject
    )
    grid = parse_snr_grid(args.snr_grid)
    report = evaluate(
        model,
        segments,
        grid,
        eval_seed=args.seed,
        gaussian_sigma=args.sigma,
        emg_eog_ratio=args.ratio,
        sample_rate_hz=args.sample_rate,
    )
    Path(args.out).resolve().parent.mkdir(parents=True, exist_ok=True)
    write_eval_csv(args.out, report)
    _write_run_config(args.out, "eval", _flag_values(args, parser))
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
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--out", help="output .fdcd: clean field holds the denoised signal")
    return p


def _run_denoise(args, parser) -> int:
    _require(args, parser, "model", "data", "out")
    if args.batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {args.batch_size}")
    from .tensor import no_grad

    model, _ = _load_model(args.model, args.model_config)
    segments = load_dataset(args.data)
    with no_grad():
        for lo in range(0, len(segments), args.batch_size):
            rows = slice(lo, lo + args.batch_size)
            x_hat = model.forward(segments.noisy[rows].copy(), mode="eval").x_hat
            segments.clean[rows] = x_hat.numpy()
    Path(args.out).resolve().parent.mkdir(parents=True, exist_ok=True)
    save_dataset(args.out, segments)
    _write_run_config(args.out, "denoise", _flag_values(args, parser))
    print(f"denoised {len(segments)} segments into {args.out}")
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
        args.csv = args.csv.split()
    _require(args, parser, "out_dir", "csv")
    named = [(Path(path).stem, read_eval_csv(path)) for path in args.csv]
    written = write_report(args.out_dir, named)
    _write_run_config(str(Path(args.out_dir) / "summary.txt"), "report",
                      {"out_dir": args.out_dir, "csv": " ".join(args.csv)})
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
    except FdcnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
