#!/usr/bin/env python3
"""Desk-scale end-to-end experiment: synth -> train -> eval -> report.

Runs the full pipeline through the CLI with a pinned seed and prints the
headline numbers (loss trajectory, held-out accuracy at every grid level,
output-SNR gain at 0 dB input), with each command's wall time and peak RSS.
Everything lands under runs/desk-scale/ by default.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import time
from pathlib import Path


def run(cmd: list[str]) -> float:
    """Run one command; print its wall time and its peak RSS, which comes
    from the child's own resource usage (ru_maxrss, in KiB on Linux)."""
    print(f"$ {' '.join(cmd)}", flush=True)
    t0 = time.monotonic()
    pid = os.posix_spawn(cmd[0], cmd, os.environ)
    _, status, usage = os.wait4(pid, 0)
    dt = time.monotonic() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    print(f"  [{dt:.1f}s, peak RSS {usage.ru_maxrss / 1024:.1f} MiB]", flush=True)
    return dt


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="runs/desk-scale")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--skip-synth", action="store_true", help="reuse an existing data.fdcd")
    args = ap.parse_args()

    out = Path(args.out_dir)
    data = out / "data.fdcd"
    cli = [sys.executable, "-m", "fdcnet.cli"]

    total = 0.0
    if not (args.skip_synth and data.exists()):
        total += run(cli + [
            "synth", "--subjects", "4", "--trials", "25", "--channels", "8",
            "--label-effect", "0.5", "--seed", str(args.seed), "--out", str(data),
        ])
    total += run(cli + [
        "train", "--data", str(data), "--out-dir", str(out), "--desk",
        "--epochs", str(args.epochs), "--seed", str(args.seed),
    ])
    total += run(cli + [
        "eval", "--model", str(out / "model.fdcn"), "--data", str(data),
        "--use", "test", "--seed", str(args.seed),
        "--out", str(out / "eval_test.csv"),
    ])
    total += run(cli + ["report", "--out-dir", str(out / "report"), str(out / "eval_test.csv")])

    log = read_rows(out / "training_log.csv")
    ev = read_rows(out / "eval_test.csv")
    first, last = float(log[0]["loss_total"]), float(log[-1]["loss_total"])
    levels = [r for r in ev if r["target_snr_db"] != "average"]
    at0 = next(r for r in levels if abs(float(r["target_snr_db"])) < 1e-9)
    gain = float(at0["output_snr_db"]) - float(at0["input_snr_db"])

    print()
    print(f"train loss: {first:.4f} -> {last:.4f} ({'down' if last < first else 'UP'})")
    print(f"final val acc: {float(log[-1]['val_acc']):.4f}  val cc: {float(log[-1]['val_cc']):.4f}")
    print(f"test acc (eval grid mean): {float(ev[-1]['acc_4class']):.4f}")
    for r in levels:
        print(f"held-out acc at {float(r['target_snr_db']):+g} dB: {float(r['acc_4class']):.4f}")
    print(f"SNR gain at 0 dB input: {gain:+.3f} dB "
          f"({float(at0['input_snr_db']):.3f} -> {float(at0['output_snr_db']):.3f})")
    print(f"total pipeline time: {total:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
