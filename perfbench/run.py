#!/usr/bin/env python3
"""fdcnet benchmark: one workload, end to end or traced layer by layer.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The workload runs in a child process (see
worker.py) with BLAS threads pinned; set-up is repeated in fresh processes
and its median reported. The last line of standard output is one JSON
object: correct, attempted, failed and the metrics, which are the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
Workloads, metrics and checks are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "segments_per_s": "segments/s", "round_s": "s"}
DEADLINE_S = 170.0
# one BLAS thread (at most nproc): the desk model's small matrices gain
# nothing from a second one, which only doubles the CPU a run takes
BLAS_THREADS = 1


class BenchError(Exception):
    pass


def _worker(args, work: Path, env: dict, setup_only: bool, deadline: float) -> dict:
    result = work / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    # the worker's own output (fdcnet's progress lines) goes to stderr so
    # that standard output carries only the run record and the result
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr.fileno())
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process passed the {DEADLINE_S:.0f} s deadline") from None
    if code != 0:
        raise BenchError(f"workload process exited with code {code}")
    return json.loads(result.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "fdcnet" / "cli.py").is_file():
        print(f"error: {root} holds no fdcnet source (src/fdcnet); run from the repository root",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "FDCNET_THREADS"):
        env[var] = str(BLAS_THREADS)
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    workload = WORKLOADS[args.workload]
    repeats = 1 if args.trace else workload.setup_repeats
    try:
        setups = [_worker(args, work, env, True, deadline)["setup_s"] for _ in range(repeats - 1)]
        res = _worker(args, work, env, False, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"python {platform.python_version()} numpy {res['numpy']} blas {res['blas']} "
          f"blas_threads {BLAS_THREADS} nproc {nproc}")
    print("setup_s " + " ".join(f"{s:.4f}" for s in setups))
    for label, rounds in (("round", res["rounds"]), ("traced round", res["traced_rounds"])):
        for i, r in enumerate(rounds, 1):
            figures = {"segments_per_s": r["segments_per_s"], "round_s": r["round_s"], **r["record"]}
            print(f"{label} {i}: " + " ".join(f"{k} {v:.6g}" for k, v in figures.items()))
    correct = True
    for c in res["checks"]:
        correct &= c["ok"]
        print(f"check {'PASS' if c['ok'] else 'FAIL'}: {c['name']}" + (f" ({c['detail']})" if c["detail"] else ""))
    print(f"attempted {res['attempted']} failed {res['failed']}")

    if args.trace:
        metrics = {}
        print(f"{'per-layer metric':34s} {'value':>12s} {'unit':6s} {'samples':>7s} {'p90':>12s}")
        for name, unit, _ in PER_LAYER:
            value, n, p90 = res["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
            tail = "" if p90 is None or unit not in ("ms", "s") else f"{p90:12.6g}"
            print(f"{name:34s} {value:12.6g} {unit:6s} {n:7d} {tail}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "segments_per_s": statistics.median(r["segments_per_s"] for r in res["rounds"]),
            "round_s": statistics.median(r["round_s"] for r in res["rounds"]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
