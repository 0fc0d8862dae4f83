#!/usr/bin/env python3
"""Record the benchmark of this checkout, and optionally of a parent
checkout, in BENCH_<n>.json.

    python3 scripts/record_bench.py --parent ../parent --seeds $(seq 101 110)

Run from the root of a checkout. For each seed and workload it runs
perfbench/run.py untraced, for BENCHMARK.json's run_seconds, as a child
process in the parent checkout (when given) and in this one, one right
after the other so that each pair shares the machine's state, and
alternates which side runs first. Then each side gets one traced run per
workload and one timed tier-1 run. The file records, per side: every
run's end-to-end metrics, their median and interquartile range per
workload, the traced per-layer metrics, the tier-1 wall time and summary,
the src/ line count and the git revision (marked "+dirty" when src/ has
uncommitted changes); with a parent, also how many pairs the change wins
on each end-to-end metric. The environment is the one perfbench/run.py
reports: Python, NumPy and BLAS versions, BLAS threads and CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SCHEMA = 1
WORKLOADS = ("train-desk", "eval-sweep", "synth-c32")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
# tier-1 runs with one thread of each pool, as perfbench/run.py runs its workloads
TIER1_THREADS = {var: "1" for var in ("FDCNET_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
ENV_LINE = re.compile(r"^python (\S+) numpy (\S+) blas (.+) blas_threads (\d+) nproc (\d+)$")


def bench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench/run.py run in `checkout`: its result line and environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    env = next(m.groups() for m in map(ENV_LINE.match, lines) if m)
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "environment": dict(zip(("python", "numpy", "blas", "blas_threads", "nproc"), env)),
    }


def tier1(checkout: Path) -> dict:
    """Wall time and last summary line of one tier-1 run in `checkout`."""
    t0 = time.monotonic()
    proc = subprocess.run(TIER1, cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, **TIER1_THREADS, "PYTHONPATH": "src"})
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    return {"seconds": round(time.monotonic() - t0, 1), "exit_code": proc.returncode,
            "summary": lines[-1] if lines else "", "threads": TIER1_THREADS}


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (checkout / "src").rglob("*.py"))


def revision(checkout: Path) -> str | None:
    """The checkout's git HEAD, with "+dirty" when src/ differs from it, or
    None outside a git work tree."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=checkout,
                           capture_output=True, text=True).stdout.strip()
    return proc.stdout.strip() + ("+dirty" if dirty else "")


def summary(runs: list[dict]) -> dict:
    """Median and interquartile range of each end-to-end metric over runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = sorted(r["metrics"][name] for r in runs)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": statistics.median(values), "iqr": q3 - q1}
    return out


def wins(parent: list[dict], change: list[dict], better: dict) -> dict:
    """Per end-to-end metric: the pairs (same seed) in which the change is better."""
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (c["metrics"][name] - p["metrics"][name]) > 0 for p, c in zip(parent, change))
        out[name] = {"wins": won, "pairs": len(change)}
    return out


def record(sides: dict, seeds: list[int], seconds: int, better: dict) -> dict:
    """The BENCH file's content from each side's runs. `sides` maps a side
    name to its revision, src lines, tier-1 result, untraced runs per
    workload and traced metrics per workload."""
    out = {"schema": SCHEMA, "seeds": seeds, "seconds": seconds, "sides": {}}
    for name, side in sides.items():
        out["sides"][name] = {
            "revision": side["revision"],
            "src_lines": side["src_lines"],
            "tier1": side["tier1"],
            "workloads": {
                w: {"runs": runs, "summary": summary(runs), "traced": side["traced"][w]}
                for w, runs in side["runs"].items()
            },
        }
    first = next(iter(sides.values()))["runs"]
    out["environment"] = next(iter(first.values()))[0]["environment"]
    if "parent" in sides:
        out["pairs"] = {w: wins(sides["parent"]["runs"][w], sides["change"]["runs"][w], better)
                        for w in sides["change"]["runs"]}
    return out


def next_path(root: Path) -> Path:
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, help="a checkout of the parent revision")
    ap.add_argument("--seeds", type=int, nargs="+", required=True,
                    help="one pair of runs per seed and workload; choose seeds not used in development")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "perfbench" / "run.py").is_file():
        print(f"error: {root} holds no perfbench/run.py; run from the repository root", file=sys.stderr)
        return 2
    checkouts = {"parent": args.parent.resolve(), "change": root} if args.parent else {"change": root}
    declared = json.loads((root / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    sides = {name: {"runs": {w: [] for w in WORKLOADS}, "traced": {}} for name in checkouts}
    for k, seed in enumerate(args.seeds):
        for w in WORKLOADS:
            # the side that runs first alternates from seed to seed
            for name, checkout in list(checkouts.items())[:: 1 if k % 2 == 0 else -1]:
                run = bench(checkout, w, seed, seconds, 0)
                sides[name]["runs"][w].append(run)
                print(f"{name} {w} seed {seed}: " + " ".join(f"{k} {v:.6g}" for k, v in run["metrics"].items()),
                      flush=True)
    for name, checkout in checkouts.items():
        for w in WORKLOADS:
            sides[name]["traced"][w] = bench(checkout, w, args.seeds[0], seconds, 1)["metrics"]
        sides[name].update(revision=revision(checkout), src_lines=src_lines(checkout),
                           tier1=tier1(checkout))
        print(f"{name}: src {sides[name]['src_lines']} lines, tier-1 {sides[name]['tier1']}", flush=True)
    out = next_path(root)
    out.write_text(json.dumps(record(sides, args.seeds, seconds, better), indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
