"""One workload process: set-up, timed rounds, output checks.

Started by run.py from the root of a checkout, with BLAS threads already
pinned in the environment. Writes its result as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _rounds(workload, client, count: int) -> list[dict]:
    """Run ``count`` rounds, digesting each round's output files."""
    from workloads import tree_digest

    rounds = []
    for _ in range(count):
        r = workload.run_round(client)
        r["attempted"] = workload.attempted()
        r["digest"] = tree_digest(workload.round_dir)
        rounds.append(r)
    return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at process launch")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    import numpy as np

    from fdcnet import cli  # noqa: F401  (imports are part of set-up)
    from tracing import Tracer, derive
    from workloads import WORKLOADS, Check, Client

    workload = WORKLOADS[args.workload](Path(args.work), args.seed)
    workload.setup(Client())
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        rounds = _rounds(workload, Client(), workload.rounds(args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = []
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = _rounds(workload, Client(tracer), len(rounds))
            finally:
                tracer.uninstall()
            plain = statistics.median(r["round_s"] for r in rounds)
            overhead = (statistics.median(r["round_s"] for r in traced) - plain) / plain * 100.0
            result["layers"] = {k: [s.value, s.n, s.p90] for k, s in derive(tracer.spans, overhead).items()}
            tracer.write(Path(args.work) / "spans.json")
        checks = workload.checks()
        digests = [r.pop("digest") for r in rounds + traced]
        checks.append(Check("every round writes byte-identical outputs" + (", traced ones included" if traced else ""),
                            all(d == digests[0] for d in digests), f"{len(digests)} rounds"))
        result.update(
            rounds=rounds,
            traced_rounds=traced,
            attempted=sum(r["attempted"] for r in rounds + traced),
            failed=workload.failed() * len(rounds + traced),
            checks=[vars(c) for c in checks],
            numpy=np.__version__,
            blas=_blas(np),
        )
    Path(args.result).write_text(json.dumps(result))
    return 0


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
