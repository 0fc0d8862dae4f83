"""scripts/record_bench.py: the BENCH_<n>.json files it writes follow the
schema in tests/fixtures/bench_schema.json. No benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "tests" / "fixtures" / "bench_schema.json").read_text())

# a string spec names its allowed types, separated by "|"
TYPES = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def schema_errors(value, spec, path="$") -> list[str]:
    """Where value departs from spec. A list spec holds the spec of every
    item of a non-empty list. In an object spec a key ending in "?" is
    optional, and "*" is the spec of every key not named."""
    if isinstance(spec, str):
        return [] if any(TYPES[t](value) for t in spec.split("|")) else [f"{path}: not {spec}"]
    if isinstance(spec, list):
        if not (isinstance(value, list) and value):
            return [f"{path}: not a non-empty list"]
        return [e for i, v in enumerate(value) for e in schema_errors(v, spec[0], f"{path}[{i}]")]
    if not isinstance(value, dict):
        return [f"{path}: not an object"]
    named = {k.rstrip("?"): (k.endswith("?"), s) for k, s in spec.items() if k != "*"}
    errors = []
    for key, (optional, sub) in named.items():
        if key in value:
            errors += schema_errors(value[key], sub, f"{path}.{key}")
        elif not optional:
            errors.append(f"{path}: no key {key}")
    for key in sorted(value.keys() - named.keys()):
        if "*" in spec:
            errors += schema_errors(value[key], spec["*"], f"{path}.{key}")
        else:
            errors.append(f"{path}: unexpected key {key}")
    return errors


def _load_script():
    spec = importlib.util.spec_from_file_location("record_bench", ROOT / "scripts" / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TIER1 = {"seconds": 130.2, "exit_code": 0, "summary": "915 passed in 130.00s", "threads": {"FDCNET_THREADS": "1"}}


def _side(rate: float) -> dict:
    env = {"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.30", "blas_threads": "1",
           "nproc": "2"}
    runs = {w: [{"seed": s, "correct": True, "attempted": 10, "failed": 0, "environment": env,
                 "metrics": {"setup_s": 0.5, "peak_rss_mb": 80.0, "segments_per_s": rate + s, "round_s": 2.0}}
                for s in (1, 2, 3)]
            for w in ("train-desk", "eval-sweep")}
    traced = {"train-desk": {"op.add.fwd_ms": 0.1, "metrics.us_per_segment": None}, "eval-sweep": {}}
    return {"revision": None, "src_lines": 3500, "tier1": TIER1, "runs": runs, "traced": traced}


@pytest.fixture(scope="module")
def record_bench():
    return _load_script()


BETTER = {"setup_s": "lower", "peak_rss_mb": "lower", "segments_per_s": "higher", "round_s": "lower"}


def test_a_paired_record_follows_the_schema(record_bench):
    rec = record_bench.record({"parent": _side(100.0), "change": _side(120.0)}, [1, 2, 3], 30, BETTER)
    assert schema_errors(json.loads(json.dumps(rec)), SCHEMA) == []
    assert rec["pairs"]["eval-sweep"]["segments_per_s"] == {"wins": 3, "pairs": 3}
    assert rec["sides"]["change"]["workloads"]["eval-sweep"]["summary"]["segments_per_s"]["median"] == 122.0


def test_a_single_side_record_follows_the_schema(record_bench):
    rec = record_bench.record({"change": _side(120.0)}, [1, 2, 3], 30, BETTER)
    assert "pairs" not in rec
    assert schema_errors(json.loads(json.dumps(rec)), SCHEMA) == []


def test_the_schema_check_finds_departures(record_bench):
    rec = json.loads(json.dumps(record_bench.record({"change": _side(120.0)}, [1], 30, BETTER)))
    del rec["sides"]["change"]["src_lines"]
    rec["sides"]["change"]["workloads"]["train-desk"]["runs"][0]["correct"] = 1
    rec["extra"] = 0
    assert len(schema_errors(rec, SCHEMA)) == 3


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files_follow_the_schema(path):
    assert schema_errors(json.loads(path.read_text()), SCHEMA) == []
