"""Tests of the benchmark itself: its declaration, the tracer, and that
tracing changes no output.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END  # noqa: E402
from tracing import PER_LAYER, Tracer, derive  # noqa: E402
from workloads import WORKLOADS, Client, tree_digest  # noqa: E402


def test_benchmark_json_declares_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def _pipeline(client: Client, out: Path) -> None:
    """A miniature of every workload's commands."""
    data = out / "data.fdcd"
    client("synth", "--subjects", 2, "--trials", 6, "--channels", 8, "--trial-seconds", 2.0,
           "--seed", 5, "--out", data)
    client("train", "--desk", "--data", data, "--out-dir", out / "model", "--epochs", 2, "--seed", 3)
    client("eval", "--model", out / "model" / "model.fdcn", "--data", data, "--use", "test",
           "--snr-grid", "-1:1:1", "--seed", 5, "--out", out / "eval" / "eval.csv")
    client("denoise", "--model", out / "model" / "model.fdcn", "--data", data,
           "--out", out / "denoise" / "denoised.fdcd")
    client("report", "--out-dir", out / "report", out / "eval" / "eval.csv")


def test_traced_run_writes_byte_identical_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    _pipeline(Client(), out)
    plain = tree_digest(out)
    shutil.rmtree(out)
    tracer = Tracer()
    tracer.install()
    try:
        _pipeline(Client(tracer), out)
    finally:
        tracer.uninstall()
    assert tree_digest(out) == plain
    assert {"model.fdcn", "training_log.csv", "eval.csv", "denoised.fdcd", "data.fdcd"} <= {
        Path(p).name for p in plain
    }
    layers = derive(tracer.spans, 0.0)
    assert set(layers) == {name for name, _, _ in PER_LAYER}
    assert layers["tensor.tape_nodes"].value > 0
    assert layers["op.gelu.bwd_ms"].value > 0
    assert layers["model.attn_freq.bwd_ms"].value > 0
    assert layers["cli.denoise.self_ms"].n == 1


def test_uninstall_restores_every_attribute():
    from fdcnet import cli, kernels, tensor
    from fdcnet.model import network

    before = (tensor.add, tensor.make_op, kernels.make_op, kernels.gelu, network.FdcNet.forward,
              network.classify_forward, cli.train)
    tracer = Tracer()
    tracer.install()
    assert tensor.add is not before[0] and network.FdcNet.forward is not before[4]
    tracer.uninstall()
    after = (tensor.add, tensor.make_op, kernels.make_op, kernels.gelu, network.FdcNet.forward,
             network.classify_forward, cli.train)
    assert all(a is b for a, b in zip(before, after))


def test_self_time_excludes_nested_layers_but_keeps_ops():
    spans = [  # name, start, end, parent, module, info
        ["cli.train", 0, 100, -1, None, None],
        ["model.forward.train", 10, 40, 0, None, None],
        ["model.gate", 12, 20, 1, None, None],
        ["op.add.fwd", 14, 18, 2, None, None],
        ["op.add.bwd", 41, 43, 0, "gate", None],
        ["optim.step", 45, 50, 0, None, None],
    ]
    layers = derive(spans, 0.0)
    ns = 1e-6  # in ms
    assert layers["trainer.step_ms"].value == pytest.approx(40 * ns)
    assert layers["op.add.fwd_ms"].value == pytest.approx(4 * ns)
    assert layers["op.add.bwd_ms"].value == pytest.approx(2 * ns)
    assert layers["model.gate.fwd_ms"].value == pytest.approx(8 * ns)
    assert layers["model.gate.bwd_ms"].value == pytest.approx(2 * ns)
    assert layers["cli.train.self_ms"].value == pytest.approx(65 * ns)
