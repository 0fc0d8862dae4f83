"""Span tracer for the traced benchmark run, and the per-layer metrics
derived from its spans.

The tracer changes no line of the program. While installed it replaces the
public functions of each layer at the module attributes the callers look
them up through (``fdcnet.model.network.classify_forward``, the tape ops in
every ``fdcnet`` module that imported them, ...) with wrappers that record a
span: name, start, end, parent span, and for backward closures the model
module that was open when the tape node was recorded. ``uninstall``
restores every attribute. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import statistics
import sys
import time

# tape op name by defining module and function name; every fdcnet module
# attribute bound to one of these functions is wrapped
OP_FUNCS = {
    "fdcnet.tensor": {
        "add": "add", "sub": "sub", "mul": "mul", "neg": "neg", "power": "pow",
        "log": "log", "exp": "exp", "clamp": "clamp", "tsum": "sum", "tmean": "mean",
        "matmul": "matmul", "reshape": "reshape", "transpose": "transpose",
        "swapaxes": "swapaxes", "getitem": "getitem", "concat": "concat",
    },
    "fdcnet.kernels": {
        name: name for name in (
            "sigmoid", "relu", "gelu", "softmax", "linear", "dropout", "conv1d",
            "conv1d_transposed", "batch_norm", "layer_norm", "dct_forward", "dct_inverse",
        )
    },
}

# ops that no workload records (fdcnet.tensor.exp and power have no caller
# in the model); they are traced but carry no declared metric
UNUSED_OPS = ("exp", "pow")
OPS = [op for funcs in OP_FUNCS.values() for op in funcs.values() if op not in UNUSED_OPS]
FLOP_OPS = ("matmul", "linear", "conv1d", "conv1d_transposed", "dct_forward", "dct_inverse")
MODULES = ("gate", "stem", "encoder", "attn_time", "attn_freq", "feedback", "classifier", "decoder", "loss")
COMMANDS = ("synth", "train", "eval", "denoise", "report")

# (span name, defining module, function, modules whose attribute is wrapped;
# None wraps every fdcnet module attribute bound to the function)
FUNCTION_SPANS = [
    ("model.gate", "fdcnet.model.gate", "channel_stats", ["fdcnet.model.network"]),
    ("model.gate", "fdcnet.model.gate", "modulate", ["fdcnet.model.network"]),
    # only the encoder's binding: the time attention that a frequency head
    # runs on DCT coefficients stays inside the attn_freq span
    ("model.attn_time", "fdcnet.model.attention", "attention_head_time", ["fdcnet.model.encoder"]),
    ("model.attn_freq", "fdcnet.model.attention", "attention_head_freq", ["fdcnet.model.encoder"]),
    ("model.feedback", "fdcnet.model.network", "dual_path_step", ["fdcnet.model.network"]),
    ("model.feedback", "fdcnet.model.feedback", "feedback_embed", ["fdcnet.model.network"]),
    ("model.classifier", "fdcnet.model.classifier", "classify_forward", ["fdcnet.model.network"]),
    ("model.decoder", "fdcnet.model.denoiser", "denoise_forward", ["fdcnet.model.network"]),
    ("model.loss", "fdcnet.model.feedback", "joint_loss", ["fdcnet.trainer"]),
    ("trainer.train", "fdcnet.trainer", "train", ["fdcnet.cli"]),
    ("trainer.reinject", "fdcnet.trainer", "_reinject", ["fdcnet.trainer"]),
    ("trainer.validate", "fdcnet.trainer", "_validate", ["fdcnet.trainer"]),
    ("trainer.evaluate", "fdcnet.trainer", "evaluate", ["fdcnet.cli"]),
    ("tensor.backward", "fdcnet.tensor", "backward", ["fdcnet.trainer"]),
    ("noise.inject", "fdcnet.noise", "inject_noise", None),
    ("noise.artifact", "fdcnet.synth", "synth_artifact", None),
    ("synth.build", "fdcnet.dataset", "build_dataset", None),
    ("synth.clean", "fdcnet.synth", "synth_clean_eeg", None),
    ("synth.windows", "fdcnet.synth", "segment_windows", None),
    ("dataset.save", "fdcnet.dataset", "save_dataset", None),
    ("dataset.load", "fdcnet.dataset", "load_dataset", None),
    ("checkpoint.save", "fdcnet.checkpoint", "save_checkpoint", None),
    ("checkpoint.load", "fdcnet.checkpoint", "load_checkpoint", None),
    ("metrics.snr", "fdcnet.metrics", "metric_snr", None),
    ("metrics.cc", "fdcnet.metrics", "metric_cc", None),
    ("metrics.mse", "fdcnet.metrics", "metric_mse", None),
    ("report.write", "fdcnet.report", "write_report", None),
]

# (span name, module, class, method)
METHOD_SPANS = [
    ("model.gate", "fdcnet.model.gate", "ChannelGate", "weights"),
    ("model.stem", "fdcnet.model.denoiser", "ConvStem", "forward"),
    ("model.encoder", "fdcnet.model.encoder", "EegspEncoder", "forward"),
    ("model.forward", "fdcnet.model.network", "FdcNet", "forward"),
    ("optim.step", "fdcnet.optim", "AdamW", "step"),
]


def _shape(x):
    return tuple(getattr(x, "shape", ()))


def _arg(args, kwargs, pos, name, default):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _flops(op, args, kwargs) -> int:
    """Forward multiply-add count x2 of one call, computed from shapes."""
    if op == "matmul":
        a, b = _shape(args[0]), _shape(args[1])
        batch = math.prod(_broadcast(a[:-2], b[:-2]))
        return 2 * batch * a[-2] * a[-1] * b[-1]
    if op == "linear":
        x, w = _shape(args[0]), _shape(args[1])
        return 2 * math.prod(x[:-1]) * x[-1] * w[0]
    if op == "conv1d":
        (b, c_in, t), (c_out, _, k) = _shape(args[0]), _shape(args[1])
        stride = _arg(args, kwargs, 2, "stride", 1)
        padding = _arg(args, kwargs, 3, "padding", 0)
        return 2 * b * c_out * c_in * k * ((t + 2 * padding - k) // stride + 1)
    if op == "conv1d_transposed":
        (b, c_in, t), (_, c_out, k) = _shape(args[0]), _shape(args[1])
        return 2 * b * t * c_in * c_out * k
    x = _shape(args[0])  # dct_forward / dct_inverse: (..., n) @ (n, n)
    return 2 * math.prod(x[:-1]) * x[-1] * x[-1]


def _broadcast(a, b):
    n = max(len(a), len(b))
    a = (1,) * (n - len(a)) + tuple(a)
    b = (1,) * (n - len(b)) + tuple(b)
    return tuple(max(x, y) for x, y in zip(a, b))


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


class Tracer:
    """Records spans as ``[name, start_ns, end_ns, parent, module, info]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._modules: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def _wrap(self, fn, name, *, module=None, info=None, post=None):
        spans, stack, modules, clock = self.spans, self._stack, self._modules, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name(args, kwargs) if callable(name) else name, 0, 0,
                   stack[-1] if stack else -1, None, info(args, kwargs) if info else None]
            stack.append(len(spans))
            spans.append(rec)
            if module:
                modules.append(module)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if module:
                    modules.pop()
            if post:
                rec[5] = post(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _wrap_make_op(self, make_op):
        """Time each backward closure; charge it to the model module open
        when its tape node was recorded."""
        spans, stack, modules, clock = self.spans, self._stack, self._modules, time.perf_counter_ns

        def traced_make_op(data, parents, backward_fn, op):
            name = f"op.{op}.bwd"
            module = modules[-1] if modules else None

            def timed_backward(g):
                rec = [name, clock(), 0, stack[-1] if stack else -1, module, None]
                spans.append(rec)
                grads = backward_fn(g)
                rec[2] = clock()
                return grads

            return make_op(data, parents, timed_backward, op)

        return functools.wraps(make_op)(traced_make_op)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _bindings(self, fn):
        """Every loaded fdcnet module attribute bound to ``fn``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("fdcnet") and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        yield mod, attr

    # -- install / uninstall -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, funcs in OP_FUNCS.items():
            mod = importlib.import_module(mod_name)
            for fn_name, op in funcs.items():
                fn = getattr(mod, fn_name)
                info = functools.partial(_flops, op) if op in FLOP_OPS else None
                wrapped = self._wrap(fn, f"op.{op}.fwd", info=info)
                for owner, attr in list(self._bindings(fn)):
                    self._set(owner, attr, wrapped)
        tensor = importlib.import_module("fdcnet.tensor")
        make_op = tensor.make_op
        wrapped = self._wrap_make_op(make_op)
        for owner, attr in list(self._bindings(make_op)):
            self._set(owner, attr, wrapped)
        for name, mod_name, fn_name, where in FUNCTION_SPANS:
            fn = getattr(importlib.import_module(mod_name), fn_name)
            targets = (
                list(self._bindings(fn)) if where is None
                else [(importlib.import_module(m), fn_name) for m in where]
            )
            for owner, attr in targets:
                self._set(owner, attr, self._wrap(getattr(owner, attr), **_span_options(name, tensor)))
        for name, mod_name, cls_name, meth in METHOD_SPANS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._set(cls, meth, self._wrap(getattr(cls, meth), **_span_options(name, tensor)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "module", "info"],
                       "spans": self.spans}, fh)


def _span_options(name, tensor) -> dict:
    """Span name (fixed, or computed per call) and what each span records."""
    if name == "model.forward":
        return {"name": lambda a, k: "model.forward." + _arg(a, k, 2, "mode", "eval")}
    if name.startswith("model."):
        return {"name": name, "module": name[len("model."):]}
    if name == "tensor.backward":
        return {"name": name, "info": lambda a, k: len(tensor.active_tape().nodes)}
    if name == "trainer.reinject":
        return {"name": name, "info": lambda a, k: _arg(a, k, 4, "label", "")}
    if name == "synth.clean":
        return {"name": name, "info": lambda a, k: a[0].n_subjects * a[0].trials_per_subject}
    if name in ("dataset.save", "dataset.load"):
        return {"name": name, "post": _file_size}
    return {"name": name}


# -- per-layer metrics ----------------------------------------------------------

def _declare() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for op in OPS:
        out += [(f"op.{op}.fwd_ms", "ms", "lower"), (f"op.{op}.bwd_ms", "ms", "lower")]
    out += [(f"op.{op}.mflop", "Mflop", "lower") for op in FLOP_OPS]
    out += [("tensor.tape_nodes", "count", "lower"), ("tensor.backward_ms", "ms", "lower")]
    for m in MODULES:
        out += [(f"model.{m}.fwd_ms", "ms", "lower"), (f"model.{m}.bwd_ms", "ms", "lower")]
    out += [
        ("trainer.noise_s", "s", "lower"), ("trainer.forward_s", "s", "lower"),
        ("trainer.backward_s", "s", "lower"), ("trainer.validate_s", "s", "lower"),
        ("trainer.step_ms", "ms", "lower"), ("trainer.step_ms_p90", "ms", "lower"),
        ("optim.step_ms", "ms", "lower"),
        ("noise.inject_calls", "count", "lower"), ("noise.inject_ms", "ms", "lower"),
        ("noise.artifact_calls", "count", "lower"),
        ("synth.clean_ms_per_trial", "ms", "lower"), ("synth.windows_ms_per_trial", "ms", "lower"),
        ("dataset.save_mb_per_s", "MB/s", "higher"), ("dataset.load_mb_per_s", "MB/s", "higher"),
        ("checkpoint.save_ms", "ms", "lower"), ("checkpoint.load_ms", "ms", "lower"),
        ("eval.noise_s", "s", "lower"), ("eval.forward_s", "s", "lower"),
        ("eval.metrics_s", "s", "lower"), ("metrics.us_per_segment", "us", "lower"),
        ("denoise.forward_s", "s", "lower"), ("denoise.write_s", "s", "lower"),
        ("report.ms", "ms", "lower"),
    ]
    out += [(f"cli.{c}.self_ms", "ms", "lower") for c in COMMANDS]
    out += [("trace.overhead_pct", "%", "lower")]
    return out


PER_LAYER = _declare()


class Stat:
    """Median of a sample, its size, and the 90th percentile when at least
    ten samples lie beyond it."""

    def __init__(self, values):
        self.n = len(values)
        self.value = statistics.median(values) if values else 0.0
        self.p90 = None
        if self.n >= 10:
            p90 = statistics.quantiles(values, n=10)[-1]
            if sum(v > p90 for v in values) >= 10:
                self.p90 = p90


def _windows(spans, intervals: list[tuple[int, int]]) -> list[list[int]]:
    """Indices of the spans that start inside each (start, end) interval.

    Spans are stored in start order and the intervals do not overlap, so one
    sweep suffices.
    """
    inside: list[list[int]] = [[] for _ in intervals]
    j = 0
    for i, s in enumerate(spans):
        t = s[1]
        while j < len(intervals) and intervals[j][1] < t:
            j += 1
        if j < len(intervals) and intervals[j][0] <= t:
            inside[j].append(i)
    return inside


def derive(spans: list[list], overhead_pct: float) -> dict[str, Stat]:
    """Per-layer metrics from the spans of one traced run.

    Op and model timings are per training step (train-mode forward through
    optimizer step) when the run trains, else per eval-mode forward batch.
    """
    ms = 1e-6
    dur = [s[2] - s[1] for s in spans]
    # self time: duration minus the non-op spans directly inside; op spans
    # stay part of the layer that called them
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0 and not s[0].startswith("op."):
            child[s[3]] += dur[i]
    self_ns = [d - c for d, c in zip(dur, child)]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def named(name):
        return by_name.get(name, [])

    def intervals(name):
        return [(spans[i][1], spans[i][2]) for i in named(name)]

    def durations(name):
        return [dur[i] * ms for i in named(name)]

    out: dict[str, Stat] = {}

    # op, tape and model metrics per step (or per eval batch)
    steps = [(spans[f][1], spans[o][2]) for f, o in zip(named("model.forward.train"), named("optim.step"))]
    if not steps:
        steps = intervals("model.forward.eval")
    per_step: dict[str, list[float]] = {name: [0.0] * len(steps) for name, _, _ in PER_LAYER}
    for j, members in enumerate(_windows(spans, steps)):
        for i in members:
            name, module, info = spans[i][0], spans[i][4], spans[i][5]
            if name.startswith("op."):
                _, op, phase = name.split(".")
                if op in UNUSED_OPS:
                    continue
                per_step[f"op.{op}.{phase}_ms"][j] += dur[i] * ms
                if phase == "fwd" and op in FLOP_OPS:
                    per_step[f"op.{op}.mflop"][j] += info * 1e-6
                if phase == "bwd" and module in MODULES:
                    per_step[f"model.{module}.bwd_ms"][j] += dur[i] * ms
            elif name.startswith("model.") and name[len("model."):] in MODULES:
                per_step[f"{name}.fwd_ms"][j] += self_ns[i] * ms
            elif name == "tensor.backward":
                per_step["tensor.backward_ms"][j] += dur[i] * ms
                per_step["tensor.tape_nodes"][j] += info
    for name, _, _ in PER_LAYER:
        if name.startswith(("op.", "model.", "tensor.")):
            out[name] = Stat(per_step[name])

    # trainer: per epoch (train re-injection through validation) and per step
    train_noise = [i for i in named("trainer.reinject") if spans[i][5] == "train-noise"]
    epochs = [(spans[a][1], spans[b][2]) for a, b in zip(train_noise, named("trainer.validate"))]
    phases = {"trainer.noise_s": [], "trainer.forward_s": [], "trainer.backward_s": [], "trainer.validate_s": []}
    for members in _windows(spans, epochs):
        acc = dict.fromkeys(phases, 0.0)
        for i in members:
            name = spans[i][0]
            if name == "trainer.reinject":
                acc["trainer.noise_s"] += dur[i] * 1e-9
                if spans[i][5] == "val-noise":
                    acc["trainer.validate_s"] -= dur[i] * 1e-9
            elif name in ("model.forward.train", "model.loss"):
                acc["trainer.forward_s"] += dur[i] * 1e-9
            elif name == "tensor.backward":
                acc["trainer.backward_s"] += dur[i] * 1e-9
            elif name == "trainer.validate":
                acc["trainer.validate_s"] += dur[i] * 1e-9
        for key in phases:
            phases[key].append(acc[key])
    out.update({key: Stat(values) for key, values in phases.items()})
    step = Stat([(b - a) * ms for a, b in steps] if named("optim.step") else [])
    out["trainer.step_ms"] = step
    out["trainer.step_ms_p90"] = Stat([step.p90] if step.p90 is not None else [])
    out["optim.step_ms"] = Stat(durations("optim.step"))

    # noise, synth, dataset, checkpoint; counts are per round
    rounds = max([len(named(f"cli.{c}")) for c in COMMANDS] + [1])
    out["noise.inject_calls"] = Stat([len(named("noise.inject")) / rounds])
    out["noise.inject_ms"] = Stat(durations("noise.inject"))
    out["noise.artifact_calls"] = Stat([len(named("noise.artifact")) / rounds])
    trials = sum(spans[i][5] for i in named("synth.clean"))
    for key, name in (("synth.clean_ms_per_trial", "synth.clean"), ("synth.windows_ms_per_trial", "synth.windows")):
        out[key] = Stat([sum(durations(name)) / trials] if trials else [])
    for key, name in (("dataset.save_mb_per_s", "dataset.save"), ("dataset.load_mb_per_s", "dataset.load")):
        out[key] = Stat([spans[i][5] * 1e-6 / (dur[i] * 1e-9) for i in named(name)])
    out["checkpoint.save_ms"] = Stat(durations("checkpoint.save"))
    out["checkpoint.load_ms"] = Stat(durations("checkpoint.load"))

    # eval, metrics, denoise, report
    ev = {"eval.noise_s": [], "eval.forward_s": [], "eval.metrics_s": []}
    metric_ns = segment_levels = 0
    for members in _windows(spans, intervals("trainer.evaluate")):
        acc = dict.fromkeys(ev, 0.0)
        for i in members:
            name = spans[i][0]
            if name == "noise.inject":
                acc["eval.noise_s"] += dur[i] * 1e-9
            elif name == "model.forward.eval":
                acc["eval.forward_s"] += dur[i] * 1e-9
            elif name.startswith("metrics."):
                acc["eval.metrics_s"] += dur[i] * 1e-9
                metric_ns += dur[i]
                segment_levels += name == "metrics.mse"
        for key in ev:
            ev[key].append(acc[key])
    out.update({key: Stat(values) for key, values in ev.items()})
    out["metrics.us_per_segment"] = Stat([metric_ns * 1e-3 / segment_levels] if segment_levels else [])
    dn = {"denoise.forward_s": [], "denoise.write_s": []}
    for members in _windows(spans, intervals("cli.denoise")):
        dn["denoise.forward_s"].append(sum(dur[i] for i in members if spans[i][0] == "model.forward.eval") * 1e-9)
        dn["denoise.write_s"].append(sum(dur[i] for i in members if spans[i][0] == "dataset.save") * 1e-9)
    out.update({key: Stat(values) for key, values in dn.items()})
    out["report.ms"] = Stat(durations("report.write"))
    for c in COMMANDS:
        out[f"cli.{c}.self_ms"] = Stat([self_ns[i] * ms for i in named(f"cli.{c}")])
    out["trace.overhead_pct"] = Stat([overhead_pct])
    return {name: out[name] for name, _, _ in PER_LAYER}
