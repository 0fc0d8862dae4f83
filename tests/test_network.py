"""Full dual-path model: wiring, registry, persistence, ablations."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fdcnet.tensor as tensor_module
from conftest import rng
from fdcnet.errors import ConfigError, ContractError, DimensionError
from fdcnet.model import FdcNet, ModelConfig, class_weights, joint_loss
from fdcnet.model import feedback as feedback_module
from fdcnet.model.classifier import ClassifierHead
from fdcnet.model.denoiser import ConvStem, Decoder
from fdcnet.model.encoder import EegspEncoder, EncoderLayer
from fdcnet.model.feedback import FeedbackModule
from fdcnet.model.gate import ChannelGate
from fdcnet.model.pe import BandLimitedPE
from fdcnet.tensor import GradTape, Tensor, backward, no_grad


def _cfg(**kw):
    base = dict(
        n_channels=4, d_model=16, n_layers=1, n_heads=4, ff_dim=32,
        dropout=0.1, t_fb=2, head_hidden=8, kernel_size=5, t_max=64,
    )
    base.update(kw)
    return ModelConfig(**base)


def _x(b=2, c=4, t=32, seed=0):
    return rng(seed).normal(size=(b, c, t))


def _held_tensors(value):
    """Every Tensor reachable from ``value`` through containers and the
    attributes of model objects (a component, its layers, its PE)."""
    if isinstance(value, Tensor):
        yield value
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _held_tensors(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _held_tensors(v)
    elif type(value).__module__.startswith("fdcnet.model."):
        yield from _held_tensors(vars(value))


class TestForward:
    @pytest.mark.parametrize("eegsp", [True, False])
    def test_segment_longer_than_t_max_rejected_at_entry(self, eegsp):
        model = FdcNet(_cfg(eegsp=eegsp, t_max=16), seed=1)
        assert model.forward(_x(t=16), mode="eval").x_hat.shape == (2, 4, 16)
        with pytest.raises(DimensionError, match="T <= t_max = 16, got \\(2, 4, 17\\)"):
            model.forward(_x(t=17), mode="eval")

    def test_output_shapes(self):
        model = FdcNet(_cfg(), seed=1)
        out = model.forward(_x(), mode="eval")
        assert out.x_hat.shape == (2, 4, 32)
        assert out.logits.shape == (2, 2)
        assert out.p.shape == (2, 2)
        assert out.h_denoise.shape == (2, 32, 16)

    def test_fresh_model_is_identity_denoiser(self):
        model = FdcNet(_cfg(), seed=2)
        x = _x(seed=3)
        out = model.forward(x, mode="eval")
        np.testing.assert_array_equal(out.x_hat.numpy(), x)

    def test_eval_deterministic(self):
        model = FdcNet(_cfg(), seed=4)
        x = _x(seed=5)
        a = model.forward(x, mode="eval")
        b = model.forward(x, mode="eval")
        np.testing.assert_array_equal(a.p.numpy(), b.p.numpy())

    def test_train_mode_requires_rng(self):
        model = FdcNet(_cfg(), seed=6)
        with pytest.raises(ConfigError):
            model.forward(_x(), mode="train")

    def test_unknown_mode(self):
        model = FdcNet(_cfg(), seed=7)
        with pytest.raises(ConfigError):
            model.forward(_x(), mode="predict")

    def test_probabilities_valid(self):
        model = FdcNet(_cfg(), seed=8)
        p = model.forward(_x(seed=9), mode="eval").p.numpy()
        assert p.min() > 0.0 and p.max() < 1.0


# a segment length that no other axis of the _cfg model has
T_ODD = 13


def _is_cast(fn) -> bool:
    return fn.__qualname__.startswith("cast.")


@pytest.fixture
def recorded(monkeypatch):
    """(value, parents, backward closure) of every node recorded on a tape."""
    seen = []
    record = tensor_module._record

    def spy(tape, out, parents, fn):
        seen.append((out, tuple(parents), fn))
        record(tape, out, parents, fn)

    monkeypatch.setattr(tensor_module, "_record", spy)
    return seen


class TestPrecision:
    @pytest.mark.parametrize("flags", [{}, {"eegsp": False}, {"feedback": False},
                                       {"feedback": False, "cross": False}],
                             ids=["full", "no-eegsp", "no-feedback", "no-cross"])
    def test_float32_input_runs_every_time_axis_value_in_float32(self, recorded, flags):
        model = FdcNet(_cfg(**flags), seed=7)
        y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with GradTape():
            out = model.forward(_x(b=3, t=T_ODD, seed=8).astype(np.float32), mode="train", rng=rng(9))
            values = list(recorded)
            backward(joint_loss(_x(b=3, t=T_ODD, seed=10), out.x_hat, out.p, y, class_weights(y), 0.6))
        # a cast's input and output sit on the boundary between the precisions
        edge = {id(t) for v, parents, fn in values if _is_cast(fn) for t in (v, *parents)}
        wrong = [(v.shape, str(v.dtype)) for v, _, _ in values
                 if id(v) not in edge and (T_ODD in v.shape) != (v.dtype == np.float32)]
        assert len(values) > len(edge) > 0
        assert wrong == []
        assert out.x_hat.dtype == np.float32
        assert out.logits.dtype == out.p.dtype == np.float64
        for name, p in model.named_parameters().items():
            assert p.data.dtype == p.grad.dtype == np.float64, name

    def test_float64_input_records_no_cast(self):
        model = FdcNet(_cfg(), seed=7)
        with GradTape() as tape:
            out = model.forward(_x(b=3, t=T_ODD, seed=8), mode="train", rng=rng(9))
            assert len(tape.nodes) > 100
            assert not any(_is_cast(fn) for _, fn in tape.nodes)
        assert out.x_hat.numpy().dtype == out.p.numpy().dtype == np.float64

    def test_fresh_model_is_identity_denoiser_in_float32(self):
        x = _x(seed=3).astype(np.float32)
        out = FdcNet(_cfg(), seed=2).forward(x, mode="eval")
        assert out.x_hat.dtype == np.float32
        np.testing.assert_array_equal(out.x_hat.numpy(), x)

    def test_enhancement_multiplier_stays_below_two_in_float32_mode(self, monkeypatch):
        model = FdcNet(_cfg(), seed=7)
        # W f + b near 25: there float32 1 + sigmoid rounds to 2.0, float64 does not
        model.fb.params["enhance.b"].data[:] = 25.0
        d = model.fb.d
        calls = []
        sigmoid = feedback_module.sigmoid

        def recording(z):
            calls.append(sigmoid(z))
            return calls[-1]

        monkeypatch.setattr(feedback_module, "sigmoid", recording)
        out = model.forward(_x(b=3, t=T_ODD, seed=8).astype(np.float32), mode="eval")
        assert out.x_hat.dtype == np.float32
        # the feedback gate is (B, d_model), the enhancement (B, d_model / 4)
        (s,) = [c.numpy() for c in calls if c.shape == (3, d)]
        assert s.dtype == np.float64
        assert (np.float32(1.0) + s.astype(np.float32) == 2.0).any()
        multiplier = 1.0 + s
        assert ((multiplier > 1.0) & (multiplier < 2.0)).all()


class TestRegistry:
    def test_full_model_parameter_groups(self):
        model = FdcNet(_cfg(), seed=10)
        names = set(model.named_parameters())
        assert any(n.startswith("encoder.pe.") for n in names)
        assert any(n.startswith("encoder.gate.") for n in names)
        assert any(n.startswith("feedback.shared.") for n in names)
        assert any(n.startswith("feedback.embed.") for n in names)
        assert any(n.startswith("denoiser.decoder.") for n in names)
        assert any(n.startswith("classifier.head.") for n in names)

    def test_no_eegsp_drops_pe_and_gate(self):
        model = FdcNet(_cfg(eegsp=False), seed=11)
        names = set(model.named_parameters())
        assert not any("pe." in n for n in names)
        assert not any("gate." in n for n in names)

    def test_no_feedback_drops_feedback_params(self):
        model = FdcNet(_cfg(feedback=False, cross=False), seed=12)
        names = set(model.named_parameters())
        assert not any(n.startswith("feedback.") for n in names)
        assert any(n.startswith("denoiser.stem.") for n in names)
        assert any(n.startswith("classifier.stem.") for n in names)

    def test_every_registered_parameter_gets_gradient(self):
        from fdcnet.model.feedback import joint_loss
        from fdcnet.tensor import Tensor

        for flags in (dict(), dict(feedback=False, cross=False), dict(eegsp=False)):
            model = FdcNet(_cfg(**flags), seed=13)
            # randomize so no path is dead at init
            r = rng(14)
            for t in model.named_parameters().values():
                t.data[:] = r.normal(scale=0.2, size=t.shape)
            x = _x(seed=15)
            clean = Tensor(_x(seed=16))
            y = np.array([[1.0, 0.0], [0.0, 1.0]])
            w = np.array([1.0, 1.0])
            with GradTape():
                out = model.forward(x, mode="train", rng=rng(17))
                loss = joint_loss(clean, out.x_hat, out.p, y, w, alpha=0.6)
                backward(loss)
            missing = [k for k, t in model.named_parameters().items() if t.grad is None]
            assert not missing, f"{flags}: no grad for {missing}"

    def test_no_component_keeps_a_second_registry(self):
        for cls in (BandLimitedPE, EncoderLayer, EegspEncoder, ChannelGate, ConvStem, Decoder,
                    ClassifierHead, FeedbackModule):
            assert not hasattr(cls, "named_parameters") and not hasattr(cls, "named_buffers"), cls

    def test_every_held_tensor_is_in_params_and_registered(self):
        model = FdcNet(_cfg(t_fb=2), seed=22)  # every flag on
        registered = {id(t) for t in model.named_parameters().values()}
        components = [model.gate, model.stem_den, model.encoder, model.encoder.pe,
                      *model.encoder.layers, model.decoder, model.head, model.fb]
        for part in components:
            held = {id(t) for t in _held_tensors(vars(part))}
            assert held == {id(t) for t in part.params.values()}, type(part).__name__
            assert held <= registered, type(part).__name__

    def test_with_ablations_builder(self):
        cfg = _cfg().with_ablations(no_feedback=True)
        assert not cfg.feedback and cfg.cross
        cfg2 = _cfg().with_ablations(no_cross=True)
        assert not cfg2.feedback and not cfg2.cross
        cfg3 = _cfg().with_ablations(no_eegsp=True)
        assert not cfg3.eegsp


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = FdcNet(_cfg(), seed=18)
        r = rng(19)
        for t in model.named_parameters().values():
            t.data[:] = r.normal(scale=0.1, size=t.shape)
        model.decoder.buffers["bn.running_mean"][:] = r.normal(size=16)
        path = tmp_path / "m.fdcn"
        model.save(path)
        clone = FdcNet.load(path, _cfg())
        x = _x(seed=20)
        with no_grad():
            a = model.forward(x, mode="eval")
            b = clone.forward(x, mode="eval")
        np.testing.assert_array_equal(a.x_hat.numpy(), b.x_hat.numpy())
        np.testing.assert_array_equal(a.p.numpy(), b.p.numpy())
        np.testing.assert_array_equal(model.decoder.buffers["bn.running_mean"], clone.decoder.buffers["bn.running_mean"])

    def test_load_rejects_wrong_architecture(self, tmp_path):
        model = FdcNet(_cfg(), seed=21)
        path = tmp_path / "m.fdcn"
        model.save(path)
        with pytest.raises(ContractError):
            FdcNet.load(path, _cfg(d_model=32))

    def test_config_round_trip(self):
        cfg = _cfg(feedback=False, cross=False)
        back = ModelConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            _cfg(d_model=18).validate()  # not divisible by 4 for feedback
        with pytest.raises(ConfigError):
            _cfg(n_channels=3).validate()  # gate reduction must divide
        with pytest.raises(ConfigError):
            _cfg(t_fb=0).validate()
        with pytest.raises(ConfigError, match="kernel_size"):
            _cfg(kernel_size=4).validate()  # an even kernel changes the length

    @pytest.mark.parametrize("kw, match", [
        (dict(n_heads=3), "must divide d_model"),  # 16 % 3 != 0
        (dict(d_model=12, n_heads=3), "even"),  # divides, but odd heads with eegsp
        (dict(dropout=1.0), "dropout"),
        (dict(dropout=1.5), "dropout"),
    ])
    def test_validate_rejects_sizes_the_components_assume(self, kw, match):
        with pytest.raises(ConfigError, match=match):
            _cfg(**kw).validate()

    def test_odd_heads_allowed_without_eegsp(self):
        _cfg(d_model=12, n_heads=3, eegsp=False).validate()

    @pytest.mark.parametrize("key, value", [
        ("d_model", 32.0), ("n_layers", True), ("feedback", 1), ("cross", "true"),
        ("dropout", True), ("dropout", "0.1"),
    ])
    def test_from_dict_rejects_wrong_value_types(self, key, value):
        d = _cfg().to_dict()
        d[key] = value
        with pytest.raises(ConfigError, match=key):
            ModelConfig.from_dict(d)

    def test_from_dict_float_field_takes_int(self):
        d = _cfg().to_dict()
        d["dropout"] = 0
        assert ModelConfig.from_dict(d).dropout == 0


SIZE_FIELDS = ("n_channels", "d_model", "n_layers", "n_heads", "ff_dim", "head_hidden",
               "gate_reduction", "kernel_size", "t_max")


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SIZE_FIELDS), st.integers(-2, 9), st.booleans())
def test_size_field_is_rejected_or_model_runs(name, value, eegsp):
    # a size that passes validation builds a model whose eval forward runs;
    # only a sequence longer than t_max is refused, and then by its shape
    cfg = replace(_cfg(gate_reduction=2, eegsp=eegsp, t_max=16), **{name: value})
    try:
        cfg.validate()
    except ConfigError:
        return
    model = FdcNet(cfg, seed=0)
    x = rng(0).normal(size=(2, cfg.n_channels, 16))
    if cfg.t_max < 16:
        with pytest.raises(DimensionError):
            model.forward(x, mode="eval")
        return
    out = model.forward(x, mode="eval")
    assert out.x_hat.shape == x.shape and out.p.shape == (2, 2)


class TestAblationStructure:
    def test_no_cross_unshares_stems(self):
        model = FdcNet(_cfg(feedback=False, cross=False), seed=22)
        den = model.stem_den
        cls = model.stem_cls
        assert den is not cls
        assert not np.array_equal(den.params["w"].numpy(), cls.params["w"].numpy())

    def test_shared_stem_when_cross(self):
        model = FdcNet(_cfg(), seed=23)
        assert model.stem_den is model.stem_cls

    def test_t_fb_one_runs_single_pass(self):
        model = FdcNet(_cfg(t_fb=1), seed=24)
        out = model.forward(_x(seed=25), mode="eval")
        assert out.p.shape == (2, 2)
