"""Time- and frequency-domain attention heads."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import check_grad, rng
from fdcnet.kernels import dct_forward, dct_inverse, softmax
from fdcnet.model import FdcNet
from fdcnet.model.classifier import class_weights
from fdcnet.model import attention
from fdcnet.model.attention import (
    _dct_tokens,
    _idct_tokens,
    attention_head_freq,
    attention_head_time,
)
from fdcnet.model.feedback import joint_loss
from fdcnet.tensor import GradTape, Tensor, backward, matmul, mul, swapaxes, tsum
from fdcnet.trainer import desk_preset


def attention_oracle(q, k, v):
    """Explicit softmax(QK^T/sqrt(d))V per batch element."""
    d = q.shape[-1]
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(d)
    scores -= scores.max(axis=-1, keepdims=True)
    w = np.exp(scores)
    w /= w.sum(axis=-1, keepdims=True)
    return w @ v, w


class TestTimeHead:
    def test_single_token_returns_v(self):
        r = rng(0)
        q, k, v = (r.normal(size=(2, 1, 4)) for _ in range(3))
        out = attention_head_time(Tensor(q), Tensor(k), Tensor(v)).numpy()
        np.testing.assert_allclose(out, v, atol=1e-15)

    def test_zero_query_gives_column_mean(self):
        r = rng(1)
        k, v = r.normal(size=(2, 5, 3)), r.normal(size=(2, 5, 3))
        out = attention_head_time(Tensor(np.zeros((2, 5, 3))), Tensor(k), Tensor(v)).numpy()
        np.testing.assert_allclose(out, np.broadcast_to(v.mean(axis=1, keepdims=True), out.shape), atol=1e-12)

    def test_t3_oracle(self):
        r = rng(2)
        q, k, v = (r.normal(size=(2, 3, 4)) for _ in range(3))
        out = attention_head_time(Tensor(q), Tensor(k), Tensor(v)).numpy()
        expect, w = attention_oracle(q, k, v)
        assert np.abs(out - expect).max() < 1e-12
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)

    def test_extra_leading_dims(self):
        r = rng(3)
        q, k, v = (r.normal(size=(2, 4, 5, 3)) for _ in range(3))  # (B, H, T, dh)
        out = attention_head_time(Tensor(q), Tensor(k), Tensor(v)).numpy()
        for b in range(2):
            expect, _ = attention_oracle(q[b], k[b], v[b])
            assert np.abs(out[b] - expect).max() < 1e-12


class TestFreqHead:
    def test_single_token_returns_v(self):
        r = rng(4)
        q, k, v = (r.normal(size=(2, 1, 4)) for _ in range(3))
        out = attention_head_freq(Tensor(q), Tensor(k), Tensor(v)).numpy()
        np.testing.assert_allclose(out, v, atol=1e-12)

    def test_identity_hook_is_pure_round_trip(self):
        # with the attention matrix at identity the head is the DCT round trip
        v = rng(5).normal(size=(2, 6, 4))
        out = _idct_tokens(_dct_tokens(Tensor(v))).numpy()
        assert np.abs(out - v).max() < 1e-10

    def test_t4_composed_oracle(self):
        r = rng(6)
        q, k, v = (r.normal(size=(2, 4, 3)) for _ in range(3))

        def dct_tokens(x):
            return np.swapaxes(dct_forward(Tensor(np.swapaxes(x, -1, -2))).numpy(), -1, -2)

        def idct_tokens(x):
            return np.swapaxes(dct_inverse(Tensor(np.swapaxes(x, -1, -2))).numpy(), -1, -2)

        expect, _ = attention_oracle(dct_tokens(q), dct_tokens(k), dct_tokens(v))
        expect = idct_tokens(expect)
        got = attention_head_freq(Tensor(q), Tensor(k), Tensor(v)).numpy()
        assert np.abs(got - expect).max() < 1e-12

    def test_conjugation_by_dct(self):
        # freq head == idct( time head applied to dct inputs )
        r = rng(7)
        q, k, v = (r.normal(size=(3, 8, 5)) for _ in range(3))

        def dct_tokens(x):
            return np.swapaxes(dct_forward(Tensor(np.swapaxes(x, -1, -2))).numpy(), -1, -2)

        inner = attention_head_time(
            Tensor(dct_tokens(q)), Tensor(dct_tokens(k)), Tensor(dct_tokens(v))
        ).numpy()
        expect = np.swapaxes(dct_inverse(Tensor(np.swapaxes(inner, -1, -2))).numpy(), -1, -2)
        got = attention_head_freq(Tensor(q), Tensor(k), Tensor(v)).numpy()
        assert np.abs(got - expect).max() < 1e-10


def unfused_head_time(q, k, v):
    """The five-op tape chain the fused head replaces: swapaxes, matmul,
    scale, softmax, matmul."""
    scale = 1.0 / math.sqrt(q.shape[-1])
    return matmul(softmax(matmul(q, swapaxes(k, -1, -2)) * scale), v)


def unfused_head_freq(q, k, v):
    return _idct_tokens(unfused_head_time(_dct_tokens(q), _dct_tokens(k), _dct_tokens(v)))


def assert_close(got, want):
    """Within 1e-13 of the largest magnitude of want: the fused node scales Q
    and normalises after P V, which moves the chain's values by rounding."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _run(head, q, k, v, w, shared=False):
    """Output and the Q, K, V gradients of sum(head(Q, K, V) * w)."""
    if shared:
        qt = kt = vt = Tensor(q.copy(), requires_grad=True)
    else:
        qt, kt, vt = (Tensor(a.copy(), requires_grad=True) for a in (q, k, v))
    with GradTape() as tape:
        out = head(qt, kt, vt)
        nodes = len(tape.nodes)
        backward(tsum(mul(out, w)))
    return out.numpy(), [t.grad for t in (qt, kt, vt)], nodes


class TestFusedHead:
    # the last two: a desk and a paper-scale head group (B, H, T, d_h)
    SHAPES = [(2, 3, 4), (2, 4, 5, 3), (32, 2, 128, 8), (2, 8, 128, 16)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("fused, unfused", [
        (attention_head_time, unfused_head_time),
        (attention_head_freq, unfused_head_freq),
    ])
    def test_matches_unfused_chain(self, shape, fused, unfused):
        r = rng(11)
        q, k, v, w = (r.normal(size=shape) for _ in range(4))
        out, grads, _ = _run(fused, q, k, v, w)
        expect, expect_grads, _ = _run(unfused, q, k, v, w)
        assert_close(out, expect)
        for got, want in zip(grads, expect_grads):
            assert_close(got, want)

    def test_shared_qkv_accumulates_like_unfused_chain(self):
        r = rng(12)
        x, w = r.normal(size=(2, 4, 5, 3)), r.normal(size=(2, 4, 5, 3))
        out, (grad, _, _), _ = _run(attention_head_time, x, x, x, w, shared=True)
        expect, (expect_grad, _, _), _ = _run(unfused_head_time, x, x, x, w, shared=True)
        assert_close(out, expect)
        assert_close(grad, expect_grad)

    def test_one_tape_node(self):
        r = rng(13)
        q, k, v, w = (r.normal(size=(2, 3, 4)) for _ in range(4))
        _, _, nodes = _run(attention_head_time, q, k, v, w)
        _, _, unfused_nodes = _run(unfused_head_time, q, k, v, w)
        assert (nodes, unfused_nodes) == (1, 5)

    @pytest.mark.parametrize("head", [attention_head_time, attention_head_freq])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_finite_difference_gradient(self, head, which):
        r = rng(14 + which)
        qkv = [r.normal(size=(2, 3, 4)) for _ in range(3)]
        w = r.normal(size=(2, 3, 4))

        def f(t):
            args = [Tensor(a) for a in qkv]
            args[which] = t
            return tsum(mul(head(*args), w))

        check_grad(f, qkv[which], tol=1e-5)


class TestBlockedHead:
    """The fused head walks the leading axis in blocks of scores and keeps
    no scores on the tape."""

    @pytest.mark.parametrize("shape", TestFusedHead.SHAPES)
    @pytest.mark.parametrize("fused, unfused", [
        (attention_head_time, unfused_head_time),
        (attention_head_freq, unfused_head_freq),
    ])
    def test_block_size_keeps_bytes(self, monkeypatch, shape, fused, unfused):
        r = rng(17)
        q, k, v, w = (r.normal(size=shape) for _ in range(4))
        expect, expect_grads, _ = _run(unfused, q, k, v, w)
        runs = []
        for block_bytes in (1, 1 << 30):
            monkeypatch.setattr(attention, "BLOCK_BYTES", block_bytes)
            runs.append(_run(fused, q, k, v, w)[:2])
        (out, grads), (whole_out, whole_grads) = runs
        assert np.array_equal(out, whole_out)
        assert_close(out, expect)
        for got, whole, want in zip(grads, whole_grads, expect_grads):
            assert np.array_equal(got, whole)
            assert_close(got, want)

    def test_tracked_forward_keeps_no_weights(self):
        shape = (32, 2, 128, 8)
        r = rng(18)
        q, k, v = (Tensor(r.normal(size=shape), requires_grad=True) for _ in range(3))
        q_bytes = q.data.nbytes
        tracemalloc.start()
        try:
            with GradTape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                out = attention_head_time(q, k, v)
                retained = tracemalloc.get_traced_memory()[0] - before
                assert len(tape.nodes) == 1
        finally:
            tracemalloc.stop()
        assert out.shape == shape
        # the output and a row max and sum per query row: 1 + 2 / d_h times
        # Q. A copy of the output or one block of (T, T) scores breaks this.
        assert retained < 2 * q_bytes

    @pytest.mark.parametrize("shape", [(2, 0, 5, 3), (0, 2, 5, 3)])
    def test_empty_inputs_match_unfused_chain(self, shape):
        r = rng(20)
        q, k, v, w = (r.normal(size=shape) for _ in range(4))
        out, grads, _ = _run(attention_head_time, q, k, v, w)
        expect, expect_grads, _ = _run(unfused_head_time, q, k, v, w)
        assert out.shape == expect.shape == shape
        for got, want in zip(grads, expect_grads):
            assert got.shape == want.shape == shape

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_finite_difference_gradient_one_row_blocks(self, monkeypatch, which):
        monkeypatch.setattr(attention, "BLOCK_BYTES", 1)
        r = rng(19 + which)
        qkv = [r.normal(size=(3, 2, 4, 3)) for _ in range(3)]
        w = r.normal(size=(3, 2, 4, 3))

        def f(t):
            args = [Tensor(a) for a in qkv]
            args[which] = t
            return tsum(mul(attention_head_time(*args), w))

        check_grad(f, qkv[which], tol=1e-5)


def test_desk_training_step_records_135_tape_nodes():
    r = rng(15)
    model = FdcNet(replace(desk_preset().model, n_channels=8), seed=0)
    xb, cb = r.normal(size=(32, 8, 128)), r.normal(size=(32, 8, 128))
    yb = np.tile([[0.0, 1.0], [1.0, 0.0]], (16, 1))
    with GradTape() as tape:
        out = model.forward(xb, mode="train", rng=rng(16))
        joint_loss(cb, out.x_hat, out.p, yb, class_weights(yb), 0.6)
        assert len(tape.nodes) == 135
