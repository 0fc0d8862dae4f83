"""Numerical kernels: activations, conv, norms, dropout.

Convolutions are checked against naive nested-loop oracles and the adjoint
identity; every differentiable kernel gets a finite-difference gradient check.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import check_grad, rng, sq_sum
from fdcnet.errors import DegenerateDataError, DimensionError
from fdcnet.kernels import (
    batch_norm,
    conv1d,
    conv1d_transposed,
    dropout,
    gelu,
    layer_norm,
    linear,
    relu,
    sigmoid,
    softmax,
)
from fdcnet.tensor import GradTape, Tensor, tsum


def conv1d_oracle(x, w, padding=0):
    """Naive nested-loop cross-correlation: x (B,Cin,T), w (Cout,Cin,K)."""
    b, cin, t = x.shape
    cout, _, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    t_out = t + 2 * padding - k + 1
    out = np.zeros((b, cout, t_out))
    for bi in range(b):
        for co in range(cout):
            for ci in range(cin):
                for to in range(t_out):
                    for kk in range(k):
                        out[bi, co, to] += xp[bi, ci, to + kk] * w[co, ci, kk]
    return out


def convt_oracle(x, w, padding=0):
    """Naive transposed conv: x (B,Cin,T), w (Cin,Cout,K); scatter-add form."""
    b, cin, t = x.shape
    _, cout, k = w.shape
    t_full = t + k - 1
    out = np.zeros((b, cout, t_full))
    for bi in range(b):
        for ci in range(cin):
            for co in range(cout):
                for ti in range(t):
                    for kk in range(k):
                        out[bi, co, ti + kk] += x[bi, ci, ti] * w[ci, co, kk]
    if padding:
        out = out[:, :, padding:-padding]
    return out


class TestActivations:
    def test_sigmoid_zero(self):
        assert sigmoid(Tensor(np.zeros(1))).numpy()[0] == 0.5

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(softmax(Tensor(np.zeros(2))).numpy(), [0.5, 0.5])

    def test_softmax_rows_sum_to_one(self):
        p = softmax(Tensor(rng(0).normal(size=(4, 7)))).numpy()
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_gelu_fd_at_0p3(self):
        err = check_grad(lambda t: tsum(gelu(t)), np.array([0.3]), tol=1e-6, h=1e-5)
        assert err < 1e-6

    def test_gelu_matches_cube_power_formula(self):
        x = rng(2).normal(scale=3.0, size=(32, 128, 8))
        c = np.sqrt(2.0 / np.pi)
        want = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
        # atol covers the negative tail, where y ~ 1 + tanh(u) ~ 1e-3 and one
        # ulp of tanh alone is a relative 1e-13 of y
        np.testing.assert_allclose(gelu(Tensor(x)).numpy(), want, rtol=1e-14, atol=1e-15)

    def test_relu_values(self):
        np.testing.assert_array_equal(
            relu(Tensor(np.array([-1.0, 0.0, 2.0]))).numpy(), [0.0, 0.0, 2.0]
        )

    @pytest.mark.parametrize(
        "fn", [sigmoid, relu, gelu, softmax], ids=["sigmoid", "relu", "gelu", "softmax-lastdim"]
    )
    def test_activation_gradients(self, fn):
        x = rng(1).normal(size=(3, 5))
        check_grad(lambda t: sq_sum(fn(t)), x, tol=1e-5)


def gelu_reference(x, g):
    """GELU's value and input gradient by the formula of the
    temporary-per-operation version, which the in-place kernel keeps to the
    byte."""
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    du = c * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * x * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du)


@pytest.mark.parametrize("shape", [(64, 128, 32), (32, 32, 128), (3, 5)])
def test_gelu_bytes_equal_reference(shape):
    r = rng(3)
    x, g = r.normal(scale=3.0, size=shape), r.normal(size=shape)
    want_y, want_gx = gelu_reference(x, g)
    with GradTape() as tape:
        y = gelu(Tensor(x, requires_grad=True)).numpy()
        ((_, bw),) = tape.nodes
        (gx,) = bw(g)
    assert np.array_equal(y, want_y)
    assert np.array_equal(gx, want_gx)


class TestConv1d:
    def test_identity_kernel(self):
        x = np.array([[[1.0, 2.0, 3.0]]])
        w = np.array([[[1.0]]])
        np.testing.assert_array_equal(conv1d(Tensor(x), Tensor(w)).numpy(), x)

    def test_hand_arithmetic(self):
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        w = np.array([[[1.0, 1.0]]])
        np.testing.assert_array_equal(
            conv1d(Tensor(x), Tensor(w)).numpy(), [[[3.0, 5.0, 7.0]]]
        )

    def test_nested_loop_oracle(self):
        r = rng(2)
        x = r.normal(size=(2, 3, 16))
        w = r.normal(size=(4, 3, 5))
        got = conv1d(Tensor(x), Tensor(w)).numpy()
        assert np.abs(got - conv1d_oracle(x, w)).max() < 1e-12

    @pytest.mark.parametrize("padding", [0, 2])
    def test_padding_vs_oracle(self, padding):
        r = rng(3)
        x = r.normal(size=(2, 2, 11))
        w = r.normal(size=(3, 2, 4))
        got = conv1d(Tensor(x), Tensor(w), padding=padding).numpy()
        assert np.abs(got - conv1d_oracle(x, w, padding)).max() < 1e-12

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            conv1d(Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 1, 5))))

    def test_gradients(self):
        r = rng(4)
        x = r.normal(size=(2, 2, 9))
        w = r.normal(size=(3, 2, 3))
        check_grad(lambda t: sq_sum(conv1d(t, Tensor(w), padding=1)), x, tol=1e-5)
        check_grad(lambda t: sq_sum(conv1d(Tensor(x), t, padding=1)), w, tol=1e-5)


class TestConvTransposed:
    def test_trivial(self):
        x = np.array([[[1.0]]])
        w = np.array([[[1.0, 1.0]]])
        np.testing.assert_array_equal(
            conv1d_transposed(Tensor(x), Tensor(w)).numpy(), [[[1.0, 1.0]]]
        )

    def test_adjoint_identity(self):
        # <conv(x, w), y> == <x, convT(y, w)>: the conv weight (Cout, Cin, K)
        # reads as the transposed layout (Cin, Cout, K) without reordering
        r = rng(7)
        for padding in (0, 2):
            x = r.normal(size=(2, 3, 10))
            w = r.normal(size=(4, 3, 5))
            y = r.normal(size=conv1d(Tensor(x), Tensor(w), padding=padding).shape)
            lhs = float((conv1d(Tensor(x), Tensor(w), padding=padding).numpy() * y).sum())
            rhs = float((conv1d_transposed(Tensor(y), Tensor(w), padding=padding).numpy() * x).sum())
            assert abs(lhs - rhs) < 1e-10, f"pad={padding}"

    def test_nested_loop_oracle(self):
        r = rng(8)
        for padding in (0, 1, 2):
            x = r.normal(size=(2, 3, 6))
            w = r.normal(size=(3, 2, 4))
            got = conv1d_transposed(Tensor(x), Tensor(w), padding=padding).numpy()
            assert np.abs(got - convt_oracle(x, w, padding)).max() < 1e-12

    def test_gradients(self):
        r = rng(9)
        x = r.normal(size=(2, 3, 5))
        w = r.normal(size=(3, 2, 3))
        check_grad(
            lambda t: sq_sum(conv1d_transposed(t, Tensor(w), padding=1)),
            x, tol=1e-5,
        )
        check_grad(
            lambda t: sq_sum(conv1d_transposed(Tensor(x), t, padding=1)),
            w, tol=1e-5,
        )


def _input_grad(op, x, w, g, padding):
    """The input gradient that op's backward closure returns for upstream g."""
    with GradTape() as tape:
        op(Tensor(x, requires_grad=True), Tensor(w), padding=padding)
        ((_, bw),) = tape.nodes
        return bw(g)[0]


def scatter_reference(x, w, padding):
    """x (B, A, T) scattered through w (A, D, K) by the (B, D, T + K - 1)
    tap loop that _scatter's (B, T + K - 1, D) layout keeps to the byte."""
    b, _, t = x.shape
    k = w.shape[2]
    full = np.zeros((b, w.shape[1], t + k - 1))
    for kk in range(k):
        full[:, :, kk : kk + t] += np.matmul(x.transpose(0, 2, 1), w[:, :, kk]).transpose(0, 2, 1)
    return full[:, :, padding : full.shape[2] - padding] if padding else full


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("same", [False, True])
@pytest.mark.parametrize("b", [1, 5])
def test_scatter_bytes_equal_tap_loop(k, same, b):
    padding = k // 2 if same else 0
    r = rng(80 + k)
    w = r.normal(size=(4, 3, k))
    # conv1d's input gradient scatters g (B, 4, T_out) through its (4, 3, K) weights
    g = r.normal(size=(b, 4, 16 + 2 * padding - k + 1))
    assert np.array_equal(_input_grad(conv1d, r.normal(size=(b, 3, 16)), w, g, padding),
                          scatter_reference(g, w, padding))
    # conv1d_transposed's forward scatters x (B, 4, T) through its (4, 3, K) weights
    x = r.normal(size=(b, 4, 16))
    assert np.array_equal(conv1d_transposed(Tensor(x), Tensor(w), padding=padding).numpy(),
                          scatter_reference(x, w, padding))


class TestConvDirectionsWrittenOnce:
    """conv1d's input gradient is conv1d_transposed's forward and the other
    way round, to the byte."""

    @pytest.mark.parametrize("k", [3, 4, 7])
    @pytest.mark.parametrize("same", [False, True])
    def test_conv1d_input_grad_is_transposed_forward(self, k, same):
        padding = k // 2 if same else 0
        r = rng(40 + k)
        x = r.normal(size=(2, 3, 16))
        w = r.normal(size=(4, 3, k))
        g = r.normal(size=conv1d(Tensor(x), Tensor(w), padding=padding).shape)
        want = conv1d_transposed(Tensor(g), Tensor(w), padding=padding).numpy()
        assert np.array_equal(_input_grad(conv1d, x, w, g, padding), want)

    @pytest.mark.parametrize("k", [3, 4, 7])
    @pytest.mark.parametrize("same", [False, True])
    def test_transposed_input_grad_is_conv1d_forward(self, k, same):
        padding = k // 2 if same else 0
        r = rng(50 + k)
        x = r.normal(size=(2, 4, 16))
        w = r.normal(size=(4, 3, k))
        g = r.normal(size=conv1d_transposed(Tensor(x), Tensor(w), padding=padding).shape)
        want = conv1d(Tensor(g), Tensor(w), padding=padding).numpy()
        assert np.array_equal(_input_grad(conv1d_transposed, x, w, g, padding), want)


def _grads(op, x, w, g, padding):
    """The input and weight gradients that op's backward returns for upstream g."""
    with GradTape() as tape:
        op(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True), padding=padding)
        ((_, bw),) = tape.nodes
        return bw(g)


def _windows(a, k, padding):
    """(B, A, T_out, K) windows of a (B, A, T) padded by `padding` a side."""
    return np.lib.stride_tricks.sliding_window_view(np.pad(a, ((0, 0), (0, 0), (padding, padding))), k, axis=2)


class TestConvMatchesTensordot:
    """The forward and the weight gradients contract a window matrix with
    np.dot as np.tensordot does over the window view, to the byte."""

    SHAPES = [(2, 3, 4, 16, 1, 0), (2, 3, 4, 16, 4, 0), (3, 5, 2, 9, 3, 1), (32, 32, 8, 128, 7, 3)]

    @pytest.mark.parametrize("b, a, d, t, k, padding", SHAPES)
    def test_conv1d(self, b, a, d, t, k, padding):
        r = rng(60 + k)
        x, w = r.normal(size=(b, a, t)), r.normal(size=(d, a, k))
        y = conv1d(Tensor(x), Tensor(w), padding=padding).numpy()
        win = _windows(x, k, padding)
        assert np.array_equal(y, np.tensordot(win, w, axes=([1, 3], [1, 2])).transpose(0, 2, 1))
        g = r.normal(size=y.shape)
        assert np.array_equal(_grads(conv1d, x, w, g, padding)[1], np.tensordot(g, win, axes=([0, 2], [0, 2])))

    @pytest.mark.parametrize("b, a, d, t, k, padding", SHAPES)
    def test_conv1d_transposed(self, b, a, d, t, k, padding):
        r = rng(70 + k)
        x, w = r.normal(size=(b, a, t)), r.normal(size=(a, d, k))
        g = r.normal(size=conv1d_transposed(Tensor(x), Tensor(w), padding=padding).shape)
        want = np.tensordot(x, _windows(g, k, padding), axes=([0, 2], [0, 2]))
        assert np.array_equal(_grads(conv1d_transposed, x, w, g, padding)[1], want)


class TestLinear:
    def test_values(self):
        x = rng(10).normal(size=(4, 3))
        w = rng(11).normal(size=(5, 3))
        b = rng(12).normal(size=(5,))
        got = linear(Tensor(x), Tensor(w), Tensor(b)).numpy()
        assert np.abs(got - (x @ w.T + b)).max() < 1e-12

    def test_gradients(self):
        x = rng(13).normal(size=(4, 3))
        w = rng(14).normal(size=(2, 3))
        b = rng(15).normal(size=(2,))
        check_grad(lambda t: sq_sum(linear(t, Tensor(w), Tensor(b))), x, tol=1e-5)
        check_grad(lambda t: sq_sum(linear(Tensor(x), t, Tensor(b))), w, tol=1e-5)
        check_grad(lambda t: sq_sum(linear(Tensor(x), Tensor(w), t)), b, tol=1e-5)

    def test_width_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="linear"):
            linear(Tensor(np.ones((2, 6))), Tensor(np.ones((4, 16))))


class TestBatchNorm:
    def _params(self, c):
        return (
            Tensor(np.ones(c), requires_grad=True),
            Tensor(np.zeros(c), requires_grad=True),
            np.zeros(c),
            np.ones(c),
        )

    def test_constant_input_zeros(self):
        gamma, beta, rm, rv = self._params(2)
        x = Tensor(np.full((3, 2, 4), 7.0))
        out = batch_norm(x, gamma, beta, rm, rv, training=True).numpy()
        assert np.abs(out).max() < 1e-6

    def test_train_standardizes(self):
        gamma, beta, rm, rv = self._params(3)
        x = Tensor(rng(16).normal(loc=2.0, scale=3.0, size=(4, 3, 10)))
        out = batch_norm(x, gamma, beta, rm, rv, training=True).numpy()
        mean = out.mean(axis=(0, 2))
        var = out.var(axis=(0, 2))
        assert np.abs(mean).max() < 1e-10
        assert np.abs(var - 1.0).max() < 1e-3  # eps-limited

    def test_running_update_momentum(self):
        gamma, beta, rm, rv = self._params(2)
        x = rng(17).normal(size=(3, 2, 5))
        batch_norm(Tensor(x), gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(rm, 0.1 * x.mean(axis=(0, 2)), atol=1e-12)
        np.testing.assert_allclose(
            rv, 0.9 * 1.0 + 0.1 * x.var(axis=(0, 2)), atol=1e-12
        )

    def test_eval_uses_running_stats(self):
        gamma, beta, _, _ = self._params(1)
        rm, rv = np.array([2.0]), np.array([4.0])
        x = Tensor(np.array([[[4.0]]]))
        out = batch_norm(x, gamma, beta, rm, rv, training=False).numpy()
        np.testing.assert_allclose(out, [[[(4.0 - 2.0) / np.sqrt(4.0 + 1e-5)]]])

    def test_degenerate_batch(self):
        gamma, beta, rm, rv = self._params(2)
        with pytest.raises(DegenerateDataError):
            batch_norm(Tensor(np.zeros((1, 2, 1))), gamma, beta, rm, rv, training=True)

    def test_gradient(self):
        x = rng(18).normal(size=(3, 2, 4))
        gamma = Tensor(rng(19).normal(size=(2,)) + 1.5)
        beta = Tensor(rng(20).normal(size=(2,)))

        def f(t):
            rm, rv = np.zeros(2), np.ones(2)
            return sq_sum(batch_norm(t, gamma, beta, rm, rv, training=True))

        check_grad(f, x, tol=1e-5)

    def test_gamma_beta_gradients(self):
        x = Tensor(rng(21).normal(size=(3, 2, 4)))

        def fg(t):
            rm, rv = np.zeros(2), np.ones(2)
            return sq_sum(batch_norm(x, t, Tensor(np.zeros(2)), rm, rv, training=True))

        def fb(t):
            rm, rv = np.zeros(2), np.ones(2)
            return sq_sum(batch_norm(x, Tensor(np.ones(2)), t, rm, rv, training=True))

        check_grad(fg, rng(22).normal(size=(2,)) + 1.0, tol=1e-5)
        check_grad(fb, rng(23).normal(size=(2,)), tol=1e-5)


class TestLayerNorm:
    def test_standardizes_last_dim(self):
        x = Tensor(rng(24).normal(size=(2, 3, 8)))
        out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).numpy()
        assert np.abs(out.mean(axis=-1)).max() < 1e-10
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3

    def test_gradient(self):
        x = rng(25).normal(size=(2, 4, 6))
        g = Tensor(rng(26).normal(size=(6,)) + 1.0)
        b = Tensor(rng(27).normal(size=(6,)))
        check_grad(lambda t: sq_sum(layer_norm(t, g, b)), x, tol=1e-5)


class TestDropout:
    def test_eval_identity(self):
        x = Tensor(rng(28).normal(size=(5, 5)))
        out = dropout(x, 0.4, rng(29), training=False)
        np.testing.assert_array_equal(out.numpy(), x.numpy())

    def test_rate_zero_identity(self):
        x = Tensor(rng(30).normal(size=(5, 5)))
        out = dropout(x, 0.0, rng(31), training=True)
        np.testing.assert_array_equal(out.numpy(), x.numpy())

    def test_inverted_scaling(self):
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.3, rng(32), training=True).numpy()
        kept = out[out != 0.0]
        np.testing.assert_allclose(kept, 1.0 / 0.7)
        # keep rate concentrates near 0.7
        assert abs(kept.size / out.size - 0.7) < 0.01


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2 ** 31 - 1),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(0, 3),
)
def test_conv_matches_oracle_property(seed, b, c, k, padding):
    r = np.random.default_rng(seed)
    t = k + int(r.integers(0, 6))
    x = r.normal(size=(b, c, t))
    w = r.normal(size=(2, c, k))
    got = conv1d(Tensor(x), Tensor(w), padding=padding).numpy()
    assert np.abs(got - conv1d_oracle(x, w, padding)).max() < 1e-12
