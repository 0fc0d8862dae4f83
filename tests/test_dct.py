"""Orthonormal DCT-II/III: oracles, round trips, Parseval."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import check_grad, rng, sq_sum
from fdcnet.kernels import dct_forward, dct_inverse, dct_matrix
from fdcnet.tensor import Tensor


def dct2_oracle(x: np.ndarray) -> np.ndarray:
    """O(T^2) direct summation, orthonormal DCT-II along the last axis."""
    t = x.shape[-1]
    out = np.zeros_like(x, dtype=np.float64)
    for k in range(t):
        s = np.sqrt(1.0 / t) if k == 0 else np.sqrt(2.0 / t)
        total = np.zeros(x.shape[:-1])
        for n in range(t):
            total = total + x[..., n] * np.cos(np.pi * (2 * n + 1) * k / (2 * t))
        out[..., k] = s * total
    return out


def dct3_oracle(X: np.ndarray) -> np.ndarray:
    """O(T^2) direct summation, orthonormal DCT-III (inverse of the above)."""
    t = X.shape[-1]
    out = np.zeros_like(X, dtype=np.float64)
    for n in range(t):
        total = np.sqrt(1.0 / t) * X[..., 0]
        for k in range(1, t):
            total = total + np.sqrt(2.0 / t) * X[..., k] * np.cos(
                np.pi * (2 * n + 1) * k / (2 * t)
            )
        out[..., n] = total
    return out


class TestForward:
    def test_constant_vector_dc_only(self):
        c = 1.7
        out = dct_forward(Tensor(np.full(4, c))).numpy()
        assert abs(out[0] - 2 * c) < 1e-12  # sqrt(1/4)*4c = 2c
        assert np.abs(out[1:]).max() < 1e-12

    def test_parseval(self):
        x = rng(0).normal(size=(3, 64))
        out = dct_forward(Tensor(x)).numpy()
        for i in range(3):
            assert abs(np.linalg.norm(out[i]) - np.linalg.norm(x[i])) < 1e-10

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_direct_summation_oracle(self, t):
        x = rng(t).normal(size=(2, t))
        got = dct_forward(Tensor(x)).numpy()
        assert np.abs(got - dct2_oracle(x)).max() < 1e-12

    def test_scipy_cross_check(self):
        from scipy.fft import dct as scipy_dct

        x = rng(9).normal(size=(4, 33))
        got = dct_forward(Tensor(x)).numpy()
        assert np.abs(got - scipy_dct(x, type=2, norm="ortho", axis=-1)).max() < 1e-12


class TestInverse:
    @pytest.mark.parametrize("t", [1, 2, 4, 5, 128])
    def test_round_trip(self, t):
        x = rng(t + 100).normal(size=(t,))
        back = dct_inverse(dct_forward(Tensor(x))).numpy()
        assert np.abs(back - x).max() < 1e-10

    def test_one_hot_dc_gives_constant(self):
        X = np.zeros(8)
        X[0] = 1.0
        out = dct_inverse(Tensor(X)).numpy()
        np.testing.assert_allclose(out, np.full(8, np.sqrt(1.0 / 8)), atol=1e-12)

    def test_direct_summation_oracle_t5(self):
        X = rng(55).normal(size=(5,))
        got = dct_inverse(Tensor(X)).numpy()
        assert np.abs(got - dct3_oracle(X)).max() < 1e-12

    def test_scipy_cross_check(self):
        from scipy.fft import idct as scipy_idct

        X = rng(56).normal(size=(3, 17))
        got = dct_inverse(Tensor(X)).numpy()
        assert np.abs(got - scipy_idct(X, type=2, norm="ortho", axis=-1)).max() < 1e-12


class TestMatrix:
    def test_orthonormality(self):
        for t in (1, 2, 5, 32):
            m = dct_matrix(t)
            assert np.abs(m @ m.T - np.eye(t)).max() < 1e-12

    def test_cache_returns_same_object(self):
        assert dct_matrix(16) is dct_matrix(16)

    def test_gradients(self):
        x = rng(57).normal(size=(2, 6))
        check_grad(lambda t: sq_sum(dct_forward(t)), x, tol=1e-6)
        check_grad(lambda t: sq_sum(dct_inverse(t)), x, tol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40))
def test_round_trip_property(seed, t):
    x = np.random.default_rng(seed).normal(size=(t,))
    back = dct_inverse(dct_forward(Tensor(x))).numpy()
    assert np.abs(back - x).max() < 1e-10
    assert abs(np.linalg.norm(dct_forward(Tensor(x)).numpy()) - np.linalg.norm(x)) < 1e-10
