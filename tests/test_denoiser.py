"""Denoising path: residual identity, shape preservation, loss gradient."""

import numpy as np

from conftest import check_grad, rng
from fdcnet.model.denoiser import ConvStem, Decoder, denoise_forward, denoise_loss
from fdcnet.tensor import Tensor, tsum


class TestResidualIdentity:
    def test_zero_final_layer_is_bit_exact_identity(self):
        dec = Decoder(d_model=8, n_channels=3, kernel_size=5, rng=rng(0))
        # final layer is zero-initialized by construction
        assert np.all(dec.params["conv2.w"].numpy() == 0.0) and np.all(dec.params["conv2.b"].numpy() == 0.0)
        x_noisy = Tensor(rng(1).normal(size=(2, 3, 32)))
        h = Tensor(rng(2).normal(size=(2, 32, 8)))
        x_hat = denoise_forward(x_noisy, h, dec, training=False)
        assert np.array_equal(x_hat.numpy(), x_noisy.numpy())

    def test_forced_zero_after_training_steps(self):
        dec = Decoder(d_model=8, n_channels=3, kernel_size=5, rng=rng(3))
        dec.params["conv1.w"].data[:] = rng(4).normal(size=dec.params["conv1.w"].shape)
        dec.params["conv2.w"].data[:] = rng(5).normal(size=dec.params["conv2.w"].shape)  # pretend trained
        dec.params["conv2.w"].data[:] = 0.0
        dec.params["conv2.b"].data[:] = 0.0
        x_noisy = Tensor(rng(6).normal(size=(1, 3, 16)))
        h = Tensor(rng(7).normal(size=(1, 16, 8)))
        out = denoise_forward(x_noisy, h, dec, training=False)
        assert np.array_equal(out.numpy(), x_noisy.numpy())


class TestShapes:
    def test_output_matches_input_shape(self):
        dec = Decoder(d_model=16, n_channels=32, kernel_size=7, rng=rng(8))
        dec.params["conv2.w"].data[:] = rng(9).normal(size=dec.params["conv2.w"].shape) * 0.01
        x = Tensor(rng(10).normal(size=(2, 32, 128)))
        h = Tensor(rng(11).normal(size=(2, 128, 16)))
        assert denoise_forward(x, h, dec, training=False).shape == (2, 32, 128)

    def test_stem_lifts_channels(self):
        stem = ConvStem(n_channels=4, d_model=16, kernel_size=7, rng=rng(12))
        x = Tensor(rng(13).normal(size=(2, 4, 64)))
        assert stem.forward(x).shape == (2, 16, 64)


class TestLoss:
    def test_zero_when_equal(self):
        x = Tensor(rng(17).normal(size=(2, 3, 8)))
        assert float(denoise_loss(x, x).numpy()) == 0.0

    def test_unit_offset(self):
        x = Tensor(rng(18).normal(size=(2, 3, 8)))
        off = Tensor(x.numpy() + 1.0)
        assert abs(float(denoise_loss(x, off).numpy()) - 1.0) < 1e-12

    def test_gradient_is_scaled_residual(self):
        clean = rng(19).normal(size=(2, 4))
        x_hat0 = rng(20).normal(size=(2, 4))

        def f(t):
            return denoise_loss(Tensor(clean), t)

        err = check_grad(f, x_hat0, tol=1e-6)
        assert err < 1e-6

    def test_nonnegative(self):
        a = Tensor(rng(21).normal(size=(3, 3)))
        b = Tensor(rng(22).normal(size=(3, 3)))
        assert float(denoise_loss(a, b).numpy()) > 0.0


class TestBatchNormBuffers:
    def test_running_stats_update_only_in_training(self):
        dec = Decoder(d_model=8, n_channels=2, kernel_size=3, rng=rng(23))
        x = Tensor(rng(24).normal(size=(2, 2, 16)))
        h = Tensor(rng(25).normal(size=(2, 16, 8)))
        rm0 = dec.buffers["bn.running_mean"].copy()
        denoise_forward(x, h, dec, training=False)
        np.testing.assert_array_equal(dec.buffers["bn.running_mean"], rm0)
        denoise_forward(x, h, dec, training=True)
        assert not np.array_equal(dec.buffers["bn.running_mean"], rm0)

    def test_named_buffers(self):
        dec = Decoder(d_model=8, n_channels=2, kernel_size=3, rng=rng(29))
        assert set(dec.buffers) == {"bn.running_mean", "bn.running_var"}
