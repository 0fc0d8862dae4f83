"""Autodiff core: tape semantics, broadcasting, and gradient oracles."""

import re
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fdcnet
from conftest import check_grad, rng, sq_sum
from fdcnet.errors import ContractError, DimensionError, NonFiniteError
from fdcnet.model import FdcNet
from fdcnet.model.classifier import class_weights
from fdcnet.model.feedback import joint_loss
from fdcnet.tensor import (
    GradTape,
    Tensor,
    active_tape,
    add,
    backward,
    clamp,
    concat,
    make_op,
    matmul,
    mul,
    no_grad,
    power,
    reshape,
    sub,
    swapaxes,
    tmean,
    transpose,
    tsum,
)
from fdcnet.trainer import desk_preset


class TestConstruction:
    def test_float64_always(self):
        t = Tensor(np.array([1, 2, 3], dtype=np.int32))
        assert t.data.dtype == np.float64

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, np.inf]))
        with pytest.raises(NonFiniteError):
            Tensor(np.array([np.nan]))
        with pytest.raises(NonFiniteError):
            Tensor(np.nan)

    # the ops whose values are copies of their inputs' skip the scan
    COPY_OPS = {"reshape", "transpose", "swapaxes", "getitem", "concat"}

    def test_every_other_op_scans_its_output(self):
        # every op name the package records
        names = {
            name
            for path in Path(fdcnet.__file__).parent.rglob("*.py")
            for name in re.findall(r'make_op\(.*, "(\w+)"\)$', path.read_text(), re.M)
        }
        assert self.COPY_OPS < names
        for name in sorted(names - self.COPY_OPS):
            with pytest.raises(NonFiniteError, match=f"produced by {name} "):
                Tensor(np.array([1.0, np.nan]), op=name)
        for name in self.COPY_OPS:
            Tensor(np.array([1.0, np.nan]), op=name)

    def test_nan_written_into_a_parameter_stops_the_next_forward(self):
        # as an optimizer step could write it: the copy ops skip their scan,
        # but the first arithmetic op downstream of every parameter has one
        model = FdcNet(replace(desk_preset().model, n_channels=4), seed=0)
        x = rng(9).normal(size=(2, 4, 16))
        missed = []
        for name, param in model.named_parameters().items():
            kept = param.data.flat[0]
            param.data.flat[0] = np.nan
            try:
                model.forward(x, mode="eval")
                missed.append(name)
            except NonFiniteError:
                pass
            param.data.flat[0] = kept
        assert missed == []
        model.forward(x, mode="eval")

    def test_shape_and_ndim(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = matmul(a, b).numpy()
        np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0]])

    def test_hand_arithmetic(self):
        out = matmul(Tensor(np.array([[1.0, 2.0]])), Tensor(np.array([[3.0], [4.0]])))
        np.testing.assert_array_equal(out.numpy(), [[11.0]])

    def test_triple_loop_oracle(self):
        r = rng(5)
        a = r.normal(size=(5, 7))
        b = r.normal(size=(7, 3))
        expect = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(7):
                    expect[i, j] += a[i, k] * b[k, j]
        got = matmul(Tensor(a), Tensor(b)).numpy()
        assert np.abs(got - expect).max() < 1e-12

    def test_shape_mismatch_message_has_both_shapes(self):
        with pytest.raises(DimensionError) as exc:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)

    def test_batched(self):
        r = rng(6)
        a, b = r.normal(size=(4, 2, 3)), r.normal(size=(4, 3, 5))
        got = matmul(Tensor(a), Tensor(b)).numpy()
        assert np.abs(got - a @ b).max() < 1e-12


class TestBackwardExamples:
    def test_sum_gives_ones(self):
        x = Tensor(rng(1).normal(size=(3, 4)), requires_grad=True)
        with GradTape():
            backward(tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_half_sq_norm_gives_x(self):
        data = rng(2).normal(size=(6,))
        x = Tensor(data, requires_grad=True)
        with GradTape():
            backward(tsum(x * x) * 0.5)
        assert np.abs(x.grad - data).max() < 1e-12

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape():
            with pytest.raises(ContractError):
                backward(x * 2.0)

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with GradTape():
            backward(tsum(x * x + x))  # d/dx = 2x + 1 = 5
        assert abs(x.grad[0] - 5.0) < 1e-12


class TestTapeSemantics:
    def test_off_tape_subgraph_gets_no_gradient(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x * 3.0  # built before the tape starts: x is unreachable
        with GradTape():
            backward(tsum(y))
        assert x.grad is None
        assert y.grad is None

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with GradTape():
            with no_grad():
                y = x * 3.0
            assert not y.requires_grad
            backward(tsum(y))
        assert x.grad is None

    def test_nested_tapes_rejected(self):
        with GradTape():
            with pytest.raises(ContractError):
                with GradTape():
                    pass

    def test_constant_parents_not_tracked(self):
        x = Tensor(np.ones(2))  # requires_grad=False
        with GradTape() as tape:
            _ = x * 2.0 + 1.0
            assert not tape.nodes


class TestBroadcasting:
    def test_add_broadcast_grad(self):
        a = rng(3).normal(size=(4, 3))

        def f(t):
            return tsum(Tensor(a) + t)

        b = rng(4).normal(size=(3,))
        check_grad(f, b, tol=1e-7)

    def test_scalar_broadcast_grad(self):
        a = rng(5).normal(size=(2, 3, 4))
        check_grad(lambda t: tsum(Tensor(a) * t), np.array(1.7), tol=1e-7)


class TestShapeOps:
    def test_reshape_transpose_swap_roundtrip(self):
        data = rng(7).normal(size=(2, 3, 4))
        x = Tensor(data)
        assert np.array_equal(reshape(x, (6, 4)).numpy(), data.reshape(6, 4))
        assert np.array_equal(transpose(x, (2, 0, 1)).numpy(), data.transpose(2, 0, 1))
        assert np.array_equal(swapaxes(x, 0, 2).numpy(), data.swapaxes(0, 2))

    def test_concat_and_slice_grads(self):
        a = rng(8).normal(size=(2, 3))

        def f(t):
            c = concat([t, Tensor(a)], axis=1)
            return tsum(c[:, 1:4] * c[:, 1:4])

        check_grad(f, rng(9).normal(size=(2, 3)), tol=1e-6)

    def test_clamp_grad_masks_outside(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        with GradTape():
            backward(tsum(clamp(x, 0.0, 1.0)))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_tsum_axis(self):
        data = rng(10).normal(size=(3, 5))
        assert np.abs(tsum(Tensor(data), axis=0).numpy() - data.sum(axis=0)).max() < 1e-12

    def test_tmean_grad(self):
        check_grad(lambda t: tmean(t * t), rng(11).normal(size=(4, 5)), tol=1e-7)


def keep_everything_backward(loss):
    """A replay that pops nothing: every tape node, and so every array its
    closure saved, stays alive until the whole pass ends."""
    tape = active_tape()
    pending = {loss._node: np.ones_like(loss.data)}
    for index in reversed(range(len(tape.nodes))):
        handles, fn = tape.nodes[index]
        g = pending.pop(tape.first + index, None)
        if g is None:
            continue
        for handle, pg in zip(handles, fn(g)):
            if pg is None or handle is None:
                continue
            if isinstance(handle, int):
                acc = pending.get(handle)
                pending[handle] = pg if acc is None else acc + pg
            else:
                if handle.grad is None:
                    handle.grad = np.zeros_like(handle.data)
                handle.grad += pg
    tape.nodes.clear()


def desk_step_grads(replay):
    """Every parameter gradient of one desk training step at batch 32."""
    r = rng(21)
    model = FdcNet(replace(desk_preset().model, n_channels=8), seed=0)
    xb, cb = r.normal(size=(32, 8, 128)), r.normal(size=(32, 8, 128))
    yb = np.tile([[0.0, 1.0], [1.0, 0.0]], (16, 1))
    with GradTape() as tape:
        out = model.forward(xb, mode="train", rng=rng(22))
        replay(joint_loss(cb, out.x_hat, out.p, yb, class_weights(yb), 0.6))
        left = len(tape.nodes)
    return {name: p.grad for name, p in model.named_parameters().items()}, left


class TestTapeRelease:
    def test_desk_step_gradients_equal_keep_everything_replay(self):
        grads, left = desk_step_grads(backward)
        want, _ = desk_step_grads(keep_everything_backward)
        assert left == 0
        assert grads.keys() == want.keys()
        for name in want:
            assert np.array_equal(grads[name], want[name]), name

    def test_early_output_released_during_backward(self):
        x = Tensor(rng(23).normal(size=(4, 5)), requires_grad=True)
        seen = []

        def probe(g):
            # replayed last, after every later node has been popped
            seen.append(ref() is None)
            return [g]

        with GradTape() as tape:
            early = make_op(x.data * 2.0, (x,), probe, "probe") * 3.0
            ref = weakref.ref(early.data)
            loss = tsum(early * early)
            del early
            backward(loss)
            assert tape.nodes == []
        assert seen == [True]
        # the probe passes its gradient through unchanged: d(sum((3p)^2))/dp = 18p = 36x
        np.testing.assert_allclose(x.grad, 36.0 * x.data, rtol=1e-15)

    def test_output_no_closure_reads_is_freed_before_backward(self):
        x = Tensor(rng(25).normal(size=(4, 5)), requires_grad=True)
        with GradTape() as tape:
            h = add(x, 1.0)
            h2 = add(h, 2.0)
            refs = [weakref.ref(h.data), weakref.ref(h2.data)]
            loss = tsum(h2)  # each closure keeps shapes, not its inputs
            del h, h2
            assert [ref() for ref in refs] == [None, None]
            assert len(tape.nodes) == 3
            backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((4, 5)))

    def test_no_closure_on_a_desk_step_tape_holds_a_tensor(self):
        r = rng(26)
        model = FdcNet(replace(desk_preset().model, n_channels=8), seed=0)
        yb = np.tile([[0.0, 1.0], [1.0, 0.0]], (2, 1))
        with GradTape() as tape:
            out = model.forward(r.normal(size=(4, 8, 128)), mode="train", rng=rng(27))
            joint_loss(r.normal(size=(4, 8, 128)), out.x_hat, out.p, yb, class_weights(yb), 0.6)
            held = []
            for _, fn in tape.nodes:
                for cell in fn.__closure__ or ():
                    v = cell.cell_contents
                    if any(isinstance(e, Tensor) for e in (v if isinstance(v, (list, tuple)) else [v])):
                        held.append(fn.__qualname__)
            assert len(tape.nodes) > 100
            assert held == []

    def test_desk_step_peak_memory_below_40_mb(self):
        # the peak of forward, loss and backward together, about 36 MB; a
        # tape that keeps every op's output and inputs peaks near 53 MB
        tracemalloc.start()
        try:
            desk_step_grads(backward)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, f"{peak / 1e6:.1f} MB"

    def test_output_of_an_earlier_pass_is_rejected(self):
        # its node index must not name a node of the new pass
        x = Tensor(np.ones(3), requires_grad=True)
        tape = GradTape()
        with tape:
            y = x * 2.0
            backward(tsum(y))
        with tape:
            z = x * 5.0
            with pytest.raises(ContractError, match="earlier pass"):
                z + y
            with no_grad():
                np.testing.assert_array_equal((y + 1.0).numpy(), [3.0, 3.0, 3.0])
            backward(tsum(z))
        np.testing.assert_array_equal(x.grad, [7.0, 7.0, 7.0])

    def test_raising_closure_empties_tape_and_next_step_matches(self):
        data = rng(24).normal(size=(3, 4))
        tape = GradTape()

        def boom(g):
            raise NonFiniteError("non-finite gradient")

        def step(fail):
            x = Tensor(data, requires_grad=True)
            with tape:
                y = x * x + x
                if fail:
                    y = make_op(y.data.copy(), (y,), boom, "boom")
                backward(tsum(y * 2.0))
            return x.grad

        want = step(False)
        with pytest.raises(NonFiniteError):
            step(True)
        assert tape.nodes == []
        assert np.array_equal(step(False), want)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["add", "mul", "sub", "pow"]))
def test_binary_op_gradients_match_fd(seed, op):
    r = np.random.default_rng(seed)
    a = r.normal(size=(3, 4))
    b = r.normal(size=(3, 4)) + 3.0  # keeps the pow base away from zero

    ops = {
        "add": lambda x, y: x + y,
        "mul": lambda x, y: x * y,
        "sub": sub,
        "pow": lambda x, y: power(x * x + y * y, 1.5),
    }
    check_grad(lambda t: tsum(ops[op](t, Tensor(b)) * 1.3), a, tol=1e-5)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_matmul_gradient_matches_fd(seed):
    r = np.random.default_rng(seed)
    a = r.normal(size=(3, 4))
    b = r.normal(size=(4, 2))
    check_grad(lambda t: sq_sum(matmul(t, Tensor(b))), a, tol=1e-5)
    check_grad(lambda t: sq_sum(matmul(Tensor(a), t)), b, tol=1e-5)
