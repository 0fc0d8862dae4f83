"""Dense float64 tensors with tape-based reverse-mode autodiff.

A ``GradTape`` records every differentiable operation whose inputs require
gradients. ``backward(loss)`` replays the tape in reverse recording order
(construction order is already topological) and accumulates gradients into
the ``.grad`` buffer of every reachable leaf. It pops each node off the tape
as it replays it, so the activations a node's closure saved are released as
soon as their gradient has flowed. Tapes are cheap and recreated per forward
pass; there is no higher-order differentiation.

All values are float64 and must be finite; constructing a tensor with NaN
or Inf raises ``NonFiniteError``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NonFiniteError

_ACTIVE_TAPE: Optional["GradTape"] = None


class GradTape:
    """Ordered record of differentiable ops; use as a context manager."""

    def __init__(self):
        # each node: (output tensor, backward closure)
        self.nodes: list[tuple["Tensor", Callable[[np.ndarray], list]]] = []

    def __enter__(self) -> "GradTape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("a GradTape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False


class no_grad:
    """Suspend tape recording inside the block (forward-only evaluation)."""

    def __enter__(self):
        global _ACTIVE_TAPE
        self._stashed = _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._stashed
        return False


def active_tape() -> Optional[GradTape]:
    return _ACTIVE_TAPE


class Tensor:
    """A dense row-major float64 array, optionally tracked on the active tape."""

    __slots__ = ("data", "requires_grad", "grad", "op", "_leaf")

    def __init__(self, data, requires_grad: bool = False, op: Optional[str] = None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError(
                f"non-finite values in tensor{'' if op is None else ' produced by ' + op}"
                f" (shape {arr.shape})"
            )
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.op = op
        self._leaf = True

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            if other.size != 1:
                raise ContractError("tensor division only supported by scalars")
            if other.requires_grad:
                # item() below would silently drop the divisor's gradient
                raise ContractError("division by a tensor that requires grad is not supported")
            other = other.item()
        return mul(self, 1.0 / float(other))

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    # -- conveniences --------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes if axes else None)

    def swapaxes(self, a, b):
        return swapaxes(self, a, b)

    def square(self):
        return mul(self, self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def make_op(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward_fn: Callable[[np.ndarray], Iterable[tuple[Tensor, Optional[np.ndarray]]]],
    op: str,
) -> Tensor:
    """Create an op result, recording it on the active tape when needed.

    ``backward_fn`` maps the output gradient to (parent, gradient) pairs. It
    is only called for tensors that ended up on a tape.
    """
    tape = _ACTIVE_TAPE
    track = tape is not None and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=track, op=op)
    if track:
        out._leaf = False
        tape.nodes.append((out, backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``.grad``.

    The loss must be a scalar recorded on the active tape. Each node is
    popped off the tape as it is replayed, so its output and the arrays its
    closure saved are freed once their gradient has flowed. The tape is
    empty afterwards, also when a closure raises; a fresh forward pass is
    needed before the next call.
    """
    tape = _ACTIVE_TAPE
    if tape is None:
        raise ContractError("backward() requires an active GradTape")
    if loss.size != 1:
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
    nodes = tape.nodes
    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    try:
        if loss._leaf:
            if loss.requires_grad:
                if loss.grad is None:
                    loss.grad = np.zeros_like(loss.data)
                loss.grad += pending[id(loss)]
            return
        while nodes:
            out, fn = nodes.pop()
            g = pending.pop(id(out), None)
            if g is None:
                continue
            for parent, pg in fn(g):
                if pg is None:
                    continue
                if parent._leaf:
                    if parent.requires_grad:
                        if parent.grad is None:
                            parent.grad = np.zeros_like(parent.data)
                        parent.grad += pg
                else:
                    acc = pending.get(id(parent))
                    pending[id(parent)] = pg if acc is None else acc + pg
    finally:
        nodes.clear()


# -- elementwise arithmetic --------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        return [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape))]

    return make_op(a.data + b.data, (a, b), bw, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        return [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape))]

    return make_op(a.data - b.data, (a, b), bw, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        return [
            (a, _unbroadcast(g * b.data, a.shape)),
            (b, _unbroadcast(g * a.data, b.shape)),
        ]

    return make_op(a.data * b.data, (a, b), bw, "mul")


def neg(a) -> Tensor:
    a = as_tensor(a)
    return make_op(-a.data, (a,), lambda g: [(a, -g)], "neg")


def power(a, p) -> Tensor:
    a = as_tensor(a)
    p = float(p)

    def bw(g):
        return [(a, g * p * a.data ** (p - 1.0))]

    return make_op(a.data**p, (a,), bw, "pow")


def log(a) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        return [(a, g / a.data)]

    return make_op(np.log(a.data), (a,), bw, "log")


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def bw(g):
        return [(a, g * out_data)]

    return make_op(out_data, (a,), bw, "exp")


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient passes only where values were kept."""
    a = as_tensor(a)
    mask = (a.data >= lo) & (a.data <= hi)

    def bw(g):
        return [(a, g * mask)]

    return make_op(np.clip(a.data, lo, hi), (a,), bw, "clamp")


# -- reductions --------------------------------------------------------------

def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        if axis is None:
            return [(a, np.broadcast_to(g, a.shape).copy())]
        gg = g if keepdims else np.expand_dims(g, axis)
        return [(a, np.broadcast_to(gg, a.shape).copy())]

    return make_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw, "sum")


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = 1
        for ax in axes:
            n *= a.shape[ax]

    def bw(g):
        if axis is None:
            return [(a, np.broadcast_to(g / n, a.shape).copy())]
        gg = g if keepdims else np.expand_dims(g, axis)
        return [(a, np.broadcast_to(gg / n, a.shape).copy())]

    return make_op(a.data.mean(axis=axis, keepdims=keepdims), (a,), bw, "mean")


# -- linear algebra ----------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product with optional stacked (batched) leading dimensions."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")

    def bw(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return [(a, _unbroadcast(ga, a.shape)), (b, _unbroadcast(gb, b.shape))]

    return make_op(np.matmul(a.data, b.data), (a, b), bw, "matmul")


# -- shape manipulation ------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)

    def bw(g):
        return [(a, g.reshape(a.shape))]

    return make_op(a.data.reshape(shape), (a,), bw, "reshape")


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inv = np.argsort(axes)

    def bw(g):
        return [(a, g.transpose(inv))]

    return make_op(a.data.transpose(axes), (a,), bw, "transpose")


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        return [(a, np.swapaxes(g, ax1, ax2))]

    return make_op(np.swapaxes(a.data, ax1, ax2), (a,), bw, "swapaxes")


def getitem(a, key) -> Tensor:
    """Basic (slice/index) subscripting; gradient scattered back to a zero buffer."""
    a = as_tensor(a)

    def bw(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return [(a, full)]

    return make_op(a.data[key], (a,), bw, "getitem")


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        outs = []
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(int(lo), int(hi))
            outs.append((p, g[tuple(idx)]))
        return outs

    return make_op(np.concatenate([p.data for p in parts], axis=axis), parts, bw, "concat")
