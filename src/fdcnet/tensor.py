"""Dense float64 tensors with tape-based reverse-mode autodiff.

A ``GradTape`` records every differentiable operation whose inputs require
gradients. ``backward(loss)`` replays the tape in reverse recording order
(construction order is already topological) and accumulates gradients into
the ``.grad`` buffer of every reachable leaf. Tapes are cheap and recreated
per forward pass; there is no higher-order differentiation.

A tape node holds the handles of its op's parents and the op's backward
closure, never the op's output. Each closure keeps only the arrays and
shapes its gradient formula reads, so an activation that no closure reads
is freed as soon as the forward pass drops it. ``backward`` pops each node
off the tape as it replays it, releasing what its closure kept once its
gradient has flowed.

All values are float64 and must be finite; constructing a tensor with NaN
or Inf raises ``NonFiniteError``. The outputs of reshape, transpose,
swapaxes, getitem and concat skip that scan: their values are copies of
inputs that were scanned when they were made. A value written in place
into a tensor's data is caught by the next arithmetic op it reaches.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NonFiniteError

_ACTIVE_TAPE: Optional["GradTape"] = None
# index of the next tape node. Indices never repeat, across tapes and
# passes, so a tensor left over from an earlier pass names no node of the
# current one
_NEXT_NODE = 0
# ops whose values are copies of their inputs' values
_COPY_OPS = frozenset({"reshape", "transpose", "swapaxes", "getitem", "concat"})


class GradTape:
    """Ordered record of differentiable ops; use as a context manager."""

    def __init__(self):
        # each node: (parent handles, backward closure). A handle is a leaf
        # that requires grad, the index of the parent's node, or None for a
        # parent that takes no gradient
        self.nodes: list[tuple[tuple, Callable[[np.ndarray], Sequence]]] = []
        self.first = 0  # the index of nodes[0]

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

    # _node: index of the tape node that produced this tensor, None for a leaf
    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, op: Optional[str] = None):
        arr = np.asarray(data, dtype=np.float64)
        if op not in _COPY_OPS and not np.isfinite(arr).all():
            raise NonFiniteError(
                f"non-finite values in tensor{'' if op is None else ' produced by ' + op}"
                f" (shape {arr.shape})"
            )
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[int] = None

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

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __getitem__(self, key):
        return getitem(self, key)


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
    backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]],
    op: str,
) -> Tensor:
    """Create an op result, recording it on the active tape when needed.

    ``backward_fn`` maps the output gradient to one gradient per parent, in
    ``parents`` order, with None for a parent it skips. It is only called
    for tensors that ended up on a tape, and should keep only the arrays
    its formula reads: the tape keeps the closure until ``backward`` has
    replayed it.
    """
    global _NEXT_NODE
    tape = _ACTIVE_TAPE
    track = tape is not None and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=track, op=op)
    if track:
        if not tape.nodes:
            tape.first = _NEXT_NODE
        handles = tuple(_handle(p, tape.first) for p in parents)
        out._node = _NEXT_NODE
        _NEXT_NODE += 1
        tape.nodes.append((handles, backward_fn))
    return out


def _handle(p: Tensor, first: int):
    if p._node is None:
        return p if p.requires_grad else None
    if p._node < first:
        raise ContractError(f"an input of shape {p.shape} was recorded on an earlier pass of the tape")
    return p._node


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``.grad``.

    The loss must be a scalar recorded on the active tape. Pending gradients
    are keyed by node index. Each node is popped off the tape as it is
    replayed, so the arrays its closure saved are freed once their gradient
    has flowed. The tape is empty afterwards, also when a closure raises; a
    fresh forward pass is needed before the next call.
    """
    tape = _ACTIVE_TAPE
    if tape is None:
        raise ContractError("backward() requires an active GradTape")
    if loss.size != 1:
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
    nodes = tape.nodes
    seed = np.ones_like(loss.data)
    try:
        if loss._node is None:
            if loss.requires_grad:
                _accumulate(loss, seed)
            return
        pending: dict[int, np.ndarray] = {loss._node: seed}
        while nodes:
            handles, fn = nodes.pop()
            g = pending.pop(tape.first + len(nodes), None)
            if g is None:
                continue
            for handle, pg in zip(handles, fn(g), strict=True):
                if pg is None or handle is None:
                    continue
                if isinstance(handle, int):
                    acc = pending.get(handle)
                    pending[handle] = pg if acc is None else acc + pg
                else:
                    _accumulate(handle, pg)
    finally:
        nodes.clear()


def _accumulate(leaf: Tensor, g: np.ndarray) -> None:
    if leaf.grad is None:
        leaf.grad = np.zeros_like(leaf.data)
    leaf.grad += g


# -- elementwise arithmetic --------------------------------------------------
# Each closure names only the arrays and shapes its formula reads: a closure
# that named a parent Tensor would keep the parent's data alive on the tape.

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape

    def bw(g):
        return [_unbroadcast(g, sa), _unbroadcast(g, sb)]

    return make_op(a.data + b.data, (a, b), bw, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape

    def bw(g):
        return [_unbroadcast(g, sa), _unbroadcast(-g, sb)]

    return make_op(a.data - b.data, (a, b), bw, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data

    def bw(g):
        return [_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)]

    return make_op(ad * bd, (a, b), bw, "mul")


def neg(a) -> Tensor:
    a = as_tensor(a)
    return make_op(-a.data, (a,), lambda g: [-g], "neg")


def power(a, p) -> Tensor:
    a = as_tensor(a)
    ad, p = a.data, float(p)

    def bw(g):
        return [g * p * ad ** (p - 1.0)]

    return make_op(ad**p, (a,), bw, "pow")


def log(a) -> Tensor:
    a = as_tensor(a)
    ad = a.data

    def bw(g):
        return [g / ad]

    return make_op(np.log(ad), (a,), bw, "log")


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def bw(g):
        return [g * out_data]

    return make_op(out_data, (a,), bw, "exp")


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient passes only where values were kept."""
    a = as_tensor(a)
    mask = (a.data >= lo) & (a.data <= hi)

    def bw(g):
        return [g * mask]

    return make_op(np.clip(a.data, lo, hi), (a,), bw, "clamp")


# -- reductions --------------------------------------------------------------

def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    shape = a.shape

    def bw(g):
        if axis is None:
            return [np.broadcast_to(g, shape).copy()]
        return [np.broadcast_to(np.expand_dims(g, axis), shape).copy()]

    return make_op(a.data.sum(axis=axis), (a,), bw, "sum")


def tmean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    shape = a.shape
    if axis is None:
        n = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = 1
        for ax in axes:
            n *= shape[ax]

    def bw(g):
        if axis is None:
            return [np.broadcast_to(g / n, shape).copy()]
        return [np.broadcast_to(np.expand_dims(g, axis) / n, shape).copy()]

    return make_op(a.data.mean(axis=axis), (a,), bw, "mean")


# -- linear algebra ----------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product with optional stacked (batched) leading dimensions."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def bw(g):
        ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        gb = np.matmul(np.swapaxes(ad, -1, -2), g)
        return [_unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape)]

    return make_op(np.matmul(ad, bd), (a, b), bw, "matmul")


# -- shape manipulation ------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
    in_shape = a.shape

    def bw(g):
        return [g.reshape(in_shape)]

    return make_op(a.data.reshape(shape), (a,), bw, "reshape")


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inv = np.argsort(axes)

    def bw(g):
        return [g.transpose(inv)]

    return make_op(a.data.transpose(axes), (a,), bw, "transpose")


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        return [np.swapaxes(g, ax1, ax2)]

    return make_op(np.swapaxes(a.data, ax1, ax2), (a,), bw, "swapaxes")


def getitem(a, key) -> Tensor:
    """Basic (slice/index) subscripting; gradient scattered back to a zero buffer."""
    a = as_tensor(a)
    shape = a.shape
    # the parent's axes from outermost to innermost in memory: the zero
    # buffer takes the layout np.zeros_like(a.data) would, and the ops
    # that receive the gradient see a's own strides without keeping a
    order = sorted(range(a.ndim), key=lambda i: -abs(a.data.strides[i]))

    def bw(g):
        full = np.zeros([shape[i] for i in order]).transpose(np.argsort(order))
        full[key] = g
        return [full]

    return make_op(a.data[key], (a,), bw, "getitem")


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def bw(g):
        idx = [slice(None)] * g.ndim
        outs = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            idx[axis] = slice(int(lo), int(hi))
            outs.append(g[tuple(idx)])
        return outs

    return make_op(np.concatenate([p.data for p in parts], axis=axis), parts, bw, "concat")
