"""Reverse-mode autodiff on numpy float32 arrays.

Ops run under `tape()` record a backward closure through `record`. The only
primitive ops here are `add`, `mul` and `silu`; every other op is fused in
`layers` or `ssm` and records its own backward through the same hook.
Storage is float32 throughout. Elementwise ops take same-shape operands
only -- anything richer has to live inside a fused op.

Decode runs the same block bodies untaped, on the fused ops' array kernels,
which return their state (conv tail, scan state, key/value prefix).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ShapeError, StateError


class Tensor:
    """A float32 array, an optional grad buffer, and a name for checkpoints."""

    __slots__ = ("data", "grad", "requires_grad", "name", "hi")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data, dtype=np.float32)
        if arr.ndim:  # ascontiguousarray would promote 0-d to (1,)
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.name = name
        # float64 readout for scalar reductions; oracles and loss logging use
        # it because the float32 copy quantizes away ~1e-7 of signal.
        self.hi: Optional[float] = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor of shape {self.data.shape} is not a scalar")
        return float(self.data.reshape(()))

    def scalar(self) -> float:
        """Best-precision scalar readout: float64 accumulation if recorded."""
        return self.hi if self.hi is not None else self.item()

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape}, requires_grad={self.requires_grad})"



class _Node:
    __slots__ = ("out", "inputs", "bwd")

    def __init__(self, out: Tensor, inputs: Tuple[Tensor, ...], bwd: Callable):
        self.out = out
        self.inputs = inputs
        self.bwd = bwd


class Graph:
    """Tape of recorded ops. Backward walks the tape in reverse record order."""

    def __init__(self):
        self._nodes: List[_Node] = []
        self._produced: set = set()

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d loss / d leaf into .grad of every requires_grad leaf.

        Grads add onto whatever is already in .grad; call zero_grad between
        steps. Intermediate grads live only for the duration of this call.
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward: loss has shape {loss.data.shape}, expected a scalar")
        if id(loss) not in self._produced:
            raise StateError("backward: loss was not produced under this tape")
        grads = {id(loss): np.ones_like(loss.data)}
        for node in reversed(self._nodes):
            gout = grads.pop(id(node.out), None)
            if gout is None:
                continue  # not on any path to the loss
            for t, g in zip(node.inputs, node.bwd(gout)):
                g = np.asarray(g, dtype=np.float32)
                if g.shape != t.data.shape:
                    raise ShapeError(
                        f"backward: grad shape {g.shape} does not match input shape {t.data.shape}"
                    )
                if id(t) in self._produced:
                    if id(t) in grads:
                        grads[id(t)] = grads[id(t)] + g
                    else:
                        grads[id(t)] = g
                elif t.requires_grad:
                    if t.grad is None:
                        t.grad = np.zeros_like(t.data)
                    t.grad += g


_STACK: List[Graph] = []


def active_graph() -> Optional[Graph]:
    return _STACK[-1] if _STACK else None


@contextmanager
def tape():
    """Record ops executed in the body onto a fresh Graph."""
    g = Graph()
    _STACK.append(g)
    try:
        yield g
    finally:
        _STACK.pop()


def record(out: Tensor, inputs: Sequence[Tensor], bwd: Callable) -> Tensor:
    """Attach a backward closure to `out` under the active tape, if any.

    `bwd` maps the output grad (float32 ndarray) to a tuple of per-input grads,
    ordered like `inputs`; the grads of leaves that need none are dropped.
    Fused layer ops register themselves through this hook.
    """
    g = active_graph()
    if g is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        g._nodes.append(_Node(out, tuple(inputs), bwd))
        g._produced.add(id(out))
    return out


def sigmoid_f(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid on a raw ndarray (keeps caller's dtype).

    With e = exp(-|x|) and d = 1 + e this is 1/d where x >= 0 and e/d elsewhere,
    so exp never overflows. Both branches are computed on the whole array and
    picked by multiplying with the sign mask: the numerator is exactly 1 or e,
    so every element rounds as if its own branch alone had run. min(x, -x)
    stands in for -|x| because it keeps a NaN's sign bit.
    """
    pos = x >= 0
    e = np.exp(np.minimum(x, -x))
    return (pos + e * ~pos) / (1.0 + e)


def f32(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float32)
    return np.ascontiguousarray(x) if x.ndim else x


# ---------------------------------------------------------------------------
# primitive ops


def _check_elementwise(opname: str, a: Tensor, b: Tensor) -> None:
    shape = b.data.shape if isinstance(b, Tensor) else type(b).__name__
    if a.data.shape != shape or not a.data.ndim:
        raise ShapeError(
            f"{opname}: shapes {a.data.shape} and {shape} do not match; "
            "only same-shape operands of at least one dim combine here"
        )


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("add", a, b)
    out = Tensor(a.data + b.data)
    return record(out, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise("mul", a, b)
    out = Tensor(a.data * b.data)
    return record(out, (a, b), lambda g: (g * b.data, g * a.data))


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x), elementwise. The backward keeps only the input and
    recomputes the sigmoid from it."""
    # s is let go at return, after the output is wrapped: letting it go
    # right after the product made glibc trim and refault its heap on every
    # untaped forward (about 6300 minor faults per 2x4x128 calibration pass,
    # against 0-2300 this way, over five checkout paths)
    s = sigmoid_f(a.data)
    out = Tensor(a.data * s)

    def bwd(g: np.ndarray):
        s = sigmoid_f(a.data)
        return (g * (s * (1.0 + a.data * (1.0 - s))),)

    return record(out, (a,), bwd)


def softplus_f(x: np.ndarray) -> np.ndarray:
    # log1p(exp(x)) overflows past ~88 in float32; clamp where exp saturates,
    # the linear branch is exact to float32 there anyway
    safe = np.minimum(x, np.float32(30.0))
    return np.where(x > 30.0, x, np.log1p(np.exp(safe)))
