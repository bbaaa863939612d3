"""Reverse-mode autodiff on numpy float32 arrays.

Ops run under `tape()` record a backward closure through `record`. The
primitive ops here are `add`, `gate` and `silu`; every other op is fused in
`layers` or `ssm` and records its own backward through the same hook.
Storage is float32 throughout. Elementwise ops take same-shape operands
only -- anything richer has to live inside a fused op. A Tensor holds no
name; `layers.tensors` names a model's tensors by their field paths.

`checkpoint` records a whole body (a model block) as one node: the body runs
with recording paused, and the node keeps its input and what the body's
costly ops pass to `hand_over` (the scan's output and segment starts,
attention's output). Its backward replays the body on an inner graph, the
handed-over results standing in for those ops' forwards, and walks that
graph from the output grad with the walk `Graph.backward` runs.

Decode runs the same block bodies untaped, on the fused ops' array kernels,
which return their state (conv tail, scan state, key/value prefix).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ShapeError, StateError


class Tensor:
    """A float32 array and an optional grad buffer. It holds no name: a
    model's walk names each tensor by its field path (`layers.tensors`)."""

    __slots__ = ("data", "grad", "requires_grad", "hi")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float32)
        if arr.ndim:  # ascontiguousarray would promote 0-d to (1,)
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
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
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"



class _Node:
    __slots__ = ("out", "inputs", "bwd")

    def __init__(self, out: Tensor, inputs: Tuple[Tensor, ...], bwd: Callable):
        self.out = out
        self.inputs = inputs
        self.bwd = bwd


class Graph:
    """Tape of recorded ops. Backward walks the tape in reverse record order.

    A checkpointed block (see `checkpoint`) is one node here: its ops are
    recorded on an inner graph of its own only while its backward replays
    them, and that graph is walked by the same `_walk`, seeded with the
    block's output grad."""

    def __init__(self):
        self._nodes: List[_Node] = []
        self._produced: set = set()
        self._spent = False

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d loss / d leaf into .grad of every requires_grad leaf.

        Grads add onto whatever is already in .grad; call zero_grad between
        steps. Intermediate grads live only for the duration of this call.
        Each node is dropped once its grads are out, so its closure and what
        it keeps are freed as the backward goes: a graph is spent after one
        backward, holds no node after it, and refuses a second.
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward: loss has shape {loss.data.shape}, expected a scalar")
        if self._spent:
            raise StateError("backward: this graph is spent; record a new tape for another backward")
        if id(loss) not in self._produced:
            raise StateError("backward: loss was not produced under this tape")
        self._spent = True
        self._walk(loss, np.ones_like(loss.data))

    def _walk(self, out: Tensor, gout: np.ndarray) -> Dict[int, np.ndarray]:
        """Runs every node in reverse from out's grad gout, popping each.
        Grads of produced tensors add up in a dict by id, those of leaves
        that require grad onto their .grad. -> the grads left in the dict:
        those of produced tensors that no node made."""
        nodes, produced = self._nodes, self._produced
        grads = {id(out): gout}
        while nodes:
            node = nodes.pop()
            produced.discard(id(node.out))  # no earlier node reads it
            gout = grads.pop(id(node.out), None)
            if gout is None:
                continue  # not on any path to the loss
            for t, g in zip(node.inputs, node.bwd(gout)):
                g = np.asarray(g, dtype=np.float32)
                if g.shape != t.data.shape:
                    raise ShapeError(
                        f"backward: grad shape {g.shape} does not match input shape {t.data.shape}"
                    )
                if id(t) in produced:
                    if id(t) in grads:
                        grads[id(t)] = grads[id(t)] + g
                    else:
                        grads[id(t)] = g
                elif t.requires_grad:
                    if t.grad is None:
                        t.grad = np.zeros_like(t.data)
                    t.grad += g
        return grads


class _Handover:
    """What the costly ops of one checkpointed block hand from its first run
    to its replay, in call order."""

    __slots__ = ("results", "replay")

    def __init__(self):
        self.results: deque = deque()
        self.replay = False


# One frame per tape or checkpointed pass in progress, innermost last: the
# graph ops record onto (None while recording is paused) and the handover of
# a checkpointed block's pass (None on a plain tape).
_STACK: List[Tuple[Optional[Graph], Optional[_Handover]]] = []


def active_graph() -> Optional[Graph]:
    """The graph ops record onto: None with no tape, and while a
    checkpointed block's first run has recording paused."""
    return _STACK[-1][0] if _STACK else None


def taping() -> bool:
    """A tape is active, recording or paused: a backward will read what the
    ops keep for it."""
    return bool(_STACK)


@contextmanager
def _frame(graph: Optional[Graph], handover: Optional[_Handover]):
    _STACK.append((graph, handover))
    try:
        yield graph
    finally:
        _STACK.pop()


def tape():
    """Record ops executed in the body onto a fresh Graph."""
    return _frame(Graph(), None)


def hand_over(compute: Callable[[], Any]) -> Any:
    """compute(), run once per checkpointed block: its first run keeps the
    result, and its replay takes it back in the same order instead of
    computing it again. Outside a checkpointed block, just compute()."""
    h = _STACK[-1][1] if _STACK else None
    if h is None:
        return compute()
    if h.replay:
        return h.results.popleft()
    out = compute()
    h.results.append(out)
    return out


def checkpoint(body: Callable[[Tensor], Tensor], x: Tensor,
               params: Sequence[Tensor]) -> Tensor:
    """body(x) under an active tape, recorded as one node over x and params,
    every parameter the body reads (each read once).

    The body runs with recording paused, so no op keeps anything for a
    backward but what it passes to `hand_over`. The node keeps x and those
    results. Its backward replays the body on an inner graph, from a copy of
    x that the walk treats as a produced tensor, with each `hand_over`
    answered from the first run. It walks that graph from the output grad
    and returns the grads of x and params as they added up there: x's
    readers' grads are summed as a produced tensor's are (g1, then g1 + g2),
    and a parameter's single grad reaches .grad in the outer walk, so every
    grad has the bytes of the body recorded op by op. A body that returns
    its input records nothing."""
    h = _Handover()
    with _frame(None, h):
        out = body(x)
    if out is x:
        return x

    def bwd(g: np.ndarray):
        inner = Graph()
        xr = Tensor(x.data, requires_grad=True)
        h.replay = True
        with _frame(inner, h):
            res = body(xr)
        inner._produced.update(id(t) for t in (xr, *params))
        grads = inner._walk(res, g)
        return tuple(grads[id(t)] if id(t) in grads else np.zeros_like(t.data)
                     for t in (xr, *params))

    return record(out, (x, *params), bwd)


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
    so exp never overflows. Both branches are computed on the whole array:
    the numerator max(e, x >= 0) is exactly 1 where x >= 0 (e <= 1 there) and
    e elsewhere (e >= 0 against a mask of 0; a NaN's e is NaN, which maximum
    keeps), so every element rounds as if its own branch alone had run. One
    maximum makes the numerator, so a decode token's silu and gate, on one
    row, spend few calls on it. min(x, -x) stands in for -|x| because it
    keeps a NaN's sign bit.
    """
    e = np.exp(np.minimum(x, -x))
    return np.maximum(e, x >= 0) / (1.0 + e)


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
    # no block records a bare product any more (they use `gate`); mul stays
    # because the tests' gradient checks and perfbench/tracing.py's patch
    # list name it
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


def gate(a: Tensor, b: Tensor) -> Tensor:
    """silu(a) * b, elementwise: the ops and bytes of `mul(silu(a), b)`, with
    no silu(a) kept. The backward keeps a and b and recomputes the sigmoid."""
    _check_elementwise("gate", a, b)
    s = sigmoid_f(a.data)  # let go at return, as in silu
    y = a.data * s
    y *= b.data  # in place: the bytes of (a*s)*b with one array fewer
    out = Tensor(y)

    def bwd(g: np.ndarray):
        s = sigmoid_f(a.data)
        return (g * b.data * (s * (1.0 + a.data * (1.0 - s))), g * (a.data * s))

    return record(out, (a, b), bwd)


def softplus_f(x: np.ndarray) -> np.ndarray:
    # log1p(exp(x)) overflows past ~88 in float32; clamp where exp saturates,
    # the linear branch is exact to float32 there anyway
    safe = np.minimum(x, np.float32(30.0))
    return np.where(x > 30.0, x, np.log1p(np.exp(safe)))
