"""Layers used by the blocks: linear, rmsnorm, depthwise causal conv, causal
multi-head attention, gated mlp, embedding, cross-entropy.

Each fused op computes forward in numpy (float64 where sums accumulate) and
registers a single backward closure on the tape, instead of decomposing into
primitive ops. Linear, rmsnorm, conv and attention split in two: an array
kernel (`linear_f`, ...) that decode runs directly, and the tape wrapper,
which calls it and records the backward. The stateful kernels take what came
before their input: conv the last inputs, attention a key/value prefix. They
give one token (a decode step) a shorter path with the same bytes: conv sums
its one row's taps in one reduce, and attention masks nothing for a single
query. The gated mlp is one body over an ops table, the blocks' tape or
array ops, and needs no backward of its own.

A backward closure keeps its inputs and what no cheap pass rebuilds.
Attention keeps only x and its weights: its backward rebuilds the float64
heads, the softmax weights and ctx, and cross-entropy's its shifted logits,
by the helpers the forward calls, to the same bytes. Attention builds its
weights one (batch rows, heads) block at a time, forward and backward:
whole rows while one row's H * T * (n + T) weights fit in `_WEIGHT_ELEMS`,
else one row's heads in blocks of at least one head.

The layer classes are dataclasses whose fields are what they own. `tensors`
walks them and names each tensor by its field path; no tensor stores a name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityError, ShapeError, TokenError
from .tensor import Tensor, f32, hand_over, record


def linear_f(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x (..., k) @ w (n, k).T -> float32 (..., n); float64 accumulation."""
    k = w.shape[1]
    if x.shape[-1] != k:
        raise ShapeError(f"linear: input {x.shape} does not match weight {w.shape}")
    y = x.reshape(-1, k).astype(np.float64) @ w.astype(np.float64, copy=False).T
    return y.astype(np.float32).reshape(x.shape[:-1] + (w.shape[0],))


def linear(x: Tensor, weight: Tensor) -> Tensor:
    xd, wd = x.data, weight.data
    out = Tensor(linear_f(xd, wd))

    def bwd(g: np.ndarray):
        n, k = wd.shape
        g2 = g.reshape(-1, n).astype(np.float64)
        return (f32((g2 @ wd.astype(np.float64)).reshape(xd.shape)),
                f32(g2.T @ xd.reshape(-1, k).astype(np.float64)))

    return record(out, (x, weight), bwd)


# added to the mean square, so an all-zeros row divides by no zero
_RMS_EPS = 1e-5


def _inv_rms(x64: np.ndarray) -> np.ndarray:
    # sum / d is what mean computes, without its Python-level wrapper
    return 1.0 / np.sqrt((x64 * x64).sum(axis=-1, keepdims=True) / x64.shape[-1] + _RMS_EPS)


def rmsnorm_f(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Root-mean-square norm over the last dim, then elementwise scale."""
    d = x.shape[-1]
    if scale.shape != (d,):
        raise ShapeError(f"rmsnorm: scale {scale.shape} does not match feature dim {d}")
    x64 = x.astype(np.float64)
    return (x64 * _inv_rms(x64) * scale.astype(np.float64, copy=False)).astype(np.float32)


def rmsnorm(x: Tensor, scale: Tensor) -> Tensor:
    xd, sd = x.data, scale.data
    out = Tensor(rmsnorm_f(xd, sd))

    def bwd(g: np.ndarray):
        d = xd.shape[-1]
        x64 = xd.astype(np.float64)
        inv = _inv_rms(x64)
        g64 = g.astype(np.float64)
        gs64 = g64 * sd.astype(np.float64)
        dot = (gs64 * x64).sum(axis=-1, keepdims=True)
        return (f32(inv * gs64 - (inv ** 3) * x64 * dot / d),
                f32((g64 * x64 * inv).reshape(-1, d).sum(axis=0)))

    return record(out, (x, scale), bwd)


def causal_conv1d_f(x: np.ndarray, kernel: np.ndarray,
                    tail: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Depthwise causal conv. x (B, T, c) float32, kernel (c, w); position t
    sees x[t-w+1 .. t] only. tail (B, w-1, c) holds the inputs before x, most
    recent last; None means zeros. -> (y (B, T, c), the tail after x).
    One token (a decode step) sums its one row's w products in one reduce,
    in the loop's order from 0, so to the loop's bytes."""
    if x.ndim != 3:
        raise ShapeError(f"causal_conv1d: expected (B, T, c), got {x.shape}")
    B, T, c = x.shape
    cw, w = kernel.shape
    if cw != c:
        raise ShapeError(f"causal_conv1d: kernel {kernel.shape} does not match channels {c}")
    if tail is None:
        tail = np.zeros((B, w - 1, c), dtype=np.float32)
    xp = np.concatenate([tail, x], axis=1)
    if T == 1:
        # (B, w, c) products reduced over w, the outer axis: one add per tap
        return np.add.reduce(xp * kernel.T, axis=1, keepdims=True, initial=0.0), xp[:, 1:]
    y = np.zeros((B, T, c), dtype=np.float32)
    for j in range(w):
        y += kernel[:, j] * xp[:, j:j + T, :]
    return y, xp[:, T:].copy()


def causal_conv1d(x: Tensor, kernel: Tensor) -> Tensor:
    xd, kd = x.data, kernel.data
    out = Tensor(causal_conv1d_f(xd, kd)[0])

    def bwd(g: np.ndarray):
        B, T, c = g.shape
        w = kd.shape[1]
        xp = np.concatenate([np.zeros((B, w - 1, c), dtype=np.float32), xd], axis=1)
        gxp = np.zeros_like(xp)
        gk = np.zeros_like(kd, dtype=np.float64)
        for j in range(w):
            gxp[:, j:j + T, :] += kd[:, j] * g
            gk[:, j] = (g.astype(np.float64) * xp[:, j:j + T, :]).sum(axis=(0, 1))
        return np.ascontiguousarray(gxp[:, w - 1:, :]), f32(gk)

    return record(out, (x, kernel), bwd)


# Elements of one block of (B, H, T, n + T) attention weights: attention
# walks its batch rows in blocks of at most this many weights, and one row's
# heads in blocks when a whole row's do not fit (but at least one head), so a
# long window's weights are never whole. Per-block matmuls give the same bytes
# as one batched matmul.
_WEIGHT_ELEMS = 1 << 18


def _row_blocks(B: int, H: int, per_head: int):
    """(batch slice, head slice) blocks over B rows of H heads with per_head
    weights each, in order: whole rows while one row's weights fit, else one
    row cut into blocks of heads."""
    if H * per_head <= _WEIGHT_ELEMS:
        rows = _WEIGHT_ELEMS // (H * per_head)
        return [(slice(b, b + rows), slice(None)) for b in range(0, B, rows)]
    heads = max(1, _WEIGHT_ELEMS // per_head)
    return [(slice(b, b + 1), slice(h, h + heads))
            for b in range(B) for h in range(0, H, heads)]


def _heads(x2: np.ndarray, w: np.ndarray, B: int, n_heads: int) -> np.ndarray:
    """x2 (B*T, d) float64 projected by w (d, d): float64 heads (B, H, T, hd).
    The forward builds q, k and v through it, and the backward builds them
    again from the same x and weights, to the same bytes."""
    d = w.shape[0]
    return ((x2 @ w.astype(np.float64, copy=False).T)
            .reshape(B, -1, n_heads, d // n_heads).transpose(0, 2, 1, 3))


def _unheads(h: np.ndarray) -> np.ndarray:
    """(B, H, T, hd) -> (B*T, d), the inverse of `_heads`' split."""
    B, H, T, hd = h.shape
    return h.transpose(0, 2, 1, 3).reshape(-1, H * hd)


def _probs(q: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    """Causal softmax of the scaled scores of queries q (B, H, T, hd) at
    positions n .. n+T-1 against keys k (B, H, n + T, hd): float64 (B, H, T,
    n + T). The forward computes it, and the backward computes it again from
    the q and k it rebuilds, to the same bytes. A single query (a decode
    token) is the last position, so no key follows it and no mask is built."""
    T, hd = q.shape[2:]
    scores = q @ k.transpose(0, 1, 3, 2)
    scores /= np.sqrt(hd)
    if T > 1:
        later = np.arange(n + T) > np.arange(n, n + T)[:, None]  # key after query
        np.copyto(scores, -np.inf, where=later)
    scores -= scores.max(axis=-1, keepdims=True)
    # in place: a second (B, H, T, n + T) float64 block freed per call makes
    # glibc trim its heap and fault it back in on the next forward
    p = np.exp(scores, out=scores)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def attention_f(x: np.ndarray, wq: np.ndarray, wk: np.ndarray, wv: np.ndarray,
                wo: np.ndarray, n_heads: int, kv: Optional[tuple] = None):
    """Causal multi-head self-attention. x (B, T, d) float32; weights (d, d).

    x attends to the prefix kv and to itself. kv is (k, v, n): float64 key
    and value buffers (B, H, capacity, hd) whose first n positions hold the
    earlier tokens, or None for none. x's keys and values go in after them,
    and full buffers grow. Without a prefix the returned one is x's own
    heads, exactly full. -> (y (B, T, d) float32, the prefix after x).
    """
    if x.ndim != 3:
        raise ShapeError(f"attention: expected (B, T, d), got {x.shape}")
    B, T, d = x.shape
    if d % n_heads:
        raise ShapeError(f"attention: d={d} not divisible by n_heads={n_heads}")
    hd = d // n_heads
    x2 = x.reshape(-1, d).astype(np.float64)
    q, k, v = (_heads(x2, w, B, n_heads) for w in (wq, wk, wv))  # (B, H, T, hd)
    del x2
    if kv is None:
        n, kv = 0, (k, v, T)
    else:
        kb, vb, n = kv
        if n + T > kb.shape[2]:  # grow when the capacity ran out
            pad = np.zeros(kb.shape[:2] + (max(kb.shape[2], n + T - kb.shape[2]), hd))
            kb = np.concatenate([kb, pad], axis=2)
            vb = np.concatenate([vb, pad], axis=2)
        kb[:, :, n:n + T], vb[:, :, n:n + T] = k, v
        kv = (kb, vb, n + T)
        if n:
            k, v = kb[:, :, :n + T], vb[:, :, :n + T]
    ctx = np.empty((B, n_heads, T, hd))
    for r in _row_blocks(B, n_heads, T * (n + T)):
        ctx[r] = _probs(q[r], k[r], n) @ v[r]
    del q, k, v
    ctx = _unheads(ctx)                                    # (B*T, d)
    y = ctx @ wo.astype(np.float64, copy=False).T
    return y.astype(np.float32).reshape(B, T, d), kv


def attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, n_heads: int) -> Tensor:
    """The backward keeps x and the weights only. It rebuilds the float64
    heads through `_heads`, and the attention weights and ctx one block at a
    time, as the forward built them. y is handed over: a checkpointed
    block's replay takes it from its first run."""
    out = Tensor(hand_over(
        lambda: attention_f(x.data, wq.data, wk.data, wv.data, wo.data, n_heads)[0]))
    B, T, d = x.data.shape
    hd = d // n_heads

    def bwd(g: np.ndarray):
        x2 = x.data.reshape(-1, d).astype(np.float64)
        q, k, v = (_heads(x2, w.data, B, n_heads) for w in (wq, wk, wv))
        g2 = g.reshape(-1, d).astype(np.float64)
        gctx = (g2 @ wo.data.astype(np.float64)).reshape(B, T, n_heads, hd).transpose(0, 2, 1, 3)
        gq, gk, gv, ctx = (np.empty((B, n_heads, T, hd)) for _ in range(4))
        for r in _row_blocks(B, n_heads, T * T):
            p = _probs(q[r], k[r], 0)
            ctx[r] = p @ v[r]
            gp = gctx[r] @ v[r].transpose(0, 1, 3, 2)
            gv[r] = p.transpose(0, 1, 3, 2) @ gctx[r]
            # gs = p * (gp - (gp * p).sum(-1)) / sqrt(hd), in place in gp
            gp -= (gp * p).sum(axis=-1, keepdims=True)
            gp *= p
            gp /= np.sqrt(hd)
            gq[r] = gp @ k[r]
            gk[r] = gp.transpose(0, 1, 3, 2) @ q[r]
            del p, gp
        del q, k, v, gctx
        ctx = _unheads(ctx)
        gq2, gk2, gv2 = _unheads(gq), _unheads(gk), _unheads(gv)
        gx64 = (
            gq2 @ wq.data.astype(np.float64)
            + gk2 @ wk.data.astype(np.float64)
            + gv2 @ wv.data.astype(np.float64)
        )
        return (f32(gx64.reshape(B, T, d)), f32(gq2.T @ x2), f32(gk2.T @ x2),
                f32(gv2.T @ x2), f32(g2.T @ ctx))

    return record(out, (x, wq, wk, wv, wo), bwd)


def _check_ids(what: str, ids: np.ndarray, vocab: int) -> None:
    """TokenError unless ids is an integer array of ids in [0, vocab)."""
    if not np.issubdtype(ids.dtype, np.integer):
        raise TokenError(f"{what}: ids have dtype {ids.dtype}, expected integers")
    bad = (ids < 0) | (ids >= vocab)
    if bad.any():
        pos = tuple(int(i) for i in np.argwhere(bad)[0])
        raise TokenError(f"{what} id {int(ids[pos])} at position {pos} outside vocab of {vocab}")


def embedding(tokens: np.ndarray, table: Tensor) -> Tensor:
    """tokens (B, T) int -> (B, T, d). Validates ids against the table size."""
    tokens = np.asarray(tokens)
    _check_ids("embedding: token", tokens, table.data.shape[0])
    out = Tensor(table.data[tokens])

    def bwd(g: np.ndarray):
        gt = np.zeros_like(table.data)
        np.add.at(gt, tokens.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return (gt,)

    return record(out, (table,), bwd)


def _shifted(logits: np.ndarray) -> np.ndarray:
    """logits (..., V) as float64 rows (-1, V), each less its maximum."""
    flat = logits.reshape(-1, logits.shape[-1]).astype(np.float64)
    return flat - flat.max(axis=-1, keepdims=True)


def _nll(logits: np.ndarray, targets: np.ndarray,
         what: str) -> Tuple[np.ndarray, np.ndarray]:
    """Float64 log-sum-exp and NLL per row of logits (..., V) at int targets
    of its leading shape, both flat; errors name the caller `what`."""
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(
            f"{what}: targets {targets.shape} do not match logits {logits.shape}")
    _check_ids(f"{what}: target", targets, logits.shape[-1])
    z = _shifted(logits)
    lse = np.log(np.exp(z).sum(axis=-1))
    return lse, lse - z[np.arange(z.shape[0]), targets.reshape(-1)]


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean next-token NLL. logits (B, T, V) or (T, V); targets same leading
    shape, int. Log-softmax and the mean run in float64; the scalar keeps a
    float64 readout in .hi. The backward keeps the log-sum-exp per row and
    recomputes the shifted logits."""
    lse, nll = _nll(logits.data, targets, "cross_entropy")
    tflat, n = np.asarray(targets).reshape(-1), lse.shape[0]
    total = nll.mean()
    out = Tensor(np.float32(total))
    out.hi = float(total)

    def bwd(g: np.ndarray):
        p = np.exp(_shifted(logits.data) - lse[:, None])
        p[np.arange(n), tflat] -= 1.0
        p *= float(g.reshape(())) / n
        return (f32(p.reshape(logits.data.shape)),)

    return record(out, (logits,), bwd)


def per_token_nll(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Inference-path NLLs, no tape. logits (..., V) -> (...,), float64;
    targets are checked as cross_entropy checks them."""
    return _nll(logits, targets, "per_token_nll")[1].reshape(np.shape(targets))


# ---------------------------------------------------------------------------
# layer classes: dataclasses whose fields are the parameter tensors or layers
# they own; `tensors` walks them. Their builds take rng None for a skeleton
# that a checkpoint then overwrites.


def _draw(rng: Optional[np.random.Generator], dist: str, a: float, b: float,
         shape: Tuple[int, ...]) -> np.ndarray:
    """rng.normal(a, b, shape) or rng.uniform(a, b, shape), by dist; with no
    rng, an undrawn float32 array of that shape."""
    if rng is None:
        return np.empty(shape, dtype=np.float32)
    return getattr(rng, dist)(a, b, shape)


def tensors(o, fields: Optional[Sequence[str]] = None,
            prefix: str = "") -> Dict[str, Tensor]:
    """Name -> tensor for everything the fields of o own (all its dataclass
    fields by default), in field order. A tensor's name is prefix, then its
    field path from o, dotted: "blocks.3." + "mha.q.weight". A layer, scan or
    block dataclass owns what its fields own; None, a str or an int owns
    nothing. The walk is the one place that names a tensor."""
    out: Dict[str, Tensor] = {}
    _walk(o, o.__dataclass_fields__ if fields is None else fields, prefix, out)
    return out


def _walk(o, fields, path: str, out: Dict[str, Tensor]) -> None:
    for f in fields:
        v = getattr(o, f)
        if isinstance(v, Tensor):
            out[path + f] = v
        elif v is not None and not isinstance(v, (str, int)):
            # the class's field table: dataclasses.fields() per call costs
            # more than the walk itself
            _walk(v, v.__dataclass_fields__, f"{path}{f}.", out)


@dataclass(eq=False)
class Linear:
    """weight (out, in)."""

    weight: Tensor

    @staticmethod
    def build(rng: Optional[np.random.Generator], d_in: int, d_out: int) -> "Linear":
        return Linear(Tensor(_draw(rng, "normal", 0.0, d_in ** -0.5, (d_out, d_in)),
                             requires_grad=True))


@dataclass(eq=False)
class RmsNorm:
    scale: Tensor

    @staticmethod
    def build(d: int) -> "RmsNorm":
        return RmsNorm(Tensor(np.ones(d), requires_grad=True))


@dataclass(eq=False)
class CausalConv1d:
    """Depthwise, fixed width; kernel (c, w)."""

    kernel: Tensor

    @staticmethod
    def build(rng: Optional[np.random.Generator], channels: int,
              width: int) -> "CausalConv1d":
        s = width ** -0.5
        return CausalConv1d(Tensor(_draw(rng, "uniform", -s, s, (channels, width)),
                                   requires_grad=True))


@dataclass(eq=False)
class MultiHeadAttention:
    q: Linear
    k: Linear
    v: Linear
    o: Linear
    n_heads: int

    @staticmethod
    def build(rng: Optional[np.random.Generator], d: int,
              n_heads: int) -> "MultiHeadAttention":
        q, k, v, o = (Linear.build(rng, d, d) for _ in range(4))
        return MultiHeadAttention(q, k, v, o, n_heads)


@dataclass(eq=False)
class GatedMlp:
    """down(silu(gate(x)) * up(x)) with a sliceable hidden dim.

    up/gate are (D, d), down is (d, D). Trailing-channel slicing drops the
    last g rows of up/gate and the last g columns of down, permanently.
    """

    up: Linear
    gate: Linear
    down: Linear

    @staticmethod
    def build(rng: Optional[np.random.Generator], d: int, hidden: int) -> "GatedMlp":
        return GatedMlp(Linear.build(rng, d, hidden), Linear.build(rng, d, hidden),
                        Linear.build(rng, hidden, d))

    @property
    def hidden(self) -> int:
        return self.up.weight.data.shape[0]

    def body(self, ops, x):
        """The mlp over an ops table (model.TAPE on Tensors, a decode
        session's array ops on arrays)."""
        return ops.linear(ops.gate(ops.linear(x, self.gate), ops.linear(x, self.up)), self.down)

    def slice_trailing(self, g: int) -> None:
        """Permanently drop the last g hidden channels."""
        D = self.hidden
        if g < 1 or g >= D:
            raise CapacityError(f"slice_trailing: cannot drop {g} of {D} channels")
        self.up.weight.data = np.ascontiguousarray(self.up.weight.data[:-g, :])
        self.gate.weight.data = np.ascontiguousarray(self.gate.weight.data[:-g, :])
        self.down.weight.data = np.ascontiguousarray(self.down.weight.data[:, :-g])
        for t in (self.up.weight, self.gate.weight, self.down.weight):
            t.grad = None


@dataclass(eq=False)
class Embedding:
    table: Tensor

    @staticmethod
    def build(rng: Optional[np.random.Generator], vocab: int, d: int) -> "Embedding":
        return Embedding(Tensor(_draw(rng, "normal", 0.0, 0.02, (vocab, d)),
                                requires_grad=True))

    def __call__(self, tokens: np.ndarray) -> Tensor:
        return embedding(tokens, self.table)
