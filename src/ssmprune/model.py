"""Model assembly: block stacks, the structure registry, checkpoints, decode.

A model is an embedding, a list of residual blocks (mamba and transformer
kinds mixed per the descriptor), a final norm, and an lm head. Every removable
structure sits in a registry; removal flips an alive flag and the forward pass
takes the residual bypass, so weights stay in memory until compact() makes a
copy of the surviving blocks.

Each block class writes its body once, over an ops table: `forward` runs it
with TAPE (Tensors, backward recorded), `decode_step(x, state, ops)` with a
decode session's array ops (array kernels that carry the conv tail, scan
state and key/value prefix).

Layers and blocks are dataclasses: their fields are what they own, and
`layers.tensors` walks them for every name -> tensor map. Each block class
declares its removable parts once, in its PARTS table: registry kind -> the
fields that part owns outright, parent block first (mamba: mamba_block, ssm;
transformer: transformer_block, mha, mlp). A field that is None, such as
mamba1's inner norm, owns nothing. ALIVE_FLAG names the block attribute each
kind flips. The registry, removal, parameter traversal, compaction and the
checkpoint flag rows and payload all loop over these two tables, in their
order.
"""

from __future__ import annotations

import copy as _copy
import json
import struct
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import layers
from . import tensor as tn
from .errors import CheckpointError, ConfigError, ShapeError, StateError
from .layers import (CausalConv1d, Embedding, GatedMlp, Linear, MultiHeadAttention,
                     RmsNorm, attention_f, causal_conv1d_f, linear, linear_f, rmsnorm, rmsnorm_f)
# scan_step is unused here; perfbench/tracing.py patches it under this name too
from .ssm import SsmParams, scan_f, scan_step, selective_scan  # noqa: F401
from .tensor import Tensor, sigmoid_f

BLOCK_KINDS = ("mamba1", "mamba2", "transformer")

# candidate kinds, in tie-break order (earlier wins on equal scores)
KIND_ORDER = ("mamba_block", "transformer_block", "ssm", "mha", "mlp", "mlp_channels")

# registry kind -> the alive flag it sets on its block; a parent block's flag
# is `alive`, and it shadows the flags of the parts after it
ALIVE_FLAG = {"mamba_block": "alive", "transformer_block": "alive",
              "ssm": "ssm_alive", "mha": "mha_alive", "mlp": "mlp_alive"}


_DESC_INTS = ("vocab", "d_model", "n_blocks", "d_state", "conv_width", "n_heads")


@dataclass(frozen=True)
class ArchDescriptor:
    """Everything needed to rebuild a model skeleton."""

    vocab: int
    d_model: int
    n_blocks: int
    block_kinds: Tuple[str, ...]
    d_state: int
    mlp_hidden: Tuple[int, ...]  # per block; 0 on non-transformer rows
    conv_width: int = 4
    n_heads: int = 4

    def validate(self) -> None:
        if self.vocab < 2:
            raise ConfigError(f"descriptor: vocab={self.vocab}, need at least 2")
        if min(self.d_model, self.d_state, self.conv_width, self.n_heads) < 1:
            raise ConfigError("descriptor: d_model, d_state, conv_width, n_heads "
                              "must be positive")
        if self.n_blocks != len(self.block_kinds):
            raise ConfigError(
                f"descriptor: n_blocks={self.n_blocks} but {len(self.block_kinds)} block_kinds"
            )
        if len(self.mlp_hidden) != self.n_blocks:
            raise ConfigError(
                f"descriptor: {len(self.mlp_hidden)} mlp_hidden entries for {self.n_blocks} blocks"
            )
        for i, k in enumerate(self.block_kinds):
            if k not in BLOCK_KINDS:
                raise ConfigError(f"descriptor: unknown block kind {k!r} at block {i}")
            if k == "transformer" and self.mlp_hidden[i] < 1:
                raise ConfigError(f"descriptor: transformer block {i} needs mlp_hidden >= 1")
            if k != "transformer" and self.mlp_hidden[i] != 0:
                raise ConfigError(f"descriptor: block {i} is {k}, mlp_hidden must be 0")
        if self.d_model % self.n_heads:
            raise ConfigError(
                f"descriptor: d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )

    @staticmethod
    def from_dict(d) -> "ArchDescriptor":
        """The descriptor from the JSON object a checkpoint header holds for
        it; ConfigError naming the first field that is missing or of the
        wrong type."""
        if not isinstance(d, dict):
            raise ConfigError(f"descriptor: {d!r} is not an object")
        missing = [k for k in _DESC_INTS + ("block_kinds", "mlp_hidden") if k not in d]
        if missing:
            raise ConfigError(f"descriptor: lacks {missing}")
        for k in _DESC_INTS:
            if not _is_int(d[k]):
                raise ConfigError(f"descriptor: {k} {d[k]!r} is not an integer")
        kinds, hidden = d["block_kinds"], d["mlp_hidden"]
        if not isinstance(kinds, list) or not all(isinstance(k, str) for k in kinds):
            raise ConfigError(f"descriptor: block_kinds {kinds!r} is not a list of strings")
        if not isinstance(hidden, list) or not all(_is_int(h) for h in hidden):
            raise ConfigError(f"descriptor: mlp_hidden {hidden!r} is not a list of integers")
        return ArchDescriptor(block_kinds=tuple(kinds), mlp_hidden=tuple(hidden),
                              **{k: d[k] for k in _DESC_INTS})


def toy_descriptor(n_blocks: int = 12, variant: str = "mamba1",
                   transformer_at: Sequence[int] = (3, 9), vocab: int = 96,
                   d_model: int = 64, d_state: int = 16, mlp_hidden: int = 256,
                   conv_width: int = 4, n_heads: int = 4) -> ArchDescriptor:
    """Desk-scale hybrid: mamba blocks with transformers at fixed positions."""
    for i in transformer_at:
        if not 0 <= i < n_blocks:
            raise ConfigError(f"transformer_at index {i} is outside blocks "
                              f"0..{n_blocks - 1} (n_blocks = {n_blocks})")
    kinds = []
    hidden = []
    for i in range(n_blocks):
        if i in transformer_at:
            kinds.append("transformer")
            hidden.append(mlp_hidden)
        else:
            kinds.append(variant)
            hidden.append(0)
    return ArchDescriptor(vocab, d_model, n_blocks, tuple(kinds), d_state,
                          tuple(hidden), conv_width, n_heads)


@dataclass
class Structure:
    """One registry row: a removable structure and its exclusive parameters.

    param_count covers only tensors the structure owns outright. A
    transformer_block owns nothing itself (its mha/mlp rows carry the params),
    so its exclusive count is 0; removing it still deadens both branches.
    """

    kind: str
    block: int
    alive: bool
    param_count: int


def _count(tensors: Dict[str, Tensor]) -> int:
    return sum(t.data.size for t in tensors.values())


# ---------------------------------------------------------------------------
# block ops: each block body is written once, over one of these tables


# On Tensors under the tape: training and scoring. Every function is looked up
# at call time, in its module or as this module's selective_scan. Stateful ops
# start from an empty state and return None for the state after.
TAPE = SimpleNamespace(
    add=lambda a, b: tn.add(a, b),
    gate=lambda a, b: tn.gate(a, b),
    silu=lambda a: tn.silu(a),
    linear=lambda x, lin: layers.linear(x, lin.weight),
    rmsnorm=lambda x, norm: layers.rmsnorm(x, norm.scale),
    conv=lambda x, conv, tail: (layers.causal_conv1d(x, conv.kernel), None),
    scan=lambda x, p, h: (selective_scan(x, p), None),
    attention=lambda x, mha, kv: (layers.attention(
        x, mha.q.weight, mha.k.weight, mha.v.weight, mha.o.weight, mha.n_heads), None),
)


def _array_ops() -> SimpleNamespace:
    """A decode session's ops: on float32 arrays, no tape. The stateful ops
    carry the conv tail, the scan state and the key/value prefix from one
    call to the next. The table keeps the float64 copy of each weight a
    kernel casts (linear weights, rmsnorm scales, dt_bias, D_skip), made at
    its first read and passed again at every later one. The conv kernel and
    A_log are passed as they are, since their ops run in float32."""
    cache: Dict[Tensor, np.ndarray] = {}

    def w64(t: Tensor) -> np.ndarray:
        w = cache.get(t)
        if w is None:
            w = cache[t] = t.data.astype(np.float64)
        return w

    return SimpleNamespace(
        add=np.add,
        gate=lambda a, b: a * sigmoid_f(a) * b,
        silu=lambda a: a * sigmoid_f(a),
        linear=lambda x, lin: linear_f(x, w64(lin.weight)),
        rmsnorm=lambda x, norm: rmsnorm_f(x, w64(norm.scale)),
        conv=lambda x, conv, tail: causal_conv1d_f(x, conv.kernel.data, tail),
        scan=lambda x, p, h: scan_f(x, p, h, w64)[:2],
        attention=lambda x, mha, kv: attention_f(
            x, w64(mha.q.weight), w64(mha.k.weight), w64(mha.v.weight),
            w64(mha.o.weight), mha.n_heads, kv)[:2],
    )


# ---------------------------------------------------------------------------
# blocks


@dataclass(eq=False)
class MambaBlock:
    """Residual branch: norm -> (conv, silu, scan) gated by silu(z) -> out."""

    variant: str
    norm: RmsNorm
    in_x: Linear
    in_z: Linear
    conv: CausalConv1d
    ssm: SsmParams
    inner_norm: Optional[RmsNorm]  # mamba2 only
    out: Linear
    alive: bool = field(default=True, init=False)
    ssm_alive: bool = field(default=True, init=False)

    # removable parts, parent first: registry kind -> the fields it owns outright
    PARTS = {"mamba_block": ("norm", "in_x", "in_z", "conv", "inner_norm", "out"),
             "ssm": ("ssm",)}

    @staticmethod
    def build(rng: Optional[np.random.Generator], desc: ArchDescriptor,
              i: int) -> "MambaBlock":
        d = desc.d_model
        di = 2 * d
        variant = desc.block_kinds[i]
        px = f"blocks.{i}"
        ssm = SsmParams.build(rng, "s6" if variant == "mamba1" else "ssd",
                              di, desc.d_state, f"{px}.ssm")
        inner = RmsNorm.build(di, f"{px}.inner_norm") if variant == "mamba2" else None
        return MambaBlock(
            variant=variant, norm=RmsNorm.build(d, f"{px}.norm"),
            in_x=Linear.build(rng, d, di, f"{px}.in_x"),
            in_z=Linear.build(rng, d, di, f"{px}.in_z"),
            conv=CausalConv1d.build(rng, di, desc.conv_width, f"{px}.conv"),
            ssm=ssm, inner_norm=inner, out=Linear.build(rng, di, d, f"{px}.out"),
        )

    def _body(self, ops, x, state):
        # each (B, T, width) activation is let go once its last reader has
        # run; a tape keeps what its closures need
        tail, h = state
        hn = ops.rmsnorm(x, self.norm)
        xb = ops.linear(hn, self.in_x)
        zb = ops.linear(hn, self.in_z)
        del hn
        xc, tail = ops.conv(xb, self.conv, tail)
        del xb
        xs = ops.silu(xc)
        del xc
        if self.ssm_alive:
            y, h = ops.scan(xs, self.ssm, h)
            del xs
        else:
            y = xs  # scan bypassed: the gated conv path carries the block
        y = ops.gate(zb, y)
        del zb
        if self.inner_norm is not None:
            y = ops.rmsnorm(y, self.inner_norm)
        return ops.add(x, ops.linear(y, self.out)), (tail, h)

    def forward(self, x: Tensor) -> Tensor:
        return self._body(TAPE, x, (None, None))[0]

    def decode_step(self, x: np.ndarray, state, ops) -> Tuple[np.ndarray, tuple]:
        """x (B, T, d) float32 after `state` -> (output, state after x), on
        a decode session's array ops."""
        return self._body(ops, x, state)

    def empty_state(self, batch: int, capacity: int) -> tuple:
        """(conv tail, scan state) before the first token: zeros for both."""
        return None, None


@dataclass(eq=False)
class TransformerBlock:
    """Pre-norm attention and gated-mlp residual branches."""

    norm1: RmsNorm
    mha: MultiHeadAttention
    norm2: RmsNorm
    mlp: GatedMlp
    alive: bool = field(default=True, init=False)
    mha_alive: bool = field(default=True, init=False)
    mlp_alive: bool = field(default=True, init=False)

    # removable parts, parent first; the block itself owns no field
    PARTS = {"transformer_block": (), "mha": ("norm1", "mha"), "mlp": ("norm2", "mlp")}

    @staticmethod
    def build(rng: Optional[np.random.Generator], desc: ArchDescriptor, i: int,
              hidden: Optional[int] = None) -> "TransformerBlock":
        d = desc.d_model
        px = f"blocks.{i}"
        D = desc.mlp_hidden[i] if hidden is None else hidden
        return TransformerBlock(
            RmsNorm.build(d, f"{px}.norm1"),
            MultiHeadAttention.build(rng, d, desc.n_heads, f"{px}.mha"),
            RmsNorm.build(d, f"{px}.norm2"),
            GatedMlp.build(rng, d, D, f"{px}.mlp"),
        )

    def _body(self, ops, x, kv):
        if self.mha_alive:
            att, kv = ops.attention(ops.rmsnorm(x, self.norm1), self.mha, kv)
            x = ops.add(x, att)
        if self.mlp_alive:
            x = ops.add(x, self.mlp.body(ops, ops.rmsnorm(x, self.norm2)))
        return x, kv

    def forward(self, x: Tensor) -> Tensor:
        return self._body(TAPE, x, None)[0]

    def decode_step(self, x: np.ndarray, kv: tuple, ops) -> Tuple[np.ndarray, tuple]:
        """x (B, T, d) float32 after key/value prefix kv -> (output, kv after
        x), on a decode session's array ops."""
        return self._body(ops, x, kv)

    def empty_state(self, batch: int, capacity: int) -> Optional[tuple]:
        """Key/value buffers for capacity positions, none filled; None when
        the attention never runs."""
        if not (self.alive and self.mha_alive):
            return None
        H = self.mha.n_heads
        shape = (batch, H, capacity, self.norm1.scale.data.shape[0] // H)
        return np.zeros(shape), np.zeros(shape), 0


def part_tensors(block, kind: str) -> Dict[str, Tensor]:
    """The tensors the part `kind` of `block` owns outright: those of its
    PARTS fields, in their order."""
    return layers.tensors(*(getattr(block, f) for f in block.PARTS[kind]))


# ---------------------------------------------------------------------------
# analytic parameter counts (no allocation; fine for billion-scale descriptors)


def block_param_count(desc: ArchDescriptor, i: int) -> int:
    d = desc.d_model
    di = 2 * d
    kind = desc.block_kinds[i]
    if kind == "transformer":
        return 2 * d + 4 * d * d + 3 * d * desc.mlp_hidden[i]
    shell = d + 2 * d * di + di * desc.conv_width + di * d
    if kind == "mamba2":
        shell += di  # inner norm
    a_log = di * desc.d_state if kind == "mamba1" else di
    ssm = a_log + 2 * desc.d_state * di + di * di + 2 * di
    return shell + ssm


def descriptor_param_count(desc: ArchDescriptor) -> int:
    """Dense total: embedding + every block + final norm + head."""
    total = 2 * desc.vocab * desc.d_model + desc.d_model
    for i in range(desc.n_blocks):
        total += block_param_count(desc, i)
    return total


# ---------------------------------------------------------------------------
# model


class Model:
    def __init__(self, desc: ArchDescriptor, embedding: Embedding,
                 blocks: List[object], final_norm: RmsNorm, head: Linear):
        self.desc = desc
        self.embedding = embedding
        self.blocks = blocks
        self.final_norm = final_norm
        self.head = head
        self.dense_params = descriptor_param_count(desc)

    @staticmethod
    def build(desc: ArchDescriptor, seed: int) -> "Model":
        """Deterministic: one rng seeded here, consumed in a fixed traversal."""
        desc.validate()
        return Model._assemble(desc, np.random.default_rng(seed))

    @staticmethod
    def _assemble(desc: ArchDescriptor, rng: Optional[np.random.Generator],
                  hidden_now: Optional[Sequence[int]] = None) -> "Model":
        """The one construction traversal. rng None draws nothing: weights
        are left undrawn (np.empty) or constant, for a loader to overwrite."""
        emb = Embedding.build(rng, desc.vocab, desc.d_model, "embedding")
        blocks: List[object] = []
        for i, kind in enumerate(desc.block_kinds):
            if kind == "transformer":
                h = None if hidden_now is None else hidden_now[i]
                blocks.append(TransformerBlock.build(rng, desc, i, hidden=h))
            else:
                blocks.append(MambaBlock.build(rng, desc, i))
        fin = RmsNorm.build(desc.d_model, "final_norm")
        head = Linear.build(rng, desc.d_model, desc.vocab, "head")
        return Model(desc, emb, blocks, fin, head)

    def clone(self) -> "Model":
        return _copy.deepcopy(self)

    # -- forward ----------------------------------------------------------

    def forward(self, tokens: np.ndarray) -> Tensor:
        """tokens (B, T) int -> logits (B, T, vocab)."""
        return self.resume(self._embed(tokens), 0)

    def resume(self, x: Tensor, start: int) -> Tensor:
        """Runs the live blocks from start on the residual input x, then the
        final norm and the head. On the input of block i that _run
        collects from the embedding, it returns the bytes of forward(tokens)."""
        if not 0 <= start <= len(self.blocks):
            raise StateError(f"resume at block {start}; model has {len(self.blocks)}")
        x = self._run(x, start, len(self.blocks))
        return linear(rmsnorm(x, self.final_norm.scale), self.head.weight)

    def _embed(self, tokens: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens)
        if tokens.ndim != 2 or not tokens.size:
            raise ShapeError(f"forward: tokens shape {tokens.shape}, expected (B, T) "
                             "with B, T >= 1")
        return self.embedding(tokens)

    def _run(self, x: Tensor, start: int, stop: int,
             inputs: Optional[List[Tensor]] = None) -> Tensor:
        """The one block loop. inputs collects each block's input."""
        for b in self.blocks[start:stop]:
            if inputs is not None:
                inputs.append(x)
            if b.alive:
                x = b.forward(x)
        return x

    # -- registry ---------------------------------------------------------

    def structures(self) -> List[Structure]:
        return [Structure(kind, i, getattr(b, ALIVE_FLAG[kind]), _count(part_tensors(b, kind)))
                for i, b in enumerate(self.blocks) for kind in b.PARTS]

    def _block(self, i: int):
        if not 0 <= i < len(self.blocks):
            raise StateError(f"no block {i}; model has {len(self.blocks)}")
        return self.blocks[i]

    def _flag(self, kind: str, i: int):
        """-> (block i, the alive flag kind sets on it)."""
        b = self._block(i)
        if kind not in ALIVE_FLAG:
            raise ValueError(f"unknown structure kind {kind!r}")
        return b, ALIVE_FLAG[kind]

    def is_effective(self, kind: str, i: int) -> bool:
        """Alive, and not shadowed by a removed parent."""
        b, flag = self._flag(kind, i)
        return kind in b.PARTS and b.alive and getattr(b, flag)

    def remove(self, kind: str, i: int) -> None:
        """Flip the alive flag; weights stay until compact()."""
        b, flag = self._flag(kind, i)
        if kind not in b.PARTS:
            raise StateError(f"block {i} has no {kind}")
        if not b.alive and flag != "alive":
            raise StateError(f"{kind} {i}: parent block already removed")
        if not getattr(b, flag):
            raise StateError(f"{kind} {i} already removed")
        setattr(b, flag, False)

    def slice_mlp(self, i: int, g: int) -> None:
        if not self.is_effective("mlp", i):
            raise StateError(f"block {i} has no live mlp to slice")
        self.blocks[i].mlp.slice_trailing(g)

    # -- accounting -------------------------------------------------------

    def live_param_count(self) -> int:
        return sum(t.data.size for t in self.parameters())

    def prune_ratio(self) -> float:
        """Fraction of the dense build's parameters no longer live."""
        return 1.0 - self.live_param_count() / self.dense_params

    def _tensors(self, live_only: bool) -> Dict[str, Tensor]:
        """Name -> tensor in the fixed traversal order: the embedding, each
        block's parts in PARTS order, the final norm and the head. With
        live_only, a removed or shadowed part contributes nothing."""
        out = layers.tensors(self.embedding)
        for b in self.blocks:
            for kind in b.PARTS:
                if not live_only or (b.alive and getattr(b, ALIVE_FLAG[kind])):
                    out.update(part_tensors(b, kind))
        out.update(layers.tensors(self.final_norm, self.head))
        return out

    def named_tensors(self) -> Dict[str, Tensor]:
        """Every tensor present in the object graph, dead structures included."""
        return self._tensors(live_only=False)

    def parameters(self) -> List[Tensor]:
        """Effectively-live trainable tensors, fixed traversal order."""
        return list(self._tensors(live_only=True).values())

    # -- compaction -------------------------------------------------------

    def compact(self) -> "Model":
        """A copy of the surviving blocks, without the dead ones; survivors
        are renumbered densely. Dead sub-structures (ssm/mha/mlp) stay as
        flagged bypasses, since the descriptor has no way to express their
        absence; sliced mlps carry over at their current width and count as
        dense in the new model. Shares nothing with self; carries no grads."""
        keep = [i for i, b in enumerate(self.blocks) if b.alive]
        emb, blocks, fin, head = _copy.deepcopy(
            (self.embedding, [self.blocks[i] for i in keep], self.final_norm, self.head))
        for new, (old, b) in enumerate(zip(keep, blocks)):
            for t in layers.tensors(b).values():
                t.name = f"blocks.{new}." + t.name[len(f"blocks.{old}."):]
        desc = replace(self.desc, n_blocks=len(keep),
                       block_kinds=tuple(self.desc.block_kinds[i] for i in keep),
                       mlp_hidden=tuple(b.mlp.hidden if isinstance(b, TransformerBlock)
                                        else 0 for b in blocks))
        desc.validate()
        out = Model(desc, emb, blocks, fin, head)
        for t in out.named_tensors().values():
            t.grad = None
        return out


# ---------------------------------------------------------------------------
# checkpoints

MAGIC = b"SSMPRUNE"
VERSION = 1


def save_model(model: Model, path: str, meta: Optional[dict] = None) -> None:
    named = model.named_tensors()
    header = {
        "descriptor": asdict(model.desc),
        "structures": [[s.kind, s.block, s.alive] for s in model.structures()],
        "mlp_hidden_now": [
            (b.mlp.hidden if isinstance(b, TransformerBlock) else 0)
            for b in model.blocks
        ],
        "tensors": [[name, list(t.data.shape)] for name, t in named.items()],
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IQ", VERSION, len(blob)))
        f.write(blob)
        for t in named.values():
            f.write(t.data.astype("<f4").tobytes())


_HEADER_KEYS = ("descriptor", "structures", "mlp_hidden_now", "tensors", "meta")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_widths(path: str, desc: ArchDescriptor, hidden_now) -> None:
    """One-line CheckpointError for mlp_hidden_now entries that do not fit
    the descriptor's blocks."""
    if not isinstance(hidden_now, list) or len(hidden_now) != desc.n_blocks:
        raise CheckpointError(f"{path}: mlp_hidden_now {hidden_now!r} needs one entry "
                              f"per block ({desc.n_blocks})")
    for i, (kind, h) in enumerate(zip(desc.block_kinds, hidden_now)):
        lo, hi = (1, desc.mlp_hidden[i]) if kind == "transformer" else (0, 0)
        if not _is_int(h) or not lo <= h <= hi:
            raise CheckpointError(f"{path}: mlp_hidden_now[{i}] = {h!r} on {kind} "
                                  f"block {i}, expected {lo}..{hi}")


def _check_tensor_rows(path: str, rows) -> None:
    """One-line CheckpointError for a tensors row that is not
    [name, [int, ...]] or names a tensor an earlier row named."""
    if not isinstance(rows, list):
        raise CheckpointError(f"{path}: tensors {rows!r} is not a list")
    names = set()
    for row in rows:
        if not (isinstance(row, list) and len(row) == 2 and isinstance(row[0], str)
                and isinstance(row[1], list) and all(_is_int(n) for n in row[1])):
            raise CheckpointError(f"{path}: tensors row {row!r} is not [name, shape]")
        if row[0] in names:
            raise CheckpointError(f"{path}: tensors rows name {row[0]} twice")
        names.add(row[0])


def _check_rows(path: str, model: Model, rows) -> None:
    """One-line CheckpointError unless the structures rows hold exactly one
    well-formed row per part of the built skeleton."""
    n_blocks = len(model.blocks)
    if not isinstance(rows, list):
        raise CheckpointError(f"{path}: structures {rows!r} is not a list")
    for row in rows:
        if not isinstance(row, list) or len(row) != 3:
            raise CheckpointError(f"{path}: structures row {row!r} is not "
                                  "[kind, block, alive]")
        kind, i, alive = row
        if not _is_int(i) or not 0 <= i < n_blocks:
            raise CheckpointError(f"{path}: structures row {row!r} names block {i!r}; "
                                  f"model has {n_blocks}")
        if not isinstance(kind, str) or kind not in ALIVE_FLAG:
            raise CheckpointError(f"{path}: structures row {row!r} has unknown kind {kind!r}")
        if kind not in model.blocks[i].PARTS:
            raise CheckpointError(f"{path}: structures row {row!r}: {kind} does not fit "
                                  f"{model.desc.block_kinds[i]} block {i}")
        if not isinstance(alive, bool):
            raise CheckpointError(f"{path}: structures row {row!r} has alive flag "
                                  f"{alive!r}, expected true or false")
    seen = Counter((kind, i) for kind, i, _ in rows)
    for s in model.structures():
        n = seen[s.kind, s.block]
        if n != 1:
            raise CheckpointError(f"{path}: structures row {s.kind} {s.block} is "
                                  f"{'missing' if n == 0 else 'duplicated'}")


def load_model(path: str):
    """-> (Model, meta dict). Bit-identical round trip with save_model.

    The skeleton comes from `Model._assemble`, the traversal `Model.build`
    runs, with no rng: nothing is drawn, and the payload then overwrites
    every tensor in place."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:8]!r}")
    if len(raw) < 20:
        raise CheckpointError(f"{path}: truncated header")
    version, hlen = struct.unpack("<IQ", raw[8:20])
    if version != VERSION:
        raise CheckpointError(f"{path}: version {version}, expected {VERSION}")
    try:
        header = json.loads(raw[20:20 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header: {e}") from None
    missing = [k for k in _HEADER_KEYS if not isinstance(header, dict) or k not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {missing}")
    if not isinstance(header["meta"], dict):
        raise CheckpointError(f"{path}: meta {header['meta']!r} is not an object")
    try:
        desc = ArchDescriptor.from_dict(header["descriptor"])
        desc.validate()
    except ConfigError as e:
        raise CheckpointError(f"{path}: {e}") from None
    _check_tensor_rows(path, header["tensors"])
    _check_widths(path, desc, header["mlp_hidden_now"])
    model = Model._assemble(desc, None, hidden_now=header["mlp_hidden_now"])
    _check_rows(path, model, header["structures"])
    have = model.named_tensors()
    want = {name: tuple(shape) for name, shape in header["tensors"]}
    if set(have) != set(want):
        missing = sorted(set(want) - set(have))[:3]
        extra = sorted(set(have) - set(want))[:3]
        raise CheckpointError(f"{path}: tensor set mismatch (missing {missing}, extra {extra})")
    off = 20 + hlen
    for name, shape in header["tensors"]:
        t = have[name]
        shape = tuple(shape)
        if t.data.shape != shape:
            raise CheckpointError(f"{path}: {name} has shape {shape}, expected {t.data.shape}")
        n = t.data.size
        end = off + 4 * n
        if end > len(raw):
            raise CheckpointError(f"{path}: truncated payload at {name}")
        t.data[...] = np.frombuffer(raw, dtype="<f4", count=n, offset=off).reshape(shape)
        off = end
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} trailing bytes")
    for kind, i, alive in header["structures"]:
        setattr(model.blocks[i], ALIVE_FLAG[kind], alive)
    return model, header["meta"]


# ---------------------------------------------------------------------------
# decoding


class DecodeSession:
    """Generation on the blocks' `decode_step`, the body `Model.forward` runs,
    on array kernels. prefill() runs the prompt from an empty state, so its
    logits are the bytes of the forward's last position; step() is the
    one-token case. capacity_hint presizes the key/value buffers, which
    grow past it.

    Weights are read at prefill. The float64 copy of each weight the kernels
    cast (linear weights, rmsnorm scales, dt_bias, D_skip) is made there, at
    its first use, and every step() until the next prefill reuses it; the
    conv kernels and A_log are read as they are. An edit to the model's
    weights shows from the next prefill on."""

    def __init__(self, model: Model, capacity_hint: int = 0):
        self.model = model
        self.capacity_hint = capacity_hint
        self._state: Optional[list] = None
        self._batch = 0
        self._ops: Optional[SimpleNamespace] = None

    def prefill(self, tokens: np.ndarray) -> np.ndarray:
        """tokens (B, T) -> logits at the last position (B, vocab)."""
        x = self.model._embed(tokens).data
        self._batch, T, _ = x.shape
        cap = max(self.capacity_hint, T + 1)
        self._state = [b.empty_state(self._batch, cap) for b in self.model.blocks]
        self._ops = _array_ops()
        return self._advance(x)[:, -1].copy()

    def step(self, tokens: np.ndarray) -> np.ndarray:
        """tokens (B,) -> next-position logits (B, vocab)."""
        if self._state is None:
            raise StateError("step before prefill")
        tokens = np.asarray(tokens)
        if tokens.shape != (self._batch,):
            raise ShapeError(f"step: tokens shape {tokens.shape}, expected ({self._batch},)")
        return self._advance(self.model._embed(tokens[:, None]).data)[:, 0]

    def _advance(self, x: np.ndarray) -> np.ndarray:
        """x (B, T, d) -> logits (B, T, vocab); moves every live block's state past x."""
        m, ops = self.model, self._ops
        for i, b in enumerate(m.blocks):
            if b.alive:
                x, self._state[i] = b.decode_step(x, self._state[i], ops)
        return ops.linear(ops.rmsnorm(x, m.final_norm), m.head)
