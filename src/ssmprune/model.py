"""Model assembly: block stacks, the structure registry, checkpoints, decode.

A model is an embedding, a list of residual blocks (mamba and transformer
kinds mixed per the descriptor), a final norm, and an lm head. Every removable
structure sits in a registry; removal flips an alive flag and the forward pass
takes the residual bypass, so weights stay in memory until compact() makes a
copy of the surviving blocks that lets go of every part that does not run.

Each block class writes its body once, over an ops table: `forward` runs it
with TAPE (Tensors, backward recorded), `decode_step(x, state, ops)` with a
decode session's array ops (array kernels that carry the conv tail, scan
state and key/value prefix). Under an active tape `forward` checkpoints the
block: the body runs with recording paused, one node keeps the block's input
and the scan's and attention's outputs (and the scan's segment starts), and
its backward replays the body to rebuild the rest, so a training step holds
the other activations of one block at a time, in its backward.

Layers and blocks are dataclasses: their fields are what they own, and
`layers.tensors` walks them for every name -> tensor map. Each block class
declares its removable parts once, in its PARTS table: registry kind -> the
fields that part owns outright, parent block first (mamba: mamba_block, ssm;
transformer: transformer_block, mha, mlp). A field that is None, such as
mamba1's inner norm, owns nothing. ALIVE_FLAG names the block attribute each
kind flips. The registry, removal, parameter traversal, compaction and the
checkpoint's removal rows and payload all loop over these two tables, in their
order.
"""

from __future__ import annotations

import copy as _copy
import json
import struct
import zlib
from dataclasses import asdict, dataclass, field, replace
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import layers
from . import tensor as tn
from .errors import CapacityError, CheckpointError, ConfigError, ShapeError, StateError
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

    param_count covers the tensors the structure owns outright (none once a
    dead part is let go); a transformer_block owns none itself (its mha/mlp
    rows carry the params), yet removing it deadens both branches.
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
            w64(mha.o.weight), mha.n_heads, kv),
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
        """The body on TAPE from an empty state. Under an active tape, one
        checkpoint node that keeps x and the scan's y and segment starts;
        its backward replays the rest of the body."""
        return _checkpointed(self, x, (None, None))

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
    def build(rng: Optional[np.random.Generator], desc: ArchDescriptor,
              i: int) -> "TransformerBlock":
        d = desc.d_model
        px = f"blocks.{i}"
        return TransformerBlock(
            RmsNorm.build(d, f"{px}.norm1"),
            MultiHeadAttention.build(rng, d, desc.n_heads, f"{px}.mha"),
            RmsNorm.build(d, f"{px}.norm2"),
            GatedMlp.build(rng, d, desc.mlp_hidden[i], f"{px}.mlp"),
        )

    def _body(self, ops, x, kv):
        if self.mha_alive:
            att, kv = ops.attention(ops.rmsnorm(x, self.norm1), self.mha, kv)
            x = ops.add(x, att)
        if self.mlp_alive:
            x = ops.add(x, self.mlp.body(ops, ops.rmsnorm(x, self.norm2)))
        return x, kv

    def forward(self, x: Tensor) -> Tensor:
        """The body on TAPE from no key/value prefix. Under an active tape,
        one checkpoint node that keeps x and attention's y; its backward
        replays the norms, the residual adds and the mlp."""
        return _checkpointed(self, x, None)

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


def _checkpointed(block, x: Tensor, state) -> Tensor:
    """block's body on TAPE from state. Under an active tape it runs as one
    `tn.checkpoint` node over x and the block's live parameters: the node
    keeps x and what the scan (y and its segment starts) and attention (y)
    hand over, and its backward replays the rest. Untaped, it is the body."""
    def body(x):
        return block._body(TAPE, x, state)[0]

    if tn.active_graph() is None:
        return body(x)
    params = [t for kind in block.PARTS if runs(block, kind)
              for t in part_tensors(block, kind).values()]
    return tn.checkpoint(body, x, params)


def runs(block, kind: str) -> bool:
    """The part kind of block runs: it is alive and so is its parent."""
    return block.alive and getattr(block, ALIVE_FLAG[kind])


def part_tensors(block, kind: str) -> Dict[str, Tensor]:
    """The tensors the part `kind` of `block` owns outright: those of its
    PARTS fields, in their order."""
    return layers.tensors(*(getattr(block, f) for f in block.PARTS[kind]))


def let_go_dead_parts(blocks) -> None:
    """Sets the fields of every part that does not run (removed, or under a
    removed parent) to None; the alive flags stay."""
    for b in blocks:
        for kind, fields in b.PARTS.items():
            if not runs(b, kind):
                for f in fields:
                    setattr(b, f, None)


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
    def _assemble(desc: ArchDescriptor, rng: Optional[np.random.Generator]) -> "Model":
        """The one construction traversal. rng None draws nothing: weights
        are left undrawn (np.empty) or constant, for a loader to overwrite."""
        emb = Embedding.build(rng, desc.vocab, desc.d_model, "embedding")
        blocks: List[object] = []
        for i, kind in enumerate(desc.block_kinds):
            block = TransformerBlock if kind == "transformer" else MambaBlock
            blocks.append(block.build(rng, desc, i))
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
        b, _ = self._flag(kind, i)
        return kind in b.PARTS and runs(b, kind)

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
                if not live_only or runs(b, kind):
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
        are renumbered densely. Dead parts (ssm/mha/mlp) keep their flags but
        not their fields, which are None. Mlps carry over at their current
        width (a dead one already let go, at its built width) and count as
        dense in the new model. Shares nothing with self; carries no grads."""
        keep = [i for i, b in enumerate(self.blocks) if b.alive]
        emb, blocks, fin, head = _copy.deepcopy(
            (self.embedding, [self.blocks[i] for i in keep], self.final_norm, self.head))
        for new, (old, b) in enumerate(zip(keep, blocks)):
            for t in layers.tensors(b).values():
                t.name = f"blocks.{new}." + t.name[len(f"blocks.{old}."):]
        desc = replace(self.desc, n_blocks=len(keep),
                       block_kinds=tuple(self.desc.block_kinds[i] for i in keep),
                       mlp_hidden=tuple(self.desc.mlp_hidden[old]
                                        if getattr(b, "mlp", None) is None else b.mlp.hidden
                                        for old, b in zip(keep, blocks)))
        desc.validate()
        let_go_dead_parts(blocks)
        out = Model(desc, emb, blocks, fin, head)
        for t in out.named_tensors().values():
            t.grad = None
        return out


# ---------------------------------------------------------------------------
# checkpoints

MAGIC = b"SSMPRUNE"
VERSION = 2
# after the magic: version, header length, crc32 of every byte after the prefix
PREFIX = struct.Struct("<IQI")
_BODY = len(MAGIC) + PREFIX.size


def _removal_rows(model: Model) -> List[list]:
    """The plan actions that take a build of model.desc to model's flags and
    widths. Per block: ["mlp_channels", i, g] when its live mlp is narrower
    than built, then [kind, i] for each removed part, children before their
    parent, so every row replays in order."""
    rows: List[list] = []
    for i, b in enumerate(model.blocks):
        if model.is_effective("mlp", i) and b.mlp.hidden < model.desc.mlp_hidden[i]:
            rows.append(["mlp_channels", i, model.desc.mlp_hidden[i] - b.mlp.hidden])
        rows += [[kind, i] for kind in reversed(b.PARTS) if not getattr(b, ALIVE_FLAG[kind])]
    return rows


def save_model(model: Model, path: str, meta: Optional[dict] = None) -> None:
    """Writes the tensors that run and no others; the removal rows name the
    parts of a build of the descriptor that are left out."""
    named = model._tensors(live_only=True)
    header = {
        "descriptor": asdict(model.desc),
        "removed": _removal_rows(model),
        "tensors": [[name, list(t.data.shape)] for name, t in named.items()],
        "meta": meta or {},
    }
    body = [json.dumps(header, sort_keys=True).encode("utf-8")]
    body += [t.data.astype("<f4").tobytes() for t in named.values()]
    crc = 0
    for chunk in body:
        crc = zlib.crc32(chunk, crc)
    with open(path, "wb") as f:
        f.write(MAGIC + PREFIX.pack(VERSION, len(body[0]), crc))
        f.writelines(body)


_HEADER_KEYS = ("descriptor", "removed", "tensors", "meta")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


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


def _replay(path: str, model: Model, rows) -> None:
    """Replays the removal rows through Model.remove and Model.slice_mlp,
    which refuse a row that does not fit; one-line CheckpointError naming
    the row."""
    if not isinstance(rows, list):
        raise CheckpointError(f"{path}: removed {rows!r} is not a list")
    for row in rows:
        sig = [type(v).__name__ for v in row] if isinstance(row, list) else None
        try:
            if sig == ["str", "int"]:
                model.remove(*row)
            elif sig == ["str", "int", "int"] and row[0] == "mlp_channels":
                model.slice_mlp(*row[1:])
            else:
                raise ValueError("is not [kind, block] or ['mlp_channels', block, g]")
        except (ValueError, StateError, CapacityError) as e:
            raise CheckpointError(f"{path}: removed row {row!r}: {e}") from None


def load_model(path: str):
    """-> (Model, meta dict), holding only the parts that run, as
    compact() leaves them. Round trip with save_model: the same live
    tensors and flags, and a re-save writes the same bytes.

    The skeleton comes from `Model._assemble`, the traversal `Model.build`
    runs, with no rng: nothing is drawn. The removal rows replay on it, the
    parts that do not run are let go, and the payload then overwrites every
    tensor left in place."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:8]!r}")
    if len(raw) < _BODY:
        raise CheckpointError(f"{path}: truncated header")
    version, hlen, crc = PREFIX.unpack(raw[8:_BODY])
    if version != VERSION:
        raise CheckpointError(f"{path}: version {version}, expected {VERSION}")
    got = zlib.crc32(memoryview(raw)[_BODY:])
    if got != crc:
        raise CheckpointError(f"{path}: crc32 {got:08x} of the {len(raw) - _BODY} bytes "
                              f"after the prefix, expected {crc:08x} (corrupt or truncated)")
    try:
        header = json.loads(raw[_BODY:_BODY + hlen].decode("utf-8"))
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
    model = Model._assemble(desc, None)
    _replay(path, model, header["removed"])
    let_go_dead_parts(model.blocks)
    have = model.named_tensors()
    want = {name: tuple(shape) for name, shape in header["tensors"]}
    if set(have) != set(want):
        missing = sorted(set(want) - set(have))[:3]
        extra = sorted(set(have) - set(want))[:3]
        raise CheckpointError(f"{path}: tensor set mismatch (missing {missing}, extra {extra})")
    off = _BODY + hlen
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
        return self._advance(x)

    def step(self, tokens: np.ndarray) -> np.ndarray:
        """tokens (B,) -> next-position logits (B, vocab)."""
        if self._state is None:
            raise StateError("step before prefill")
        tokens = np.asarray(tokens)
        if tokens.shape != (self._batch,):
            raise ShapeError(f"step: tokens shape {tokens.shape}, expected ({self._batch},)")
        return self._advance(self.model._embed(tokens[:, None]).data)

    def _advance(self, x: np.ndarray) -> np.ndarray:
        """x (B, T, d) -> the logits of its last position (B, vocab); moves
        every live block's state past x. Only that position reaches the
        final norm and the head."""
        m, ops = self.model, self._ops
        for i, b in enumerate(m.blocks):
            if b.alive:
                x, self._state[i] = b.decode_step(x, self._state[i], ops)
        return ops.linear(ops.rmsnorm(x[:, -1], m.final_norm), m.head)
