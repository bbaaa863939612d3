"""Model assembly: block stacks, the structure registry, checkpoints, decode.

A model is an embedding, a list of residual blocks (mamba and transformer
kinds mixed per the descriptor), a final norm, and an lm head. Every removable
structure sits in a registry; removal flips an alive flag and the forward pass
takes the residual bypass, so weights stay in memory until compact() rebuilds
without the dead blocks.
"""

from __future__ import annotations

import copy as _copy
import json
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as tn
from .errors import CheckpointError, ConfigError, ShapeError, StateError, TokenError
from .layers import (CausalConv1d, Embedding, GatedMlp, Linear, MultiHeadAttention,
                     RmsNorm, linear, rmsnorm)
from .ssm import SsmParams, scan_step, selective_scan
from .tensor import Tensor, f32, sigmoid_f

BLOCK_KINDS = ("mamba1", "mamba2", "transformer")

# candidate kinds, in tie-break order (earlier wins on equal scores)
KIND_ORDER = ("mamba_block", "transformer_block", "ssm", "mha", "mlp", "mlp_channels")


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
        if self.d_model < 1 or self.d_state < 1 or self.conv_width < 1:
            raise ConfigError("descriptor: d_model, d_state, conv_width must be positive")
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

    def to_dict(self) -> dict:
        return {
            "vocab": self.vocab, "d_model": self.d_model, "n_blocks": self.n_blocks,
            "block_kinds": list(self.block_kinds), "d_state": self.d_state,
            "mlp_hidden": list(self.mlp_hidden), "conv_width": self.conv_width,
            "n_heads": self.n_heads,
        }

    @staticmethod
    def from_dict(d: dict) -> "ArchDescriptor":
        return ArchDescriptor(
            vocab=int(d["vocab"]), d_model=int(d["d_model"]), n_blocks=int(d["n_blocks"]),
            block_kinds=tuple(d["block_kinds"]), d_state=int(d["d_state"]),
            mlp_hidden=tuple(int(x) for x in d["mlp_hidden"]),
            conv_width=int(d["conv_width"]), n_heads=int(d["n_heads"]),
        )


def toy_descriptor(n_blocks: int = 12, variant: str = "mamba1",
                   transformer_at: Sequence[int] = (3, 9), vocab: int = 96,
                   d_model: int = 64, d_state: int = 16, mlp_hidden: int = 256,
                   conv_width: int = 4, n_heads: int = 4) -> ArchDescriptor:
    """Desk-scale hybrid: mamba blocks with transformers at fixed positions."""
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
# decode caches and numpy step helpers


class MambaCache:
    __slots__ = ("conv", "state")

    def __init__(self, conv: np.ndarray, state: Optional[np.ndarray]):
        self.conv = conv      # (B, w-1, di) float32, most recent last
        self.state = state    # (B, di, N) float64, None when the scan is bypassed


class AttnCache:
    __slots__ = ("k", "v", "n")

    def __init__(self, k: np.ndarray, v: np.ndarray, n: int):
        self.k = k            # (B, H, cap, hd) float64
        self.v = v
        self.n = n


def _rms_np(x: np.ndarray, scale: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    x64 = x.astype(np.float64)
    inv = 1.0 / np.sqrt((x64 * x64).mean(axis=-1, keepdims=True) + eps)
    return f32(x64 * inv * scale.astype(np.float64))


def _lin_np(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return f32(x.astype(np.float64) @ w.astype(np.float64).T)


def _silu_np(x: np.ndarray) -> np.ndarray:
    return x * sigmoid_f(x)


# ---------------------------------------------------------------------------
# blocks


class MambaBlock:
    """Residual branch: norm -> (conv, silu, scan) gated by silu(z) -> out."""

    def __init__(self, variant: str, norm: RmsNorm, in_x: Linear, in_z: Linear,
                 conv: CausalConv1d, ssm: SsmParams,
                 inner_norm: Optional[RmsNorm], out: Linear):
        self.variant = variant
        self.norm = norm
        self.in_x = in_x
        self.in_z = in_z
        self.conv = conv
        self.ssm = ssm
        self.inner_norm = inner_norm
        self.out = out
        self.alive = True
        self.ssm_alive = True

    @staticmethod
    def build(rng: np.random.Generator, desc: ArchDescriptor, i: int) -> "MambaBlock":
        d = desc.d_model
        di = 2 * d
        variant = desc.block_kinds[i]
        px = f"blocks.{i}"
        ssm = SsmParams.build(rng, "s6" if variant == "mamba1" else "ssd",
                              di, desc.d_state, f"{px}.ssm")
        inner = RmsNorm.build(di, f"{px}.inner_norm") if variant == "mamba2" else None
        return MambaBlock(
            variant, RmsNorm.build(d, f"{px}.norm"),
            Linear.build(rng, d, di, f"{px}.in_x"),
            Linear.build(rng, d, di, f"{px}.in_z"),
            CausalConv1d.build(rng, di, desc.conv_width, f"{px}.conv"),
            ssm, inner, Linear.build(rng, di, d, f"{px}.out"),
        )

    def forward(self, x: Tensor, want_cache: bool = False):
        h = self.norm(x)
        xb = self.in_x(h)
        zb = self.in_z(h)
        xs = tn.silu(self.conv(xb))
        state = None
        if self.ssm_alive:
            y = selective_scan(xs, self.ssm)
            if want_cache:
                state = y.aux["state"]
        else:
            y = xs  # scan bypassed: the gated conv path carries the block
        y = tn.mul(y, tn.silu(zb))
        if self.inner_norm is not None:
            y = self.inner_norm(y)
        res = tn.add(x, self.out(y))
        if not want_cache:
            return res
        B, T, di = xb.data.shape
        w = self.conv.width
        tail = np.zeros((B, w - 1, di), dtype=np.float32)
        take = min(T, w - 1)
        if take:
            tail[:, w - 1 - take:] = xb.data[:, T - take:]
        return res, MambaCache(tail, state)

    def decode_step(self, x_t: np.ndarray, cache: MambaCache) -> np.ndarray:
        h = _rms_np(x_t, self.norm.scale.data)
        xb = _lin_np(h, self.in_x.weight.data)
        zb = _lin_np(h, self.in_z.weight.data)
        window = np.concatenate([cache.conv, xb[:, None, :]], axis=1)  # (B, w, di)
        cache.conv = window[:, 1:]
        yc = np.zeros_like(xb)
        for j in range(self.conv.width):  # same float32 tap order as the batch conv
            yc += self.conv.kernel.data[:, j] * window[:, j]
        xs = _silu_np(yc)
        if self.ssm_alive:
            y, cache.state = scan_step(self.ssm, cache.state, xs)
        else:
            y = xs
        y = y * _silu_np(zb)
        if self.inner_norm is not None:
            y = _rms_np(y, self.inner_norm.scale.data)
        return x_t + _lin_np(y, self.out.weight.data)

    def shell_tensors(self) -> Dict[str, Tensor]:
        out: Dict[str, Tensor] = {}
        out.update(self.norm.tensors())
        out.update(self.in_x.tensors())
        out.update(self.in_z.tensors())
        out.update(self.conv.tensors())
        if self.inner_norm is not None:
            out.update(self.inner_norm.tensors())
        out.update(self.out.tensors())
        return out


class TransformerBlock:
    """Pre-norm attention and gated-mlp residual branches."""

    def __init__(self, norm1: RmsNorm, mha: MultiHeadAttention,
                 norm2: RmsNorm, mlp: GatedMlp):
        self.norm1 = norm1
        self.mha = mha
        self.norm2 = norm2
        self.mlp = mlp
        self.alive = True
        self.mha_alive = True
        self.mlp_alive = True

    @staticmethod
    def build(rng: np.random.Generator, desc: ArchDescriptor, i: int,
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

    def forward(self, x: Tensor, want_cache: bool = False):
        kv = None
        if self.mha_alive:
            hn = self.norm1(x)
            x = tn.add(x, self.mha(hn))
            if want_cache:
                B, T, d = hn.data.shape
                H = self.mha.n_heads
                hd = d // H
                h2 = hn.data.reshape(-1, d).astype(np.float64)
                k = h2 @ self.mha.k.weight.data.astype(np.float64).T
                v = h2 @ self.mha.v.weight.data.astype(np.float64).T
                kv = (k.reshape(B, T, H, hd).transpose(0, 2, 1, 3),
                      v.reshape(B, T, H, hd).transpose(0, 2, 1, 3))
        if self.mlp_alive:
            x = tn.add(x, self.mlp(self.norm2(x)))
        if not want_cache:
            return x
        return x, kv

    def decode_step(self, x_t: np.ndarray, cache: Optional[AttnCache]) -> np.ndarray:
        if self.mha_alive:
            hn = _rms_np(x_t, self.norm1.scale.data)
            B, d = hn.shape
            H = self.mha.n_heads
            hd = d // H
            h64 = hn.astype(np.float64)
            q = (h64 @ self.mha.q.weight.data.astype(np.float64).T).reshape(B, H, hd)
            k = (h64 @ self.mha.k.weight.data.astype(np.float64).T).reshape(B, H, hd)
            v = (h64 @ self.mha.v.weight.data.astype(np.float64).T).reshape(B, H, hd)
            if cache.n == cache.k.shape[2]:  # grow when the capacity hint ran out
                pad = np.zeros_like(cache.k)
                cache.k = np.concatenate([cache.k, pad], axis=2)
                cache.v = np.concatenate([cache.v, pad], axis=2)
            cache.k[:, :, cache.n] = k
            cache.v[:, :, cache.n] = v
            cache.n += 1
            ks = cache.k[:, :, :cache.n]
            vs = cache.v[:, :, :cache.n]
            scores = np.einsum("bhd,bhnd->bhn", q, ks) / np.sqrt(hd)
            scores -= scores.max(axis=-1, keepdims=True)
            p = np.exp(scores)
            p /= p.sum(axis=-1, keepdims=True)
            ctx = np.einsum("bhn,bhnd->bhd", p, vs).reshape(B, d)
            x_t = x_t + f32(ctx @ self.mha.o.weight.data.astype(np.float64).T)
        if self.mlp_alive:
            hn = _rms_np(x_t, self.norm2.scale.data)
            gate = _silu_np(_lin_np(hn, self.mlp.gate.weight.data))
            up = _lin_np(hn, self.mlp.up.weight.data)
            x_t = x_t + _lin_np(gate * up, self.mlp.down.weight.data)
        return x_t

    def mha_tensors(self) -> Dict[str, Tensor]:
        out: Dict[str, Tensor] = {}
        out.update(self.norm1.tensors())
        out.update(self.mha.tensors())
        return out

    def mlp_tensors(self) -> Dict[str, Tensor]:
        out: Dict[str, Tensor] = {}
        out.update(self.norm2.tensors())
        out.update(self.mlp.tensors())
        return out


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
    def _assemble(desc: ArchDescriptor, rng: np.random.Generator,
                  hidden_now: Optional[Sequence[int]] = None) -> "Model":
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

    def forward(self, tokens: np.ndarray, want_cache: bool = False):
        """tokens (B, T) int -> logits (B, T, vocab). With want_cache, also
        returns per-block decode caches (None rows for bypassed blocks)."""
        return self.resume(self._embed(tokens), 0, want_cache)

    def block_inputs(self, tokens: np.ndarray, stop: int) -> List[Tensor]:
        """Residual-stream inputs of blocks 0..stop, in order: runs the
        embedding and the live blocks before stop. A dead block's input is
        the same tensor as the next block's."""
        if not 0 <= stop <= len(self.blocks):
            raise StateError(f"block inputs up to {stop}; model has {len(self.blocks)}")
        inputs: List[Tensor] = []
        x = self._run(self._embed(tokens), 0, stop, inputs=inputs)
        inputs.append(x)
        return inputs

    def resume(self, x: Tensor, start: int, want_cache: bool = False):
        """Runs the live blocks from start on the residual input x, then the
        final norm and the head. resume(block_inputs(tokens, i)[i], i)
        returns the same bytes as forward(tokens)."""
        if not 0 <= start <= len(self.blocks):
            raise StateError(f"resume at block {start}; model has {len(self.blocks)}")
        caches: Optional[List[object]] = [] if want_cache else None
        x = self._run(x, start, len(self.blocks), caches=caches)
        logits = linear(rmsnorm(x, self.final_norm.scale), self.head.weight)
        if want_cache:
            return logits, caches
        return logits

    def _embed(self, tokens: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ShapeError(f"forward: tokens shape {tokens.shape}, expected (B, T)")
        return self.embedding(tokens)

    def _run(self, x: Tensor, start: int, stop: int,
             inputs: Optional[List[Tensor]] = None,
             caches: Optional[List[object]] = None) -> Tensor:
        """The one block loop. inputs collects each block's input; caches,
        when given, collects decode caches (None rows for bypassed blocks)."""
        for b in self.blocks[start:stop]:
            if inputs is not None:
                inputs.append(x)
            if not b.alive:
                if caches is not None:
                    caches.append(None)
                continue
            if caches is not None:
                x, cache = b.forward(x, want_cache=True)
                caches.append(cache)
            else:
                x = b.forward(x)
        return x

    # -- registry ---------------------------------------------------------

    def structures(self) -> List[Structure]:
        out: List[Structure] = []
        for i, b in enumerate(self.blocks):
            if isinstance(b, MambaBlock):
                out.append(Structure("mamba_block", i, b.alive, _count(b.shell_tensors())))
                out.append(Structure("ssm", i, b.ssm_alive, _count(b.ssm.tensors())))
            else:
                out.append(Structure("transformer_block", i, b.alive, 0))
                out.append(Structure("mha", i, b.mha_alive, _count(b.mha_tensors())))
                out.append(Structure("mlp", i, b.mlp_alive, _count(b.mlp_tensors())))
        return out

    def _block(self, i: int):
        if not 0 <= i < len(self.blocks):
            raise StateError(f"no block {i}; model has {len(self.blocks)}")
        return self.blocks[i]

    def is_effective(self, kind: str, i: int) -> bool:
        """Alive, and not shadowed by a removed parent."""
        b = self._block(i)
        if kind == "mamba_block":
            return isinstance(b, MambaBlock) and b.alive
        if kind == "transformer_block":
            return isinstance(b, TransformerBlock) and b.alive
        if kind == "ssm":
            return isinstance(b, MambaBlock) and b.alive and b.ssm_alive
        if kind == "mha":
            return isinstance(b, TransformerBlock) and b.alive and b.mha_alive
        if kind == "mlp":
            return isinstance(b, TransformerBlock) and b.alive and b.mlp_alive
        raise ValueError(f"unknown structure kind {kind!r}")

    def remove(self, kind: str, i: int) -> None:
        """Flip the alive flag; weights stay until compact()."""
        b = self._block(i)
        if kind == "mamba_block":
            if not isinstance(b, MambaBlock):
                raise StateError(f"block {i} is not a mamba block")
            if not b.alive:
                raise StateError(f"mamba_block {i} already removed")
            b.alive = False
        elif kind == "transformer_block":
            if not isinstance(b, TransformerBlock):
                raise StateError(f"block {i} is not a transformer block")
            if not b.alive:
                raise StateError(f"transformer_block {i} already removed")
            b.alive = False
        elif kind == "ssm":
            if not isinstance(b, MambaBlock):
                raise StateError(f"block {i} has no ssm")
            if not b.alive:
                raise StateError(f"ssm {i}: parent block already removed")
            if not b.ssm_alive:
                raise StateError(f"ssm {i} already removed")
            b.ssm_alive = False
        elif kind in ("mha", "mlp"):
            if not isinstance(b, TransformerBlock):
                raise StateError(f"block {i} is not a transformer block")
            if not b.alive:
                raise StateError(f"{kind} {i}: parent block already removed")
            if kind == "mha":
                if not b.mha_alive:
                    raise StateError(f"mha {i} already removed")
                b.mha_alive = False
            else:
                if not b.mlp_alive:
                    raise StateError(f"mlp {i} already removed")
                b.mlp_alive = False
        else:
            raise ValueError(f"unknown structure kind {kind!r}")

    def slice_mlp(self, i: int, g: int) -> None:
        b = self._block(i)
        if not isinstance(b, TransformerBlock):
            raise StateError(f"block {i} has no mlp to slice")
        if not b.alive or not b.mlp_alive:
            raise StateError(f"mlp {i} is removed; nothing to slice")
        b.mlp.slice_trailing(g)

    # -- accounting -------------------------------------------------------

    def live_param_count(self) -> int:
        total = _count(self.embedding.tensors())
        total += _count(self.final_norm.tensors()) + _count(self.head.tensors())
        for s in self.structures():
            if self.is_effective(s.kind, s.block):
                total += s.param_count
        return total

    def prune_ratio(self) -> float:
        """Fraction of the dense build's parameters no longer live."""
        return 1.0 - self.live_param_count() / self.dense_params

    def named_tensors(self) -> Dict[str, Tensor]:
        """Every tensor present in the object graph, dead structures included."""
        out: Dict[str, Tensor] = {}
        out.update(self.embedding.tensors())
        for b in self.blocks:
            if isinstance(b, MambaBlock):
                out.update(b.shell_tensors())
                out.update(b.ssm.tensors())
            else:
                out.update(b.mha_tensors())
                out.update(b.mlp_tensors())
        out.update(self.final_norm.tensors())
        out.update(self.head.tensors())
        return out

    def parameters(self) -> List[Tensor]:
        """Effectively-live trainable tensors, fixed traversal order."""
        out = list(self.embedding.tensors().values())
        for b in self.blocks:
            if not b.alive:
                continue
            if isinstance(b, MambaBlock):
                out.extend(b.shell_tensors().values())
                if b.ssm_alive:
                    out.extend(b.ssm.tensors().values())
            else:
                if b.mha_alive:
                    out.extend(b.mha_tensors().values())
                if b.mlp_alive:
                    out.extend(b.mlp_tensors().values())
        out.extend(self.final_norm.tensors().values())
        out.extend(self.head.tensors().values())
        return out

    # -- compaction -------------------------------------------------------

    def compact(self) -> "Model":
        """Physically rebuild without the dead blocks; surviving blocks keep
        their indices renumbered densely. Dead sub-structures (ssm/mha/mlp)
        stay as flagged bypasses, since the descriptor has no way to express
        their absence; sliced mlps carry over at their current width and count
        as dense in the new model."""
        kinds: List[str] = []
        hidden: List[int] = []
        survivors: List[object] = []
        for b in self.blocks:
            if not b.alive:
                continue
            survivors.append(b)
            if isinstance(b, MambaBlock):
                kinds.append(b.variant)
                hidden.append(0)
            else:
                kinds.append("transformer")
                hidden.append(b.mlp.hidden)
        desc2 = ArchDescriptor(
            vocab=self.desc.vocab, d_model=self.desc.d_model, n_blocks=len(kinds),
            block_kinds=tuple(kinds), d_state=self.desc.d_state,
            mlp_hidden=tuple(hidden), conv_width=self.desc.conv_width,
            n_heads=self.desc.n_heads,
        )
        desc2.validate()
        out = Model._assemble(desc2, np.random.default_rng(0))
        _copy_group(self.embedding.tensors(), out.embedding.tensors())
        for old, new in zip(survivors, out.blocks):
            if isinstance(old, MambaBlock):
                _copy_group(old.shell_tensors(), new.shell_tensors())
                _copy_group(old.ssm.tensors(), new.ssm.tensors())
                new.ssm_alive = old.ssm_alive
            else:
                _copy_group(old.mha_tensors(), new.mha_tensors())
                _copy_group(old.mlp_tensors(), new.mlp_tensors())
                new.mha_alive = old.mha_alive
                new.mlp_alive = old.mlp_alive
        _copy_group(self.final_norm.tensors(), out.final_norm.tensors())
        _copy_group(self.head.tensors(), out.head.tensors())
        return out


def _copy_group(src: Dict[str, Tensor], dst: Dict[str, Tensor]) -> None:
    """Positional copy; names differ only by block index prefix."""
    sv = list(src.values())
    dv = list(dst.values())
    if len(sv) != len(dv):
        raise StateError(f"compact: tensor group mismatch, {len(sv)} vs {len(dv)}")
    for s, d in zip(sv, dv):
        if s.data.shape != d.data.shape:
            raise ShapeError(f"compact: {s.name} {s.data.shape} -> {d.name} {d.data.shape}")
        d.data = s.data.copy()


# ---------------------------------------------------------------------------
# checkpoints

MAGIC = b"SSMPRUNE"
VERSION = 1


def save_model(model: Model, path: str, meta: Optional[dict] = None) -> None:
    named = model.named_tensors()
    header = {
        "descriptor": model.desc.to_dict(),
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
# registry kinds that each block kind carries
_ROW_KINDS = {"mamba1": ("mamba_block", "ssm"), "mamba2": ("mamba_block", "ssm"),
              "transformer": ("transformer_block", "mha", "mlp")}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_rows(path: str, desc: ArchDescriptor, rows, hidden_now) -> None:
    """One-line CheckpointError for a structures or mlp_hidden_now row that
    does not fit the descriptor's blocks."""
    if not isinstance(hidden_now, list) or len(hidden_now) != desc.n_blocks:
        raise CheckpointError(f"{path}: mlp_hidden_now {hidden_now!r} needs one entry "
                              f"per block ({desc.n_blocks})")
    for i, (kind, h) in enumerate(zip(desc.block_kinds, hidden_now)):
        lo, hi = (1, desc.mlp_hidden[i]) if kind == "transformer" else (0, 0)
        if not _is_int(h) or not lo <= h <= hi:
            raise CheckpointError(f"{path}: mlp_hidden_now[{i}] = {h!r} on {kind} "
                                  f"block {i}, expected {lo}..{hi}")
    if not isinstance(rows, list):
        raise CheckpointError(f"{path}: structures {rows!r} is not a list")
    for row in rows:
        if not isinstance(row, list) or len(row) != 3:
            raise CheckpointError(f"{path}: structures row {row!r} is not "
                                  "[kind, block, alive]")
        kind, i, alive = row
        if not _is_int(i) or not 0 <= i < desc.n_blocks:
            raise CheckpointError(f"{path}: structures row {row!r} names block {i!r}; "
                                  f"model has {desc.n_blocks}")
        if kind not in _ROW_KINDS["transformer"] + _ROW_KINDS["mamba1"]:
            raise CheckpointError(f"{path}: structures row {row!r} has unknown kind {kind!r}")
        if kind not in _ROW_KINDS[desc.block_kinds[i]]:
            raise CheckpointError(f"{path}: structures row {row!r}: {kind} does not fit "
                                  f"{desc.block_kinds[i]} block {i}")
        if not isinstance(alive, bool):
            raise CheckpointError(f"{path}: structures row {row!r} has alive flag "
                                  f"{alive!r}, expected true or false")


def load_model(path: str):
    """-> (Model, meta dict). Bit-identical round trip with save_model."""
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
    desc = ArchDescriptor.from_dict(header["descriptor"])
    desc.validate()
    _check_rows(path, desc, header["structures"], header["mlp_hidden_now"])
    model = Model._assemble(desc, np.random.default_rng(0),
                            hidden_now=header["mlp_hidden_now"])
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
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        end = off + 4 * n
        if end > len(raw):
            raise CheckpointError(f"{path}: truncated payload at {name}")
        t.data = np.frombuffer(raw[off:end], dtype="<f4").reshape(shape).copy()
        off = end
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} trailing bytes")
    for kind, i, alive in header["structures"]:
        if alive:
            continue
        b = model.blocks[i]
        if kind in ("mamba_block", "transformer_block"):
            b.alive = False
        elif kind == "ssm":
            b.ssm_alive = False
        elif kind == "mha":
            b.mha_alive = False
        elif kind == "mlp":
            b.mlp_alive = False
    return model, header["meta"]


# ---------------------------------------------------------------------------
# decoding


class DecodeSession:
    """Single-token generation against per-block caches.

    prefill() runs the batch forward once and harvests conv tails, scan states,
    and kv caches; step() advances one token with pure numpy block steps and
    matches the batch forward within float32 rounding.
    """

    def __init__(self, model: Model, capacity_hint: int = 0):
        self.model = model
        self.capacity_hint = capacity_hint
        self._caches: Optional[List[object]] = None
        self._batch = 0

    def prefill(self, tokens: np.ndarray) -> np.ndarray:
        """tokens (B, T) -> logits at the last position (B, vocab)."""
        tokens = np.asarray(tokens)
        logits, caches = self.model.forward(tokens, want_cache=True)
        B, T = tokens.shape
        cap = max(self.capacity_hint, T + 1)
        cooked: List[object] = []
        for b, c in zip(self.model.blocks, caches):
            if isinstance(b, TransformerBlock) and b.alive and c is not None:
                k, v = c
                H, hd = k.shape[1], k.shape[3]
                ks = np.zeros((B, H, cap, hd), dtype=np.float64)
                vs = np.zeros_like(ks)
                ks[:, :, :T] = k
                vs[:, :, :T] = v
                cooked.append(AttnCache(ks, vs, T))
            else:
                cooked.append(c)
        self._caches = cooked
        self._batch = B
        return logits.data[:, -1, :].copy()

    def step(self, tokens: np.ndarray) -> np.ndarray:
        """tokens (B,) -> next-position logits (B, vocab)."""
        if self._caches is None:
            raise StateError("step before prefill")
        tokens = np.asarray(tokens)
        if tokens.shape != (self._batch,):
            raise ShapeError(f"step: tokens shape {tokens.shape}, expected ({self._batch},)")
        vocab = self.model.desc.vocab
        bad = (tokens < 0) | (tokens >= vocab)
        if bad.any():
            i = int(np.argwhere(bad)[0][0])
            raise TokenError(
                f"step: token id {int(tokens[i])} at batch row {i} outside vocab of {vocab}"
            )
        x = self.model.embedding.table.data[tokens]
        for b, cache in zip(self.model.blocks, self._caches):
            if not b.alive:
                continue
            x = b.decode_step(x, cache)
        x = _rms_np(x, self.model.final_norm.scale.data)
        return _lin_np(x, self.model.head.weight.data)
