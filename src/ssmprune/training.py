"""Character corpus, Adam training loop, and perplexity evaluation.

The data side is deliberately small: one bundled plain-text file, a fixed
96-symbol character set (newline plus printable ASCII), and contiguous
train/val/cal splits cut in order from the front of the text, so evaluation
and calibration never see training characters.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (CapacityError, ConfigError, DivergenceError, ShapeError,
                     TokenError, read_text)
from .layers import cross_entropy, per_token_nll
from .tensor import Tensor, tape

CHARSET = "\n" + "".join(chr(c) for c in range(0x20, 0x7F))
VOCAB = len(CHARSET)


def encode(text: str) -> np.ndarray:
    """str -> (n,) int64 ids over the 96-symbol charset."""
    try:
        raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError as e:
        raise TokenError(
            f"encode: unmappable character {text[e.start]!r} at offset {e.start}"
        ) from None
    bad = (raw != 0x0A) & ((raw < 0x20) | (raw > 0x7E))
    if bad.any():
        i = int(np.argmax(bad))
        raise TokenError(f"encode: unmappable character {text[i]!r} at offset {i}")
    return np.where(raw == 0x0A, 0, raw.astype(np.int64) - 0x1F)


def bundled_text() -> str:
    """The packaged public-domain text sampler."""
    return resources.files("ssmprune").joinpath("data/corpus.txt").read_text(
        encoding="ascii")


_SPLITS = ("train", "val", "cal")
_FRACTIONS = (0.70, 0.15, 0.15)  # share of the text in each split, in order


class Corpus:
    """Contiguous train/val/cal character splits over one text."""

    def __init__(self, text: str):
        ids = encode(text)
        a = int(ids.size * _FRACTIONS[0])
        b = a + int(ids.size * _FRACTIONS[1])
        self._ids: Dict[str, np.ndarray] = {
            "train": ids[:a], "val": ids[a:b], "cal": ids[b:]}

    @classmethod
    def bundled(cls) -> "Corpus":
        return cls(bundled_text())

    @classmethod
    def from_file(cls, path: str) -> "Corpus":
        return cls(read_text(path))

    def split(self, name: str) -> np.ndarray:
        if name not in self._ids:
            raise ConfigError(f"unknown split {name!r}; expected one of {_SPLITS}")
        return self._ids[name]

    def _span(self, name: str, length: int) -> Tuple[np.ndarray, int]:
        ids = self.split(name)
        span = ids.size - (length + 1)
        if span < 0:
            raise CapacityError(
                f"split {name!r} has {ids.size} tokens, need at least {length + 1}")
        return ids, span

    def batch(self, name: str, batch_size: int, seq_len: int,
              rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """Random contiguous windows. -> tokens (B, T), next-char targets (B, T)."""
        ids, span = self._span(name, seq_len)
        starts = rng.integers(0, span + 1, size=batch_size)
        toks = np.stack([ids[s:s + seq_len] for s in starts])
        targ = np.stack([ids[s + 1:s + seq_len + 1] for s in starts])
        return toks, targ

    def windows(self, name: str, count: int,
                length: int) -> Tuple[np.ndarray, np.ndarray]:
        """Deterministic evenly spaced fixed-length windows, overlapping when
        the split is short. -> tokens (count, length), targets (count, length)."""
        if count < 1:
            raise CapacityError(f"window count must be positive, got {count}")
        ids, span = self._span(name, length)
        starts = np.linspace(0, span, num=count).astype(np.int64)
        toks = np.stack([ids[s:s + length] for s in starts])
        targ = np.stack([ids[s + 1:s + length + 1] for s in starts])
        return toks, targ


@dataclass
class TrainConfig:
    """Knobs for the Adam loop. Serialized as-is into checkpoint meta."""

    steps: int = 400
    batch_size: int = 8
    seq_len: int = 128
    lr: float = 2e-3
    min_lr: float = 2e-4
    warmup: int = 20
    clip_norm: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    seed: int = 0
    eval_every: int = 0
    eval_windows: int = 32

    def validate(self) -> None:
        if self.steps < 1:
            raise ConfigError(f"steps must be positive, got {self.steps}")
        if self.batch_size < 1 or self.seq_len < 1:
            raise ConfigError(
                f"batch_size and seq_len must be positive, got "
                f"{self.batch_size} and {self.seq_len}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0 <= self.min_lr <= self.lr:
            raise ConfigError(f"min_lr must lie in [0, lr], got {self.min_lr}")
        if self.warmup < 0:
            raise ConfigError(f"warmup must be nonnegative, got {self.warmup}")
        if not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0 <= b < 1:
                raise ConfigError(f"{name} must lie in [0, 1), got {b}")
        if self.eval_every < 0 or self.eval_windows < 1:
            raise ConfigError("eval_every must be >= 0 and eval_windows >= 1")


def cosine_lr(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to cfg.lr, then cosine decay down to cfg.min_lr."""
    if cfg.warmup and step < cfg.warmup:
        return cfg.lr * (step + 1) / cfg.warmup
    span = max(cfg.steps - 1 - cfg.warmup, 1)
    frac = min((step - cfg.warmup) / span, 1.0)
    return cfg.min_lr + 0.5 * (cfg.lr - cfg.min_lr) * (1.0 + math.cos(math.pi * frac))


class Adam:
    """Adam with bias correction. Moments in float64, weights stay float32."""

    def __init__(self, params: Sequence[Tensor], beta1: float = 0.9,
                 beta2: float = 0.95, eps: float = 1e-8):
        self.params = list(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros(p.data.shape, dtype=np.float64) for p in self.params]
        self.v = [np.zeros(p.data.shape, dtype=np.float64) for p in self.params]
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad.astype(np.float64)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            upd = (m / c1) / (np.sqrt(v / c2) + self.eps)
            p.data = (p.data.astype(np.float64) - lr * upd).astype(np.float32)


def grad_norm(params: Sequence[Tensor]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            g = p.grad.astype(np.float64)
            total += float((g * g).sum())
    return math.sqrt(total)


def clip_gradients(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale grads in place to cap the global L2 norm. Returns the raw norm."""
    norm = grad_norm(params)
    if norm > max_norm:
        scale = np.float32(max_norm / norm)
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def train(model, corpus: Corpus, cfg: TrainConfig, out_dir: Optional[str] = None,
          log_every: int = 0) -> List[dict]:
    """Adam loop over random train-split batches.

    Trains `model.parameters()`, the effectively live tensors. Returns one
    dict per step (step, lr, loss, grad_norm, and val_ppl on eval
    steps) and, when out_dir is given, writes the same rows to loss.csv.
    Raises DivergenceError carrying the failing step index the moment the
    loss or gradient norm goes non-finite; weights keep their last finite
    values.
    """
    cfg.validate()
    params = model.parameters()
    opt = Adam(params, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    rng = np.random.default_rng(cfg.seed)
    rows: List[dict] = []
    for step in range(cfg.steps):
        toks, targ = corpus.batch("train", cfg.batch_size, cfg.seq_len, rng)
        for p in params:
            p.zero_grad()
        with tape() as g:
            loss = cross_entropy(model.forward(toks), targ)
            g.backward(loss)
        lv = loss.scalar()
        if not math.isfinite(lv):
            raise DivergenceError(step, f"loss went non-finite ({lv!r}) at step {step}")
        norm = clip_gradients(params, cfg.clip_norm)
        if not math.isfinite(norm):
            raise DivergenceError(step, f"gradient norm went non-finite at step {step}")
        lr = cosine_lr(step, cfg)
        opt.step(lr)
        row = {"step": step, "lr": lr, "loss": lv, "grad_norm": norm}
        if cfg.eval_every and (step + 1) % cfg.eval_every == 0:
            row["val_ppl"] = split_perplexity(
                model, corpus, "val", cfg.eval_windows, cfg.seq_len)
        rows.append(row)
        if log_every and (step + 1) % log_every == 0:
            print(f"step {step + 1}/{cfg.steps}  loss {lv:.4f}  lr {lr:.2e}",
                  flush=True)
    if out_dir is not None:
        write_loss_csv(os.path.join(out_dir, "loss.csv"), rows)
    return rows


LOSS_COLUMNS = ("step", "lr", "loss", "grad_norm", "val_ppl")


def write_loss_csv(path: str, rows: Sequence[dict]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(LOSS_COLUMNS)
        for r in rows:
            w.writerow([r["step"], f"{r['lr']:.8g}", f"{r['loss']:.8g}",
                        f"{r['grad_norm']:.8g}",
                        f"{r['val_ppl']:.8g}" if "val_ppl" in r else ""])


def perplexity(model, tokens: np.ndarray, targets: np.ndarray,
               batch_size: int = 16) -> float:
    """exp(mean NLL) over every position, accumulated in float64."""
    tokens = np.asarray(tokens)
    targets = np.asarray(targets)
    if tokens.ndim != 2 or tokens.shape != targets.shape:
        raise ShapeError(
            f"perplexity: tokens {tokens.shape} and targets {targets.shape} "
            f"must be matching (B, T)")
    total = 0.0
    for i in range(0, tokens.shape[0], batch_size):
        logits = model.forward(tokens[i:i + batch_size])
        total += float(per_token_nll(logits.data, targets[i:i + batch_size]).sum())
    return float(np.exp(total / targets.size))


def split_perplexity(model, corpus: Corpus, name: str, count: int, length: int,
                     batch_size: int = 16) -> float:
    """Perplexity on the deterministic window grid of one split."""
    toks, targ = corpus.windows(name, count, length)
    return perplexity(model, toks, targ, batch_size)

