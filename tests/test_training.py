"""Corpus handling, the Adam loop, and perplexity evaluation."""

import contextlib
import math
import os
import weakref

import numpy as np
import pytest

from ssmprune import layers as ly
from ssmprune import training as tr
from ssmprune.errors import (CapacityError, ConfigError, DivergenceError,
                             TokenError)
from ssmprune.model import Model, toy_descriptor
from ssmprune.tensor import Tensor
from ssmprune.training import (CHARSET, VOCAB, Adam, Corpus, TrainConfig,
                               bundled_text, clip_gradients, cosine_lr, encode,
                               perplexity, split_perplexity, train)

from oracles import naive_cross_entropy, naive_perplexity


def tiny_model(seed=0, n_blocks=2, d_model=32, mlp_hidden=64):
    desc = toy_descriptor(n_blocks=n_blocks, transformer_at=(1,),
                          d_model=d_model, mlp_hidden=mlp_hidden)
    return Model.build(desc, seed)


# -- charset ----------------------------------------------------------------


def test_encode_gives_each_symbol_its_charset_position():
    assert VOCAB == len(CHARSET) == 96
    assert np.array_equal(encode(CHARSET), np.arange(VOCAB))
    text = "To be, or not to be: that is the question.\nWhether 'tis nobler"
    ids = encode(text)
    assert ids.dtype == np.int64
    assert ids.tolist() == [CHARSET.index(ch) for ch in text]


def test_encode_reports_offending_position():
    with pytest.raises(TokenError) as e:
        encode("ab\tcd")
    assert "offset 2" in str(e.value)
    with pytest.raises(TokenError) as e:
        encode("café")
    assert "offset 3" in str(e.value)


def test_bundled_text_is_in_charset():
    text = bundled_text()
    assert len(text) > 50_000
    ids = encode(text)  # raises if anything is outside the charset
    assert ids.min() >= 0 and ids.max() < VOCAB


# -- corpus splits ----------------------------------------------------------


def test_splits_are_contiguous_and_exhaustive():
    text = bundled_text()
    c = Corpus(text)
    full = encode(text)
    joined = np.concatenate([c.split("train"), c.split("val"), c.split("cal")])
    assert np.array_equal(joined, full)
    n = full.size
    assert abs(c.split("train").size - 0.70 * n) <= 1
    assert abs(c.split("val").size - 0.15 * n) <= 1
    with pytest.raises(ConfigError):
        c.split("test")


def test_batch_targets_shift_by_one():
    c = Corpus.bundled()
    rng = np.random.default_rng(0)
    toks, targ = c.batch("train", 4, 50, rng)
    assert toks.shape == targ.shape == (4, 50)
    for b in range(4):
        assert np.array_equal(toks[b, 1:], targ[b, :-1])
    # a window too long for the split
    small = Corpus("abcdefghij" * 4)
    with pytest.raises(CapacityError):
        small.batch("val", 1, 500, rng)


def test_windows_deterministic_and_evenly_spaced():
    c = Corpus.bundled()
    a_toks, a_targ = c.windows("cal", 16, 64)
    b_toks, b_targ = c.windows("cal", 16, 64)
    assert np.array_equal(a_toks, b_toks) and np.array_equal(a_targ, b_targ)
    assert a_toks.shape == (16, 64)
    assert np.array_equal(a_toks[:, 1:], a_targ[:, :-1])

    ids = c.split("cal")
    span = ids.size - 65
    # first window starts the split, last window is flush with the end
    assert np.array_equal(a_toks[0], ids[:64])
    assert np.array_equal(a_toks[-1], ids[span:span + 64])

    one, _ = c.windows("cal", 1, 64)
    assert np.array_equal(one[0], ids[:64])
    # more windows than positions is fine, they just overlap
    crowded, _ = Corpus("abcdefghij" * 10).windows("cal", 8, 4)
    assert crowded.shape == (8, 4)
    with pytest.raises(CapacityError):
        c.windows("cal", 0, 64)


# -- optimizer and schedule -------------------------------------------------


def test_cosine_schedule_shape():
    cfg = TrainConfig(steps=100, lr=1e-2, min_lr=1e-3, warmup=10)
    lrs = [cosine_lr(s, cfg) for s in range(100)]
    assert math.isclose(lrs[0], 1e-3)  # first warmup step is lr / warmup
    assert math.isclose(lrs[9], 1e-2)
    assert math.isclose(lrs[-1], 1e-3, rel_tol=1e-9)
    for a, b in zip(lrs[9:], lrs[10:]):
        assert b <= a + 1e-12


def test_adam_first_step_magnitude():
    # with bias correction the very first update is exactly lr * sign(grad)
    p = Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float32), requires_grad=True)
    p.grad = np.array([0.5, -4.0, 0.001], dtype=np.float32)
    before = p.data.copy()
    Adam([p], eps=0.0).step(0.01)
    step = before - p.data
    assert np.allclose(step, 0.01 * np.sign(p.grad), atol=1e-7)


def test_adam_minimizes_quadratic():
    p = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    target = np.array([3.0, -1.0, 0.5, 2.0], dtype=np.float32)
    opt = Adam([p])
    for _ in range(400):
        p.grad = 2.0 * (p.data - target)
        opt.step(0.05)
    assert np.max(np.abs(p.data - target)) < 1e-2


def test_clip_caps_global_norm():
    a = Tensor(np.zeros(3, np.float32), requires_grad=True)
    b = Tensor(np.zeros(2, np.float32), requires_grad=True)
    a.grad = np.array([3.0, 0.0, 0.0], np.float32)
    b.grad = np.array([0.0, 4.0], np.float32)
    raw = clip_gradients([a, b], 1.0)
    assert math.isclose(raw, 5.0, rel_tol=1e-6)
    clipped = math.sqrt(float((a.grad.astype(np.float64) ** 2).sum()
                              + (b.grad.astype(np.float64) ** 2).sum()))
    assert math.isclose(clipped, 1.0, rel_tol=1e-5)
    # under the cap nothing moves
    a.grad = np.array([0.1, 0.0, 0.0], np.float32)
    b.grad = np.array([0.0, 0.2], np.float32)
    keep_a, keep_b = a.grad.copy(), b.grad.copy()
    clip_gradients([a, b], 1.0)
    assert np.array_equal(a.grad, keep_a) and np.array_equal(b.grad, keep_b)


# -- perplexity -------------------------------------------------------------


class _UniformModel:
    """Logit-flat stand-in: every character equally likely."""

    def forward(self, tokens):
        return Tensor(np.zeros(tokens.shape + (VOCAB,), dtype=np.float32))


def test_uniform_logits_ppl_equals_vocab():
    c = Corpus.bundled()
    toks, targ = c.windows("val", 8, 32)
    got = perplexity(_UniformModel(), toks, targ)
    assert math.isclose(got, float(VOCAB), rel_tol=1e-9)


def test_perplexity_matches_naive_oracle():
    model = tiny_model(seed=3)
    c = Corpus.bundled()
    toks, targ = c.windows("val", 6, 40)
    got = perplexity(model, toks, targ, batch_size=4)
    logits = model.forward(toks).data
    nlls = [naive_cross_entropy(logits[b], targ[b]) for b in range(6)]
    want = naive_perplexity(nlls)
    assert abs(got - want) / want < 1e-9


# -- the loop ---------------------------------------------------------------


def test_training_reduces_loss_and_writes_csv(tmp_path):
    model = tiny_model(seed=1)
    c = Corpus.bundled()
    cfg = TrainConfig(steps=30, batch_size=4, seq_len=32, lr=2e-3,
                      min_lr=2e-4, warmup=5, seed=4, eval_every=15,
                      eval_windows=4)
    rows = train(model, c, cfg, out_dir=str(tmp_path))
    assert len(rows) == 30
    first = np.mean([r["loss"] for r in rows[:5]])
    last = np.mean([r["loss"] for r in rows[-5:]])
    assert last < first
    assert "val_ppl" in rows[14] and "val_ppl" not in rows[13]
    assert math.isfinite(rows[29]["val_ppl"])

    path = tmp_path / "loss.csv"
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,lr,loss,grad_norm,val_ppl"
    assert len(lines) == 31
    assert lines[1].startswith("0,")


def test_training_is_deterministic():
    c = Corpus.bundled()
    cfg = TrainConfig(steps=8, batch_size=2, seq_len=24, warmup=2, seed=9)
    runs = []
    for _ in range(2):
        model = tiny_model(seed=5)
        rows = train(model, c, cfg)
        runs.append([r["loss"] for r in rows])
    assert runs[0] == runs[1]


def test_step_tape_is_freed_before_the_optimizer(monkeypatch):
    # the tape holds a step's activations; the optimizer and the evaluation
    # run after it is gone
    graphs, seen = [], []
    real_tape, real_step, real_ppl = tr.tape, tr.Adam.step, tr.split_perplexity

    @contextlib.contextmanager
    def watched_tape():
        with real_tape() as g:
            graphs.append(weakref.ref(g))
            yield g

    def check(where):
        seen.append((where, len(graphs), [r() is None for r in graphs]))

    def step(self, lr):
        check("Adam.step")
        return real_step(self, lr)

    def split_perplexity(*args, **kw):
        check("split_perplexity")
        return real_ppl(*args, **kw)

    monkeypatch.setattr(tr, "tape", watched_tape)
    monkeypatch.setattr(tr.Adam, "step", step)
    monkeypatch.setattr(tr, "split_perplexity", split_perplexity)
    cfg = TrainConfig(steps=2, batch_size=2, seq_len=16, seed=3, eval_every=1,
                      eval_windows=2)
    rows = train(tiny_model(seed=3), Corpus.bundled(), cfg)
    assert all("val_ppl" in r for r in rows)
    assert [(w, n) for w, n, _ in seen] == [("Adam.step", 1), ("split_perplexity", 1),
                                           ("Adam.step", 2), ("split_perplexity", 2)]
    assert all(all(dead) for _, _, dead in seen)


def test_divergence_carries_step_index():
    model = tiny_model(seed=2)
    model.final_norm.scale.data[0] = np.float32("nan")
    c = Corpus.bundled()
    cfg = TrainConfig(steps=5, batch_size=2, seq_len=16)
    with pytest.raises(DivergenceError) as e:
        train(model, c, cfg)
    assert e.value.step == 0


def test_bad_config_rejected_before_any_step():
    model = tiny_model(seed=2)
    c = Corpus.bundled()
    snap = model.embedding.table.data.copy()
    with pytest.raises(ConfigError):
        train(model, c, TrainConfig(steps=0))
    with pytest.raises(ConfigError):
        train(model, c, TrainConfig(lr=-1.0))
    with pytest.raises(ConfigError):
        train(model, c, TrainConfig(min_lr=5.0, lr=1.0))
    with pytest.raises(ConfigError):
        train(model, c, TrainConfig(beta1=1.0))
    assert np.array_equal(model.embedding.table.data, snap)


def test_recovery_tune_never_touches_dead_tensors():
    model = tiny_model(seed=6)
    model.remove("ssm", 0)
    model.slice_mlp(1, 16)
    dead = {k: t.data.copy() for k, t in ly.tensors(model.blocks[0].ssm).items()}
    cfg = TrainConfig(steps=6, batch_size=2, seq_len=24, lr=5e-4,
                      min_lr=5e-5, warmup=2, eval_windows=4)
    corpus = Corpus.bundled()
    before = split_perplexity(model, corpus, "val", cfg.eval_windows, cfg.seq_len)
    rows = train(model, corpus, cfg)
    after = split_perplexity(model, corpus, "val", cfg.eval_windows, cfg.seq_len)
    assert math.isfinite(before) and math.isfinite(after)
    assert len(rows) == 6
    for k, t in ly.tensors(model.blocks[0].ssm).items():
        assert np.array_equal(t.data, dead[k]), k


def test_split_perplexity_smoke():
    model = tiny_model(seed=7)
    got = split_perplexity(model, Corpus.bundled(), "cal", 4, 32)
    assert math.isfinite(got) and got > 1.0
