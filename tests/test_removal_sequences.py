"""The README's invariants over seeded random removal sequences.

Each sequence builds a 1-5 block hybrid of either variant, then applies
random effective removals of every kind and `mlp_channels` slices, with
compactions and checkpoint reloads in between. After every step the
overlay, its compaction, the compaction compacted again and both reloaded
from checkpoints must agree to the byte, and so must prefill and decode
with the forward. Attention's weight budget is drawn per sequence, so
prefill and decode also walk one head of one row at a time. Some sequences
end with one recovery training step on the model and on its compaction.
"""

import random

import numpy as np

from ssmprune import layers as ly
from ssmprune import model as md
from ssmprune.model import DecodeSession, Model, toy_descriptor
from ssmprune.training import CHARSET, Corpus, TrainConfig, train

SEQUENCES = 60
# every RECOVER_EVERY-th sequence ends with one recovery step
RECOVER_EVERY = 4
# non-removable tensors: embedding, final norm, head
_FIXED = ("embedding.", "final_norm.", "head.")


def _hybrid(rnd: random.Random) -> Model:
    n = rnd.randint(1, 5)
    desc = toy_descriptor(n_blocks=n, variant=rnd.choice(["mamba1", "mamba2"]),
                          transformer_at=[i for i in range(n) if rnd.random() < 0.4],
                          vocab=23, d_model=8, d_state=4, mlp_hidden=12, n_heads=2)
    return Model.build(desc, rnd.randrange(1 << 16))


def _remove_one(rnd: random.Random, m: Model):
    """One random effective removal or mlp slice on m: the action taken, or
    None when nothing effective is left."""
    options = [(s.kind, s.block) for s in m.structures() if m.is_effective(s.kind, s.block)]
    options += [("mlp_channels", i) for kind, i in options
                if kind == "mlp" and m.blocks[i].mlp.hidden > 1]
    if not options:
        return None
    kind, i = rnd.choice(options)
    if kind == "mlp_channels":
        g = rnd.randint(1, m.blocks[i].mlp.hidden - 1)
        m.slice_mlp(i, g)
        return kind, i, g
    m.remove(kind, i)
    return kind, i


def _logits(m: Model, toks) -> bytes:
    return m.forward(toks).data.tobytes()


def _check_registry(m: Model) -> None:
    """Each structures() row is effective exactly when its flag and its
    block's are alive, and the effective rows' counts plus the fixed
    tensors' are the live count."""
    rows = m.structures()
    parent = {s.block: s.alive for s in rows if s.kind.endswith("_block")}
    fixed = sum(t.data.size for n, t in m.named_tensors().items() if n.startswith(_FIXED))
    for s in rows:
        assert m.is_effective(s.kind, s.block) == (s.alive and parent[s.block]), s
    live = sum(s.param_count for s in rows if m.is_effective(s.kind, s.block))
    assert live + fixed == m.live_param_count()


def _check_decode(m: Model, toks, want: bytes, rnd: random.Random) -> None:
    """Prefill of a random prefix, then one step per token, into key/value
    buffers sized for 2 positions: every logit row is the forward's."""
    B, T = toks.shape
    full = np.frombuffer(want, dtype=np.float32).reshape(B, T, -1)
    k = rnd.randint(1, T - 1)
    sess = DecodeSession(m, capacity_hint=2)
    assert sess.prefill(toks[:, :k]).tobytes() == full[:, k - 1].tobytes()
    for t in range(k, T):
        assert sess.step(toks[:, t]).tobytes() == full[:, t].tobytes(), t


def _check_step(m: Model, toks, path: str, rnd: random.Random) -> Model:
    """Every invariant on the overlay m; -> the model the sequence goes on
    with: m, its compaction or one of the two reloaded."""
    want = _logits(m, toks)
    c = m.compact()
    cc = c.compact()
    assert _logits(c, toks) == want and _logits(cc, toks) == want
    assert cc.desc == c.desc
    # no dead block survives compaction, and each live mlp is its block's
    # dense width
    assert all(b.alive for b in c.blocks)
    assert all(c.desc.mlp_hidden[i] == b.mlp.hidden
               for i, b in enumerate(c.blocks) if c.is_effective("mlp", i))
    assert {n: t.data.tobytes() for n, t in cc.named_tensors().items()} == \
        {n: t.data.tobytes() for n, t in c.named_tensors().items()}
    count = m.live_param_count()
    models = [m, c]
    for src in (m, c):
        md.save_model(src, path)
        back, _ = md.load_model(path)
        assert back.desc == src.desc
        assert [(s.kind, s.block, s.alive) for s in back.structures()] == \
            [(s.kind, s.block, s.alive) for s in src.structures()]
        assert {t.name: t.data.tobytes() for t in back.parameters()} == \
            {t.name: t.data.tobytes() for t in src.parameters()}
        assert _logits(back, toks) == want
        models.append(back)
    for x in models + [cc]:
        assert x.live_param_count() == count
        _check_registry(x)
    for x in (m, c):
        _check_decode(x, toks, want, rnd)
    return rnd.choice([m, m, *models])


def _check_recovery(m: Model, corpus: Corpus, seed: int) -> int:
    """One `train` step on m and on its compaction: every tensor that does
    not run keeps its bytes and gets no grad, every live grad is finite, and
    the two take the same step. -> the number of such dead tensors."""
    c = m.compact()
    live = {t.name for t in m.parameters()}
    dead = {n: t.data.tobytes() for n, t in m.named_tensors().items() if n not in live}
    cfg = TrainConfig(steps=1, batch_size=2, seq_len=6, warmup=0, seed=seed)
    for x in (m, c):
        train(x, corpus, cfg)
        assert all(t.grad is not None and np.isfinite(t.grad).all() for t in x.parameters())
    now = m.named_tensors()
    assert {n: now[n].data.tobytes() for n in dead} == dead
    assert all(now[n].grad is None for n in dead)
    assert {n: t.data.tobytes() for n, t in m.compact().named_tensors().items()} == \
        {n: t.data.tobytes() for n, t in c.named_tensors().items()}
    return len(dead)


def test_random_removal_sequences_keep_every_invariant(tmp_path, monkeypatch):
    rnd = random.Random(2501)
    path = str(tmp_path / "m.ckpt")
    # ids 0..22 only, the hybrids' vocab
    text = random.Random(7)
    corpus = Corpus("".join(CHARSET[text.randrange(23)] for _ in range(400)))
    steps = dead = 0
    for seq in range(SEQUENCES):
        # 1: every block one head of one row; 64: a few heads or rows
        monkeypatch.setattr(ly, "_WEIGHT_ELEMS", rnd.choice([1, 64, 1 << 18]))
        m = _hybrid(rnd)
        B, T = rnd.randint(1, 2), rnd.randint(2, 10)
        toks = np.array([[rnd.randrange(m.desc.vocab) for _ in range(T)] for _ in range(B)])
        m = _check_step(m, toks, path, rnd)
        for _ in range(rnd.randint(1, 4)):
            if _remove_one(rnd, m) is None:
                break
            m = _check_step(m, toks, path, rnd)
            steps += 1
        if seq % RECOVER_EVERY == 0:
            dead += _check_recovery(m, corpus, seq)
    assert steps > SEQUENCES and dead
