"""Layer forwards vs float64 oracles; layer backwards vs finite differences."""

import itertools
import tracemalloc

import numpy as np
import pytest

from ssmprune import tensor as tn
from ssmprune import layers as ly
from ssmprune.errors import CapacityError, ShapeError, TokenError
from ssmprune.model import TAPE

from oracles import (
    finite_diff,
    frozen_attention,
    frozen_attention_op,
    frozen_cross_entropy,
    kept_arrays,
    naive_attention,
    naive_causal_conv,
    naive_cross_entropy,
    naive_gated_mlp,
    naive_rmsnorm,
    rel_err,
    tape_sum,
)


def rnd(rng, *shape, scale=1.0):
    return (rng.uniform(-2.0, 2.0, size=shape) * scale).astype(np.float32)


def fd_loss(build):
    return lambda: build().scalar()


def check_grads(build, params, tol=1e-3):
    """params: name -> tensor; the names label the failures."""
    with tn.tape() as g:
        loss = build()
    g.backward(loss)
    fds = finite_diff(fd_loss(build), [p.data for p in params.values()])
    for (name, p), fd in zip(params.items(), fds):
        err = rel_err(p.grad, fd)
        assert err < tol, f"{name}: rel err {err:.2e}"


# -- linear -----------------------------------------------------------------

def test_linear_forward_matches_oracle():
    rng = np.random.default_rng(10)
    x = rnd(rng, 2, 5, 4)
    w = rnd(rng, 6, 4, scale=0.5)
    out = ly.linear(tn.Tensor(x), tn.Tensor(w)).data
    want = x.astype(np.float64) @ w.astype(np.float64).T
    assert rel_err(out, want) < 1e-6


def test_linear_gradients():
    rng = np.random.default_rng(11)
    x = tn.Tensor(rnd(rng, 5, 4), requires_grad=True)
    w = tn.Tensor(rnd(rng, 3, 4, scale=0.5), requires_grad=True)
    r = tn.Tensor(rnd(rng, 5, 3))
    check_grads(lambda: tape_sum(tn.mul(ly.linear(x, w), r)), {"x": x, "w": w})


def test_linear_shape_error():
    with pytest.raises(ShapeError):
        ly.linear(tn.Tensor(np.ones((2, 5))), tn.Tensor(np.ones((3, 4))))


# -- rmsnorm ----------------------------------------------------------------

def test_rmsnorm_forward_matches_oracle():
    rng = np.random.default_rng(12)
    x = rnd(rng, 7, 6)
    s = rnd(rng, 6, scale=0.5)
    out = ly.rmsnorm(tn.Tensor(x), tn.Tensor(s)).data
    assert rel_err(out, naive_rmsnorm(x, s)) < 1e-6


def test_rmsnorm_zero_input_is_finite():
    # _RMS_EPS keeps the all-zeros row out of a divide-by-zero
    out = ly.rmsnorm(tn.Tensor(np.zeros((3, 8))), tn.Tensor(np.ones(8))).data
    assert np.isfinite(out).all()
    assert np.abs(out).max() == 0.0


def test_rmsnorm_gradients():
    rng = np.random.default_rng(13)
    x = tn.Tensor(rnd(rng, 4, 6), requires_grad=True)
    s = tn.Tensor(rnd(rng, 6, scale=0.5), requires_grad=True)
    r = tn.Tensor(rnd(rng, 4, 6))
    check_grads(lambda: tape_sum(tn.mul(ly.rmsnorm(x, s), r)), {"x": x, "scale": s})


# -- causal conv ------------------------------------------------------------

def test_conv_forward_matches_oracle():
    rng = np.random.default_rng(14)
    x = rnd(rng, 1, 9, 5)
    k = rnd(rng, 5, 4, scale=0.5)
    out = ly.causal_conv1d(tn.Tensor(x), tn.Tensor(k)).data[0]
    assert rel_err(out, naive_causal_conv(x[0], k)) < 1e-6


def test_conv_is_causal():
    rng = np.random.default_rng(15)
    x = rnd(rng, 1, 12, 3)
    k = rnd(rng, 3, 4)
    base = ly.causal_conv1d(tn.Tensor(x), tn.Tensor(k)).data.copy()
    x_mut = x.copy()
    x_mut[0, 8:, :] = 9.0  # poke the future
    out = ly.causal_conv1d(tn.Tensor(x_mut), tn.Tensor(k)).data
    np.testing.assert_array_equal(out[0, :8], base[0, :8])
    assert np.abs(out[0, 8:] - base[0, 8:]).max() > 0


@pytest.mark.parametrize("chunks", [(1,), (2,), (5,), (1, 2, 5)])
def test_conv_resumes_from_its_tail_to_the_byte(chunks):
    # calls over chunks of the sequence, each from the previous chunk's tail,
    # give the bytes of one call over it: a one-token call sums its taps in
    # the loop's order from 0, so signed zeros and cancellations agree
    rng = np.random.default_rng(33)
    B, T, c, w = 2, 13, 6, 4
    x = rnd(rng, B, T, c)
    x[:, :, 0] = -0.0                          # every product -0.0: the sum is +0.0
    x[0, 5:9, 1] = [1e30, 1.0, -1e30, 3.0]     # the order decides what survives
    k = rnd(rng, c, w)
    k[0] = np.abs(k[0])
    k[1] = 1.0
    y, tail = ly.causal_conv1d_f(x, k)
    parts, t, t0 = [], None, 0
    for n in itertools.cycle(chunks):
        if t0 == T:
            break
        n = min(n, T - t0)
        yi, t = ly.causal_conv1d_f(x[:, t0:t0 + n], k, t)
        parts.append(yi)
        t0 += n
    assert np.concatenate(parts, axis=1).tobytes() == y.tobytes()
    assert t.tobytes() == tail.tobytes()


def test_conv_gradients():
    rng = np.random.default_rng(16)
    x = tn.Tensor(rnd(rng, 2, 6, 3), requires_grad=True)
    k = tn.Tensor(rnd(rng, 3, 4, scale=0.5), requires_grad=True)
    r = tn.Tensor(rnd(rng, 2, 6, 3))
    check_grads(lambda: tape_sum(tn.mul(ly.causal_conv1d(x, k), r)), {"x": x, "kernel": k})


# -- attention --------------------------------------------------------------

def test_attention_forward_matches_oracle():
    rng = np.random.default_rng(17)
    x = rnd(rng, 1, 6, 8, scale=0.5)
    ws = [rnd(rng, 8, 8, scale=0.4) for _ in range(4)]
    out = ly.attention(tn.Tensor(x), *[tn.Tensor(w) for w in ws], n_heads=2).data[0]
    want = naive_attention(x[0], *ws, n_heads=2)
    assert rel_err(out, want) < 1e-5


def test_attention_is_causal():
    rng = np.random.default_rng(18)
    x = rnd(rng, 1, 10, 8, scale=0.5)
    ws = [tn.Tensor(rnd(rng, 8, 8, scale=0.4)) for _ in range(4)]
    base = ly.attention(tn.Tensor(x), *ws, n_heads=2).data.copy()
    x_mut = x.copy()
    x_mut[0, 7:, :] += 3.0
    out = ly.attention(tn.Tensor(x_mut), *ws, n_heads=2).data
    np.testing.assert_allclose(out[0, :7], base[0, :7], atol=1e-7)


@pytest.mark.parametrize("B,T", [(1, 1), (2, 9), (3, 33)])
def test_attention_mask_matches_frozen_to_the_byte(B, T):
    rng = np.random.default_rng(20)
    x = rnd(rng, B, T, 8, scale=0.5)
    ws = [rnd(rng, 8, 8, scale=0.4) for _ in range(4)]
    out = ly.attention(tn.Tensor(x), *[tn.Tensor(w) for w in ws], n_heads=2)
    _, (ks, vs, n) = ly.attention_f(x, *ws, n_heads=2)
    y, k, v = frozen_attention(x, *ws, n_heads=2)
    assert out.data.tobytes() == np.asarray(y, dtype=np.float32).tobytes()
    assert n == T
    assert ks.tobytes() == k.tobytes()
    assert vs.tobytes() == v.tobytes()


@pytest.mark.parametrize("B,T", [(1, 1), (2, 9), (3, 33)])
def test_attention_backward_matches_frozen_to_the_byte(B, T):
    # the backward recomputes the attention weights from q and k; the frozen
    # op keeps the forward's, and every grad byte must agree
    rng = np.random.default_rng(24)
    x = rnd(rng, B, T, 8, scale=0.5)
    ws = [rnd(rng, 8, 8, scale=0.4) for _ in range(4)]
    g = rnd(rng, B, T, 8)
    got = []
    for op in (ly.attention, frozen_attention_op):
        with tn.tape() as graph:
            out = op(tn.Tensor(x), *[tn.Tensor(w, requires_grad=True) for w in ws], n_heads=2)
        (node,) = graph._nodes
        got.append([out.data.tobytes()] + [a.tobytes() for a in node.bwd(g)])
    assert got[0] == got[1]


def _block_cells(blocks, B, H):
    """The (row, head) pairs of _row_blocks' blocks, in their order."""
    return [(b, h) for r, hs in blocks for b in range(B)[r] for h in range(H)[hs]]


@pytest.mark.parametrize("budget", [1, 2, 3, 4, 8, None])
def test_attention_in_row_blocks_matches_frozen_to_the_byte(budget, monkeypatch):
    # forward, backward and a key/value-prefix decode walk (row, head) blocks
    # of at most budget * T * T weights: one row's heads in blocks of 1, 2 or
    # 3 (3: blocks of 3, 1), or whole rows, 1 or 2 at a time (2: blocks of 2,
    # 1), or all 3 rows at the default budget; every block gives the bytes of
    # one batched matmul
    rng = np.random.default_rng(26)
    B, H, T, d = 3, 4, 17, 8
    if budget is not None:
        monkeypatch.setattr(ly, "_WEIGHT_ELEMS", budget * T * T)
    blocks = ly._row_blocks(B, H, T * T)
    assert _block_cells(blocks, B, H) == [(b, h) for b in range(B) for h in range(H)]
    sizes = [len(range(B)[r]) * len(range(H)[hs]) for r, hs in blocks]
    assert max(sizes) == (budget or B * H)
    x = rnd(rng, B, T, d, scale=0.5)
    ws = [rnd(rng, d, d, scale=0.4) for _ in range(4)]
    g = rnd(rng, B, T, d)
    got = []
    for op in (ly.attention, frozen_attention_op):
        with tn.tape() as graph:
            out = op(tn.Tensor(x), *[tn.Tensor(w, requires_grad=True) for w in ws], n_heads=H)
        (node,) = graph._nodes
        got.append([out.data.tobytes()] + [a.tobytes() for a in node.bwd(g)])
    assert got[0] == got[1]
    # decode: a 5-token prefill into a one-position buffer, a 6-token chunk
    # after it, then one token at a time; the buffers grow
    empty = np.zeros((B, H, 1, d // H))
    kv, ys = (empty, empty.copy(), 0), []
    for a, b in [(0, 5), (5, 11)] + [(t, t + 1) for t in range(11, T)]:
        y, kv = ly.attention_f(x[:, a:b], *ws, n_heads=H, kv=kv)
        ys.append(y)
    assert kv[2] == T and kv[0].shape[2] >= T
    assert np.concatenate(ys, axis=1).tobytes() == got[1][0]


def test_attention_keeps_no_attention_weights():
    # the backward rebuilds the float64 heads, the weights and ctx; it keeps
    # no (B, H, T, T) and no (B, H, T, hd) array
    rng = np.random.default_rng(25)
    B, H, T, d = 2, 2, 16, 8
    x = tn.Tensor(rnd(rng, B, T, d))
    ws = [tn.Tensor(rnd(rng, d, d), requires_grad=True) for _ in range(4)]
    with tn.tape() as graph:
        ly.attention(x, *ws, n_heads=H)
    (node,) = graph._nodes
    kept = kept_arrays(node.bwd)
    assert sorted(map(id, kept)) == sorted(id(t.data) for t in [x] + ws)
    shapes = [a.shape for a in kept]
    assert (B, H, T, T) not in shapes and (B, H, T, d // H) not in shapes


def test_attention_at_a_long_window_builds_one_head_at_a_time():
    # B=1, H=4, T=416 (generate's check window): one row's weights are 5.5 MB,
    # over the 2 MB budget, so forward and backward walk its heads one at a
    # time. Traced peaks above the start: 2.4 MB forward and 6.0 MB backward,
    # against 6.6 and 17.1 MB with whole-row blocks and kept heads.
    rng = np.random.default_rng(27)
    B, H, T, d = 1, 4, 416, 64
    assert ly._row_blocks(B, H, T * T) == [(slice(0, 1), slice(h, h + 1)) for h in range(H)]
    x = tn.Tensor(rnd(rng, B, T, d, scale=0.5))
    ws = [tn.Tensor(rnd(rng, d, d, scale=0.2), requires_grad=True) for _ in range(4)]
    g = rnd(rng, B, T, d)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ly.attention_f(x.data, *[w.data for w in ws], H)
        fwd = tracemalloc.get_traced_memory()[1] - before
        with tn.tape() as graph:
            ly.attention(x, *ws, n_heads=H)
        (node,) = graph._nodes
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        node.bwd(g)
        bwd = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    mb = 1 << 20
    assert fwd < 3 * mb, f"forward peak {fwd / mb:.1f} MB"
    assert bwd < 8 * mb, f"backward peak {bwd / mb:.1f} MB"


def test_attention_gradients():
    rng = np.random.default_rng(19)
    x = tn.Tensor(rnd(rng, 1, 5, 8, scale=0.5), requires_grad=True)
    names = ["wq", "wk", "wv", "wo"]
    ws = [tn.Tensor(rnd(rng, 8, 8, scale=0.4), requires_grad=True) for _ in names]
    r = tn.Tensor(rnd(rng, 1, 5, 8))
    check_grads(
        lambda: tape_sum(tn.mul(ly.attention(x, *ws, n_heads=2), r)),
        {"x": x, **dict(zip(names, ws))}
    )


def test_attention_rejects_bad_head_split():
    x = tn.Tensor(np.ones((1, 4, 6)))
    w = [tn.Tensor(np.eye(6)) for _ in range(4)]
    with pytest.raises(ShapeError):
        ly.attention(x, *w, n_heads=4)


# -- gated mlp --------------------------------------------------------------

def make_mlp(rng, d=6, hidden=10):
    mlp = ly.GatedMlp.build(rng, d, hidden)
    return mlp


def test_gated_mlp_forward_matches_oracle():
    rng = np.random.default_rng(20)
    mlp = make_mlp(rng)
    x = rnd(rng, 1, 5, 6)
    out = mlp.body(TAPE, tn.Tensor(x)).data[0]
    want = naive_gated_mlp(x[0], mlp.up.weight.data, mlp.gate.weight.data,
                           mlp.down.weight.data)
    assert rel_err(out, want) < 1e-5


def test_gated_mlp_gradients():
    rng = np.random.default_rng(21)
    mlp = make_mlp(rng, d=5, hidden=7)
    x = tn.Tensor(rnd(rng, 1, 4, 5), requires_grad=True)
    r = tn.Tensor(rnd(rng, 1, 4, 5))
    params = {"x": x, "up": mlp.up.weight, "gate": mlp.gate.weight, "down": mlp.down.weight}
    check_grads(lambda: tape_sum(tn.mul(mlp.body(TAPE, x), r)), params)


def test_slice_equals_mask():
    # dropping trailing channels == zeroing their down-projection columns
    rng = np.random.default_rng(22)
    mlp = make_mlp(rng, d=6, hidden=12)
    x = tn.Tensor(rnd(rng, 1, 5, 6))
    g = 4
    masked = ly.GatedMlp(
        ly.Linear(tn.Tensor(mlp.up.weight.data.copy())),
        ly.Linear(tn.Tensor(mlp.gate.weight.data.copy())),
        ly.Linear(tn.Tensor(mlp.down.weight.data.copy())),
    )
    masked.down.weight.data[:, -g:] = 0.0
    want = masked.body(TAPE, x).data

    mlp.slice_trailing(g)
    assert mlp.hidden == 8
    assert rel_err(mlp.body(TAPE, x).data, want) < 1e-6


def test_two_small_slices_equal_one_big():
    rng = np.random.default_rng(24)
    a = make_mlp(rng, d=4, hidden=9)
    b = ly.GatedMlp(
        ly.Linear(tn.Tensor(a.up.weight.data.copy())),
        ly.Linear(tn.Tensor(a.gate.weight.data.copy())),
        ly.Linear(tn.Tensor(a.down.weight.data.copy())),
    )
    a.slice_trailing(2)
    a.slice_trailing(2)
    b.slice_trailing(4)
    for (na, ta), (nb, tb) in zip(sorted(ly.tensors(a).items()),
                                  sorted(ly.tensors(b).items())):
        assert ta.data.tobytes() == tb.data.tobytes()


def test_slice_beyond_capacity_raises():
    rng = np.random.default_rng(25)
    mlp = make_mlp(rng, d=4, hidden=8)
    with pytest.raises(CapacityError):
        mlp.slice_trailing(8)  # would leave zero channels
    with pytest.raises(CapacityError):
        mlp.slice_trailing(0)
    mlp.slice_trailing(7)
    assert mlp.hidden == 1


# -- embedding --------------------------------------------------------------

def test_embedding_lookup_and_grad_scatter():
    rng = np.random.default_rng(26)
    emb = ly.Embedding.build(rng, 7, 4)
    toks = np.array([[0, 3, 3, 6, 1, 3]])
    out = emb(toks)
    np.testing.assert_array_equal(out.data[0, 1], emb.table.data[3])

    r = tn.Tensor(rnd(rng, 1, 6, 4))
    with tn.tape() as g:
        loss = tape_sum(tn.mul(emb(toks), r))
    g.backward(loss)
    fd = finite_diff(lambda: tape_sum(tn.mul(emb(toks), r)).scalar(), [emb.table.data])[0]
    assert rel_err(emb.table.grad, fd) < 1e-3
    # rows 2, 4, 5 unused -> zero grad
    assert np.abs(emb.table.grad[[2, 4, 5]]).max() == 0.0


def test_embedding_rejects_out_of_range_token():
    rng = np.random.default_rng(27)
    emb = ly.Embedding.build(rng, 7, 4)
    with pytest.raises(TokenError) as e:
        emb(np.array([[1, 2, 9]]))
    assert "9" in str(e.value) and "(0, 2)" in str(e.value)


# -- cross entropy ----------------------------------------------------------

def test_cross_entropy_matches_oracle():
    rng = np.random.default_rng(28)
    logits = rnd(rng, 6, 9)
    targets = rng.integers(0, 9, size=6)
    got = ly.cross_entropy(tn.Tensor(logits), targets)
    assert abs(got.scalar() - naive_cross_entropy(logits, targets)) < 1e-9


def test_cross_entropy_uniform_logits_is_log_vocab():
    logits = tn.Tensor(np.zeros((4, 96)))
    out = ly.cross_entropy(logits, np.zeros(4, dtype=int))
    assert out.scalar() == pytest.approx(np.log(96.0), rel=1e-12)


def test_cross_entropy_gradients():
    rng = np.random.default_rng(29)
    logits = tn.Tensor(rnd(rng, 5, 7), requires_grad=True)
    targets = rng.integers(0, 7, size=5)
    check_grads(lambda: ly.cross_entropy(logits, targets), {"logits": logits})


@pytest.mark.parametrize("shape", [(1, 1, 5), (3, 7, 11)])
def test_cross_entropy_backward_matches_frozen_to_the_byte(shape):
    # the backward recomputes the shifted logits; the frozen op keeps them
    rng = np.random.default_rng(26)
    logits = rnd(rng, *shape, scale=4.0)
    targets = rng.integers(0, shape[-1], size=shape[:-1])
    got = []
    for op in (ly.cross_entropy, frozen_cross_entropy):
        with tn.tape() as graph:
            out = op(tn.Tensor(logits, requires_grad=True), targets)
        (node,) = graph._nodes
        got.append((out.hi, node.bwd(np.float32(0.7))[0].tobytes()))
    assert got[0] == got[1]


def test_cross_entropy_validates_targets():
    logits = tn.Tensor(np.zeros((3, 5)))
    with pytest.raises(TokenError) as e:
        ly.cross_entropy(logits, np.array([0, 7, 1]))
    assert "(1,)" in str(e.value)
    with pytest.raises(ShapeError):
        ly.cross_entropy(logits, np.zeros(4, dtype=int))


def test_per_token_nll_matches_oracle():
    rng = np.random.default_rng(30)
    logits = rnd(rng, 8, 11)
    targets = rng.integers(0, 11, size=8)
    got = ly.per_token_nll(logits, targets)
    want = [naive_cross_entropy(logits[t:t + 1], targets[t:t + 1]) for t in range(8)]
    assert rel_err(got, want) < 1e-9


def test_per_token_nll_validates_targets():
    logits = np.zeros((2, 3, 5), dtype=np.float32)
    with pytest.raises(TokenError, match="id 7 at position"):
        ly.per_token_nll(logits, np.array([[0, 7, 1], [0, 0, 0]]))
    with pytest.raises(TokenError, match="dtype float64"):
        ly.per_token_nll(logits, np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"targets \(6,\)"):
        ly.per_token_nll(logits, np.zeros(6, dtype=int))


# -- float64 weights --------------------------------------------------------

def test_kernels_give_the_same_bytes_for_float64_weights():
    # a decode session hands the kernels float64 copies of float32 weights
    rng = np.random.default_rng(31)
    x = rnd(rng, 2, 5, 8, scale=0.5)
    w, scale = rnd(rng, 6, 8), rnd(rng, 8)
    ws = [rnd(rng, 8, 8, scale=0.4) for _ in range(4)]
    assert ly.linear_f(x, w.astype(np.float64)).tobytes() == ly.linear_f(x, w).tobytes()
    assert (ly.rmsnorm_f(x, scale.astype(np.float64)).tobytes()
            == ly.rmsnorm_f(x, scale).tobytes())
    y32, (k32, v32, _) = ly.attention_f(x, *ws, n_heads=2)
    y64, (k64, v64, _) = ly.attention_f(x, *[w.astype(np.float64) for w in ws],
                                        n_heads=2)
    assert y64.tobytes() == y32.tobytes()
    assert k64.tobytes() == k32.tobytes() and v64.tobytes() == v32.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32, bool])
def test_non_integer_ids_are_one_token_error(dtype):
    emb = ly.Embedding.build(np.random.default_rng(32), 7, 4)
    with pytest.raises(TokenError, match=f"dtype {np.dtype(dtype)}") as e:
        emb(np.ones((1, 3), dtype=dtype))
    assert "\n" not in str(e.value)
    with pytest.raises(TokenError, match=f"dtype {np.dtype(dtype)}"):
        ly.cross_entropy(tn.Tensor(np.zeros((3, 5))), np.ones(3, dtype=dtype))
