"""Scan core vs the naive float64 recurrence; step/batch parity; gradients."""

import tracemalloc

import numpy as np
import pytest

from ssmprune import layers as ly
from ssmprune import ssm
from ssmprune import tensor as tn
from ssmprune.errors import ShapeError

from oracles import (finite_diff, frozen_selective_scan, kept_arrays, naive_selective_scan,
                     rel_err, tape_sum)


def build_params(rng, variant="s6", c=4, N=3, hot_dt=False):
    p = ssm.SsmParams.build(rng, variant, c, N, "ssm")
    if hot_dt:
        # larger dt so the decay path carries visible gradient signal
        u = rng.uniform(0.3, 1.0, c)
        p.dt_bias.data = np.log(np.expm1(u)).astype(np.float32)
    return p


def oracle_outputs(p, x):
    """Independent float64 path: projections by hand, then the naive scan."""
    A = -np.exp(p.A_log.data.astype(np.float64))
    if p.variant == "ssd":
        A = np.tile(A[:, None], (1, p.n_state))
    ys = []
    for xb in x:
        xb64 = xb.astype(np.float64)
        dt = np.log1p(np.exp(xb64 @ p.x_to_dt.weight.data.astype(np.float64).T
                             + p.dt_bias.data.astype(np.float64)))
        Bm = xb64 @ p.x_to_B.weight.data.astype(np.float64).T
        Cm = xb64 @ p.x_to_C.weight.data.astype(np.float64).T
        ys.append(naive_selective_scan(xb64, dt, A, Bm, Cm,
                                       p.D_skip.data.astype(np.float64)))
    return np.stack(ys)


def test_scan_matches_naive_recurrence():
    rng = np.random.default_rng(40)
    for trial in range(20):
        c = int(rng.integers(1, 8))
        N = int(rng.integers(1, 17))
        T = int(rng.integers(1, 65))
        p = build_params(rng, "s6", c, N)
        x = rng.uniform(-2.0, 2.0, (2, T, c)).astype(np.float32)
        got = ssm.selective_scan(tn.Tensor(x), p).data
        want = oracle_outputs(p, x)
        err = np.abs(got - want).max()
        assert err < 1e-5, f"trial {trial}: max abs err {err:.2e}"


def test_ssd_scan_matches_naive_recurrence():
    rng = np.random.default_rng(41)
    for trial in range(10):
        c = int(rng.integers(1, 8))
        N = int(rng.integers(1, 9))
        T = int(rng.integers(1, 33))
        p = build_params(rng, "ssd", c, N)
        x = rng.uniform(-2.0, 2.0, (1, T, c)).astype(np.float32)
        got = ssm.selective_scan(tn.Tensor(x), p).data
        want = oracle_outputs(p, x)
        assert np.abs(got - want).max() < 1e-5


def test_ssd_equals_s6_with_tied_rows():
    rng = np.random.default_rng(42)
    c, N, T = 5, 6, 24
    pd = build_params(rng, "ssd", c, N)
    tied = tn.Tensor(np.tile(pd.A_log.data[:, None], (1, N)), name="tied")
    ps = ssm.SsmParams(variant="s6", A_log=tied, dt_bias=pd.dt_bias, D_skip=pd.D_skip,
                       x_to_B=pd.x_to_B, x_to_C=pd.x_to_C, x_to_dt=pd.x_to_dt)
    x = tn.Tensor(rng.uniform(-2.0, 2.0, (2, T, c)).astype(np.float32))
    vd = ssm.selective_scan(x, pd).data
    vs = ssm.selective_scan(x, ps).data
    assert np.abs(vd - vs).max() < 1e-6


@pytest.mark.parametrize("variant", ["s6", "ssd"])
def test_step_matches_batch(variant):
    rng = np.random.default_rng(43)
    c, N, T, B = 6, 5, 40, 2
    p = build_params(rng, variant, c, N)
    x = rng.uniform(-2.0, 2.0, (B, T, c)).astype(np.float32)
    batch = ssm.selective_scan(tn.Tensor(x), p).data
    h = np.zeros((B, c, N))
    for t in range(T):
        y, h = ssm.scan_step(p, h, x[:, t])
        assert np.abs(y - batch[:, t]).max() < 1e-5, f"t={t}"


def test_step_resumes_from_batch_state():
    # prefill half the sequence in batch mode, continue token by token
    rng = np.random.default_rng(44)
    c, N, T = 4, 8, 32
    p = build_params(rng, "s6", c, N)
    x = rng.uniform(-2.0, 2.0, (1, T, c)).astype(np.float32)
    full = ssm.selective_scan(tn.Tensor(x), p).data
    _, h, _ = ssm.scan_f(x[:, :T // 2], p)
    for t in range(T // 2, T):
        y, h = ssm.scan_step(p, h, x[:, t])
        assert np.abs(y - full[:, t]).max() < 1e-5


def test_decay_stays_in_unit_interval():
    rng = np.random.default_rng(45)
    for variant in ("s6", "ssd"):
        p = build_params(rng, variant, c=8, N=4)
        x = rng.uniform(-3.0, 3.0, (2, 16, 8)).astype(np.float32)
        dt, _ = ssm._steps(ssm._project(p, x)[0], x)
        abar = ssm._decay(p.neg_A(), dt)
        assert abar.max() <= 1.0
        assert abar.min() > 0.0


def test_dt_init_lands_in_declared_range():
    rng = np.random.default_rng(46)
    p = ssm.SsmParams.build(rng, "s6", 256, 4, "ssm")
    dt0 = np.log1p(np.exp(p.dt_bias.data.astype(np.float64)))
    assert dt0.min() >= 1e-3 - 1e-9
    assert dt0.max() <= 1e-1 + 1e-9
    # spread says uniform, not clumped at an endpoint
    assert dt0.max() - dt0.min() > 0.05
    assert 0.03 < dt0.mean() < 0.07


@pytest.mark.parametrize("variant", ["s6", "ssd"])
def test_scan_gradients(variant):
    rng = np.random.default_rng(47)
    c, N, T, B = 3, 2, 6, 2
    p = build_params(rng, variant, c, N, hot_dt=True)
    x = tn.Tensor(rng.uniform(-2.0, 2.0, (B, T, c)).astype(np.float32),
                  requires_grad=True, name="x")
    r = tn.Tensor(rng.uniform(-2.0, 2.0, (B, T, c)).astype(np.float32))
    params = [x, p.A_log, p.x_to_B.weight, p.x_to_C.weight, p.x_to_dt.weight,
              p.dt_bias, p.D_skip]

    def build():
        return tape_sum(tn.mul(ssm.selective_scan(x, p), r))

    with tn.tape() as g:
        loss = build()
    g.backward(loss)
    fds = finite_diff(lambda: build().scalar(), [q.data for q in params])
    for q, fd in zip(params, fds):
        err = rel_err(q.grad, fd)
        assert err < 1e-3, f"{variant} {q.name}: rel err {err:.2e}"


@pytest.mark.parametrize("variant", ["s6", "ssd"])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("steps", ["one", "chunk", "chunk+1", "chunks", "segments"])
def test_chunked_scan_matches_unchunked_to_the_byte(variant, B, steps):
    # the chunked forward and backward rearrange the unchunked arithmetic
    # without changing any operation, so every output byte must agree;
    # "chunks" reuses the chunk buffers, "segments" recomputes two full
    # backward segments and a partial one
    rng = np.random.default_rng(49)
    c, N = 32, 16
    chunk = ssm._chunk_len(B, c, N)
    segment = ssm._segment_len(B, c, N)
    assert 1 < chunk < segment
    T = {"one": 1, "chunk": chunk, "chunk+1": chunk + 1, "chunks": 2 * chunk + 3,
         "segments": 2 * segment + chunk + 1}[steps]
    p = build_params(rng, variant, c, N, hot_dt=True)
    x = rng.uniform(-2.0, 2.0, (B, T, c)).astype(np.float32)
    g = rng.uniform(-2.0, 2.0, (B, T, c)).astype(np.float32)
    with tn.tape() as graph:
        out = ssm.selective_scan(tn.Tensor(x, requires_grad=True), p)
    (node,) = graph._nodes
    grads = node.bwd(g)
    _, h, _ = ssm.scan_f(x, p)
    y, state, want = frozen_selective_scan(x, p, g)
    assert out.data.tobytes() == np.asarray(y, dtype=np.float32).tobytes()
    assert h.tobytes() == state.tobytes()
    names = ["x", "A_log", "x_to_B", "x_to_C", "x_to_dt", "dt_bias", "D_skip"]
    for name, got, ref in zip(names, grads, want):
        assert got.tobytes() == ref.tobytes(), f"grad of {name} differs"


@pytest.mark.parametrize("variant", ssm.VARIANTS)
@pytest.mark.parametrize("steps", ["one", "chunk", "chunk+1"])
def test_untaped_scan_keeps_no_per_token_states(variant, steps):
    # only a tape's backward reads the per-token states; an untaped call
    # reads out each chunk from its own states, to the same bytes
    rng = np.random.default_rng(50)
    B, c, N = 3, 32, 16
    chunk = ssm._chunk_len(B, c, N)
    assert chunk > 1
    T = {"one": 1, "chunk": chunk, "chunk+1": chunk + 1}[steps]
    p = build_params(rng, variant, c, N, hot_dt=True)
    x = rng.uniform(-2.0, 2.0, (B, T, c)).astype(np.float32)
    y, h, pieces = ssm.scan_f(x, p)
    untaped = ssm.selective_scan(tn.Tensor(x, requires_grad=True), p)
    assert all(np.shape(a) != (B, T, c, N) for a in (y, h) + pieces)
    with tn.tape():
        taped = ssm.selective_scan(tn.Tensor(x, requires_grad=True), p)
        y_t, h_t, pieces_t = ssm.scan_f(x, p)
    assert pieces_t[-1].shape == (-(-T // ssm._segment_len(B, c, N)), B, c, N)
    assert untaped.data.tobytes() == y.tobytes()
    assert taped.data.tobytes() == y_t.tobytes() == y.tobytes()
    assert h_t.tobytes() == h.tobytes()


@pytest.mark.parametrize("variant", ssm.VARIANTS)
def test_scan_f_gives_the_same_bytes_for_float64_weights(variant):
    # a decode session passes w64 its float64 copies; A_log stays float32
    rng = np.random.default_rng(49)
    p = build_params(rng, variant, c=6, N=3, hot_dt=True)
    x = rng.uniform(-2.0, 2.0, (2, 7, 6)).astype(np.float32)
    h0 = rng.normal(0.0, 1.0, (2, 6, 3))
    casts = {t: t.data.astype(np.float64) for t in ly.tensors(p).values()}
    asked = []

    def w64(t):
        asked.append(t.name)
        return casts[t]

    y32, h32, _ = ssm.scan_f(x, p, h0.copy())
    y64, h64, _ = ssm.scan_f(x, p, h0.copy(), w64)
    assert y64.tobytes() == y32.tobytes() and h64.tobytes() == h32.tobytes()
    assert sorted(set(asked)) == sorted(n for n in ly.tensors(p) if n != "ssm.A_log")


@pytest.mark.parametrize("variant", ssm.VARIANTS)
@pytest.mark.parametrize("B", [1, 3])
def test_taped_scan_keeps_no_per_token_states(variant, B):
    # a taped scan keeps the float64 state at each segment start only; the
    # backward recomputes the rest
    rng = np.random.default_rng(51)
    c, N = 32, 16
    T = 2 * ssm._segment_len(B, c, N) + ssm._chunk_len(B, c, N) + 1
    p = build_params(rng, variant, c, N, hot_dt=True)
    x = tn.Tensor(rng.uniform(-2.0, 2.0, (B, T, c)).astype(np.float32),
                  requires_grad=True)
    per_token = B * T * c * N
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with tn.tape() as graph:
            out = ssm.selective_scan(x, p)
            _, _, pieces = ssm.scan_f(x.data, p)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    (node,) = graph._nodes
    kept = [cell.cell_contents for cell in node.bwd.__closure__]
    arrays = [a.data if isinstance(a, tn.Tensor) else a
              for a in kept + list(pieces) + [out]]
    assert all(np.size(a) < per_token for a in arrays if isinstance(a, np.ndarray))
    assert held < 4 * per_token, f"{held} bytes held, states are {4 * per_token}"


@pytest.mark.parametrize("variant", ssm.VARIANTS)
def test_scan_backward_works_one_segment_at_a_time(variant):
    # Peak bytes of one backward above its start, in units of one (B, T, c)
    # float64 array, over four segments. The time-major float64 copies the
    # chunk terms read are one segment long and the loop's buffers go
    # before the weight-grad tail: 14.1 units here and 8.9 at the train
    # step's 8x128 (c=128), against 22.7 and 18.0 with whole-sequence copies.
    rng = np.random.default_rng(54)
    B, T, c, N = 4, 128, 128, 16
    assert T == 4 * ssm._segment_len(B, c, N)
    p = build_params(rng, variant, c, N, hot_dt=True)
    x = tn.Tensor(rng.uniform(-2.0, 2.0, (B, T, c)).astype(np.float32), requires_grad=True)
    g = rng.uniform(-2.0, 2.0, (B, T, c)).astype(np.float32)
    with tn.tape() as graph:
        ssm.selective_scan(x, p)
    (node,) = graph._nodes
    unit = 8 * B * T * c
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grads = node.bwd(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert grads[0].shape == (B, T, c)
    assert peak < 17 * unit, f"peak {peak / unit:.1f} units"


@pytest.mark.parametrize("T", [1, 5])
def test_taped_scan_keeps_no_step_sizes(T):
    # of the (B, T, c) arrays, the backward keeps its input and dtp only and
    # recomputes dt and dt*x from dtp
    rng = np.random.default_rng(53)
    B, c, N = 3, 32, 16
    p = build_params(rng, "s6", c, N, hot_dt=True)
    x = tn.Tensor(rng.uniform(-2.0, 2.0, (B, T, c)).astype(np.float32), requires_grad=True)
    with tn.tape() as graph:
        ssm.selective_scan(x, p)
    (node,) = graph._nodes
    kept = [a for a in kept_arrays(node.bwd) if a.shape == (B, T, c)]
    others = [a for a in kept if a is not x.data]
    assert len(kept) == 2 and len(others) == 1
    assert others[0].tobytes() == ssm._project(p, x.data)[0].tobytes()  # dtp


@pytest.mark.parametrize("variant", ssm.VARIANTS)
@pytest.mark.parametrize("B", [1, 3])
def test_scan_resumes_from_its_state_to_the_byte(variant, B):
    # two calls, the second from the first's state, give the bytes of one
    # call, with k off a chunk boundary; neither call writes to h0
    rng = np.random.default_rng(52)
    c, N = 32, 16
    chunk = ssm._chunk_len(B, c, N)
    T, k = 5 * chunk + 2, 2 * chunk + 3
    p = build_params(rng, variant, c, N, hot_dt=True)
    x = rng.uniform(-2.0, 2.0, (B, T, c)).astype(np.float32)
    y, h, _ = ssm.scan_f(x, p)
    y1, h1, _ = ssm.scan_f(x[:, :k], p)
    h0 = h1.copy()
    y2, h2, _ = ssm.scan_f(x[:, k:], p, h0=h1)
    assert h1.tobytes() == h0.tobytes()
    assert np.concatenate([y1, y2], axis=1).tobytes() == y.tobytes()
    assert h2.tobytes() == h.tobytes()


@pytest.mark.parametrize("shape", [(1, 4, 3), (4, 3), (2, 4, 2), (2, 4, 3, 1)])
def test_scan_refuses_a_wrongly_shaped_state(shape):
    # a broadcastable state would give a (B, c, N) result from the wrong rows
    rng = np.random.default_rng(53)
    p = build_params(rng, "s6", 4, 3)
    x = rng.uniform(-2.0, 2.0, (2, 5, 4)).astype(np.float32)
    with pytest.raises(ShapeError, match="state"):
        ssm.scan_f(x, p, h0=np.zeros(shape))
    with pytest.raises(ShapeError, match="state"):
        ssm.scan_step(p, np.zeros(shape), x[:, 0])


def test_scan_shape_validation():
    rng = np.random.default_rng(48)
    p = build_params(rng, "s6", 4, 3)
    with pytest.raises(ShapeError):
        ssm.selective_scan(tn.Tensor(np.zeros((2, 5, 7))), p)
    with pytest.raises(ShapeError):
        ssm.scan_step(p, np.zeros((1, 4, 3)), np.zeros((1, 7), dtype=np.float32))
    with pytest.raises(ShapeError):
        # ssd A_log must be per-channel, not per-channel-per-state
        ssm.SsmParams(variant="ssd", A_log=tn.Tensor(np.zeros((4, 3))), dt_bias=p.dt_bias,
                      D_skip=p.D_skip, x_to_B=p.x_to_B, x_to_C=p.x_to_C, x_to_dt=p.x_to_dt)
