"""Autodiff core: gradients vs finite differences, tape rules, precision."""

import numpy as np
import pytest

from ssmprune import layers as ly
from ssmprune import tensor as tn
from ssmprune.errors import ShapeError, StateError

from oracles import finite_diff, frozen_sigmoid, frozen_silu, kept_arrays, rel_err, tape_sum


def rnd(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape).astype(np.float32)


def test_tape_sum_gradient_vs_finite_diff():
    # the test loss itself: float64 total in .hi, grad of one everywhere
    x = tn.Tensor(np.array([16777216.0, 1.0, -16777216.0], dtype=np.float32))
    assert tape_sum(x).scalar() == 1.0
    x = tn.Tensor(rnd(np.random.default_rng(1), 4, 6), requires_grad=True)
    with tn.tape() as g:
        loss = tape_sum(x)
    g.backward(loss)
    fd = finite_diff(lambda: tape_sum(x).scalar(), [x.data])[0]
    assert rel_err(x.grad, fd) < 1e-3


@pytest.mark.parametrize("op", ["add", "mul", "silu"])
def test_elementwise_gradients_vs_finite_diff(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    x = tn.Tensor(rnd(rng, 4, 6), requires_grad=True)
    y = tn.Tensor(rnd(rng, 4, 6), requires_grad=True)
    r = tn.Tensor(rnd(rng, 4, 6))

    def build():
        if op == "add":
            z = tn.add(x, y)
        elif op == "mul":
            z = tn.mul(x, y)
        else:
            z = tn.silu(x)
        return tape_sum(tn.mul(z, r))

    with tn.tape() as g:
        loss = build()
    g.backward(loss)
    arrays = [x.data, y.data] if op in ("add", "mul") else [x.data]
    fds = finite_diff(lambda: build().scalar(), arrays)
    assert rel_err(x.grad, fds[0]) < 1e-3
    if op in ("add", "mul"):
        assert rel_err(y.grad, fds[1]) < 1e-3


def test_composite_chain_gradients():
    # two linears with a silu gate in between, the shape of a tiny mlp
    rng = np.random.default_rng(3)
    x = tn.Tensor(rnd(rng, 6, 4))
    w1 = tn.Tensor(rnd(rng, 8, 4) * 0.5, requires_grad=True)
    w2 = tn.Tensor(rnd(rng, 2, 8) * 0.5, requires_grad=True)

    def build():
        return tape_sum(ly.linear(tn.silu(ly.linear(x, w1)), w2))

    with tn.tape() as g:
        loss = build()
    g.backward(loss)
    fd1, fd2 = finite_diff(lambda: build().scalar(), [w1.data, w2.data])
    assert rel_err(w1.grad, fd1) < 1e-3
    assert rel_err(w2.grad, fd2) < 1e-3


def test_reused_tensor_accumulates_both_paths():
    x = tn.Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    with tn.tape() as g:
        loss = tape_sum(tn.mul(x, x))  # d/dx sum(x*x) = 2x
    g.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-6)


def test_backward_accumulates_until_zeroed():
    x = tn.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with tn.tape() as g:
        loss = tape_sum(x)
    g.backward(loss)
    g.backward(loss)
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0, dtype=np.float32))
    x.zero_grad()
    assert x.grad is None


def test_no_tape_records_nothing():
    x = tn.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    y = tape_sum(tn.silu(x))
    assert y.requires_grad is False
    with tn.tape() as g:
        pass
    assert len(g) == 0
    with pytest.raises(StateError):
        g.backward(y)


def test_backward_rejects_non_scalar():
    x = tn.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with tn.tape() as g:
        y = tn.mul(x, x)
    with pytest.raises(ShapeError):
        g.backward(y)


def test_shape_errors_name_both_shapes():
    a = tn.Tensor(np.ones((2, 3), dtype=np.float32))
    b = tn.Tensor(np.ones((4, 5), dtype=np.float32))
    with pytest.raises(ShapeError) as e:
        ly.linear(a, b)
    assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)

    c = tn.Tensor(np.ones(3, dtype=np.float32))
    with pytest.raises(ShapeError) as e:
        tn.add(a, c)
    assert "(2, 3)" in str(e.value) and "(3,)" in str(e.value)


def test_row_broadcast_is_rejected():
    # (2, 3) against a (1, 3) row, a 0-d tensor or a number must go through a
    # fused op, not the generic path
    a = tn.Tensor(np.ones((2, 3), dtype=np.float32))
    for b in (tn.Tensor(np.ones((1, 3), dtype=np.float32)), tn.Tensor(np.float32(2.0)), 2.0):
        with pytest.raises(ShapeError):
            tn.add(a, b)
        with pytest.raises(ShapeError):
            tn.mul(a, b)


def test_storage_is_float32_row_major():
    x = tn.Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    assert x.data.dtype == np.float32
    assert x.data.flags["C_CONTIGUOUS"]


def test_forward_is_deterministic_within_process():
    rng = np.random.default_rng(11)
    a = rnd(rng, 16, 16)
    b = rnd(rng, 16, 16)
    one = ly.linear(tn.Tensor(a), tn.Tensor(b)).data
    two = ly.linear(tn.Tensor(a), tn.Tensor(b)).data
    assert one.tobytes() == two.tobytes()


def test_softplus_and_silu_stay_finite_at_extremes():
    x = tn.Tensor(np.array([-100.0, 0.0, 100.0], dtype=np.float32))
    sp = tn.softplus_f(x.data)
    assert np.isfinite(sp).all()
    assert sp[2] == pytest.approx(100.0)
    si = tn.silu(x).data
    assert np.isfinite(si).all()
    assert si[0] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_masked_branches_to_the_byte(dtype):
    info = np.finfo(dtype)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, info.tiny, -info.tiny,
                      info.smallest_subnormal, -info.smallest_subnormal,
                      info.max, -info.max, 400.0, -400.0, 88.5, -88.5,
                      710.0, -710.0, 1e-8, -1e-8], dtype=dtype)
    nan = np.array([np.nan], dtype=dtype)
    nans = np.concatenate([nan, -nan])  # sign bit set and clear
    rng = np.random.default_rng(21)
    x = np.concatenate([nans, edges, (rng.standard_normal(4096) * 40).astype(dtype),
                        np.linspace(-120, 120, 2001, dtype=dtype), nans, edges])
    # every length up to 40 exercises the vector loops' remainder handling
    for n in list(range(1, 41)) + [x.size]:
        got = tn.sigmoid_f(x[:n])
        want = frozen_sigmoid(x[:n])
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes(), f"first {n} elements differ"
    grid = x[:2048].reshape(2, 8, 128)
    assert tn.sigmoid_f(grid).tobytes() == frozen_sigmoid(grid).tobytes()


@pytest.mark.parametrize("shape", [(1, 1, 7), (2, 9, 16)])
def test_silu_backward_matches_frozen_to_the_byte(shape):
    # the backward recomputes the sigmoid from the input; the frozen op keeps
    # the forward's, and every grad byte must agree, at the extremes too
    rng = np.random.default_rng(22)
    x = (rng.standard_normal(shape) * 8).astype(np.float32)
    x.reshape(-1)[:5] = [0.0, -0.0, 100.0, -100.0, 1e-30][:x.size]
    g = rng.uniform(-2.0, 2.0, shape).astype(np.float32)
    grads = []
    for op in (tn.silu, frozen_silu):
        with tn.tape() as graph:
            out = op(tn.Tensor(x, requires_grad=True))
        (node,) = graph._nodes
        grads.append((out.data.tobytes(), node.bwd(g)[0].tobytes()))
    assert grads[0] == grads[1]


def test_silu_keeps_only_its_input():
    x = tn.Tensor(rnd(np.random.default_rng(23), 2, 5, 4), requires_grad=True)
    with tn.tape() as graph:
        tn.silu(x)
    (node,) = graph._nodes
    kept = kept_arrays(node.bwd)
    assert kept and all(a is x.data for a in kept)
