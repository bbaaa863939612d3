"""The benchmark's own arithmetic: tail rule, self time, computed counts."""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from perfbench import stats, tracing
from perfbench.tracing import Span, Tracer, block_forwards, self_times
from ssmprune import layers, model, pruning, ssm, tensor, training
from ssmprune.model import KIND_ORDER, Model, toy_descriptor
from ssmprune.pruning import CalibrationSet, Stage, candidates_for
from ssmprune.tensor import Tensor
from ssmprune.training import Corpus


# -- tail percentile --------------------------------------------------------


@pytest.mark.parametrize("n, pct, beyond", [
    (40, 75.0, 10),
    (99, 75.0, 24),
    (100, 90.0, 10),
    (199, 90.0, 19),
    (200, 95.0, 10),
    (1000, 99.0, 10),
    (10000, 99.9, 10),
])
def test_tail_picks_highest_percentile_with_ten_beyond(n, pct, beyond):
    xs = list(np.random.default_rng(n).permutation(n) + 1.0)  # values 1..n
    t = stats.tail(xs)
    assert (t["percentile"], t["samples"], t["beyond"]) == (pct, n, beyond)
    # nearest rank on 1..n: the value is the rank, and exactly `beyond` exceed it
    assert t["value"] == n - beyond
    assert sum(x > t["value"] for x in xs) == beyond


@pytest.mark.parametrize("n", [0, 1, 9, 20, 39])
def test_tail_is_none_when_too_few_samples(n):
    assert stats.tail([1.0] * n) is None


def test_quartile_spread():
    assert stats.quartile_spread([1.0] * 10) == 0.0
    q1, _, q3 = [2.75, 5.5, 8.25]  # statistics.quantiles of 1..10
    assert stats.quartile_spread(range(1, 11)) == pytest.approx((q3 - q1) / 5.5)


# -- self time --------------------------------------------------------------


def _span(sid, parent, t0, t1, name="x"):
    return Span(sid, parent, name, t0, t1, 0, None)


def test_self_time_nested():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 4.0),
             _span(3, 2, 2.0, 3.0), _span(4, 1, 5.0, 6.0)]
    st = self_times(spans)
    assert st == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})


def test_self_time_overlapping_children_from_two_threads():
    # two scorer threads under one fan-out: [1, 6] and [2, 8] cover [1, 8]
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 6.0), _span(3, 1, 2.0, 8.0),
             _span(4, 2, 1.5, 2.5), _span(5, 3, 2.0, 3.0)]
    st = self_times(spans)
    assert st[1] == pytest.approx(3.0)
    # each thread's span subtracts only its own child, not the other thread's
    assert st[2] == pytest.approx(4.0)
    assert st[3] == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    st = self_times([_span(1, None, 0.0, 10.0), _span(2, 1, 9.0, 12.0)])
    assert st[1] == pytest.approx(9.0)


def test_tracer_parents_worker_spans_on_the_fanout():
    tr = Tracer()
    tr.enabled = True
    work = tr.wrap(lambda: time.sleep(0.02), "work")

    def fan():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for f in [pool.submit(work) for _ in range(2)]:
                f.result()

    tr.wrap(fan, "fanout", fanout=True)()
    (top,) = [s for s in tr.spans if s.name == "fanout"]
    kids = [s for s in tr.spans if s.name == "work"]
    assert len(kids) == 2 and all(k.parent == top.sid for k in kids)
    covered = max(k.t1 for k in kids) - min(k.t0 for k in kids)
    assert self_times(tr.spans)[top.sid] == pytest.approx(top.t1 - top.t0 - covered)


# -- computed counts --------------------------------------------------------


def test_linear_work():
    assert tracing.linear_work((2, 3, 4), (5, 4)) == (2 * 6 * 4 * 5, 8 * 5 * 4)
    assert tracing.linear_work((7, 64), (96, 64)) == (2 * 7 * 64 * 96, 8 * 96 * 64)


def test_scan_state_bytes_matches_the_buffer():
    assert tracing.scan_state_bytes((2, 7, 6), 3) == \
        np.empty((2, 7, 6, 3), dtype=np.float32).nbytes


def test_traced_linear_and_scan_record_computed_counts():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 5, 8)))
    w = Tensor(rng.normal(size=(3, 8)))
    p = ssm.SsmParams.build(rng, "s6", 8, 4, "t")
    tr = Tracer()
    tr.install()
    try:
        tr.enabled = True
        layers.linear(x, w)
        model.selective_scan(x, p)
    finally:
        tr.uninstall()
    m = tracing.layer_metrics(tr.spans, threads=1, units=1)
    assert m["layers.linear_calls"] == 1
    assert m["layers.linear_flops"] == 2 * 10 * 8 * 3
    assert m["layers.linear_cast_bytes"] == 8 * 3 * 8
    assert m["ssm.scan_calls"] == 1
    assert m["ssm.state_bytes"] == 4 * 2 * 5 * 8 * 4


def test_layer_metrics_are_per_unit_of_work():
    # two calls of 2 s each over 4 units: 0.5 calls and 1 s per unit
    spans = [Span(1, None, "layers.linear", 0.0, 2.0, 0, {"linear_flops": 8}),
             Span(2, None, "layers.linear", 3.0, 5.0, 1, {"linear_flops": 8})]
    m = tracing.layer_metrics(spans, threads=1, units=4)
    assert (m["layers.linear_calls"], m["layers.linear_s"], m["layers.linear_flops"]) \
        == (0.5, 1.0, 4.0)
    assert m["trace.spans"] == 0.5


def test_uninstall_restores_every_name():
    names = [(layers, "linear"), (model, "linear"), (model, "selective_scan"),
             (training, "cross_entropy"), (tensor, "record"), (layers, "record"),
             (pruning, "score_all"), (model.Model, "forward"),
             (tensor.Graph, "backward"), (training.Adam, "step")]
    before = [owner.__dict__[a] for owner, a in names]
    tr = Tracer()
    tr.install()
    assert all(owner.__dict__[a] is not b for (owner, a), b in zip(names, before))
    tr.uninstall()
    assert all(owner.__dict__[a] is b for (owner, a), b in zip(names, before))


# -- useful ratio -----------------------------------------------------------


def _three_blocks():
    # mamba, transformer, mamba
    desc = toy_descriptor(n_blocks=3, transformer_at=(1,), d_model=8, d_state=2,
                          mlp_hidden=8)
    return Model.build(desc, 0)


def test_block_forwards_on_a_three_block_model():
    m = _three_blocks()
    cands = candidates_for(m, Stage(KIND_ORDER, 1, 4))
    got = [(c.kind, c.block) for c in cands]
    assert got == [("mamba_block", 0), ("ssm", 0), ("transformer_block", 1),
                   ("mha", 1), ("mlp", 1), ("mlp_channels", 1),
                   ("mamba_block", 2), ("ssm", 2)]
    alive = [b.alive for b in m.blocks]
    counts = [block_forwards(alive, c.kind, c.block, batches=1) for c in cands]
    assert [r for r, _ in counts] == [2, 3, 2, 3, 3, 3, 2, 3]
    assert [n for _, n in counts] == [2, 3, 1, 2, 2, 2, 0, 1]
    # a block already gone is neither run nor needed
    assert block_forwards([True, False, True], "ssm", 0, batches=2) == (4, 4)


def test_useful_ratio_from_traced_scoring():
    m = _three_blocks()
    cands = candidates_for(m, Stage(KIND_ORDER, 1, 4))
    cal = CalibrationSet(Corpus.bundled(), count=2, length=12, batch_size=1)
    tr = Tracer()
    tr.install()
    try:
        tr.enabled = True
        pruning.score_all(m, cands, cal, threads=2)
    finally:
        tr.uninstall()
    lm = tracing.layer_metrics(tr.spans, threads=2, units=8)  # per candidate
    assert lm["pruning.candidates"] == 1
    assert lm["pruning.block_forwards"] == pytest.approx(21 * 2 / 8)
    assert lm["pruning.block_forwards_needed"] == pytest.approx(13 * 2 / 8)
    # ratios are not divided by the units
    assert lm["pruning.useful_ratio"] == pytest.approx(13 / 21)
    assert lm["model.forward_calls"] == 2
    (fan,) = [s for s in tr.spans if s.name == "pruning.score_all"]
    assert all(s.parent == fan.sid for s in tr.spans if s.name == "pruning.score_candidate")
