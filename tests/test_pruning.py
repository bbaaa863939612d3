"""Schedule grammar, candidate scoring, and the greedy removal loop."""

import gc
import math
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from ssmprune import pruning
from ssmprune.errors import ScheduleError, StateError
from ssmprune.layers import Linear
from ssmprune.model import KIND_ORDER, MambaBlock, Model, TransformerBlock, toy_descriptor
from ssmprune.pruning import (CalibrationSet, Candidate, Stage, apply_action,
                              candidates_for, format_stage, parse_schedule,
                              read_jsonl, replay_plan, run_schedule,
                              score_all)
from ssmprune.tensor import Tensor
from ssmprune.training import Corpus, perplexity


def hybrid(seed=0, n_blocks=4):
    desc = toy_descriptor(n_blocks=n_blocks, transformer_at=(2,),
                          d_model=32, mlp_hidden=48)
    return Model.build(desc, seed)


def small_cal():
    return CalibrationSet(Corpus.bundled(), count=6, length=40, batch_size=3)


def snapshot(model):
    flags = [(s.kind, s.block, s.alive) for s in model.structures()]
    bytes_ = {k: t.data.tobytes() for k, t in model.named_tensors().items()}
    return flags, bytes_


# -- grammar ----------------------------------------------------------------


def test_parse_round_trip():
    stages = parse_schedule("mamba_block:3")
    assert stages == [Stage(("mamba_block",), 3, None)]
    stages = parse_schedule("ssm&mha:2 + mlp_channels:4:16")
    assert stages == [Stage(("ssm", "mha"), 2, None),
                      Stage(("mlp_channels",), 4, 16)]
    assert format_stage(stages[0]) == "ssm&mha:2"
    assert format_stage(stages[1]) == "mlp_channels:4:16"
    mixed = parse_schedule("mlp&mlp_channels:2:8")
    assert mixed[0].g == 8


@pytest.mark.parametrize("bad", [
    "",
    "   ",
    "ssm:1++mha:1",
    "ssm",
    "ssm:1:2:3",
    "attention:1",
    "ssm&ssm:2",
    "ssm:0",
    "ssm:-1",
    "ssm:two",
    "mlp_channels:2",        # slicing without a width
    "ssm:2:16",              # width without mlp_channels
    "mlp_channels:2:0",
    "mlp_channels:2:x",
])
def test_bad_schedules_rejected(bad):
    with pytest.raises(ScheduleError):
        parse_schedule(bad)


def test_schedule_validated_before_any_mutation():
    model = hybrid()
    flags, data = snapshot(model)
    with pytest.raises(ScheduleError):
        run_schedule(model, "ssm:1+bogus:2", small_cal())
    now_flags, now_data = snapshot(model)
    assert now_flags == flags
    assert all(now_data[k] == data[k] for k in data)


# -- calibration set --------------------------------------------------------


def test_calibration_defaults_and_determinism():
    c = Corpus.bundled()
    a = CalibrationSet(c)
    assert a.tokens.shape == (256, 256)
    b = CalibrationSet(c)
    assert np.array_equal(a.tokens, b.tokens)
    assert np.array_equal(a.targets, b.targets)


# -- candidates and scoring -------------------------------------------------


def test_candidate_enumeration_order_and_eligibility():
    model = hybrid()
    cands = candidates_for(model, Stage(("mamba_block", "ssm", "mha"), 1))
    assert cands == [
        Candidate("mamba_block", 0), Candidate("ssm", 0),
        Candidate("mamba_block", 1), Candidate("ssm", 1),
        Candidate("mha", 2),
        Candidate("mamba_block", 3), Candidate("ssm", 3),
    ]
    model.remove("mamba_block", 1)  # shadows its ssm too
    cands = candidates_for(model, Stage(("mamba_block", "ssm", "mha"), 1))
    assert Candidate("mamba_block", 1) not in cands
    assert Candidate("ssm", 1) not in cands

    # channel groups need headroom: hidden is 48, so g=48 is ineligible
    assert candidates_for(model, Stage(("mlp_channels",), 1, 48)) == []
    ok = candidates_for(model, Stage(("mlp_channels",), 1, 16))
    assert ok == [Candidate("mlp_channels", 2, 16)]


def test_scoring_never_touches_the_model():
    model = hybrid(seed=3)
    cal = small_cal()
    flags, data = snapshot(model)
    for stage in (Stage(("mamba_block", "ssm", "mha", "mlp"), 1),
                  Stage(("mlp_channels",), 1, 8)):
        for c in candidates_for(model, stage):
            s, = score_all(model, [c], cal)
            assert math.isfinite(s)
    now_flags, now_data = snapshot(model)
    assert now_flags == flags
    assert all(now_data[k] == data[k] for k in data)


def test_score_equals_post_apply_calibration_ppl():
    model = hybrid(seed=4)
    cal = small_cal()
    for c in (Candidate("ssm", 0), Candidate("mha", 2),
              Candidate("mlp_channels", 2, 8)):
        s, = score_all(model, [c], cal)
        applied = model.clone()
        apply_action(applied, c.kind, c.block, c.g)
        assert cal.ppl(applied) == s


def test_non_finite_score_becomes_inf():
    class _NanCal(CalibrationSet):
        def ppl(self, model):
            return float("nan")

    cal = _NanCal(Corpus.bundled(), count=6, length=40, batch_size=3)
    assert score_all(hybrid(), [Candidate("ssm", 0)], cal) == [math.inf]


# -- resumed scoring --------------------------------------------------------


def dead_around(variant="mamba1"):
    """Seven blocks, transformers at 2 and 5, with dead blocks before (0),
    between (4) and after (6) the candidates and dead ssm 3 and mha 5."""
    desc = toy_descriptor(n_blocks=7, variant=variant, transformer_at=(2, 5),
                          d_model=32, mlp_hidden=48)
    model = Model.build(desc, 12)
    for i in (0, 4, 6):
        model.remove("mamba_block", i)
    model.remove("ssm", 3)
    model.remove("mha", 5)
    return model


def short_cal():
    return CalibrationSet(Corpus.bundled(), count=7, length=40, batch_size=3)


def every_kind(model):
    cands = candidates_for(model, Stage(KIND_ORDER[:-1], 1))
    return cands + candidates_for(model, Stage(("mlp_channels",), 1, 16))


def count_block_forwards(monkeypatch):
    calls = []
    for cls in (MambaBlock, TransformerBlock):
        def counted(self, x, _orig=cls.forward):
            calls.append(1)
            return _orig(self, x)
        monkeypatch.setattr(cls, "forward", counted)
    return calls


def live_from(model, start):
    return sum(b.alive for b in model.blocks[start:])


def held_inputs(monkeypatch):
    """Weak references to the arrays of every block input a search holds,
    taken after each grow."""
    refs = []
    grow = pruning._Search.grow

    def recording(self, stop, map_):
        grow(self, stop, map_)
        refs.extend(weakref.ref(x.data) for row in self.rows for x in row)

    monkeypatch.setattr(pruning._Search, "grow", recording)
    return refs


def assert_freed(refs):
    gc.collect()
    assert refs and all(r() is None for r in refs)


@pytest.mark.parametrize("threads", [1, 2])
def test_resumed_scores_equal_the_applied_clone_for_every_kind(threads):
    model = dead_around()
    cal = short_cal()  # batches of 3, 3 and 1 windows
    cands = every_kind(model)
    assert {c.kind for c in cands} == set(KIND_ORDER)
    scores = score_all(model, cands, cal, threads=threads)
    for c, s in zip(cands, scores):
        applied = model.clone()
        apply_action(applied, c.kind, c.block, c.g)
        assert cal.ppl(applied) == s, c


def test_score_all_runs_each_prefix_once(monkeypatch):
    model = dead_around()
    cal = short_cal()
    cands = every_kind(model)
    calls = count_block_forwards(monkeypatch)
    score_all(model, cands, cal)
    top = max(c.block for c in cands)
    want = live_from(model, 0) - live_from(model, top)  # the prefix pass
    for c in cands:
        trial = model.clone()
        apply_action(trial, c.kind, c.block, c.g)
        want += live_from(trial, c.block)
    assert len(calls) == 3 * want  # three calibration batches


def test_prefix_is_freed_when_score_all_returns(monkeypatch):
    model = dead_around()
    cand = Candidate("ssm", 1)

    class _FailsOnce(CalibrationSet):
        failed = False

        def ppl(self, model):
            if not self.failed:
                self.failed = True
                raise RuntimeError("scoring failed")
            return super().ppl(model)

    failing, cal = _FailsOnce(Corpus.bundled(), 7, 40, 3), short_cal()
    refs = held_inputs(monkeypatch)
    with pytest.raises(RuntimeError):
        score_all(model, [cand], failing)
    assert_freed(refs)
    refs.clear()
    score_all(model, [cand], cal)
    assert_freed(refs)


def test_resumed_forward_refuses_a_batch_it_does_not_hold():
    class _OtherBatches(CalibrationSet):
        def ppl(self, model):
            return perplexity(model, self.tokens, self.targets, 2)

    cal = _OtherBatches(Corpus.bundled(), 7, 40, 3)
    with pytest.raises(StateError, match="held input"):
        score_all(dead_around(), [Candidate("ssm", 1)], cal)


def test_threaded_resume_under_fast_switching_matches_serial(monkeypatch):
    model = dead_around()
    cal = short_cal()
    cands = every_kind(model)
    want = score_all(model, cands, cal)
    flags, data = snapshot(model)
    held = []
    grow = pruning._Search.grow

    def capture(self, stop, map_):
        grow(self, stop, map_)
        held.extend([(x, x.data.tobytes()) for x in row] for row in self.rows)

    monkeypatch.setattr(pruning._Search, "grow", capture)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rounds, end = 0, time.perf_counter() + 3.0
        while rounds < 2 or (rounds < 10 and time.perf_counter() < end):
            assert score_all(model, cands, cal, threads=4) == want
            rounds += 1
    finally:
        sys.setswitchinterval(interval)
    assert snapshot(model) == (flags, data)
    assert len(held) == 3 * rounds
    assert all(x.data.tobytes() == b for row in held for x, b in row)


def test_concurrent_score_all_on_one_pair_matches_serial(monkeypatch):
    model = dead_around()
    cal = short_cal()
    cands = every_kind(model)
    calls = count_block_forwards(monkeypatch)
    want = score_all(model, cands, cal)
    once = len(calls)

    def run(i):
        got[i] = score_all(model, cands, cal, threads=2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            calls.clear()
            got = [None, None]
            workers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
            assert got == [want, want]
            assert len(calls) == 2 * once
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads,n", [(2, 6), (3, 6), (4, 2)])
def test_fan_out_scores_on_the_calling_thread_too(threads, n, monkeypatch):
    model = dead_around()
    cands = every_kind(model)[:n]
    want = score_all(model, cands, short_cal())
    idents = []
    score = pruning.score_candidate
    # a thread holds one candidate at a time, so the first k candidates
    # meet at the barrier only once k threads hold one each
    k = min(threads, n)
    lock, barrier = threading.Lock(), threading.Barrier(k, timeout=30)

    def recorded(model, cand, cal):
        with lock:
            idents.append(threading.get_ident())
            first = len(idents) <= k
        if first:
            barrier.wait()
        return score(model, cand, cal)

    monkeypatch.setattr(pruning, "score_candidate", recorded)
    before = threading.active_count()
    assert score_all(model, cands, short_cal(), threads=threads) == want
    assert threading.active_count() == before
    assert len(idents) == n
    assert threading.get_ident() in idents
    assert len(set(idents)) == k


@pytest.mark.parametrize("threads", [2, 4])
def test_fan_out_raises_the_earliest_failing_candidate(threads, monkeypatch):
    # candidate 1 fails only after candidate 3 has failed: candidate 1's
    # error is raised whichever thread ran it, after every worker is joined
    model = dead_around()
    cands = every_kind(model)[:6]
    calls = []
    three_failed = threading.Event()

    def failing(model, cand, cal):
        i = cands.index(cand)
        calls.append(i)
        if i == 1:
            three_failed.wait(timeout=10)
            raise RuntimeError("candidate 1")
        if i == 3:
            three_failed.set()
            raise RuntimeError("candidate 3")
        time.sleep(0.01)
        return 1.0

    monkeypatch.setattr(pruning, "score_candidate", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="candidate 1"):
        score_all(model, cands, short_cal(), threads=threads)
    assert threading.active_count() == before
    assert 1 in calls and 3 in calls


def test_fan_out_hands_out_nothing_after_a_failure():
    ran = []

    def fn(i):
        ran.append(i)
        if i == 0:
            raise ValueError("first")
        time.sleep(0.05)
        return i

    before = threading.active_count()
    with pytest.raises(ValueError, match="first"):
        pruning.fan_out(fn, range(8), 2)
    assert threading.active_count() == before
    assert 0 in ran and len(ran) <= 2  # item 0 and the one in flight beside it
    assert pruning.fan_out(lambda i: i * i, range(5), 3) == [0, 1, 4, 9, 16]
    assert pruning.fan_out(lambda i: i, [], 3) == []


def components(model):
    """The blocks list, then every object reachable from the model's
    attributes (blocks, layers, Linears, Tensors), in a fixed order."""
    out = [model.blocks]

    def walk(obj):
        for v in vars(obj).values():
            for item in (v if isinstance(v, list) else [v]):
                if isinstance(item, Tensor):
                    out.append(item)
                elif hasattr(item, "__dict__") and not isinstance(item, type):
                    out.append(item)
                    walk(item)

    walk(model)
    return out


@pytest.mark.parametrize("threads", [1, 4])
def test_trials_leave_the_model_under_search_as_it_was(threads):
    model = dead_around()
    cal = short_cal()
    cands = every_kind(model)
    assert {c.kind for c in cands} == set(KIND_ORDER)
    flags, data = snapshot(model)
    before = components(model)
    assert sum(isinstance(o, Linear) for o in before) > 0
    hidden = [b.mlp.hidden for b in model.blocks if isinstance(b, TransformerBlock)]
    want = score_all(model, cands, cal)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert score_all(model, cands, cal, threads=threads) == want
    finally:
        sys.setswitchinterval(interval)
    assert snapshot(model) == (flags, data)
    after = components(model)
    assert len(after) == len(before)
    assert all(a is b for a, b in zip(after, before))
    assert [b.mlp.hidden for b in model.blocks
            if isinstance(b, TransformerBlock)] == hidden


# -- inputs held across the search ------------------------------------------


EVERY_KIND_SCHEDULE = ("mlp_channels:2:16+ssm:1+mha&mlp:2+mamba_block:1"
                       "+transformer_block:1")


def reference_search(model, schedule, cal):
    """run_schedule's greedy loop, scoring each candidate by cal.ppl on an
    applied model.clone(): -> (plan, trace, final_cal_ppl)."""
    rank = {k: i for i, k in enumerate(KIND_ORDER)}
    plan, trace, it = [], [], 0
    for si, st in enumerate(parse_schedule(schedule)):
        for _ in range(st.steps):
            cands = candidates_for(model, st)
            if not cands:
                break
            scores = []
            for c in cands:
                applied = model.clone()
                apply_action(applied, c.kind, c.block, c.g)
                p = cal.ppl(applied)
                scores.append(p if math.isfinite(p) else math.inf)
            trace.extend(pruning._row(it, si, c, s) for c, s in zip(cands, scores))
            j = min(range(len(cands)),
                    key=lambda k: (scores[k], cands[k].block, rank[cands[k].kind]))
            c = cands[j]
            apply_action(model, c.kind, c.block, c.g)
            row = pruning._row(it, si, c, scores[j])
            row["ratio"] = model.prune_ratio()
            plan.append(row)
            it += 1
    return plan, trace, cal.ppl(model)


def prefix_passes(monkeypatch):
    """Counts block forwards and wraps pruning.score_all on short_cal's
    three batches. For each call, appends (the forwards of its prefix pass,
    its top candidate block, the model's alive flags, the forward count on
    return); the candidates' own forwards are taken out of the first entry.
    -> (forwards, passes)"""
    calls = count_block_forwards(monkeypatch)
    passes = []
    inner = pruning.score_all

    def counted(model, cands, cal, threads=1):
        n = len(calls)
        alive = [b.alive for b in model.blocks]
        trials = 0
        for c in cands:
            trial = model.clone()
            apply_action(trial, c.kind, c.block, c.g)
            trials += live_from(trial, c.block)
        out = inner(model, cands, cal, threads)
        passes.append((len(calls) - n - 3 * trials, max(c.block for c in cands),
                       alive, len(calls)))
        return out

    monkeypatch.setattr(pruning, "score_all", counted)
    return calls, passes


@pytest.mark.parametrize("variant", ["mamba1", "mamba2"])
@pytest.mark.parametrize("threads", [1, 3])
def test_held_inputs_give_the_reference_search(variant, threads, monkeypatch):
    cal = short_cal()  # three batches
    plan, trace, final = reference_search(dead_around(variant),
                                          EVERY_KIND_SCHEDULE, cal)
    assert {r["kind"] for r in trace} == set(KIND_ORDER)
    model = dead_around(variant)
    calls, passes = prefix_passes(monkeypatch)
    refs = held_inputs(monkeypatch)
    out = run_schedule(model, EVERY_KIND_SCHEDULE, cal, threads=threads)
    assert (out["plan"], out["trace"], out["final_cal_ppl"]) == (plan, trace, final)
    assert len(passes) == len(plan)
    prev = 0  # the first pass starts at the embedding
    for (ran, top, alive, _), row in zip(passes, plan):
        assert ran == 3 * sum(alive[prev:top])
        prev = row["block"]
    # the final perplexity resumes at the last removal's block
    assert len(calls) - passes[-1][3] == 3 * live_from(model, prev)
    assert_freed(refs)


def test_a_removal_reruns_only_the_blocks_from_its_own(monkeypatch):
    model = dead_around()  # live: mamba 1 and 3, transformers 2 and 5
    cal = short_cal()
    _, passes = prefix_passes(monkeypatch)
    refs = held_inputs(monkeypatch)
    out = run_schedule(model, "mha:1+mlp_channels:1:16+ssm:1", cal)
    assert [r["kind"] for r in out["plan"]] == ["mha", "mlp_channels", "ssm"]
    assert out["plan"][0]["block"] == 2
    assert [p[:2] for p in passes] == [
        (3 * 1, 2),  # from the embedding: live 1 of [0, 2)
        (3 * 2, 5),  # after mha 2: live 2 and 3 of [2, 5)
        (0, 1),      # after a slice at 2 or 5, past the top block: none
    ]
    assert_freed(refs)


class _RaisesOn(CalibrationSet):
    """Calibration set whose k-th perplexity raises."""

    def __init__(self, k):
        super().__init__(Corpus.bundled(), count=7, length=40, batch_size=3)
        self.k, self.calls = k, 0

    def ppl(self, model):
        self.calls += 1
        if self.calls == self.k:
            raise RuntimeError(f"perplexity {self.k} failed")
        return super().ppl(model)


def test_held_inputs_are_freed_when_run_schedule_raises(monkeypatch):
    refs = held_inputs(monkeypatch)
    done = _RaisesOn(0)
    run_schedule(dead_around(), "ssm:1+mha&mlp:1", done)
    assert_freed(refs)
    for k in (1, 4, done.calls):  # the first, one mid-search, the final ppl
        refs.clear()
        with pytest.raises(RuntimeError, match=f"perplexity {k} failed"):
            run_schedule(dead_around(), "ssm:1+mha&mlp:1", _RaisesOn(k))
        assert_freed(refs)


# -- the loop ---------------------------------------------------------------


def test_greedy_applies_the_per_iteration_argmin():
    model = hybrid(seed=5)
    cal = small_cal()
    out = run_schedule(model, "mamba_block&ssm&mha&mlp:2", cal)
    assert len(out["plan"]) == 2
    rank = {k: i for i, k in enumerate(KIND_ORDER)}
    for it, chosen in enumerate(out["plan"]):
        rows = [r for r in out["trace"] if r["iter"] == it]
        best = min(rows, key=lambda r: (r["score"], r["block"], rank[r["kind"]]))
        assert (chosen["kind"], chosen["block"], chosen["score"]) == \
            (best["kind"], best["block"], best["score"])
    # ratio grows as structures disappear
    assert 0.0 < out["plan"][0]["ratio"] < out["plan"][1]["ratio"]
    assert out["final_ratio"] == out["plan"][-1]["ratio"]
    assert not model.is_effective(out["plan"][0]["kind"], out["plan"][0]["block"])


def test_applied_score_matches_model_state():
    # after applying the chosen action, the model scores exactly the plan score
    model = hybrid(seed=6)
    cal = small_cal()
    out = run_schedule(model, "ssm:1", cal)
    assert cal.ppl(model) == out["plan"][0]["score"]
    assert out["final_cal_ppl"] == out["plan"][0]["score"]


def test_stage_truncates_when_candidates_run_out():
    model = hybrid(seed=7)  # one transformer block, so one mha
    cal = small_cal()
    out = run_schedule(model, "mha:5", cal)
    assert len(out["plan"]) == 1
    assert out["stages"][0] == {"spec": "mha:5", "steps_done": 1,
                                "truncated": True}
    assert out["truncated"]


class _FiniteUntil:
    """Perplexity of `cal` until `limit` ssms are gone, NaN from then on."""

    def __init__(self, cal, limit):
        self.cal, self.limit = cal, limit
        self.tokens, self.batch_size = cal.tokens, cal.batch_size

    def ppl(self, resumed):
        # resumed is the search's stand-in; its model is the trial it runs
        gone = sum(isinstance(b, MambaBlock) and not b.ssm_alive
                   for b in resumed.model.blocks)
        return math.nan if gone >= self.limit else self.cal.ppl(resumed)


def test_all_inf_iteration_truncates_its_stage_and_applies_nothing():
    model = hybrid(seed=12)  # mamba at 0, 1, 3; a transformer at 2
    out = run_schedule(model, "ssm:3 + mha:1", _FiniteUntil(small_cal(), 2))
    assert [(r["iter"], r["kind"]) for r in out["plan"]] == [(0, "ssm"), (2, "mha")]
    assert out["stages"] == [
        {"spec": "ssm:3", "steps_done": 1, "truncated": True},
        {"spec": "mha:1", "steps_done": 1, "truncated": False}]
    assert out["truncated"]
    # iteration 1 scored both remaining ssms +inf; it is in the trace only
    it1 = [r for r in out["trace"] if r["iter"] == 1]
    assert len(it1) == 2 and all(r["score"] == math.inf for r in it1)
    first = out["plan"][0]
    assert [(s.kind, s.block) for s in model.structures() if not s.alive] == \
        [("ssm", first["block"]), ("mha", 2)]


def test_all_inf_from_the_start_leaves_the_model_as_it_was():
    model = hybrid(seed=13)
    flags, data = snapshot(model)
    out = run_schedule(model, "mamba_block&ssm:2", _FiniteUntil(small_cal(), 0))
    assert out["plan"] == []
    assert out["stages"] == [{"spec": "mamba_block&ssm:2", "steps_done": 0,
                              "truncated": True}]
    assert len(out["trace"]) == 6 and all(r["iter"] == 0 for r in out["trace"])
    assert snapshot(model) == (flags, data)


def test_channel_stage_slices_repeatedly():
    model = hybrid(seed=8)
    cal = small_cal()
    out = run_schedule(model, "mlp_channels:3:8", cal)
    assert [r["g"] for r in out["plan"]] == [8, 8, 8]
    assert model.blocks[2].mlp.hidden == 48 - 24
    ratios = [r["ratio"] for r in out["plan"]]
    assert ratios == sorted(ratios) and ratios[0] > 0.0


def test_serial_and_parallel_runs_emit_identical_bytes(tmp_path):
    cal = small_cal()
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    run_schedule(hybrid(seed=10), "ssm&mha:2", cal, out_dir=str(a_dir),
                 threads=1, emit_trace=True)
    run_schedule(hybrid(seed=10), "ssm&mha:2", cal, out_dir=str(b_dir),
                 threads=4, emit_trace=True)
    assert (a_dir / "plan.jsonl").read_bytes() == (b_dir / "plan.jsonl").read_bytes()
    assert (a_dir / "trace.jsonl").read_bytes() == (b_dir / "trace.jsonl").read_bytes()
    rows = read_jsonl(str(a_dir / "trace.jsonl"))
    assert all(set(r) >= {"iter", "stage", "kind", "block", "score"} for r in rows)


def test_timings_sit_beside_the_plan_and_trace(tmp_path):
    out = run_schedule(hybrid(seed=10), "ssm&mha:2", small_cal(), out_dir=str(tmp_path),
                       threads=2, emit_trace=True)
    rows = read_jsonl(str(tmp_path / "timings.jsonl"))
    assert set(rows[-1]) == {"peak_rss_mb"} and rows[-1]["peak_rss_mb"] > 0
    iters = [r for r in rows[:-1] if "candidates" in r]
    cands = [r for r in rows[:-1] if "kind" in r]
    assert len(iters) + len(cands) == len(rows) - 1
    assert [r["iter"] for r in iters] == [0, 1]
    assert [r["candidates"] for r in iters] == [
        sum(t["iter"] == it for t in out["trace"]) for it in (0, 1)]
    # each candidate row is its trace row with its wall seconds
    assert [{**t, "seconds": r["seconds"]} for r, t in zip(cands, out["trace"])] == cands
    assert all(r["seconds"] > 0 for r in iters + cands)
    for name in ("plan.jsonl", "trace.jsonl"):
        assert "seconds" not in (tmp_path / name).read_text()


@pytest.mark.parametrize("plan,match", [
    ([{"kind": "ssm", "block": 0}, ["ssm", 1]], "row 2 is not an object"),
    ([{"block": 0}], r"row 1 lacks \['kind'\]"),
    ([{"kind": "ssm"}], r"row 1 lacks \['block'\]"),
    ([{"kind": "ssm", "block": "0"}], "row 1 has block '0', expected an integer"),
    ([{"kind": "mlp_channels", "block": 2, "g": 1.5}], "row 1 has g 1.5"),
], ids=["not-object", "no-kind", "no-block", "str-block", "float-g"])
def test_replay_rejects_malformed_rows_by_number(plan, match):
    with pytest.raises(ScheduleError, match=match):
        replay_plan(hybrid(seed=11), plan)


def test_replay_reproduces_the_final_state():
    cal = small_cal()
    model = hybrid(seed=11)
    out = run_schedule(model, "mamba_block:1+ssm&mha:1", cal)
    fresh = hybrid(seed=11)
    replay_plan(fresh, out["plan"])
    assert cal.ppl(fresh) == out["final_cal_ppl"]
    assert fresh.prune_ratio() == out["final_ratio"]
    assert [(s.kind, s.block, s.alive) for s in fresh.structures()] == \
        [(s.kind, s.block, s.alive) for s in model.structures()]
