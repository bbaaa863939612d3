"""Schedule grammar, candidate scoring, and the greedy removal loop."""

import math
import sys
import time

import numpy as np
import pytest

from ssmprune.errors import ScheduleError
from ssmprune.model import KIND_ORDER, MambaBlock, Model, TransformerBlock, toy_descriptor
from ssmprune.pruning import (CalibrationSet, Candidate, Stage, apply_action,
                              candidates_for, format_stage, parse_schedule,
                              read_jsonl, replay_plan, run_schedule,
                              score_all, score_candidate)
from ssmprune.training import Corpus


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
            s = score_candidate(model, c, cal)
            assert math.isfinite(s)
    now_flags, now_data = snapshot(model)
    assert now_flags == flags
    assert all(now_data[k] == data[k] for k in data)


def test_score_equals_post_apply_calibration_ppl():
    model = hybrid(seed=4)
    cal = small_cal()
    for c in (Candidate("ssm", 0), Candidate("mha", 2),
              Candidate("mlp_channels", 2, 8)):
        s = score_candidate(model, c, cal)
        applied = model.clone()
        apply_action(applied, c.kind, c.block, c.g)
        assert cal.ppl(applied) == s


def test_non_finite_score_becomes_inf():
    class _NanCal:
        def ppl(self, model):
            return float("nan")

    s = score_candidate(hybrid(), Candidate("ssm", 0), _NanCal())
    assert s == math.inf


# -- resumed scoring --------------------------------------------------------


def dead_around():
    """Seven blocks, transformers at 2 and 5, with dead blocks before (0),
    between (4) and after (6) the candidates and dead ssm 3 and mha 5."""
    desc = toy_descriptor(n_blocks=7, transformer_at=(2, 5), d_model=32,
                          mlp_hidden=48)
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
        def counted(self, x, want_cache=False, _orig=cls.forward):
            calls.append(1)
            return _orig(self, x, want_cache)
        monkeypatch.setattr(cls, "forward", counted)
    return calls


def live_from(model, start):
    return sum(b.alive for b in model.blocks[start:])


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
    with pytest.raises(RuntimeError):
        score_all(model, [cand], failing)
    score_all(model, [cand], cal)
    calls = count_block_forwards(monkeypatch)
    for c in (failing, cal):  # nothing held any more: the full forward
        calls.clear()
        score_candidate(model, cand, c)
        assert len(calls) == 3 * live_from(model, 0)


def test_threaded_resume_under_fast_switching_matches_serial(monkeypatch):
    model = dead_around()
    cal = short_cal()
    cands = every_kind(model)
    want = score_all(model, cands, cal)
    flags, data = snapshot(model)
    held = []
    block_inputs = Model.block_inputs

    def capture(self, tokens, stop):
        xs = block_inputs(self, tokens, stop)
        held.append([(x, x.data.tobytes()) for x in xs])
        return xs

    monkeypatch.setattr(Model, "block_inputs", capture)
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

    def ppl(self, model):
        gone = sum(isinstance(b, MambaBlock) and not b.ssm_alive for b in model.blocks)
        return math.nan if gone >= self.limit else self.cal.ppl(model)


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


def test_plan_only_leaves_model_untouched():
    model = hybrid(seed=9)
    cal = small_cal()
    flags, data = snapshot(model)
    out = run_schedule(model, "ssm:2", cal, plan_only=True)
    assert len(out["plan"]) == 2 and out["final_ratio"] > 0.0
    now_flags, now_data = snapshot(model)
    assert now_flags == flags
    assert all(now_data[k] == data[k] for k in data)
    assert model.prune_ratio() == 0.0


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
