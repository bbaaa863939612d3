"""Greedy structure removal driven by calibration perplexity.

A schedule is a list of stages. Each stage names the structure kinds in
play, how many removals to perform, and, for hidden-channel slicing, the
group width. One iteration scores every eligible candidate by the
calibration perplexity of the model with that candidate gone, then applies
the cheapest one. Candidates are scored on clones, so the model under
search is never perturbed by scoring, and a thread pool can fan the
scoring out without changing any byte of the resulting plan or trace.

A removal in block i leaves blocks 0..i-1 as they were. So score_all runs
the model once per calibration batch up to its highest candidate block,
holds the residual-stream input of each candidate block, and lets every
candidate resume at its own block. The same ops run on the same inputs,
so scores are bit-identical to full forwards. The held inputs cost
count x length x d_model x 4 bytes per candidate block for one score_all
call: at most 3 MiB for 8x128 windows at d_model 64 with 12 blocks, and
16.8 MB per block (about 200 MB for 12) at the CLI's 256x256 default.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ScheduleError
from .model import KIND_ORDER, Model
from .tensor import Tensor
from .training import Corpus, perplexity

_RANK = {k: i for i, k in enumerate(KIND_ORDER)}


class CalibrationSet:
    """A fixed grid of windows from the cal split, shared by every score."""

    def __init__(self, corpus: Corpus, count: int = 256, length: int = 256,
                 batch_size: int = 16):
        self.count, self.length = count, length
        self.batch_size = batch_size
        self.tokens, self.targets = corpus.windows("cal", count, length)

    def ppl(self, model) -> float:
        return perplexity(model, self.tokens, self.targets, self.batch_size)


@dataclass(frozen=True)
class Stage:
    kinds: Tuple[str, ...]
    steps: int
    g: Optional[int] = None


@dataclass(frozen=True)
class Candidate:
    kind: str
    block: int
    g: Optional[int] = None


def _stage_int(text: str, part: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScheduleError(f"stage {part!r}: {what} {text!r} is not an integer") from None


def parse_schedule(text: str) -> List[Stage]:
    """Grammar: stages joined by '+', each 'kind[&kind...]:steps[:g]'.

    The trailing :g (slice group width) is required exactly when the stage
    includes mlp_channels. All validation happens here, before any model is
    touched.
    """
    if not isinstance(text, str) or not text.strip():
        raise ScheduleError("empty schedule")
    stages: List[Stage] = []
    for part in text.split("+"):
        part = part.strip()
        if not part:
            raise ScheduleError(f"empty stage in schedule {text!r}")
        bits = part.split(":")
        if len(bits) not in (2, 3):
            raise ScheduleError(
                f"stage {part!r} must look like kind[&kind]:steps[:g]")
        kinds = tuple(k.strip() for k in bits[0].split("&"))
        for k in kinds:
            if k not in _RANK:
                raise ScheduleError(
                    f"unknown structure kind {k!r} in stage {part!r}; "
                    f"expected one of {KIND_ORDER}")
        if len(set(kinds)) != len(kinds):
            raise ScheduleError(f"duplicate kind in stage {part!r}")
        steps = _stage_int(bits[1], part, "step count")
        if steps < 1:
            raise ScheduleError(f"stage {part!r}: step count must be positive")
        g: Optional[int] = None
        if len(bits) == 3:
            if "mlp_channels" not in kinds:
                raise ScheduleError(
                    f"stage {part!r} sets a group width but prunes no mlp_channels")
            g = _stage_int(bits[2], part, "group width")
            if g < 1:
                raise ScheduleError(f"stage {part!r}: group width must be positive")
        elif "mlp_channels" in kinds:
            raise ScheduleError(
                f"stage {part!r} prunes mlp_channels but sets no group width")
        stages.append(Stage(kinds, steps, g))
    return stages


def format_stage(stage: Stage) -> str:
    head = "&".join(stage.kinds) + f":{stage.steps}"
    return head + (f":{stage.g}" if stage.g is not None else "")


def candidates_for(model: Model, stage: Stage) -> List[Candidate]:
    """Eligible candidates in fixed order: block ascending, kind rank within."""
    kinds = [k for k in KIND_ORDER if k in stage.kinds]
    out: List[Candidate] = []
    for i in range(len(model.blocks)):
        for k in kinds:
            if k == "mlp_channels":
                if model.is_effective("mlp", i) and stage.g < model.blocks[i].mlp.hidden:
                    out.append(Candidate(k, i, stage.g))
            elif model.is_effective(k, i):
                out.append(Candidate(k, i))
    return out


def apply_action(model: Model, kind: str, block: int, g: Optional[int] = None) -> None:
    if kind == "mlp_channels":
        if g is None:
            raise ScheduleError("mlp_channels action carries no group width")
        model.slice_mlp(int(block), int(g))
    else:
        model.remove(kind, int(block))


# Block inputs held for the model under search while score_all runs, keyed by
# (id(model), id(cal)). score_candidate keeps its (model, cand, cal) signature
# and receives the caller's own cal, so the held inputs reach it through this
# table. A held prefix keeps its model and cal alive, so a key match means the
# very same objects.
_HELD: Dict[Tuple[int, int], "_Prefix"] = {}


def _batch_key(tokens: np.ndarray) -> tuple:
    return tokens.shape, tokens.dtype.str, tokens.tobytes()


class _Prefix:
    """The current model's residual-stream input to each candidate block, for
    every calibration batch, keyed by the batch's tokens."""

    def __init__(self, model: Model, cal: CalibrationSet, blocks: Sequence[int],
                 map_: Callable):
        self.model, self.cal = model, cal
        self.blocks = frozenset(blocks)
        n, bs = cal.tokens.shape[0], cal.batch_size
        batches = [cal.tokens[i:i + bs] for i in range(0, n, bs)]
        stop = max(blocks)

        def inputs(toks: np.ndarray) -> Dict[int, Tensor]:
            xs = model.block_inputs(toks, stop)
            return {b: xs[b] for b in self.blocks}

        self.rows = {_batch_key(t): row for t, row in zip(batches, map_(inputs, batches))}


class _Resumed:
    """Stands in for a trial model inside cal.ppl: forward(tokens) resumes the
    trial at `start` from the held input of that batch, or runs the trial's
    full forward on tokens the prefix does not hold."""

    def __init__(self, trial: Model, start: int, prefix: _Prefix):
        self.trial, self.start, self.prefix = trial, start, prefix

    def forward(self, tokens: np.ndarray) -> Tensor:
        row = self.prefix.rows.get(_batch_key(np.asarray(tokens)))
        if row is None:
            return self.trial.forward(tokens)
        return self.trial.resume(row[self.start], self.start)


def score_candidate(model: Model, cand: Candidate, cal: CalibrationSet) -> float:
    """Calibration perplexity of the model with the candidate removed.

    Runs on a clone; the model is untouched. Non-finite perplexity scores
    as +inf so a destabilizing removal can never win the argmin. Inside
    score_all, the clone resumes at the candidate's block from the held
    inputs of that block, since a change in block i leaves blocks before i
    as they were; called on its own, it runs the full forward. The two give
    the same bytes.
    """
    trial = model.clone()
    apply_action(trial, cand.kind, cand.block, cand.g)
    prefix = _HELD.get((id(model), id(cal)))
    if prefix is not None and cand.block in prefix.blocks:
        p = cal.ppl(_Resumed(trial, cand.block, prefix))
    else:
        p = cal.ppl(trial)
    return p if math.isfinite(p) else math.inf


def score_all(model: Model, cands: Sequence[Candidate], cal: CalibrationSet,
              threads: int = 1) -> List[float]:
    """Scores in candidate order. threads > 1 fans out; results are
    reduced in candidate order either way, so traces match byte for byte.

    First runs the model once per calibration batch up to its highest
    candidate block and holds the input of each candidate block; every
    candidate then runs only from its own block on. The held inputs cost
    count x length x d_model x 4 bytes per candidate block and are freed on
    return.
    """
    if threads > 1 and len(cands) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return _score_all(model, cands, cal, pool.map)
    return _score_all(model, cands, cal, map)


def _score_all(model: Model, cands: Sequence[Candidate], cal: CalibrationSet,
               map_: Callable) -> List[float]:
    # Concurrent calls on one (model, cal) pair may replace or drop each
    # other's prefix; a candidate left without one runs the full forward,
    # which gives the same bytes.
    key = (id(model), id(cal))
    if cands and isinstance(cal, CalibrationSet):
        _HELD[key] = _Prefix(model, cal, sorted({c.block for c in cands}), map_)
    try:
        return list(map_(lambda c: score_candidate(model, c, cal), cands))
    finally:
        _HELD.pop(key, None)


def write_jsonl(path: str, rows: Sequence[dict]) -> None:
    with open(path, "w") as f:
        for r in rows:
            f.write(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n")


def read_jsonl(path: str) -> List[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _row(it: int, si: int, c: Candidate, score: float) -> dict:
    row = {"iter": it, "stage": si, "kind": c.kind, "block": c.block,
           "score": score}
    if c.g is not None:
        row["g"] = c.g
    return row


def run_schedule(model: Model, schedule: Union[str, Sequence[Stage]],
                 cal: CalibrationSet, out_dir: Optional[str] = None,
                 threads: int = 1, emit_trace: bool = False,
                 plan_only: bool = False) -> dict:
    """Greedy search over the whole schedule.

    Mutates the model stage by stage unless plan_only, in which case the
    search runs on an internal clone and the input model is returned
    unchanged. A stage that runs out of eligible candidates before its step
    count is marked truncated and the schedule moves on; so is a stage
    whose iteration scores every candidate +inf, which applies nothing and
    leaves that iteration in the trace only. Returns a summary
    with the applied plan, the full candidate trace, per-stage bookkeeping,
    and the final ratio and calibration perplexity. With out_dir set, the
    plan (and the trace, when emit_trace) are written as jsonl.
    """
    stages = parse_schedule(schedule) if isinstance(schedule, str) else list(schedule)
    work = model.clone() if plan_only else model
    plan: List[dict] = []
    trace: List[dict] = []
    stage_infos: List[dict] = []
    it = 0
    for si, st in enumerate(stages):
        done = 0
        truncated = False
        for _ in range(st.steps):
            cands = candidates_for(work, st)
            if not cands:
                truncated = True
                break
            scores = score_all(work, cands, cal, threads=threads)
            trace.extend(_row(it, si, c, s) for c, s in zip(cands, scores))
            if all(s == math.inf for s in scores):
                it += 1  # no removal keeps the model finite: apply nothing
                truncated = True
                break
            j = min(range(len(cands)),
                    key=lambda k: (scores[k], cands[k].block, _RANK[cands[k].kind]))
            c = cands[j]
            apply_action(work, c.kind, c.block, c.g)
            entry = _row(it, si, c, scores[j])
            entry["ratio"] = work.prune_ratio()
            plan.append(entry)
            it += 1
            done += 1
        stage_infos.append({"spec": format_stage(st), "steps_done": done,
                            "truncated": truncated})
    summary = {
        "plan": plan,
        "trace": trace,
        "stages": stage_infos,
        "truncated": any(s["truncated"] for s in stage_infos),
        "final_ratio": work.prune_ratio(),
        "final_cal_ppl": cal.ppl(work),
    }
    if out_dir is not None:
        write_jsonl(os.path.join(out_dir, "plan.jsonl"), plan)
        if emit_trace:
            write_jsonl(os.path.join(out_dir, "trace.jsonl"), trace)
    return summary


def replay_plan(model: Model, plan: Sequence[dict]) -> None:
    """Apply recorded actions in order; nothing is rescored."""
    for row in plan:
        apply_action(model, row["kind"], row["block"], row.get("g"))
