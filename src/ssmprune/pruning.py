"""Greedy structure removal driven by calibration perplexity.

A schedule is a list of stages. Each stage names the structure kinds in
play, how many removals to perform, and, for hidden-channel slicing, the
group width. One iteration scores every eligible candidate by the
calibration perplexity of the model with that candidate gone, then applies
the cheapest one. Each candidate is scored on a trial that copies only the
candidate's own block and shares every other part, so the model under
search is never perturbed by scoring, and threads can share the scoring
without changing any byte of the resulting plan or trace.

With threads = N > 1, score_all fans out over N threads: the calling
thread and N - 1 workers it starts take items (a calibration batch to
bring up to date, then a candidate) from one shared queue, in order. The
calling thread does not sit idle: its malloc arena already holds the
memory that set-up and earlier calls freed, so one fewer arena grows. The
results come back in item order. After an item fails, no further item is
handed out; every worker is joined before the call returns, and the error
of the earliest failing item is raised. No thread outlives the call.

A removal in block i leaves blocks 0..i-1 as they were. So run_schedule
builds one search object that holds the model under search, the
calibration set and, per calibration batch, the residual-stream inputs of
blocks 0..k, and passes it to score_all as the calibration set; every
candidate resumes at its own block. The same ops run on the same inputs, so
scores are bit-identical to full forwards. A removal at block b drops the
inputs after b, and the next score_all runs each batch on from block b only
up to its highest candidate block. A score_all on a plain calibration set
builds a search of its own and frees it on return, so concurrent calls
share no state. The inputs cost count x length x d_model x 4 bytes per
block: at most 3 MiB for 8x128 windows at d_model 64 with 12 blocks, and
16.8 MB per block (about 200 MB for 12) at the CLI's 256x256 default.
"""

from __future__ import annotations

import copy as _copy
import json
import math
import os
import resource
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ScheduleError, StateError, read_text
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


class _Search:
    """One greedy search: the model under search, its calibration set and,
    for every calibration batch by number, a row with the model's
    residual-stream inputs of blocks 0..k. score_all takes it as its cal,
    and score_candidate scores only through it. A removal in block b
    leaves the inputs of blocks 0..b as they were, so after one the rows
    keep those and drop the rest (`drop_after`); `grow` runs each row on
    from its last input. Rows are replaced, never edited, so a reader sees
    a whole row. score_all leaves each of its candidates' wall seconds in
    `seconds`."""

    def __init__(self, model: Model, cal: CalibrationSet):
        self.model, self.cal = model, cal
        self.tokens, self.batch_size = cal.tokens, cal.batch_size
        n, bs = cal.tokens.shape[0], cal.batch_size
        self.batches = [cal.tokens[i:i + bs] for i in range(0, n, bs)]
        self.rows: List[List[Tensor]] = [[] for _ in self.batches]
        self.seconds: Tuple[float, ...] = ()

    def grow(self, stop: int, map_: Callable) -> None:
        """Extend every row to the inputs of blocks 0..stop, one batch per
        map_ item. An empty row starts at the embedding; a row that reaches
        stop already is kept as it is."""
        def grown(n: int) -> List[Tensor]:
            row = self.rows[n]
            if len(row) > stop:
                return row
            out = row[:-1]
            x = row[-1] if row else self.model._embed(self.batches[n])
            out.append(self.model._run(x, len(out), stop, inputs=out))
            return out

        self.rows = list(map_(grown, range(len(self.batches))))

    def drop_after(self, block: int) -> None:
        """Forget every input after `block`, whose structure just changed."""
        self.rows = [row[:block + 1] for row in self.rows]

    def ppl(self, model: Model, start: int) -> float:
        """cal.ppl of `model`, which runs as the model under search up to
        block `start`: every batch resumes at `start` from its held input,
        which every row must hold."""
        return self.cal.ppl(_Resumed(model, start, self.rows))


class _Resumed:
    """Stands in for a model inside cal.ppl, which runs the calibration
    batches in order: the n-th forward resumes the model at `start` from
    row n."""

    def __init__(self, model: Model, start: int, rows: List[List[Tensor]]):
        self.model, self.start, self.rows = model, start, iter(rows)

    def forward(self, tokens: np.ndarray) -> Tensor:
        x = next(self.rows)[self.start]
        if x.data.shape[:2] != np.shape(tokens):
            raise StateError(f"resumed forward: tokens {np.shape(tokens)}, held "
                             f"input {x.data.shape[:2]}")
        return self.model.resume(x, self.start)


def _trial(model: Model, block: int) -> Model:
    """A model that shares every part with `model` except block `block`,
    which is its own deep copy: an action applied to that block leaves the
    model under search as it was."""
    trial = _copy.copy(model)
    trial.blocks = list(model.blocks)
    trial.blocks[block] = _copy.deepcopy(model.blocks[block])
    return trial


def score_candidate(model: Model, cand: Candidate, search: _Search) -> float:
    """Calibration perplexity of the model with the candidate removed.

    Applies the action to a trial that copies only the candidate's block and
    shares the rest; the model is untouched. The trial resumes at the
    candidate's block from the search's held input of that block, since a
    change in block i leaves blocks before i as they were; every row must
    hold that input, as score_all sees to. Non-finite perplexity scores as
    +inf so a destabilizing removal can never win the argmin.
    """
    trial = _trial(model, cand.block)
    apply_action(trial, cand.kind, cand.block, cand.g)
    p = search.ppl(trial, cand.block)
    return p if math.isfinite(p) else math.inf


def score_all(model: Model, cands: Sequence[Candidate], cal: CalibrationSet,
              threads: int = 1) -> List[float]:
    """Scores in candidate order. With threads > 1 and more than one
    candidate, `fan_out` runs the work on this thread and threads - 1
    workers; results come back in candidate order either way, so traces
    match byte for byte.

    First brings the held inputs of every calibration batch up to the
    highest candidate block, one batch per item; every candidate then
    resumes at its own block. run_schedule passes its search as cal, whose
    inputs live for the whole run, so each call runs only the blocks a
    removal invalidated. On a plain calibration set, score_all builds a
    search of its own: it runs the model up to that block, holds count x
    length x d_model x 4 bytes per block, and frees them on return.
    """
    if not cands:
        return []
    search = cal if isinstance(cal, _Search) else _Search(model, cal)

    def map_(fn: Callable, items) -> list:
        return fan_out(fn, items, threads if len(cands) > 1 else 1)

    def scored(c: Candidate) -> Tuple[float, float]:
        t0 = time.perf_counter()
        return score_candidate(model, c, search), time.perf_counter() - t0

    search.grow(max(c.block for c in cands), map_)
    scores, search.seconds = zip(*map_(scored, cands))
    return list(scores)


def fan_out(fn: Callable, items, threads: int) -> list:
    """[fn(item) for item in items], run on the calling thread and on
    min(threads, len(items)) - 1 worker threads, which take the items from
    one queue in order. After an item raises, no further item is handed
    out; every worker is joined, then the error of the earliest failing
    item is raised."""
    items = list(items)
    results: list = [None] * len(items)
    errors: Dict[int, BaseException] = {}
    queue = iter(range(len(items)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = None if errors else next(queue, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as e:
                with lock:
                    errors[i] = e
                return

    workers = [threading.Thread(target=work, daemon=True)
               for _ in range(min(threads, len(items)) - 1)]
    try:
        for w in workers:
            w.start()
        work()
    finally:
        for w in workers:
            if w.ident is not None:
                w.join()
    if errors:
        raise errors[min(errors)]
    return results


def write_jsonl(path: str, rows: Sequence[dict]) -> None:
    with open(path, "w") as f:
        for r in rows:
            f.write(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n")


def read_jsonl(path: str) -> List[dict]:
    rows = []
    for n, line in enumerate(read_text(path).split("\n"), 1):
        if line.strip():
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise ScheduleError(f"{path}: line {n} is not JSON ({e.msg})") from None
    return rows


def _row(it: int, si: int, c: Candidate, score: float) -> dict:
    row = {"iter": it, "stage": si, "kind": c.kind, "block": c.block,
           "score": score}
    if c.g is not None:
        row["g"] = c.g
    return row


def _greedy(search: _Search, stages: Sequence[Stage],
            threads: int) -> Tuple[list, list, list, list]:
    """The greedy loop of run_schedule -> (plan, trace, stage_infos,
    timings): timings holds each iteration's trace rows, each with its
    wall seconds, then a row with the iteration's wall seconds."""
    work = search.model
    plan: List[dict] = []
    trace: List[dict] = []
    stage_infos: List[dict] = []
    timings: List[dict] = []
    it = 0
    for si, st in enumerate(stages):
        done = 0
        truncated = False
        for _ in range(st.steps):
            t0 = time.perf_counter()
            cands = candidates_for(work, st)
            if not cands:
                truncated = True
                break
            scores = score_all(work, cands, search, threads=threads)
            trace.extend(_row(it, si, c, s) for c, s in zip(cands, scores))
            timings.extend({**_row(it, si, c, s), "seconds": t}
                           for c, s, t in zip(cands, scores, search.seconds))
            if all(s == math.inf for s in scores):
                timings.append(_iteration(it, si, len(cands), t0))
                it += 1  # no removal keeps the model finite: apply nothing
                truncated = True
                break
            j = min(range(len(cands)),
                    key=lambda k: (scores[k], cands[k].block, _RANK[cands[k].kind]))
            c = cands[j]
            apply_action(work, c.kind, c.block, c.g)
            search.drop_after(c.block)
            entry = _row(it, si, c, scores[j])
            entry["ratio"] = work.prune_ratio()
            plan.append(entry)
            timings.append(_iteration(it, si, len(cands), t0))
            it += 1
            done += 1
        stage_infos.append({"spec": format_stage(st), "steps_done": done,
                            "truncated": truncated})
    return plan, trace, stage_infos, timings


def _iteration(it: int, si: int, count: int, t0: float) -> dict:
    return {"iter": it, "stage": si, "candidates": count,
            "seconds": time.perf_counter() - t0}


def run_schedule(model: Model, schedule: Union[str, Sequence[Stage]],
                 cal: CalibrationSet, out_dir: Optional[str] = None,
                 threads: int = 1, emit_trace: bool = False) -> dict:
    """Greedy search over the whole schedule.

    Mutates the model stage by stage. A stage that runs out of eligible
    candidates before its step count is marked truncated and the schedule
    moves on; so is a stage whose iteration scores every candidate +inf,
    which applies nothing and leaves that iteration in the trace only.
    Returns a summary with the applied plan, the full candidate trace,
    per-stage bookkeeping, and the final ratio and calibration perplexity.
    With out_dir set, the plan (and the trace, when emit_trace) are written
    as jsonl, and so is timings.jsonl: per iteration, a row with each
    candidate's wall seconds and one with the iteration's, then a last row
    with the process's peak RSS so far (ru_maxrss, which Linux reports in
    KiB). Wall times vary from run to run, so they stay out of the plan and
    the trace, which do not.
    """
    stages = parse_schedule(schedule) if isinstance(schedule, str) else list(schedule)
    # the block inputs live for the whole search; each removal drops those
    # it invalidated, and the final perplexity resumes at the shortest row
    # (at the embedding, when nothing was scored)
    search = _Search(model, cal)
    plan, trace, stage_infos, timings = _greedy(search, stages, threads)
    start = max(min(map(len, search.rows)) - 1, 0)
    search.grow(start, map)
    final_ppl = search.ppl(model, start)
    summary = {
        "plan": plan,
        "trace": trace,
        "stages": stage_infos,
        "truncated": any(s["truncated"] for s in stage_infos),
        "final_ratio": model.prune_ratio(),
        "final_cal_ppl": final_ppl,
    }
    if out_dir is not None:
        write_jsonl(os.path.join(out_dir, "plan.jsonl"), plan)
        if emit_trace:
            write_jsonl(os.path.join(out_dir, "trace.jsonl"), trace)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        write_jsonl(os.path.join(out_dir, "timings.jsonl"),
                    timings + [{"peak_rss_mb": peak / 1024}])
    return summary


_TYPES = {"a string": (str,), "an integer": (int,), "a number": (int, float)}


def is_a(value, what: str) -> bool:
    """Whether value is `what`, a key of _TYPES; a bool is neither an
    integer nor a number."""
    return isinstance(value, _TYPES[what]) and not isinstance(value, bool)


def check_rows(rows: Sequence, types: Dict[str, str], where: str) -> None:
    """ScheduleError naming the first row (counted from 1) that is not an
    object holding every key of `types` with a value of its type."""
    for n, row in enumerate(rows, 1):
        if not isinstance(row, dict):
            raise ScheduleError(f"{where}: row {n} is not an object: {row!r}")
        missing = [k for k in types if k not in row]
        if missing:
            raise ScheduleError(f"{where}: row {n} lacks {missing}")
        for k, what in types.items():
            if not is_a(row[k], what):
                raise ScheduleError(f"{where}: row {n} has {k} {row[k]!r}, expected {what}")


def replay_plan(model: Model, plan: Sequence[dict]) -> None:
    """Apply recorded actions in order; nothing is rescored."""
    check_rows(plan, {"kind": "a string", "block": "an integer"}, "plan")
    for n, row in enumerate(plan, 1):
        g = row.get("g", 0)
        if not is_a(g, "an integer"):
            raise ScheduleError(f"plan: row {n} has g {g!r}, expected an integer")
        apply_action(model, row["kind"], row["block"], row.get("g"))
