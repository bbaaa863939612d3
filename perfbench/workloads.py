"""The three benchmark workloads: closed loops with a single client.

Each workload builds `toy_descriptor()` at its defaults from the workload
seed and leaves it untrained: timing depends on which structures are alive,
not on the weight values. A workload has a `setup()` (timed, repeated), a
`request(i)` that is one closed-loop operation followed by the checks of its
output, and `metrics()`. Checks run with tracing paused and outside every
timed interval; each one counts as an attempted operation.

Two input objects stamp the clock where the program calls back into them:
`StampedCal.ppl` (once per scored candidate) and `StampedCorpus.batch` (once
per training step). That is how the untraced run gets per-iteration and
per-step times without wrapping any program function.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import statistics
import time
from typing import Dict, List, Optional

import numpy as np

from ssmprune import model as M
from ssmprune import pruning, training
from ssmprune.model import DecodeSession, Model, toy_descriptor
from ssmprune.pruning import CalibrationSet
from ssmprune.training import Corpus, TrainConfig

from . import stats

# greedy-prune: every kind in KIND_ORDER gets a stage of its own, so the
# candidate count of each iteration (10 9 8 | 7 6 5 4 | 2 | 2 | 2 | 2) does not
# depend on which structures the seed's model gives up. With eleven
# iterations a schedule, the p75 iteration falls among the eight-candidate
# ones for any number of schedules a run completes. Each candidate is scored
# on two calibration batches, as the program's callers score several
# (`prune`: 16 batches of 16x256, `study`: 2 of up to 16x96), so per-batch
# work and the loop over batches are both exercised.
SCHEDULE = "mamba_block:3+ssm:4+mha:1+mlp_channels:1:64+mlp:1+transformer_block:1"
CAL_WINDOWS, CAL_LENGTH, CAL_BATCH = 8, 128, 4

# train-step
TRAIN_BATCH, TRAIN_SEQ, STEPS_PER_REQUEST = 8, 128, 4

# generate: dead ssm/mha/mlp inside surviving blocks, two whole blocks gone,
# one mlp sliced
PRUNED_PLAN = (
    {"kind": "mamba_block", "block": 1},
    {"kind": "mamba_block", "block": 6},
    {"kind": "ssm", "block": 4},
    {"kind": "ssm", "block": 10},
    {"kind": "mha", "block": 3},
    {"kind": "mlp", "block": 9},
    {"kind": "mlp_channels", "block": 3, "g": 128},
)
# Prompt lengths are dealt from this spread in a seeded order, a full pass at
# a time, so every seed's run sees nearly the same mix of prefill and decode.
# Latencies are tracked at p75 in every workload: on a shared host, phases in
# which the same work runs 25-40% faster pull the lower half of the samples
# down, and over ten seeds the p75 figures spread about a third as much as
# the medians. The medians stay in the report.
PROMPT_LENGTHS = (64, 128, 192, 256, 320, 384)
NEW_TOKENS = 32

COMPACT_TOL = 1e-6   # overlay vs compacted logits, as `ssmprune prune` checks
DECODE_TOL = 1e-5    # decode vs batch forward, as test_decode_matches_batch


def threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Infinity-norm error relative to the peak of |want| (floor 1e-8)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-8))


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _probe(vocab: int) -> np.ndarray:
    return np.random.default_rng(0).integers(0, vocab, size=(2, 32))


class StampedCal(CalibrationSet):
    """Calibration set that records when each perplexity starts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stamps: List[float] = []

    def ppl(self, model) -> float:
        self.stamps.append(time.perf_counter())  # list.append is atomic
        return super().ppl(model)


class StampedCorpus(Corpus):
    """Corpus that records when each training batch is drawn."""

    stamps: List[float]

    def batch(self, *args, **kwargs):
        self.stamps.append(time.perf_counter())
        return super().batch(*args, **kwargs)


class Workload:
    name = ""
    unit = ""  # one unit of work: the traced run reports each layer per unit

    def __init__(self, seed: int, scratch: str, tracer=None):
        self.seed = seed
        self.scratch = scratch
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}" if detail else what)

    @contextlib.contextmanager
    def checking(self):
        """Pause tracing while outputs are checked."""
        was = self.tracer.enabled if self.tracer else False
        if self.tracer:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.enabled = was

    def setup(self) -> None:
        raise NotImplementedError

    def setup_checks(self) -> None:
        """Checks on what setup() built; run once, after the last set-up."""

    def request(self, i: int) -> None:
        raise NotImplementedError

    def metrics(self) -> Dict[str, dict]:
        """Named end-to-end metrics, each {"value", "unit"} plus notes."""
        raise NotImplementedError

    def raw(self) -> Dict[str, list]:
        """Every timing sample behind the medians and tails."""
        raise NotImplementedError

    def digest(self) -> Dict[str, Optional[str]]:
        """Digests of outputs that must match byte for byte across commits."""
        raise NotImplementedError

    def tracked(self, named: Dict[str, dict]) -> Dict[str, float]:
        """The workload's values of the end-to-end metrics every workload
        reports: work_per_s and op_ms_p75."""
        raise NotImplementedError

    def units(self) -> int:
        """How many units of work the requests completed."""
        raise NotImplementedError


def _metric(value, unit: str, **notes) -> dict:
    return {"value": value, "unit": unit, **notes}


def _tail_metric(samples: List[float], unit: str) -> dict:
    t = stats.tail(samples)
    if t is None:
        return _metric(None, unit, samples=len(samples),
                       note=f"{len(samples)} samples: too few for a tail with "
                            f"{stats.TAIL_MIN_BEYOND} beyond it")
    return _metric(t["value"], unit, percentile=t["percentile"],
                   samples=t["samples"], beyond=t["beyond"])


class GreedyPrune(Workload):
    """`run_schedule` over calibration windows with the threaded scorer,
    then `compact()`; one request is the whole schedule on a fresh clone."""

    name = "greedy-prune"
    unit = "candidate"

    def setup(self) -> None:
        self.model = Model.build(toy_descriptor(), self.seed)
        self.cal = StampedCal(Corpus.bundled(), CAL_WINDOWS, CAL_LENGTH, CAL_BATCH)
        self.dense_ppl = self.cal.ppl(self.model)  # warms the forward path
        self.search_s: List[float] = []
        self.candidates = 0
        self.iter_s: List[float] = []
        self.final_ppl: Optional[float] = None
        self.digests: Optional[dict] = None

    def request(self, i: int) -> None:
        work = self.model.clone()
        self.cal.stamps.clear()
        t0 = time.perf_counter()
        summary = pruning.run_schedule(work, SCHEDULE, self.cal, out_dir=self.scratch,
                                       threads=threads(), emit_trace=True)
        self.search_s.append(time.perf_counter() - t0)
        compacted = work.compact()
        with self.checking():
            per_iter = [sum(1 for r in summary["trace"] if r["iter"] == it)
                        for it in range(len(summary["plan"]))]
            starts = sorted(self.cal.stamps)
            counted = len(starts) == sum(per_iter) + 1
            self.check("one perplexity per candidate plus the final one", counted,
                       f"{len(starts)} perplexities, {sum(per_iter)} candidates")
            k = 0
            for n in per_iter if counted else ():
                self.iter_s.append(starts[k + n] - starts[k])
                k += n
            self.candidates += sum(per_iter)
            self.check("schedule ran every stage to its step count",
                       not summary["truncated"], json.dumps(summary["stages"]))
            digests = {f: sha256_file(os.path.join(self.scratch, f))
                       for f in ("plan.jsonl", "trace.jsonl")}
            if self.digests is None:
                self.digests = digests
            self.check("plan.jsonl and trace.jsonl match the first request",
                       digests == self.digests, json.dumps(digests))
            probe = _probe(work.desc.vocab)
            diff = float(np.max(np.abs(compacted.forward(probe).data
                                       - work.forward(probe).data)))
            self.check("compacted logits match the overlay", diff <= COMPACT_TOL,
                       f"max abs diff {diff:.3g}")
            fresh = Model.build(toy_descriptor(), self.seed)
            pruning.replay_plan(fresh, summary["plan"])
            replayed = self.cal.ppl(fresh)
            self.check("replay_plan reproduces final_cal_ppl exactly",
                       replayed == summary["final_cal_ppl"],
                       f"{replayed!r} vs {summary['final_cal_ppl']!r}")
            if self.final_ppl is None:
                self.final_ppl = summary["final_cal_ppl"]

    def metrics(self) -> Dict[str, dict]:
        return {
            "prune.candidates_per_s": _metric(self.candidates / sum(self.search_s),
                                              "candidates/s"),
            "prune.iter_s_p50": _metric(statistics.median(self.iter_s), "s",
                                        samples=len(self.iter_s)),
            "prune.iter_s_p75": _metric(stats.nearest_rank(self.iter_s, 750), "s",
                                        samples=len(self.iter_s)),
            "prune.final_cal_ppl": _metric(self.final_ppl, "ppl"),
            "prune.dense_cal_ppl": _metric(self.dense_ppl, "ppl"),
            "prune.schedules": _metric(len(self.search_s), "count"),
            "prune.threads": _metric(threads(), "count"),
        }

    def digest(self) -> dict:
        return dict(self.digests or {})

    def raw(self):
        return {"search_s": self.search_s, "iter_s": self.iter_s}

    def tracked(self, named):
        return {"work_per_s": named["prune.candidates_per_s"]["value"],
                "op_ms_p75": 1000 * named["prune.iter_s_p75"]["value"]}

    def units(self):
        return self.candidates


class TrainStep(Workload):
    """Adam steps through `training.train` on the train split; one request
    is STEPS_PER_REQUEST steps on a fresh clone of the untrained model."""

    name = "train-step"
    unit = "step"

    def setup(self) -> None:
        self.corpus = StampedCorpus.bundled()
        self.corpus.stamps = []
        self.model = Model.build(toy_descriptor(), self.seed)
        self.cfg = TrainConfig(steps=STEPS_PER_REQUEST, batch_size=TRAIN_BATCH,
                               seq_len=TRAIN_SEQ, seed=self.seed)
        self.train_s: List[float] = []
        self.step_s: List[float] = []
        self.losses: Optional[List[float]] = None
        self.loss_digest: Optional[str] = None

    def request(self, i: int) -> None:
        work = self.model.clone()
        self.corpus.stamps = []
        t0 = time.perf_counter()
        rows = training.train(work, self.corpus, self.cfg)
        t1 = time.perf_counter()
        self.train_s.append(t1 - t0)
        with self.checking():
            marks = self.corpus.stamps + [t1]
            self.step_s.extend(b - a for a, b in zip(marks, marks[1:]))
            for r in rows:
                self.check(f"loss and grad norm finite at step {r['step']}",
                           math.isfinite(r["loss"]) and math.isfinite(r["grad_norm"]),
                           f"loss {r['loss']!r}, grad norm {r['grad_norm']!r}")
            seq = [[r["loss"], r["grad_norm"]] for r in rows]
            digest = hashlib.sha256(json.dumps(seq).encode()).hexdigest()
            if self.loss_digest is None:
                self.loss_digest, self.losses = digest, [r["loss"] for r in rows]
            self.check("loss sequence matches the first request",
                       digest == self.loss_digest, digest)

    def metrics(self) -> Dict[str, dict]:
        steps = len(self.step_s)
        return {
            "train.tokens_per_s": _metric(steps * TRAIN_BATCH * TRAIN_SEQ / sum(self.train_s),
                                          "tok/s"),
            "train.step_s_p50": _metric(statistics.median(self.step_s), "s", samples=steps),
            "train.step_s_p75": _metric(stats.nearest_rank(self.step_s, 750), "s",
                                        samples=steps),
            "train.step_s_tail": _tail_metric(self.step_s, "s"),
            "train.final_loss": _metric(self.losses[-1], "nats",
                                        after_steps=STEPS_PER_REQUEST),
        }

    def digest(self) -> dict:
        return {"loss_sequence": self.loss_digest}

    def raw(self):
        return {"train_s": self.train_s, "step_s": self.step_s}

    def tracked(self, named):
        return {"work_per_s": named["train.tokens_per_s"]["value"],
                "op_ms_p75": 1000 * named["train.step_s_p75"]["value"]}

    def units(self):
        return len(self.step_s)


class Generate(Workload):
    """Batch-1 requests: a seeded prompt, prefill, then NEW_TOKENS greedy
    decode steps. Requests alternate dense and compacted-pruned, both on the
    same prompt."""

    name = "generate"
    unit = "request"

    def setup(self) -> None:
        self.dense = Model.build(toy_descriptor(), self.seed)
        overlay = self.dense.clone()
        pruning.replay_plan(overlay, PRUNED_PLAN)
        compacted = overlay.compact()
        path = os.path.join(self.scratch, "pruned.ckpt")
        M.save_model(compacted, path)
        self.pruned, _ = M.load_model(path)
        self.ckpt_bytes = os.path.getsize(path)
        self.ckpt_digest = sha256_file(path)
        self.overlay, self.compacted = overlay, compacted
        self.rng = np.random.default_rng(self.seed)
        self.lengths: List[int] = []
        self.prompt: Optional[np.ndarray] = None
        # prefill seconds by prompt length, per side
        self.prefill: Dict[str, Dict[int, List[float]]] = {"dense": {}, "pruned": {}}
        self.decode_ms: Dict[str, List[float]] = {"dense": [], "pruned": []}
        self.tokens = hashlib.sha256()

    def setup_checks(self) -> None:
        probe = _probe(self.dense.desc.vocab)
        want = self.overlay.forward(probe).data
        diff = float(np.max(np.abs(self.compacted.forward(probe).data - want)))
        self.check("compacted logits match the overlay", diff <= COMPACT_TOL,
                   f"max abs diff {diff:.3g}")
        self.check("checkpoint round trip is bit-identical",
                   np.array_equal(self.pruned.forward(probe).data,
                                  self.compacted.forward(probe).data))
        self.overlay = self.compacted = None

    def request(self, i: int) -> None:
        side = "dense" if i % 2 == 0 else "pruned"
        model = self.dense if side == "dense" else self.pruned
        if side == "dense":
            if not self.lengths:
                self.lengths = [int(n) for n in self.rng.permutation(PROMPT_LENGTHS)]
            n = self.lengths.pop()
            self.prompt = self.rng.integers(0, model.desc.vocab, size=(1, n))
        prompt = self.prompt
        n = prompt.shape[1]
        sess = DecodeSession(model, capacity_hint=n + NEW_TOKENS + 1)
        t0 = time.perf_counter()
        logits = sess.prefill(prompt)
        self.prefill[side].setdefault(n, []).append(time.perf_counter() - t0)
        outs = [logits]
        fed = []
        for _ in range(NEW_TOKENS):
            nxt = logits.argmax(axis=-1)
            fed.append(nxt)
            t0 = time.perf_counter()
            logits = sess.step(nxt)
            self.decode_ms[side].append(1000 * (time.perf_counter() - t0))
            outs.append(logits)
        with self.checking():
            seq = np.concatenate([prompt, np.stack(fed, axis=1)], axis=1)
            if i < 2:  # the first pair, so runs of any length compare
                self.tokens.update(seq.astype("<i8").tobytes())
            full = model.forward(seq).data[:, n - 1:]
            err = max(rel_err(o, full[:, k]) for k, o in enumerate(outs))
            self.check(f"{side} decode matches the batch forward", err < DECODE_TOL,
                       f"relative error {err:.3g} on a {n}-token prompt")

    def metrics(self) -> Dict[str, dict]:
        def rate(side):
            # one pass over the length spread, each length at its p75 time
            by_len = self.prefill[side]
            return sum(by_len) / sum(stats.nearest_rank(t, 750) for t in by_len.values())

        per_len = "each prompt length at its p75 prefill time"
        dense, pruned = self.decode_ms["dense"], self.decode_ms["pruned"]
        return {
            "prefill.tokens_per_s": _metric(rate("dense"), "tok/s", statistic=per_len),
            "prefill.pruned_tokens_per_s": _metric(rate("pruned"), "tok/s",
                                                   statistic=per_len),
            "decode.ms_per_token_p50": _metric(statistics.median(dense), "ms",
                                               samples=len(dense)),
            "decode.ms_per_token_p75": _metric(stats.nearest_rank(dense, 750), "ms",
                                               samples=len(dense)),
            "decode.ms_per_token_tail": _tail_metric(dense, "ms"),
            "decode.pruned_ms_per_token_p50": _metric(statistics.median(pruned), "ms",
                                                      samples=len(pruned)),
            "decode.pruned_ms_per_token_tail": _tail_metric(pruned, "ms"),
            "compact.ckpt_bytes": _metric(self.ckpt_bytes, "bytes"),
        }

    def digest(self) -> dict:
        return {"checkpoint": self.ckpt_digest, "tokens": self.tokens.hexdigest()}

    def raw(self):
        return {"decode_ms": self.decode_ms, "prefill_s": self.prefill}

    def tracked(self, named):
        return {"work_per_s": named["prefill.tokens_per_s"]["value"],
                "op_ms_p75": named["decode.ms_per_token_p75"]["value"]}

    def units(self):
        return sum(len(t) for side in self.prefill.values() for t in side.values())


WORKLOADS = {w.name: w for w in (GreedyPrune, TrainStep, Generate)}
