"""Span tracing from outside the program, for the traced benchmark run.

`Tracer.install()` replaces public functions and methods of the ssmprune
modules with timing wrappers, at every name a caller looks them up by:
`model.py` imports `selective_scan`, `scan_step`, `linear` and `rmsnorm` by
name, `training.py` imports `cross_entropy` and `per_token_nll`, and
`layers.py`/`ssm.py` import `record`, so patching the defining module alone
would miss those calls. `uninstall()` puts every original back. The untraced
run never calls `install()`, so it carries no wrapper at all.

A span is (id, parent, name, start, end, run id, attrs). Parents come from a
per-thread stack; a span opened on a worker thread with an empty stack takes
the open fan-out span (`pruning.score_all`) as its parent, so the scorer
threads' spans hang under the call that spawned them. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ssmprune import layers, model, pruning, ssm, tensor, training


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    name: str
    t0: float
    t1: float
    run: int
    attrs: Optional[dict]


# Backward closures are keyed by the function that recorded them.
BWD_OPS = ("linear", "rmsnorm", "conv", "attention", "scan", "embedding",
           "cross_entropy", "elementwise")
_RECORDER_OP = {"linear": "linear", "rmsnorm": "rmsnorm", "causal_conv1d": "conv",
                "attention": "attention", "selective_scan": "scan",
                "embedding": "embedding", "cross_entropy": "cross_entropy"}
# tensor.py primitives (add, mul, silu, neg, exp, softplus, tsum, matmul)
# all count as "elementwise"; the model records no bare matmul.


# ---------------------------------------------------------------------------
# computed counts


def linear_work(x_shape: Sequence[int], w_shape: Sequence[int]) -> Tuple[int, int]:
    """(flops, cast bytes) of one `layers.linear` call.

    flops = 2*M*K*N for x (..., K) against weight (N, K), M the product of
    the leading dims. Cast bytes = 8*N*K, the float64 copy of the float32
    weight that every call makes.
    """
    n, k = int(w_shape[0]), int(w_shape[1])
    m = 1
    for d in x_shape[:-1]:
        m *= int(d)
    return 2 * m * k * n, 8 * n * k


def scan_state_bytes(x_shape: Sequence[int], n_state: int) -> int:
    """Bytes of the float32 per-token state buffer (B, T, c, N) that one
    `selective_scan` call stores."""
    b, t, c = (int(d) for d in x_shape)
    return 4 * b * t * c * int(n_state)


def block_forwards(alive: Sequence[bool], kind: str, block: int,
                   batches: int) -> Tuple[int, int]:
    """(run, needed) block forwards of scoring one candidate.

    `alive` holds the block flags of the model under search, before the
    candidate is applied. Scoring runs every block alive in the trial model;
    a candidate only needs the blocks alive at or after its own block, since
    the ones before it see unchanged inputs. Both are counted per
    calibration batch.
    """
    trial = list(alive)
    if kind in ("mamba_block", "transformer_block"):
        trial[block] = False
    run = sum(trial)
    needed = sum(trial[block:])
    return run * batches, needed * batches


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of its interval covered by its
    own children. Children that overlap (two scorer threads under one
    fan-out) are merged first, so they are not subtracted twice."""
    spans = list(spans)
    kids: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        end = s.t0
        for c in sorted(kids.get(s.sid, ()), key=lambda c: c.t0):
            lo, hi = max(c.t0, end), min(c.t1, s.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s.sid] = (s.t1 - s.t0) - covered
    return out


def _has_ancestor(s: Span, name: str, by_id: Dict[int, Span]) -> bool:
    p = s.parent
    while p is not None:
        a = by_id.get(p)
        if a is None:
            return False
        if a.name == name:
            return True
        p = a.parent
    return False


def _parent_name(s: Span, by_id: Dict[int, Span]) -> Optional[str]:
    p = by_id.get(s.parent) if s.parent is not None else None
    return p.name if p is not None else None


# Ratios already independent of how much work the spans cover.
INTENSIVE = ("pruning.parallel_eff", "pruning.useful_ratio", "tensor.nodes")


def layer_metrics(spans: Sequence[Span], threads: int, units: int) -> Dict[str, float]:
    """Every per-layer metric from a set of spans that did `units` units of
    the workload's work (candidates, steps, requests). Times, calls and
    computed counts are per unit, so a run that fits more work into its
    seconds reads the same; the INTENSIVE ratios are left as they are.
    Layers a workload never calls read 0."""
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    attr: Dict[str, float] = defaultdict(float)
    by_id = {s.sid: s for s in spans}
    for s in spans:
        total[s.name] += s.t1 - s.t0
        calls[s.name] += 1
        if s.attrs:
            for k, v in s.attrs.items():
                attr[k] += v
    selfs = self_times(spans)
    backward_self = sum(selfs[s.sid] for s in spans if s.name == "tensor.backward")
    train_fwd = sum((s.t1 - s.t0 for s in spans
                     if s.name in ("model.forward", "layers.cross_entropy")
                     and _parent_name(s, by_id) == "training.train"), 0.0)
    run_fwd = sum(1 for s in spans
                  if s.name in ("model.mamba_block", "model.transformer_block")
                  and _has_ancestor(s, "pruning.score_candidate", by_id))
    search = total["pruning.run_schedule"]
    m = {
        "pruning.candidates": calls["pruning.score_candidate"],
        "pruning.score_s": total["pruning.score_candidate"],
        "pruning.cal_ppl_s": total["pruning.cal_ppl"],
        "pruning.clone_s": sum((s.t1 - s.t0 for s in spans if s.name == "model.clone"
                                and _parent_name(s, by_id) == "pruning.score_candidate"),
                               0.0),
        "pruning.pool_wait_s": attr["pool_wait_s"],
        "pruning.parallel_eff": (total["pruning.score_candidate"] / (search * threads)
                                 if search else 0.0),
        "pruning.block_forwards": run_fwd,
        "pruning.block_forwards_needed": attr["block_forwards_needed"],
        "pruning.useful_ratio": (attr["block_forwards_needed"] / run_fwd
                                 if run_fwd else 0.0),
        "model.forward_s": total["model.forward"],
        "model.forward_calls": calls["model.forward"],
        "model.mamba_block_s": total["model.mamba_block"],
        "model.transformer_block_s": total["model.transformer_block"],
        "model.head_s": total["model.head"],
        "model.prefill_s": total["model.prefill"],
        "model.step_s": total["model.step"],
        "model.mamba_decode_s": total["model.mamba_decode"],
        "model.transformer_decode_s": total["model.transformer_decode"],
        "model.compact_s": total["model.compact"],
        "model.save_s": total["model.save"],
        "model.load_s": total["model.load"],
        "layers.linear_s": total["layers.linear"],
        "layers.linear_calls": calls["layers.linear"],
        "layers.linear_flops": attr["linear_flops"],
        "layers.linear_cast_bytes": attr["linear_cast_bytes"],
        "layers.rmsnorm_s": total["layers.rmsnorm"],
        "layers.conv_s": total["layers.conv"],
        "layers.attention_s": total["layers.attention"],
        "layers.embedding_s": total["layers.embedding"],
        "layers.cross_entropy_s": total["layers.cross_entropy"],
        "layers.per_token_nll_s": total["layers.per_token_nll"],
        "ssm.scan_s": total["ssm.scan"],
        "ssm.scan_calls": calls["ssm.scan"],
        "ssm.state_bytes": attr["state_bytes"],
        "ssm.scan_bwd_s": total["tensor.bwd.scan"],
        "ssm.scan_step_s": total["ssm.scan_step"],
        "tensor.nodes": (attr["nodes"] / calls["tensor.backward"]
                         if calls["tensor.backward"] else 0.0),
        "tensor.backward_s": total["tensor.backward"],
        "tensor.tape_self_s": backward_self,
        "tensor.elementwise_s": total["tensor.elementwise"],
        "training.batch_s": total["training.batch"],
        "training.forward_s": train_fwd,
        "training.clip_s": total["training.clip"],
        "training.adam_s": total["training.adam"],
        "trace.spans": len(spans),
    }
    for op in BWD_OPS:
        m[f"tensor.bwd_s.{op}"] = total[f"tensor.bwd.{op}"]
    return {k: v if k in INTENSIVE else v / units for k, v in m.items()}


def metric_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ms_p75"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith(("_eff", "_ratio")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# the tracer


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.enabled = False
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fanout: Optional[Tuple[int, float]] = None  # (span id, start)
        self._patched: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, fn: Callable, name: str,
             attrs: Optional[Callable[..., dict]] = None,
             fanout: bool = False) -> Callable:
        """`fn` recording one span per call while the tracer is enabled.
        `attrs` sees the call's arguments and returns counts to attach; it
        runs before the clock starts. A `fanout` span stays open as the
        parent of spans that worker threads open with empty stacks."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._fanout or (None,))[0]
            sid = next(tracer._ids)
            extra = attrs(*args, **kwargs) if attrs is not None else None
            stack.append(sid)
            t0 = time.perf_counter()
            if fanout:
                tracer._fanout = (sid, t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if fanout:
                    tracer._fanout = None
                stack.pop()
                tracer.spans.append(Span(sid, parent, name, t0, t1, tracer.run, extra))

        return traced

    def _patch(self, owner: object, attr: str, name: str,
               attrs: Optional[Callable[..., dict]] = None,
               fn: Optional[Callable] = None, fanout: bool = False) -> None:
        orig = owner.__dict__[attr]
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(orig if fn is None else fn, name, attrs, fanout))

    def install(self) -> None:
        """Patch every traced name. Call once; `uninstall` restores."""
        p = self._patch

        def lin(x, weight, bias=None):
            flops, cast = linear_work(x.data.shape, weight.data.shape)
            return {"linear_flops": flops, "linear_cast_bytes": cast}

        def scan(x, params):
            return {"state_bytes": scan_state_bytes(x.data.shape, params.n_state)}

        def nodes(graph, loss):
            return {"nodes": len(graph)}

        def candidate(m, cand, cal):
            wait = time.perf_counter() - self._fanout[1] if self._fanout else 0.0
            batches = -(-cal.tokens.shape[0] // cal.batch_size)
            _, needed = block_forwards([b.alive for b in m.blocks], cand.kind,
                                       cand.block, batches)
            return {"pool_wait_s": wait, "block_forwards_needed": needed}

        # layers, at the defining module first so later wrappers nest on top
        p(layers, "linear", "layers.linear", lin)
        p(layers, "rmsnorm", "layers.rmsnorm")
        p(layers, "causal_conv1d", "layers.conv")
        p(layers, "attention", "layers.attention")
        p(layers, "embedding", "layers.embedding")
        ce, nll = layers.cross_entropy, layers.per_token_nll
        for mod in (layers, training):
            p(mod, "cross_entropy", "layers.cross_entropy", fn=ce)
            p(mod, "per_token_nll", "layers.per_token_nll", fn=nll)
        # model.py's own `linear`/`rmsnorm` names serve only the lm head; they
        # wrap the traced layer functions, so head spans nest layer spans
        p(model, "linear", "model.head", fn=layers.linear)
        p(model, "rmsnorm", "model.head", fn=layers.rmsnorm)
        # ssm
        sel, step = ssm.selective_scan, ssm.scan_step
        for mod in (ssm, model):
            p(mod, "selective_scan", "ssm.scan", scan, fn=sel)
            p(mod, "scan_step", "ssm.scan_step", fn=step)
        # tensor
        for op in ("add", "mul", "silu"):
            p(tensor, op, "tensor.elementwise")
        p(tensor.Graph, "backward", "tensor.backward", nodes)
        orig_record = tensor.record

        def record(out, inputs, bwd):
            if self.enabled and tensor.active_graph() is not None:
                op = _RECORDER_OP.get(sys._getframe(1).f_code.co_name, "elementwise")
                bwd = self.wrap(bwd, f"tensor.bwd.{op}")
            return orig_record(out, inputs, bwd)

        for mod in (tensor, layers, ssm):
            self._patched.append((mod, "record", mod.__dict__["record"]))
            mod.record = record
        # model
        p(model.Model, "forward", "model.forward")
        p(model.Model, "clone", "model.clone")
        p(model.Model, "compact", "model.compact")
        p(model.MambaBlock, "forward", "model.mamba_block")
        p(model.TransformerBlock, "forward", "model.transformer_block")
        p(model.MambaBlock, "decode_step", "model.mamba_decode")
        p(model.TransformerBlock, "decode_step", "model.transformer_decode")
        p(model.DecodeSession, "prefill", "model.prefill")
        p(model.DecodeSession, "step", "model.step")
        p(model, "save_model", "model.save")
        p(model, "load_model", "model.load")
        # pruning
        p(pruning, "run_schedule", "pruning.run_schedule")
        p(pruning, "score_candidate", "pruning.score_candidate", candidate)
        p(pruning.CalibrationSet, "ppl", "pruning.cal_ppl")
        p(pruning, "score_all", "pruning.score_all", fanout=True)
        # training
        p(training, "train", "training.train")
        p(training.Corpus, "batch", "training.batch")
        p(training, "clip_gradients", "training.clip")
        p(training.Adam, "step", "training.adam")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s._asdict(), separators=(",", ":")) + "\n")
