"""Prefill and decode throughput measurement, dense vs pruned.

Each batch runs one decode session per model and times the session's
prefill of the prompt, then its token-by-token cached steps (decode,
prefill excluded). Medians over the timed batches give the headline
numbers; every raw timing is kept so any emitted speedup can be
recomputed from the same report. The report also records the environment
it was measured in, so two reports can be compared.
"""

from __future__ import annotations

import csv
import math
import os
import platform
import statistics
import subprocess
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import THREAD_PINS
from .errors import ConfigError
from .model import DecodeSession, Model

# (max - min) / median of any timing series above this flags a report unstable
UNSTABLE_SPREAD = 0.25


@dataclass
class BenchConfig:
    """Defaults follow the desk-scale methodology: prompt 512, 16 new
    tokens, batch size 1, medians over 10 timed batches."""

    prompt: int = 512
    new_tokens: int = 16
    batches: int = 10
    warmup: int = 2

    def validate(self) -> None:
        for name in ("prompt", "new_tokens", "batches"):
            if getattr(self, name) < 1:
                raise ConfigError(f"bench {name} must be positive")
        if self.warmup < 0:
            raise ConfigError("bench warmup must be nonnegative")


@dataclass
class BenchReport:
    """Raw per-batch seconds plus the medians and ratios derived from them."""

    prompt: int
    new_tokens: int
    batches: int
    raw: Dict[str, List[float]]          # "dense.prefill" etc -> seconds
    medians: Dict[str, float]            # same keys -> median seconds
    throughput: Dict[str, float]         # same keys -> tokens per second
    prefill_speedup: float
    decode_speedup: float
    unstable: bool
    spreads: Dict[str, float]
    plan_summary: Optional[dict] = None
    ppl_before: Optional[float] = None
    ppl_after: Optional[float] = None
    environment: Optional[dict] = None   # see `environment()`

    def to_dict(self) -> dict:
        return asdict(self)


def _git_revision() -> Optional[str]:
    """HEAD of the git checkout holding this package, or None outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             cwd=os.path.dirname(os.path.abspath(__file__)),
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    """What a timing depends on besides the code: interpreter, numpy and its
    BLAS, the thread pins, the CPUs, and the git revision."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_pins": {v: os.environ.get(v) for v in THREAD_PINS},
        "cpu_count": os.cpu_count(),
        "affinity_count": (len(os.sched_getaffinity(0))
                           if hasattr(os, "sched_getaffinity") else None),
        "git_revision": _git_revision(),
    }


_SERIES = ("dense.prefill", "dense.decode", "pruned.prefill", "pruned.decode")


def _time(model: Model, tokens: np.ndarray, new_tokens: int) -> Tuple[float, float]:
    """(prefill, decode) seconds of one decode session: its prefill of
    tokens, then new_tokens cached steps."""
    session = DecodeSession(model, capacity_hint=tokens.shape[1] + new_tokens + 1)
    t0 = time.perf_counter()
    nxt = session.prefill(tokens).argmax(axis=-1)
    t1 = time.perf_counter()
    for _ in range(new_tokens):
        nxt = session.step(nxt).argmax(axis=-1)
    return t1 - t0, time.perf_counter() - t1


def _spread(series: List[float]) -> float:
    med = statistics.median(series)
    return (max(series) - min(series)) / med if med > 0 else math.inf


def bench(dense: Model, pruned: Model, cfg: BenchConfig, seed: int = 0,
          plan_summary: Optional[dict] = None,
          ppl_before: Optional[float] = None,
          ppl_after: Optional[float] = None) -> BenchReport:
    """Time both models on the same random prompt, batch size 1.

    The pruned model should be physically compacted; a bypass overlay would
    time dead-structure dispatch instead of real savings. Warmup batches run
    first and are discarded. If any timing series has (max - min) / median
    above UNSTABLE_SPREAD the report is flagged unstable but still
    returned in full.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    vocab = dense.desc.vocab
    tokens = rng.integers(0, vocab, size=(1, cfg.prompt))
    raw: Dict[str, List[float]] = {k: [] for k in _SERIES}
    for i in range(cfg.warmup + cfg.batches):
        keep = i >= cfg.warmup
        for name, model in (("dense", dense), ("pruned", pruned)):
            tp, td = _time(model, tokens, cfg.new_tokens)
            if keep:
                raw[f"{name}.prefill"].append(tp)
                raw[f"{name}.decode"].append(td)
    medians = {k: statistics.median(v) for k, v in raw.items()}
    spreads = {k: _spread(v) for k, v in raw.items()}
    work = {"prefill": cfg.prompt, "decode": cfg.new_tokens}
    throughput = {k: work[k.split(".")[1]] / medians[k] for k in _SERIES}
    return BenchReport(
        prompt=cfg.prompt, new_tokens=cfg.new_tokens, batches=cfg.batches,
        raw=raw, medians=medians, throughput=throughput,
        prefill_speedup=medians["dense.prefill"] / medians["pruned.prefill"],
        decode_speedup=medians["dense.decode"] / medians["pruned.decode"],
        unstable=any(s > UNSTABLE_SPREAD for s in spreads.values()),
        spreads=spreads, plan_summary=plan_summary,
        ppl_before=ppl_before, ppl_after=ppl_after, environment=environment(),
    )


def write_bench_csv(path: str, report: BenchReport) -> None:
    """Raw rows first (one per timed batch), then the median rows."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["model", "phase", "batch", "seconds", "tokens_per_s"])
        for key in _SERIES:
            model, phase = key.split(".")
            work = report.prompt if phase == "prefill" else report.new_tokens
            for b, sec in enumerate(report.raw[key]):
                w.writerow([model, phase, b, f"{sec:.9f}", f"{work / sec:.3f}"])
        for key in _SERIES:
            model, phase = key.split(".")
            w.writerow([model, phase, "median", f"{report.medians[key]:.9f}",
                        f"{report.throughput[key]:.3f}"])

