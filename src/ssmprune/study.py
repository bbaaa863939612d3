"""Variant sensitivity study: whole-block removal versus scan-module removal.

Trains matched pure stacks of both scan variants (same width, state size,
depth, data, steps, seed), then runs two greedy removal curves per model:
one over whole blocks, one over the scan modules inside them. Each curve
point is the calibration perplexity after t removals, which by construction
equals the score of the t-th applied action, so a curve can be audited by
replaying the plan prefix.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from .errors import ConfigError, read_text
from .model import Model, toy_descriptor
from .pruning import CalibrationSet, run_schedule
from .training import Corpus, TrainConfig, train

CURVE_COLUMNS = ("kind", "steps", "PPL", "ratio")

_VARIANTS = ("mamba1", "mamba2")
_CURVES = (("block", "mamba_block"), ("ssm", "ssm"))


@dataclass
class StudyConfig:
    n_blocks: int = 8
    d_model: int = 64
    d_state: int = 16
    removals: int = 6
    cal_count: int = 24
    cal_length: int = 96
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(steps=500, warmup=40))

    def __post_init__(self):
        if not 1 <= self.removals < self.n_blocks:
            raise ConfigError(
                f"removals must lie in [1, n_blocks), got {self.removals} "
                f"of {self.n_blocks}")


def _curve_rows(label: str, dense_ppl: float, plan: Sequence[dict]) -> List[dict]:
    rows = [{"kind": label, "steps": 0, "PPL": dense_ppl, "ratio": 0.0}]
    for t, action in enumerate(plan, start=1):
        rows.append({"kind": label, "steps": t, "PPL": action["score"],
                     "ratio": action["ratio"]})
    return rows


def study_sensitivity(corpus: Corpus, cfg: StudyConfig,
                      out_dir: Optional[str] = None, seed: int = 0,
                      log_every: int = 0) -> dict:
    """Train both variants, prune both ways, and tabulate the curves.

    Whether the large-scale ordering (variant one more tolerant of
    whole-block removal, variant two more tolerant of scan-module removal)
    shows up at this scale is recorded in the summary, not enforced.
    """
    curves: List[dict] = []
    runs: List[dict] = []
    for variant in _VARIANTS:
        desc = toy_descriptor(
            n_blocks=cfg.n_blocks, variant=variant, transformer_at=(),
            d_model=cfg.d_model, d_state=cfg.d_state)
        model = Model.build(desc, seed)
        tcfg = replace(cfg.train, seed=seed)
        train(model, corpus, tcfg, log_every=log_every)
        cal = CalibrationSet(corpus, cfg.cal_count, cfg.cal_length)
        dense_ppl = cal.ppl(model)
        for label, kind in _CURVES:
            work = model.clone()
            out = run_schedule(work, f"{kind}:{cfg.removals}", cal)
            curves += _curve_rows(f"{variant}:{label}", dense_ppl, out["plan"])
            runs.append({"seed": seed, "variant": variant, "curve": label,
                         "plan": out["plan"], "dense_ppl": dense_ppl})
    summary = {"curves": curves, "runs": runs,
               "ordering": _ordering(curves, cfg.removals)}
    if out_dir is not None:
        write_curves_csv(os.path.join(out_dir, "curves.csv"), curves)
        with open(os.path.join(out_dir, "study_summary.json"), "w") as f:
            json.dump({"ordering": summary["ordering"], "seeds": [seed]},
                      f, indent=2, sort_keys=True)
    return summary


def _final_degradation(curves: Sequence[dict], kind: str, t: int) -> float:
    by = {(r["kind"], r["steps"]): r["PPL"] for r in curves}
    return by[(kind, t)] / by[(kind, 0)]


def _ordering(curves: Sequence[dict], removals: int) -> dict:
    """Degradation factors at the last curve point, and whether the
    large-scale ordering holds here. Reported, never asserted."""
    deg = {f"{v}:{lab}": _final_degradation(curves, f"{v}:{lab}", removals)
           for v in _VARIANTS for lab, _ in _CURVES}
    return {
        "degradation": deg,
        "mamba1_more_block_tolerant": deg["mamba1:block"] < deg["mamba2:block"],
        "mamba2_more_ssm_tolerant": deg["mamba2:ssm"] < deg["mamba1:ssm"],
    }


def write_curves_csv(path: str, curves: Sequence[dict]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CURVE_COLUMNS)
        for r in curves:
            w.writerow([r["kind"], r["steps"], f"{r['PPL']:.8g}",
                        f"{r['ratio']:.8g}"])


_CURVE_TYPES = dict(zip(CURVE_COLUMNS, (str, int, float, float)))


def read_curves_csv(path: str) -> List[dict]:
    """The rows of a curves.csv; ConfigError naming the file, line and field
    of a missing or malformed value."""
    out: List[dict] = []
    reader = csv.DictReader(read_text(path).split("\n"))
    for row in reader:
        rec = {}
        for key, conv in _CURVE_TYPES.items():
            raw = row.get(key)
            if raw is None:
                raise ConfigError(f"{path}: line {reader.line_num} lacks {key!r}")
            try:
                rec[key] = conv(raw)
            except ValueError:
                raise ConfigError(
                    f"{path}: line {reader.line_num} has {key} {raw!r}, expected "
                    f"{'an integer' if conv is int else 'a number'}") from None
        out.append(rec)
    return out
