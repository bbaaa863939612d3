"""Variant sensitivity study: curve files and replay-prefix PPLs."""

import json
import os
from dataclasses import replace

import pytest

from ssmprune.errors import ConfigError
from ssmprune.model import Model, toy_descriptor
from ssmprune.pruning import CalibrationSet, replay_plan
from ssmprune.study import (CURVE_COLUMNS, StudyConfig, read_curves_csv,
                            study_sensitivity, write_curves_csv)
from ssmprune.training import Corpus, TrainConfig, train

TINY_TRAIN = TrainConfig(steps=25, batch_size=4, seq_len=48, warmup=5)


def tiny_cfg(**kw):
    base = dict(n_blocks=4, d_model=32, d_state=8, removals=2,
                cal_count=4, cal_length=48, train=TINY_TRAIN)
    base.update(kw)
    return StudyConfig(**base)


@pytest.fixture(scope="module")
def study_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("study"))
    summary = study_sensitivity(Corpus.bundled(), tiny_cfg(), out_dir=out, seed=0)
    return out, summary


def test_removals_bounds_checked():
    with pytest.raises(ConfigError, match="removals"):
        tiny_cfg(removals=4)
    with pytest.raises(ConfigError, match="removals"):
        tiny_cfg(removals=0)
    tiny_cfg(removals=3)  # n_blocks - 1 is the last legal value


def test_curves_csv_schema(study_run):
    out, _ = study_run
    path = os.path.join(out, "curves.csv")
    assert open(path).readline().strip() == ",".join(CURVE_COLUMNS)
    curves = read_curves_csv(path)
    kinds = {r["kind"] for r in curves}
    assert kinds == {"mamba1:block", "mamba1:ssm",
                     "mamba2:block", "mamba2:ssm"}
    for kind in kinds:
        pts = sorted((r for r in curves if r["kind"] == kind),
                     key=lambda r: r["steps"])
        assert [r["steps"] for r in pts] == [0, 1, 2]
        assert pts[0]["ratio"] == 0.0
        ratios = [r["ratio"] for r in pts]
        assert ratios == sorted(ratios)
        assert all(r["PPL"] > 0 for r in pts)


def test_zero_point_is_dense_ppl(study_run):
    """The x = 0 row of each curve is the untouched model's cal PPL."""
    _, summary = study_run
    by = {(r["kind"], r["steps"]): r["PPL"] for r in summary["curves"]}
    for run in summary["runs"]:
        label = f"{run['variant']}:{run['curve']}"
        assert by[(label, 0)] == pytest.approx(run["dense_ppl"], rel=1e-12)


def test_summary_ordering_reported_not_asserted(study_run):
    out, summary = study_run
    ordering = summary["ordering"]
    assert set(ordering["degradation"]) == {
        "mamba1:block", "mamba1:ssm", "mamba2:block", "mamba2:ssm"}
    assert isinstance(ordering["mamba1_more_block_tolerant"], bool)
    assert isinstance(ordering["mamba2_more_ssm_tolerant"], bool)
    with open(os.path.join(out, "study_summary.json")) as f:
        disk = json.load(f)
    assert disk["ordering"]["degradation"] == pytest.approx(
        ordering["degradation"])
    assert disk["seeds"] == [0]


def test_curve_point_equals_replayed_prefix(study_run):
    """The PPL at step t is what you get by replaying the first t removals
    on a fresh copy of the same trained model. Rebuild from the recorded
    seed and check the longest prefix for one variant."""
    _, summary = study_run
    cfg = tiny_cfg()
    run = next(r for r in summary["runs"]
               if r["variant"] == "mamba1" and r["curve"] == "block")
    desc = toy_descriptor(n_blocks=cfg.n_blocks, variant="mamba1",
                          transformer_at=(), d_model=cfg.d_model,
                          d_state=cfg.d_state)
    model = Model.build(desc, run["seed"])
    corpus = Corpus.bundled()
    train(model, corpus, replace(cfg.train, seed=run["seed"]))
    cal = CalibrationSet(corpus, cfg.cal_count, cfg.cal_length)
    by = {(r["kind"], r["steps"]): r["PPL"] for r in summary["curves"]}
    for t in (1, 2):
        work = model.clone()
        replay_plan(work, run["plan"][:t])
        assert cal.ppl(work) == by[("mamba1:block", t)]


def test_curves_csv_round_trip(tmp_path):
    rows = [
        {"kind": "mamba1:block", "steps": 0, "PPL": 21.5, "ratio": 0.0},
        {"kind": "mamba1:block", "steps": 1, "PPL": 25.25, "ratio": 0.125},
    ]
    path = str(tmp_path / "curves.csv")
    write_curves_csv(path, rows)
    back = read_curves_csv(path)
    assert back == [pytest.approx(r) for r in rows]
