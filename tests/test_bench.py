"""Timing harness: medians over raw batches, speedups, the unstable flag."""

import csv
import json
import os
import platform
import statistics

import numpy as np
import pytest

from ssmprune import THREAD_PINS
from ssmprune import bench as bench_mod
from ssmprune.bench import BenchConfig, bench, write_bench_csv
from ssmprune.errors import ConfigError
from ssmprune.model import DecodeSession, Model, toy_descriptor


def tiny_model(seed=0, n_blocks=4):
    desc = toy_descriptor(n_blocks=n_blocks, transformer_at=(1,),
                          d_model=32, d_state=8, mlp_hidden=48)
    return Model.build(desc, seed)


def small_cfg(**kw):
    base = dict(prompt=64, new_tokens=4, batches=5, warmup=1)
    base.update(kw)
    return BenchConfig(**base)


@pytest.mark.parametrize("kw", [
    {"prompt": 0}, {"new_tokens": 0}, {"batches": 0}, {"warmup": -1},
])
def test_config_validation(kw):
    with pytest.raises(ConfigError, match=f"bench {next(iter(kw))} must be"):
        small_cfg(**kw)


def test_report_shape_and_throughput():
    model = tiny_model()
    cfg = small_cfg()
    rep = bench(model, model, cfg, seed=0)
    assert rep.prompt == 64 and rep.new_tokens == 4 and rep.batches == 5
    for key in ("dense.prefill", "dense.decode",
                "pruned.prefill", "pruned.decode"):
        series = rep.raw[key]
        assert len(series) == cfg.batches
        assert all(s > 0 for s in series)
        assert rep.medians[key] == statistics.median(series)
        work = cfg.prompt if key.endswith("prefill") else cfg.new_tokens
        assert rep.throughput[key] == pytest.approx(work / rep.medians[key])


def test_same_model_speedup_near_one():
    """Dense timed against itself; medians should roughly cancel. A batch
    sums 48 decode tokens and a 256-token prefill (tens of ms each), and the
    medians run over 15 batches, so one host stall of several ms moves one
    batch, not a median."""
    model = tiny_model()
    rep = bench(model, model, small_cfg(prompt=256, new_tokens=48, batches=15), seed=1)
    assert 0.5 <= rep.prefill_speedup <= 2.0
    assert 0.5 <= rep.decode_speedup <= 2.0


def test_fixed_timers_give_exact_speedups(monkeypatch):
    dense, pruned = tiny_model(0), tiny_model(1)
    def fixed(ms, t, n, first):
        assert ms == {"dense": dense, "pruned": pruned}
        return {"dense.prefill": 0.010, "dense.decode": 0.009,
                "pruned.prefill": 0.005, "pruned.decode": 0.003}

    monkeypatch.setattr(bench_mod, "_time", fixed)
    rep = bench(dense, pruned, small_cfg(), seed=0)
    assert rep.prefill_speedup == pytest.approx(2.0)
    assert rep.decode_speedup == pytest.approx(3.0)
    assert rep.unstable is False
    assert all(s == 0.0 for s in rep.spreads.values())


def test_unstable_flag_survives_with_full_report(monkeypatch):
    """A single timing spike flips the flag; the report is still complete."""
    dense, pruned = tiny_model(0), tiny_model(1)
    calls = {"n": 0}

    def spiky(ms, t, n, first):
        calls["n"] += 1
        return {f"{m}.{phase}": 0.100 if (calls["n"], m, phase) == (2, "pruned", "prefill")
                else 0.010 if phase == "prefill" else 0.004
                for m in ms for phase in ("prefill", "decode")}

    monkeypatch.setattr(bench_mod, "_time", spiky)
    rep = bench(dense, pruned, small_cfg(warmup=0), seed=0)
    assert rep.unstable is True
    assert max(rep.spreads.values()) > 0.25
    assert len(rep.raw["dense.prefill"]) == 5
    assert rep.medians["pruned.decode"] == pytest.approx(0.004)


def test_warmup_batches_excluded(monkeypatch):
    """Warmup iterations never reach the recorded series."""
    dense, pruned = tiny_model(0), tiny_model(1)
    seen = []

    def tagging(ms, t, n, first):
        seen.append(len(seen))
        return {f"{m}.{phase}": (1.0 if len(seen) <= 2 else 0.010) if phase == "prefill"
                else 0.004 for m in ms for phase in ("prefill", "decode")}

    monkeypatch.setattr(bench_mod, "_time", tagging)
    rep = bench(dense, pruned, small_cfg(warmup=2, batches=3), seed=0)
    # the two warmup batches, each timing both models, hit the timer first
    assert all(s == 0.010 for s in rep.raw["dense.prefill"])
    assert all(s == 0.010 for s in rep.raw["pruned.prefill"])
    assert rep.unstable is False


def test_bench_csv_round_trip(tmp_path):
    model = tiny_model()
    rep = bench(model, model, small_cfg(batches=4), seed=2)
    path = str(tmp_path / "bench.csv")
    write_bench_csv(path, rep)
    raw = {key: [] for key in rep.raw}
    medians = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            key = f"{row['model']}.{row['phase']}"
            if row["batch"] == "median":
                medians[key] = float(row["seconds"])
            else:
                raw[key].append(float(row["seconds"]))
    for key, series in rep.raw.items():
        assert raw[key] == pytest.approx(series, abs=1e-9)
        assert medians[key] == pytest.approx(rep.medians[key], abs=1e-9)
    header = open(path).readline().strip()
    assert header == "model,phase,batch,seconds,tokens_per_s"


def test_report_to_dict_carries_context():
    model = tiny_model()
    rep = bench(model, model, small_cfg(batches=3), seed=0,
                plan_summary={"schedule": "ssm:1"},
                ppl_before=12.0, ppl_after=13.5)
    d = rep.to_dict()
    assert d["plan_summary"] == {"schedule": "ssm:1"}
    assert d["ppl_before"] == 12.0 and d["ppl_after"] == 13.5
    assert set(d["medians"]) == set(d["raw"]) == set(d["throughput"])
    env = d["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version", "configuration"} and env["blas"]["name"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"]["configuration"] == blas.get("openblas configuration")
    assert env["thread_pins"] == {v: os.environ.get(v) for v in THREAD_PINS}
    assert env["cpu_count"] == os.cpu_count()
    assert env["affinity_count"] == len(os.sched_getaffinity(0))
    rev = env["git_revision"]
    assert rev is None or (len(rev) == 40 and int(rev, 16) >= 0)
    assert json.loads(json.dumps(d)) == d


def test_git_revision_is_null_outside_a_checkout(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_mod, "__file__", str(tmp_path / "bench.py"))
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert bench_mod.environment()["git_revision"] is None


def test_decode_only_times_steps():
    """Decode timing excludes prefill: a long prompt with one new token
    must come in well under the prefill time for the same prompt."""
    model = tiny_model()
    cfg = BenchConfig(prompt=256, new_tokens=1, batches=5, warmup=2)
    rep = bench(model, model, cfg, seed=3)
    assert rep.medians["dense.decode"] < rep.medians["dense.prefill"]


def test_each_batch_runs_one_prefill_per_model(monkeypatch):
    """The prefill timed is the decode session's own: one per model per
    batch, warmup included, and no separate full forward. The prefills take
    turns, the first flipping at every batch, and so do the steps, the
    first flipping at every token."""
    dense, pruned = tiny_model(0), tiny_model(1)
    prefills, steps, forwards = [], [], []
    prefill, step, forward = DecodeSession.prefill, DecodeSession.step, Model.forward

    def counted_prefill(self, tokens):
        prefills.append(self.model)
        return prefill(self, tokens)

    def counted_step(self, token):
        steps.append(self.model)
        return step(self, token)

    def counted_forward(self, tokens):
        forwards.append(self)
        return forward(self, tokens)

    monkeypatch.setattr(DecodeSession, "prefill", counted_prefill)
    monkeypatch.setattr(DecodeSession, "step", counted_step)
    monkeypatch.setattr(Model, "forward", counted_forward)
    bench(dense, pruned, small_cfg(prompt=16, new_tokens=3, batches=2, warmup=1))
    d, p = id(dense), id(pruned)
    assert list(map(id, prefills)) == [d, p, p, d, d, p]  # 1 warmup + 2
    assert list(map(id, steps)) == [d, p, p, d, d, p,  p, d, d, p, p, d,  d, p, p, d, d, p]
    assert forwards == []
