"""Top-level acceptance checks, one test per criterion.

Each test ends in a single recorded pass/fail line; the full list is
reprinted in the terminal summary. Tolerances and time bounds live in the
assertions, not in fixtures, so a red line always names its criterion.
"""

import json
import os
import statistics
import time

import numpy as np
import pytest

from conftest import HYBRID6, record
from oracles import finite_diff, naive_selective_scan, rel_err, tape_sum
from ssmprune import layers as ly
from ssmprune import ssm as ssm_mod
from ssmprune import tensor as tn
from ssmprune.bench import BenchConfig, bench
from ssmprune.errors import read_csv_rows
from ssmprune.model import (TAPE, Model, block_param_count, descriptor_param_count,
                            toy_descriptor)
from ssmprune.pruning import (CalibrationSet, read_jsonl, replay_plan,
                              run_schedule)
from ssmprune.study import CURVE_COLUMNS, StudyConfig, study_sensitivity
from ssmprune.training import TrainConfig, split_perplexity, train


def rnd(rng, *shape, scale=1.0):
    return (rng.uniform(-2.0, 2.0, size=shape) * scale).astype(np.float32)


# -- 1: scan vs recurrence --------------------------------------------------


def scan_oracle(p, x):
    """Float64 projections by hand, then the token-by-token recurrence."""
    A = -np.exp(p.A_log.data.astype(np.float64))
    if p.variant == "ssd":
        A = np.tile(A[:, None], (1, p.n_state))
    ys = []
    for xb in x:
        xb64 = xb.astype(np.float64)
        dt = np.log1p(np.exp(xb64 @ p.x_to_dt.weight.data.astype(np.float64).T
                             + p.dt_bias.data.astype(np.float64)))
        Bm = xb64 @ p.x_to_B.weight.data.astype(np.float64).T
        Cm = xb64 @ p.x_to_C.weight.data.astype(np.float64).T
        ys.append(naive_selective_scan(xb64, dt, A, Bm, Cm,
                                       p.D_skip.data.astype(np.float64)))
    return np.stack(ys)


def test_criterion_1_scan_correctness():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        variant = "s6" if trial % 2 == 0 else "ssd"
        c = int(rng.integers(1, 9))
        N = int(rng.integers(1, 17))
        T = int(rng.integers(1, 65))
        p = ssm_mod.SsmParams.build(rng, variant, c, N)
        x = rnd(rng, 2, T, c)
        want = scan_oracle(p, x)
        got = ssm_mod.selective_scan(tn.Tensor(x), p).data
        worst = max(worst, float(np.abs(got - want).max()))
        h = np.zeros((2, c, N))
        steps = []
        for t in range(T):
            y, h = ssm_mod.scan_step(p, h, x[:, t])
            steps.append(y)
        worst = max(worst, float(np.abs(np.stack(steps, 1) - want).max()))
    dt = time.perf_counter() - t0
    record(1, "batch and step scans match the float64 recurrence within 1e-5 "
              f"on 100 instances (worst {worst:.1e}, {dt:.1f}s < 10s)",
           worst < 1e-5 and dt < 10.0)


# -- 2: gradient suite ------------------------------------------------------


def _grad_cases(rng):
    """(name, loss builder, name -> trainable tensor, fd step) per layer family.

    The scan cases use a wider step: their float32 forwards are long
    products, so at h=1e-3 rounding noise in the difference quotient is
    comparable to the smaller gradient entries.
    """
    cases = []

    def rt(*shape, scale=1.0):
        return tn.Tensor(rnd(rng, *shape, scale=scale), requires_grad=True)

    x = rt(4, 5)
    w = rt(3, 5, scale=0.5)
    r = tn.Tensor(rnd(rng, 4, 3))
    cases.append(("linear",
                  lambda: tape_sum(tn.mul(ly.linear(x, w), r)),
                  {"x": x, "weight": w}, 1e-3))

    xc = rt(2, 6, 3, scale=0.5)
    k = rt(3, 4, scale=0.5)
    rc = tn.Tensor(rnd(rng, 2, 6, 3))
    cases.append(("conv",
                  lambda: tape_sum(tn.mul(ly.causal_conv1d(xc, k), rc)),
                  {"x": xc, "kernel": k}, 1e-3))

    xn = rt(5, 6)
    s = rt(6, scale=0.5)
    rn = tn.Tensor(rnd(rng, 5, 6))
    cases.append(("rmsnorm",
                  lambda: tape_sum(tn.mul(ly.rmsnorm(xn, s), rn)),
                  {"x": xn, "scale": s}, 1e-3))

    mlp = ly.GatedMlp.build(rng, 5, 8)
    xm = rt(1, 4, 5, scale=0.5)
    rm = tn.Tensor(rnd(rng, 1, 4, 5))
    cases.append(("gated_mlp",
                  lambda: tape_sum(tn.mul(mlp.body(TAPE, xm), rm)),
                  {"x": xm, **ly.tensors(mlp)}, 1e-3))

    xa = rt(1, 5, 8, scale=0.5)
    ws = [rt(8, 8, scale=0.4) for _ in range(4)]
    ra = tn.Tensor(rnd(rng, 1, 5, 8))
    cases.append(("mha",
                  lambda: tape_sum(tn.mul(
                      ly.attention(xa, *ws, n_heads=2), ra)),
                  {"x": xa, **dict(zip("qkvo", ws))}, 1e-3))

    for variant in ("s6", "ssd"):
        p = ssm_mod.SsmParams.build(rng, variant, 3, 4)
        # hot dt so the decay path carries visible gradient signal; keep the
        # decay rates moderate or exp(dt*A) underflows past what central
        # differences can resolve in float32
        u = rng.uniform(0.3, 1.0, 3)
        p.dt_bias.data = np.log(np.expm1(u)).astype(np.float32)
        if variant == "ssd":
            p.A_log.data = np.log(rng.uniform(1.0, 4.0, 3)).astype(np.float32)
        xs = rt(2, 5, 3, scale=0.5)
        rs = tn.Tensor(rnd(rng, 2, 5, 3))

        def build(xs=xs, p=p, rs=rs):
            return tape_sum(tn.mul(ssm_mod.selective_scan(xs, p), rs))

        cases.append((variant, build,
                      {"x": xs, **ly.tensors(p)}, 5e-3))
    return cases


def test_criterion_2_gradient_suite():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst, worst_name = 0.0, ""
    for name, build, params, h in _grad_cases(rng):
        with tn.tape() as g:
            loss = build()
        g.backward(loss)
        fds = finite_diff(lambda: build().scalar(), [p.data for p in params.values()],
                          h=h)
        for (pname, p), fd in zip(params.items(), fds):
            err = rel_err(p.grad, fd)
            if err > worst:
                worst, worst_name = err, f"{name}:{pname}"
    dt = time.perf_counter() - t0
    record(2, "central finite differences confirm every layer's gradients "
              f"within 1e-3 (worst {worst:.1e} at {worst_name}, "
              f"{dt:.1f}s < 60s)",
           worst < 1e-3 and dt < 60.0)


# -- 3: greedy equals exhaustive search -------------------------------------


def test_criterion_3_greedy_vs_exhaustive(hybrid6, corpus):
    cal = CalibrationSet(corpus, count=12, length=64, batch_size=6)
    ok = True
    picks = []
    for kind in ("mamba_block", "ssm", "mlp", "mha"):
        out = run_schedule(hybrid6.clone(), f"{kind}:1", cal)
        chosen = out["plan"][0]
        best = None
        for i in range(len(hybrid6.blocks)):
            if not hybrid6.is_effective(kind, i):
                continue
            trial = hybrid6.clone()
            trial.remove(kind, i)
            s = cal.ppl(trial)
            if best is None or (s, i) < best:
                best = (s, i)
        agree = (chosen["block"] == best[1] and chosen["score"] == best[0])
        ok = ok and agree
        picks.append(f"{kind}={chosen['block']}")
    record(3, "first greedy removal equals exhaustive single-removal search "
              f"for every kind ({', '.join(picks)})", ok)


# -- 4: slicing equals masking ----------------------------------------------


def test_criterion_4_slice_equals_mask():
    rng = np.random.default_rng(1004)
    d, D, g = 6, 96, 16
    mlp = ly.GatedMlp.build(rng, d, D)
    masked = ly.GatedMlp.build(rng, d, D)
    for a, b in zip(ly.tensors(masked).values(), ly.tensors(mlp).values()):
        a.data = b.data.copy()
    masked.up.weight.data[D - g:] = 0.0
    masked.gate.weight.data[D - g:] = 0.0
    masked.down.weight.data[:, D - g:] = 0.0
    x = tn.Tensor(rnd(rng, 2, 7, d, scale=0.5))
    want = masked.body(TAPE, x).data
    mlp.slice_trailing(g)
    diff = float(np.abs(mlp.body(TAPE, x).data - want).max())

    desc = toy_descriptor(n_blocks=3, transformer_at=(1,), d_model=32,
                          d_state=8, mlp_hidden=96)
    model = Model.build(desc, 0)
    for _ in range(5):
        model.slice_mlp(1, 16)
    shrunk = model.blocks[1].mlp.hidden
    record(4, "trailing-channel slice equals channel masking within 1e-6 "
              f"(diff {diff:.1e}); five g=16 slices shrink 96 hidden "
              f"channels to {shrunk}",
           diff <= 1e-6 and mlp.hidden == D - g and shrunk == 96 - 80)


# -- 5: ratio arithmetic at reference proportions ---------------------------


def test_criterion_5_ratio_arithmetic():
    # the analytic counter must agree with real tensors at a size we can build
    small = toy_descriptor(n_blocks=3, variant="mamba1", transformer_at=(1,),
                           d_model=64, d_state=16, mlp_hidden=256)
    model = Model.build(small, 0)
    per_block = {}
    for s in model.structures():
        per_block[s.block] = per_block.get(s.block, 0) + s.param_count
    consistent = all(per_block[i] == block_param_count(small, i)
                     for i in range(3))
    consistent = consistent and model.live_param_count() == model.dense_params
    consistent = consistent and model.prune_ratio() == 0.0

    # 64 equal blocks near 0.04e9 params each, total near 2.8e9
    big = toy_descriptor(n_blocks=64, variant="mamba1", transformer_at=(),
                         vocab=32000, d_model=2000, d_state=16)
    bp = block_param_count(big, 0)
    total = descriptor_param_count(big)
    ratio = 100.0 * 7 * bp / total
    ok = (consistent and abs(bp - 40.0e6) < 2.0e6
          and 2.5e9 < total < 2.9e9 and abs(ratio - 10.43) <= 0.5)
    record(5, f"7 of 64 equal blocks ({bp / 1e6:.1f}M each, "
              f"{total / 1e9:.2f}B total) give a {ratio:.2f}% prune ratio, "
              "within 0.5pp of 10.43%", ok)


# -- 6: compaction speedup --------------------------------------------------


def test_criterion_6_decode_speedup():
    t0 = time.perf_counter()
    desc = toy_descriptor(n_blocks=12, variant="mamba1", transformer_at=(),
                          d_model=64, d_state=16)
    dense = Model.build(desc, 0)
    overlay = dense.clone()
    for i in (1, 5, 9):  # 3 of 12 blocks: exactly 25%
        overlay.remove("mamba_block", i)
    pruned = overlay.compact()
    rng = np.random.default_rng(6)
    probe = rng.integers(0, desc.vocab, size=(2, 48))
    gap = float(np.abs(pruned.forward(probe).data
                       - overlay.forward(probe).data).max())
    rep = bench(dense, pruned,
                BenchConfig(prompt=256, new_tokens=16, batches=10, warmup=2),
                seed=0)
    # bench() steps the dense and pruned sessions in turn, flipping the
    # order at every token, so the per-batch ratio cancels load that shifts
    # within and between batches on a shared host
    speedup = statistics.median(
        d / p for d, p in zip(rep.raw["dense.decode"], rep.raw["pruned.decode"]))
    dt = time.perf_counter() - t0
    flag = ", timings unstable" if rep.unstable else ""
    record(6, "compacted model with 25% of blocks removed reaches "
              f"{speedup:.2f}x median paired decode throughput "
              f"(>= 1.15x; overlay gap {gap:.1e}; {dt:.0f}s < 300s{flag})",
           gap <= 1e-6 and speedup >= 1.15 and dt < 300.0)


# -- 7: recovery tuning direction -------------------------------------------


def test_criterion_7_recovery_direction(hybrid6, corpus):
    dense_val = split_perplexity(hybrid6, corpus, "val", 16, 80)
    cal = CalibrationSet(corpus, count=8, length=64, batch_size=6)
    work = hybrid6.clone()
    degraded = dense_val
    for _ in range(9):
        run_schedule(work, "mamba_block&ssm&mha&mlp:1", cal)
        degraded = split_perplexity(work, corpus, "val", 16, 80)
        if degraded >= 1.3 * dense_val:
            break
    live = {id(t) for t in work.parameters()}
    dead_before = {name: t.data.tobytes()
                   for name, t in work.named_tensors().items()
                   if id(t) not in live}
    tcfg = TrainConfig(steps=60, batch_size=6, seq_len=80, lr=5e-4, min_lr=5e-5,
                       warmup=6, eval_windows=16, seed=1)
    before = split_perplexity(work, corpus, "val", tcfg.eval_windows, tcfg.seq_len)
    train(work, corpus, tcfg)
    after = split_perplexity(work, corpus, "val", tcfg.eval_windows, tcfg.seq_len)
    untouched = bool(dead_before) and all(
        work.named_tensors()[name].data.tobytes() == blob
        for name, blob in dead_before.items())
    record(7, f"recovery tuning lowers val PPL {before:.2f} "
              f"-> {after:.2f} on a model degraded "
              f"{degraded / dense_val:.2f}x; dead tensors byte-identical",
           degraded >= 1.3 * dense_val
           and after < before
           and untouched)


# -- 8: plan replay and per-iteration minima --------------------------------


def test_criterion_8_trace_consistency(hybrid6, corpus, tmp_path):
    cal = CalibrationSet(corpus, count=8, length=64, batch_size=6)
    out = run_schedule(hybrid6.clone(), "mamba_block:1 + ssm&mha:2", cal,
                       out_dir=str(tmp_path), emit_trace=True)
    plan = read_jsonl(str(tmp_path / "plan.jsonl"))
    trace = read_jsonl(str(tmp_path / "trace.jsonl"))
    fresh = hybrid6.clone()
    replay_plan(fresh, plan)
    gap = abs(cal.ppl(fresh) - out["final_cal_ppl"])
    minima = {}
    for r in trace:
        key = (r["stage"], r["iter"])
        minima[key] = min(minima.get(key, float("inf")), r["score"])
    chosen_ok = all(p["score"] == minima[(p["stage"], p["iter"])]
                    for p in plan)
    record(8, f"replaying plan.jsonl reproduces the final cal PPL (gap "
              f"{gap:.1e} <= 1e-6) and each of {len(plan)} selections is "
              "its iteration's minimum score",
           gap <= 1e-6 and chosen_ok and len(plan) == 3)


# -- 9: byte-identical plans and traces -------------------------------------


def test_criterion_9_determinism(hybrid6, corpus, tmp_path):
    cal = CalibrationSet(corpus, count=8, length=64, batch_size=6)
    blobs = []
    for sub, threads in (("a", 1), ("b", 1), ("c", 3)):
        d = tmp_path / sub
        d.mkdir()
        run_schedule(hybrid6.clone(), "ssm:2 + mha:1", cal, out_dir=str(d),
                     threads=threads, emit_trace=True)
        blobs.append((open(d / "plan.jsonl", "rb").read(),
                      open(d / "trace.jsonl", "rb").read()))
    ok = blobs[0] == blobs[1] == blobs[2]
    record(9, "identical schedule and seed give byte-identical plan.jsonl "
              "and trace.jsonl across reruns and a 3-thread scorer", ok)


# -- 10: sensitivity study end to end ---------------------------------------


def test_criterion_10_study_runs(corpus, tmp_path):
    t0 = time.perf_counter()
    cfg = StudyConfig(n_blocks=6, d_model=48, d_state=8, removals=4,
                      cal_count=8, cal_length=64,
                      train=TrainConfig(steps=120, batch_size=6, seq_len=64,
                                        warmup=12))
    summary = study_sensitivity(corpus, cfg, out_dir=str(tmp_path))
    dt = time.perf_counter() - t0
    path = tmp_path / "curves.csv"
    header = open(path).readline().strip()
    curves = read_csv_rows(str(path), CURVE_COLUMNS)
    kinds = {r["kind"] for r in curves}
    shaped = (header == "kind,steps,PPL,ratio"
              and kinds == {"mamba1:block", "mamba1:ssm",
                            "mamba2:block", "mamba2:ssm"}
              and len(curves) == 4 * (cfg.removals + 1)
              and all(np.isfinite(r["PPL"]) and r["PPL"] > 0 for r in curves)
              and all(0.0 <= r["ratio"] < 1.0 for r in curves))
    o = summary["ordering"]
    record(10, f"sensitivity study trains both variants and writes "
               f"well-formed curves.csv in {dt:.0f}s < 1800s (ordering "
               f"reported, not asserted: block-tolerant first variant="
               f"{o['mamba1_more_block_tolerant']}, scan-tolerant second "
               f"variant={o['mamba2_more_ssm_tolerant']})",
           shaped and dt < 1800.0)
