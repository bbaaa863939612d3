"""Command-line entry points: train, prune, eval, bench, report, study.

Compute runs single-threaded by default (BLAS pools pinned before numpy
loads) so bench timings stay comparable; the prune scorer opts back into
parallelism with --threads.
"""

from __future__ import annotations

import os

from . import THREAD_PINS

for _v in THREAD_PINS:
    os.environ.setdefault(_v, "1")

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields
from typing import Optional

import numpy as np

from .bench import BenchConfig, bench, write_bench_csv
from .config import SCHEMA, load_config, write_resolved
from .errors import (CapacityError, CheckpointError, ConfigError,
                     DivergenceError, ScheduleError, ShapeError, StateError,
                     TokenError, read_text)
from .model import Model, load_model, save_model, toy_descriptor
from .pruning import (CalibrationSet, check_rows, is_a, parse_schedule, read_jsonl,
                      run_schedule)
from .study import StudyConfig, read_curves_csv, study_sensitivity
from .training import (LOSS_COLUMNS, VOCAB, Corpus, TrainConfig,
                       split_perplexity, train)

_ERRORS = (ConfigError, ScheduleError, CheckpointError, StateError,
           CapacityError, TokenError, ShapeError, DivergenceError, OSError)


def _corpus(spec: str) -> Corpus:
    return Corpus.bundled() if spec == "bundled" else Corpus.from_file(spec)


def _need(value: str, what: str) -> None:
    if not value:
        raise ConfigError(f"{what} is required; set it in the config file")


def _outdir(args) -> str:
    if not args.out:
        raise ConfigError("--out DIR is required for this command")
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _section(args, name: str) -> dict:
    """Config section name, with the --seed or --threads value the
    subcommand took in place of its INI key, through that key's converter;
    a bad value is one ConfigError naming the flag."""
    cfg = load_config(args.config)[name]
    for key in ("seed", "threads"):
        raw = getattr(args, key, None)
        if raw is not None:
            try:
                cfg[key] = SCHEMA[name][key](raw)
            except ValueError as e:
                raise ConfigError(f"bad value for --{key}: {raw!r} ({e})") from None
    return cfg


def _fields(cls, cfg: dict) -> dict:
    """The entries of cfg that name a field of the dataclass cls."""
    return {f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(**_fields(TrainConfig, cfg))


def cmd_train(args) -> int:
    cfg = _section(args, "train")
    desc = toy_descriptor(
        n_blocks=cfg["n_blocks"], variant=cfg["variant"],
        transformer_at=cfg["transformer_at"], vocab=VOCAB,
        d_model=cfg["d_model"], d_state=cfg["d_state"],
        mlp_hidden=cfg["mlp_hidden"])
    corpus = _corpus(cfg["corpus"])
    out = _outdir(args)
    model = Model.build(desc, cfg["seed"])
    tcfg = _train_config(cfg)
    write_resolved(os.path.join(out, "resolved.ini"), "train", cfg)
    rows = train(model, corpus, tcfg, out_dir=out,
                 log_every=max(cfg["steps"] // 10, 1))
    val = split_perplexity(model, corpus, "val", cfg["eval_windows"],
                           cfg["seq_len"])
    path = os.path.join(out, "model.ckpt")
    save_model(model, path, meta={
        "train_config": asdict(tcfg), "final_val_ppl": val,
        "val_windows": cfg["eval_windows"], "val_length": cfg["seq_len"]})
    print(f"trained {cfg['steps']} steps; final loss {rows[-1]['loss']:.4f}; "
          f"val ppl {val:.4f}")
    print(f"checkpoint: {path}")
    return 0


def _check_compact(overlay: Model, compacted: Model) -> None:
    """Correctness precedes speed: overlay and compacted logits must agree."""
    rng = np.random.default_rng(0)
    probe = rng.integers(0, overlay.desc.vocab, size=(2, 32))
    diff = float(np.max(np.abs(compacted.forward(probe).data
                               - overlay.forward(probe).data)))
    if diff > 1e-6:
        raise StateError(
            f"compacted model diverges from bypass overlay by {diff:.3g}")


def cmd_prune(args) -> int:
    cfg = _section(args, "prune")
    if args.emit_trace:
        cfg["emit_trace"] = True
    if args.plan_only:
        cfg["plan_only"] = True
    _need(cfg["checkpoint"], "prune.checkpoint")
    _need(cfg["schedule"], "prune.schedule")
    stages = parse_schedule(cfg["schedule"])
    model, _ = load_model(cfg["checkpoint"])
    cal = CalibrationSet(_corpus(cfg["corpus"]), cfg["cal_count"], cfg["cal_length"],
                         cfg["batch_size"])
    out = _outdir(args)
    write_resolved(os.path.join(out, "resolved.ini"), "prune", cfg)
    summary = run_schedule(model, stages, cal, out_dir=out,
                           threads=cfg["threads"],
                           emit_trace=cfg["emit_trace"])
    for st in summary["stages"]:
        flag = "  (truncated)" if st["truncated"] else ""
        print(f"stage {st['spec']}: {st['steps_done']} removals{flag}")
    print(f"final ratio {summary['final_ratio']:.4f}  "
          f"cal ppl {summary['final_cal_ppl']:.4f}")
    if cfg["plan_only"]:
        print("plan-only: no checkpoint written")
        return 0
    meta = {"schedule": cfg["schedule"],
            "final_ratio": summary["final_ratio"],
            "final_cal_ppl": summary["final_cal_ppl"],
            "actions": len(summary["plan"])}
    pruned_path = os.path.join(out, "pruned.ckpt")
    save_model(model, pruned_path, meta=meta)
    print(f"checkpoint: {pruned_path}")
    compacted = model.compact()
    _check_compact(model, compacted)
    compact_path = os.path.join(out, "compact.ckpt")
    save_model(compacted, compact_path, meta={**meta, "compacted": True})
    print(f"checkpoint: {compact_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = _section(args, "eval")
    _need(cfg["checkpoint"], "eval.checkpoint")
    model, _ = load_model(cfg["checkpoint"])
    corpus = _corpus(cfg["corpus"])
    ppl = split_perplexity(model, corpus, cfg["split"], cfg["windows"],
                           cfg["length"], cfg["batch_size"])
    print(f"{cfg['split']} ppl {ppl:.6f}  "
          f"(windows={cfg['windows']}, length={cfg['length']})")
    if args.out:
        out = _outdir(args)
        write_resolved(os.path.join(out, "resolved.ini"), "eval", cfg)
        with open(os.path.join(out, "eval.json"), "w") as f:
            json.dump({"split": cfg["split"], "ppl": ppl,
                       "windows": cfg["windows"], "length": cfg["length"]},
                      f, indent=2, sort_keys=True)
    return 0


def cmd_bench(args) -> int:
    cfg = _section(args, "bench")
    _need(cfg["dense_checkpoint"], "bench.dense_checkpoint")
    _need(cfg["pruned_checkpoint"], "bench.pruned_checkpoint")
    out = _outdir(args)
    dense, _ = load_model(cfg["dense_checkpoint"])
    overlay, pmeta = load_model(cfg["pruned_checkpoint"])
    pruned = overlay.compact()
    _check_compact(overlay, pruned)
    corpus = _corpus(cfg["corpus"])
    ppl_before = split_perplexity(dense, corpus, "val",
                                  cfg["ppl_windows"], cfg["ppl_length"])
    ppl_after = split_perplexity(pruned, corpus, "val",
                                 cfg["ppl_windows"], cfg["ppl_length"])
    plan_summary = {k: pmeta[k] for k in
                    ("schedule", "final_ratio", "final_cal_ppl", "actions")
                    if k in pmeta} or None
    bcfg = BenchConfig(**_fields(BenchConfig, cfg))
    report = bench(dense, pruned, bcfg, seed=cfg["seed"],
                   plan_summary=plan_summary, ppl_before=ppl_before,
                   ppl_after=ppl_after)
    write_resolved(os.path.join(out, "resolved.ini"), "bench", cfg)
    write_bench_csv(os.path.join(out, "bench.csv"), report)
    with open(os.path.join(out, "bench_report.json"), "w") as f:
        json.dump(report.to_dict(), f, indent=2, sort_keys=True)
    for key in ("dense.prefill", "pruned.prefill", "dense.decode",
                "pruned.decode"):
        print(f"{key}: median {report.medians[key] * 1e3:.2f} ms  "
              f"{report.throughput[key]:.1f} tok/s")
    print(f"prefill speedup {report.prefill_speedup:.3f}x  "
          f"decode speedup {report.decode_speedup:.3f}x")
    if report.unstable:
        print("warning: timing spread above threshold, report flagged unstable")
    return 0


def cmd_report(args) -> int:
    out = args.out
    if not out or not os.path.isdir(out):
        raise ConfigError("--out DIR must name an existing run directory")
    found = False
    plan_path = os.path.join(out, "plan.jsonl")
    if os.path.exists(plan_path):
        plan = read_jsonl(plan_path)
        check_rows(plan, {"kind": "a string", "ratio": "a number"}, plan_path)
        kinds: dict = {}
        for r in plan:
            kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
        by = ", ".join(f"{k} x{n}" for k, n in sorted(kinds.items()))
        tail = f"; final ratio {plan[-1]['ratio']:.4f}" if plan else ""
        print(f"plan: {len(plan)} actions ({by}){tail}")
        found = True
    trace_path = os.path.join(out, "trace.jsonl")
    if os.path.exists(trace_path):
        rows = read_jsonl(trace_path)
        check_rows(rows, {"iter": "an integer", "stage": "an integer", "kind": "a string",
                          "block": "an integer", "score": "a number"}, trace_path)
        csv_path = os.path.join(out, "trace.csv")
        with open(csv_path, "w") as f:
            f.write("iter,stage,kind,block,g,score\n")
            for r in rows:
                g = r.get("g", "")
                f.write(f"{r['iter']},{r['stage']},{r['kind']},{r['block']},"
                        f"{g},{r['score']!r}\n")
        print(f"trace: {len(rows)} scored candidates -> {csv_path}")
        found = True
    timings_path = os.path.join(out, "timings.jsonl")
    if os.path.exists(timings_path):
        rows = read_jsonl(timings_path)
        if not rows or not isinstance(rows[-1], dict) \
                or not is_a(rows[-1].get("peak_rss_mb"), "a number"):
            raise ScheduleError(f"{timings_path}: last row holds no peak_rss_mb number")
        check_rows(rows[:-1], {"iter": "an integer", "seconds": "a number"}, timings_path)
        iters = [r for r in rows[:-1] if "candidates" in r]
        wall = sum(r["seconds"] for r in iters)
        print(f"timings: {len(iters)} iterations, {len(rows) - 1 - len(iters)} "
              f"candidates in {wall:.2f} s; peak RSS {rows[-1]['peak_rss_mb']:.1f} MB")
        found = True
    loss_path = os.path.join(out, "loss.csv")
    if os.path.exists(loss_path):
        lines = read_text(loss_path).split("\n")
        rows = [(n, r) for n, r in enumerate(csv.reader(lines), 1) if r]
        if not rows or rows[0] != (1, list(LOSS_COLUMNS)):
            raise ConfigError(f"{loss_path}: line 1 is not the header {','.join(LOSS_COLUMNS)}")
        for n, r in rows:
            if len(r) != len(LOSS_COLUMNS):
                raise ConfigError(f"{loss_path}: line {n} has {len(r)} fields, "
                                  f"expected {len(LOSS_COLUMNS)}")
        steps = rows[1:]
        tail = f", last loss {steps[-1][1][2]}" if steps else ""
        print(f"loss curve: {len(steps)} steps{tail}")
        found = True
    bench_path = os.path.join(out, "bench_report.json")
    if os.path.exists(bench_path):
        try:
            rep = json.loads(read_text(bench_path))
        except json.JSONDecodeError as e:
            raise ConfigError(f"{bench_path}: not JSON ({e.msg})") from None
        missing = [k for k in ("prefill_speedup", "decode_speedup")
                   if not isinstance(rep, dict) or k not in rep]
        if missing:
            raise ConfigError(f"{bench_path}: lacks {missing}")
        for k in ("prefill_speedup", "decode_speedup"):
            if not is_a(rep[k], "a number"):
                raise ConfigError(f"{bench_path}: {k} {rep[k]!r} is not a number")
        flag = "  UNSTABLE" if rep.get("unstable") else ""
        print(f"bench: prefill speedup {rep['prefill_speedup']:.3f}x, "
              f"decode speedup {rep['decode_speedup']:.3f}x{flag}")
        found = True
    curves_path = os.path.join(out, "curves.csv")
    if os.path.exists(curves_path):
        curves = read_curves_csv(curves_path)
        names = sorted({r["kind"] for r in curves})
        for kind in names:
            pts = [r for r in curves if r["kind"] == kind]
            print(f"curve {kind}: ppl {pts[0]['PPL']:.3f} -> {pts[-1]['PPL']:.3f} "
                  f"over {pts[-1]['steps']} removals")
        found = True
    if not found:
        raise ConfigError(f"no run artifacts found in {out!r}")
    return 0


def cmd_study(args) -> int:
    cfg = _section(args, "study")
    out = _outdir(args)
    corpus = _corpus(cfg["corpus"])
    scfg = StudyConfig(**_fields(StudyConfig, cfg), train=_train_config(cfg))
    write_resolved(os.path.join(out, "resolved.ini"), "study", cfg)
    summary = study_sensitivity(corpus, scfg, out_dir=out, seed=cfg["seed"],
                                log_every=max(cfg["steps"] // 5, 1))
    ordering = summary["ordering"]
    for key, deg in sorted(ordering["degradation"].items()):
        print(f"{key}: ppl degradation x{deg:.3f} after {cfg['removals']} removals")
    print(f"variant one more block-tolerant here: "
          f"{ordering['mamba1_more_block_tolerant']}")
    print(f"variant two more scan-tolerant here: "
          f"{ordering['mamba2_more_ssm_tolerant']}")
    print(f"curves: {os.path.join(out, 'curves.csv')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ssmprune",
        description="Train, prune, and benchmark toy selective-scan stacks.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, config=True, seed=True):
        """A subcommand that takes --out, and --config and --seed when it
        reads them."""
        sp = sub.add_parser(name, help=help_)
        if config:
            sp.add_argument("--config", metavar="PATH", default=None,
                            help="INI config; missing keys take defaults")
        if seed:
            sp.add_argument("--seed", default=None, metavar="N",
                            help="override the configured seed")
        sp.add_argument("--out", metavar="DIR", default=None,
                        help="output directory")
        sp.set_defaults(func=fn)
        return sp

    add("train", cmd_train, "train a model and write a checkpoint")
    sp = add("prune", cmd_prune, "greedy calibration-scored structure removal",
             seed=False)
    sp.add_argument("--threads", default=None, metavar="N",
                    help="parallel scorer width")
    sp.add_argument("--emit-trace", action="store_true",
                    help="write every scored candidate to trace.jsonl")
    sp.add_argument("--plan-only", action="store_true",
                    help="search and write the plan, but no checkpoint")
    add("eval", cmd_eval, "perplexity of a checkpoint on one split", seed=False)
    add("bench", cmd_bench, "prefill/decode throughput, dense vs pruned")
    add("report", cmd_report, "summarize the artifacts in a run directory",
        config=False, seed=False)
    add("study-sensitivity", cmd_study,
        "train both scan variants and compare removal tolerance")
    return p


def cli(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
