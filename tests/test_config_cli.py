"""INI config resolution and the command-line entry points."""

import json
import os

import numpy as np
import pytest

from ssmprune.bench import environment
from ssmprune.cli import cli
from ssmprune.config import DEFAULTS, SCHEMA, _bool, load_config, write_resolved
from ssmprune.errors import ConfigError
from ssmprune.model import load_model
from ssmprune.pruning import read_jsonl


def write_ini(path, text):
    with open(path, "w") as f:
        f.write(text)
    return str(path)


# -- config resolution ------------------------------------------------------


def test_defaults_without_file():
    cfg = load_config(None)
    assert set(cfg) == set(SCHEMA)
    for sec in cfg:
        assert cfg[sec] == DEFAULTS[sec]
    # a fresh dict each call, not a shared mutable default
    cfg["train"]["steps"] = 1
    assert load_config(None)["train"]["steps"] == DEFAULTS["train"]["steps"]


def test_partial_file_overlays_defaults(tmp_path):
    path = write_ini(tmp_path / "c.ini", "[train]\nsteps = 7\n")
    cfg = load_config(path)
    assert cfg["train"]["steps"] == 7
    assert cfg["train"]["d_model"] == DEFAULTS["train"]["d_model"]
    assert cfg["eval"] == DEFAULTS["eval"]


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unreadable or missing"):
        load_config(str(tmp_path / "absent.ini"))


def test_unknown_section_named(tmp_path):
    path = write_ini(tmp_path / "c.ini", "[frobnicate]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[frobnicate\]"):
        load_config(path)


def test_unknown_key_named(tmp_path):
    path = write_ini(tmp_path / "c.ini", "[train]\nstepz = 10\n")
    with pytest.raises(ConfigError, match="unknown key 'stepz'.*\\[train\\]"):
        load_config(path)


@pytest.mark.parametrize("line,field", [
    ("steps = zero", "train.steps"),
    ("steps = -3", "train.steps"),
    ("lr = -0.1", "train.lr"),
    ("variant = mamba9", "train.variant"),
    ("transformer_at = 1,spam", "train.transformer_at"),
])
def test_bad_value_names_field(tmp_path, line, field):
    path = write_ini(tmp_path / "c.ini", f"[train]\n{line}\n")
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        load_config(path)


def test_bool_keys_parse_both_spellings(tmp_path):
    path = write_ini(tmp_path / "c.ini",
                     "[prune]\nemit_trace = yes\nplan_only = off\n")
    cfg = load_config(path)["prune"]
    assert cfg["emit_trace"] is True and cfg["plan_only"] is False
    # every bool key defaults to false, so the false spellings are checked
    # on the parser itself
    for s in ("0", "false", "No", " off "):
        assert _bool(s) is False
    for s in ("1", "TRUE", "yes", "on"):
        assert _bool(s) is True
    bad = write_ini(tmp_path / "d.ini", "[prune]\nemit_trace = maybe\n")
    with pytest.raises(ConfigError, match="prune.emit_trace"):
        load_config(bad)


def test_resolved_round_trip(tmp_path):
    """write_resolved output re-reads to exactly the values written."""
    for sec in SCHEMA:
        values = dict(DEFAULTS[sec])
        path = str(tmp_path / f"{sec}.ini")
        write_resolved(path, sec, values)
        back = load_config(path)[sec]
        assert back == values, sec


# -- CLI flows --------------------------------------------------------------


TINY_TRAIN = """
[train]
n_blocks = 4
transformer_at = 1
d_model = 32
d_state = 8
mlp_hidden = 48
steps = 25
batch_size = 4
seq_len = 48
warmup = 5
eval_windows = 6
"""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One trained tiny checkpoint shared by the CLI tests below."""
    root = tmp_path_factory.mktemp("cli")
    ini = write_ini(root / "train.ini", TINY_TRAIN)
    out = str(root / "train_out")
    assert cli(["train", "--config", ini, "--out", out]) == 0
    return {"root": root, "ckpt": os.path.join(out, "model.ckpt"),
            "out": out}


def test_train_writes_artifacts(run_dir):
    for name in ("model.ckpt", "loss.csv", "resolved.ini"):
        assert os.path.exists(os.path.join(run_dir["out"], name)), name


def test_train_resolved_round_trips(run_dir):
    cfg = load_config(os.path.join(run_dir["out"], "resolved.ini"))["train"]
    assert cfg["steps"] == 25 and cfg["d_model"] == 32
    assert cfg["transformer_at"] == (1,)


def test_eval_reproduces_training_val_ppl(run_dir, capsys):
    """eval on a fresh checkpoint, same windows and length, is bit-equal
    to the validation perplexity recorded at the end of training."""
    _, meta = load_model(run_dir["ckpt"])
    ini = write_ini(run_dir["root"] / "eval.ini",
                    f"[eval]\ncheckpoint = {run_dir['ckpt']}\n"
                    f"windows = {meta['val_windows']}\n"
                    f"length = {meta['val_length']}\n")
    assert cli(["eval", "--config", ini]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    got = float(line.split()[2])
    assert got == pytest.approx(meta["final_val_ppl"], abs=5e-7)


def test_prune_plan_only_leaves_no_checkpoint(run_dir, capsys):
    ini = write_ini(run_dir["root"] / "po.ini",
                    f"[prune]\ncheckpoint = {run_dir['ckpt']}\n"
                    "schedule = mamba_block:1\ncal_count = 4\ncal_length = 32\n")
    out = str(run_dir["root"] / "plan_only")
    before = open(run_dir["ckpt"], "rb").read()
    assert cli(["prune", "--config", ini, "--out", out, "--plan-only"]) == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(out, "plan.jsonl"))
    assert not os.path.exists(os.path.join(out, "pruned.ckpt"))
    assert not os.path.exists(os.path.join(out, "compact.ckpt"))
    assert open(run_dir["ckpt"], "rb").read() == before


def test_prune_then_report_trace_csv(run_dir, capsys):
    ini = write_ini(run_dir["root"] / "pr.ini",
                    f"[prune]\ncheckpoint = {run_dir['ckpt']}\n"
                    "schedule = ssm:2\ncal_count = 4\ncal_length = 32\n")
    out = str(run_dir["root"] / "prune_out")
    assert cli(["prune", "--config", ini, "--out", out, "--emit-trace"]) == 0
    capsys.readouterr()
    assert cli(["report", "--out", out]) == 0
    said = capsys.readouterr().out
    rows = read_jsonl(os.path.join(out, "trace.jsonl"))
    timed = read_jsonl(os.path.join(out, "timings.jsonl"))
    assert f"timings: 2 iterations, {len(rows)} candidates in " in said
    assert f"peak RSS {timed[-1]['peak_rss_mb']:.1f} MB" in said
    lines = open(os.path.join(out, "trace.csv")).read().strip().splitlines()
    assert lines[0] == "iter,stage,kind,block,g,score"
    assert len(lines) - 1 == len(rows)
    for line, r in zip(lines[1:], rows):
        it, stage, kind, block, g, score = line.split(",")
        assert (int(it), int(stage), kind, int(block)) == \
            (r["iter"], r["stage"], r["kind"], r["block"])
        assert float(score) == r["score"]
        assert g == ("" if "g" not in r else str(r["g"]))


def test_prune_compact_checkpoint_matches_overlay(run_dir):
    out = os.path.join(str(run_dir["root"]), "prune_out")
    overlay, _ = load_model(os.path.join(out, "pruned.ckpt"))
    compacted, meta = load_model(os.path.join(out, "compact.ckpt"))
    assert meta["compacted"] is True
    rng = np.random.default_rng(5)
    probe = rng.integers(0, 96, size=(2, 20))
    a = overlay.forward(probe).data
    b = compacted.forward(probe).data
    assert np.max(np.abs(a - b)) <= 1e-6


def test_seed_flag_overrides_config(run_dir, tmp_path, capsys):
    ini = write_ini(tmp_path / "t.ini", TINY_TRAIN)
    out = str(tmp_path / "seeded")
    assert cli(["train", "--config", ini, "--out", out, "--seed", "3"]) == 0
    capsys.readouterr()
    cfg = load_config(os.path.join(out, "resolved.ini"))["train"]
    assert cfg["seed"] == 3
    _, meta = load_model(os.path.join(out, "model.ckpt"))
    assert meta["train_config"]["seed"] == 3


def test_cli_error_paths_exit_nonzero(tmp_path, capsys):
    cases = [
        ["eval", "--config", str(tmp_path / "nope.ini")],
        ["prune", "--out", str(tmp_path / "o1")],
        ["report", "--out", str(tmp_path / "empty_missing")],
        ["train", "--config",
         write_ini(tmp_path / "bad.ini", "[train]\nbogus = 1\n"),
         "--out", str(tmp_path / "o2")],
    ]
    for argv in cases:
        assert cli(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: "), argv


@pytest.mark.parametrize("argv", [
    ["prune", "--seed", "1"],
    ["eval", "--seed", "1"],
    ["report", "--config", "/nonexistent.ini"],
    ["report", "--seed", "1"],
])
def test_flags_a_subcommand_does_not_read_are_refused(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as e:
        cli(argv + ["--out", str(tmp_path)])
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_train_rejects_transformer_index_past_the_blocks(tmp_path, capsys):
    ini = write_ini(tmp_path / "t.ini", "[train]\nn_blocks = 2\ntransformer_at = 5\n")
    out = tmp_path / "o"
    assert cli(["train", "--config", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "transformer_at index 5" in err and "n_blocks = 2" in err
    assert not out.exists()


def test_train_config_not_utf8_is_one_error_line(tmp_path, capsys):
    ini = tmp_path / "t.ini"
    ini.write_bytes(b"[train]\nsteps = 1\n# \xff\n")
    assert cli(["train", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(ini) in err and "0xff" in err


def test_train_corpus_not_utf8_is_one_error_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"plain text\n\xff more text\n")
    ini = write_ini(tmp_path / "t.ini", f"[train]\nsteps = 1\ncorpus = {corpus}\n")
    out = tmp_path / "o"
    assert cli(["train", "--config", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(corpus) in err and "byte 11 is not UTF-8" in err
    assert not out.exists()


def test_cli_bad_checkpoint_reports_and_exits(tmp_path, capsys):
    ck = tmp_path / "junk.ckpt"
    ck.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    ini = write_ini(tmp_path / "e.ini", f"[eval]\ncheckpoint = {ck}\n")
    assert cli(["eval", "--config", ini]) == 2
    assert "magic" in capsys.readouterr().err


def test_prune_bad_checkpoint_leaves_no_out_dir(tmp_path, capsys):
    ck = tmp_path / "junk.ckpt"
    ck.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    ini = write_ini(tmp_path / "p.ini", f"[prune]\ncheckpoint = {ck}\nschedule = ssm:1\n")
    out = tmp_path / "o"
    assert cli(["prune", "--config", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "magic" in err
    assert not out.exists()


def test_prune_bad_schedule_leaves_no_out_dir(run_dir, tmp_path, capsys):
    ini = write_ini(tmp_path / "p.ini",
                    f"[prune]\ncheckpoint = {run_dir['ckpt']}\nschedule = bogus:1\n"
                    "cal_count = 4\ncal_length = 32\n")
    out = tmp_path / "o"
    assert cli(["prune", "--config", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "'bogus'" in err
    assert not out.exists()


def test_report_on_empty_dir_exits_nonzero(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli(["report", "--out", str(empty)]) == 2
    assert "no run artifacts" in capsys.readouterr().err


def test_report_header_only_loss_csv(tmp_path, capsys):
    (tmp_path / "loss.csv").write_text("step,lr,loss,grad_norm,val_ppl\n")
    assert cli(["report", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "loss curve: 0 steps"


def test_report_reads_bench_reports_with_and_without_environment(tmp_path, capsys):
    # reports written before they recorded their environment still read
    rep = {"prefill_speedup": 1.25, "decode_speedup": 1.5, "unstable": False}
    outs = []
    for extra in ({}, {"environment": environment()}):
        (tmp_path / "bench_report.json").write_text(json.dumps({**rep, **extra}))
        assert cli(["report", "--out", str(tmp_path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == "bench: prefill speedup 1.250x, decode speedup 1.500x\n"


# "\udcff" is written as the lone byte 0xff, which is not UTF-8
@pytest.mark.parametrize("name,text,where", [
    ("loss.csv", "step,lr,loss,grad_norm,val_ppl\n0,0.001,4.5,1.0,\n1,0.001\n",
     "line 3"),
    ("plan.jsonl", '{"kind": "ssm", "block": 0, "ratio": 0.9}\n{"kind": \n',
     "line 2"),
    ("loss.csv", "step,lr,loss,grad_norm,val_ppl\n0,0.001,4.\udcff,1.0,\n",
     "byte 41 is not UTF-8"),
    ("plan.jsonl", '{"kind": "ssm", "block": 0, "ratio": 0.9}\n{"kind": "\udcff"}\n',
     "byte 52 is not UTF-8"),
    ("trace.jsonl", '{"iter": 0, "stage": 0, "kind": "\udcff"}\n', "byte 33 is not UTF-8"),
    ("bench_report.json", '{"prefill_speedup": 1.\udcff}\n', "byte 22 is not UTF-8"),
    ("curves.csv", "kind,steps,PPL,ratio\nmamba1:\udcff,0,21.5,0\n", "byte 28 is not UTF-8"),
], ids=["loss.csv", "plan.jsonl", "loss-not-utf8", "plan-not-utf8", "trace-not-utf8",
        "bench-not-utf8", "curves-not-utf8"])
def test_report_corrupt_artifact_is_one_error_line(tmp_path, capsys, name,
                                                    text, where):
    (tmp_path / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    assert cli(["report", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert name in err and where in err


@pytest.mark.parametrize("name,text,where", [
    ("plan.jsonl", '{"kind": "ssm", "block": 0, "ratio": 0.1}\n[1, 2]\n',
     "row 2 is not an object"),
    ("plan.jsonl", '{"kind": "ssm", "block": 0}\n', "row 1 lacks ['ratio']"),
    ("trace.jsonl", '{"iter": 0, "kind": "ssm", "block": 0, "score": 1.5}\n',
     "row 1 lacks ['stage']"),
    ("bench_report.json", '{"decode_speedup": 1.2}\n', "lacks ['prefill_speedup']"),
    ("curves.csv", "kind,steps,ratio\nmamba1:block,0,0.0\n", "line 2 lacks 'PPL'"),
], ids=["plan-not-object", "plan-no-ratio", "trace-no-stage", "bench-no-speedup",
        "curves-no-ppl"])
def test_report_malformed_artifact_is_one_error_line(tmp_path, capsys, name, text,
                                                     where):
    (tmp_path / name).write_text(text)
    assert cli(["report", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert name in err and where in err


_TRACE_ROW = '{"iter": 0, "stage": 0, "kind": "ssm", "block": 0, "score": 1.5}\n'


@pytest.mark.parametrize("name,text,where", [
    ("plan.jsonl", '{"kind": "ssm", "block": 0, "ratio": 0.1}\n'
     '{"kind": "ssm", "block": 1, "ratio": "x"}\n', "row 2 has ratio 'x', expected a number"),
    ("plan.jsonl", '{"kind": 3, "block": 0, "ratio": 0.1}\n', "row 1 has kind 3"),
    ("trace.jsonl", _TRACE_ROW + _TRACE_ROW.replace("1.5", '"low"'),
     "row 2 has score 'low', expected a number"),
    ("trace.jsonl", _TRACE_ROW.replace('"block": 0', '"block": 0.5'),
     "row 1 has block 0.5, expected an integer"),
    ("trace.jsonl", _TRACE_ROW.replace('"block": 0', '"block": true'),
     "row 1 has block True, expected an integer"),
    ("bench_report.json", '{"prefill_speedup": "fast", "decode_speedup": 1.2}\n',
     "prefill_speedup 'fast' is not a number"),
    ("bench_report.json", '{"prefill_speedup": 1.1, "decode_speedup": "1.2"}\n',
     "decode_speedup '1.2' is not a number"),
    ("curves.csv", "kind,steps,PPL,ratio\nmamba1:block,0,21.5,0\nmamba1:block,x,25,0.125\n",
     "line 3 has steps 'x', expected an integer"),
    ("timings.jsonl", '{"iter": 0, "seconds": 0.5, "candidates": 2}\n{"peak_rss_mb": "big"}\n',
     "last row holds no peak_rss_mb number"),
    ("timings.jsonl", '{"iter": 0, "seconds": "slow", "candidates": 2}\n{"peak_rss_mb": 9}\n',
     "row 1 has seconds 'slow', expected a number"),
], ids=["plan-str-ratio", "plan-int-kind", "trace-str-score", "trace-float-block",
        "trace-bool-block", "bench-str-prefill", "bench-str-decode", "curves-str-steps",
        "timings-str-peak", "timings-str-seconds"])
def test_report_wrongly_typed_value_is_one_error_line(tmp_path, capsys, name, text,
                                                      where):
    (tmp_path / name).write_text(text)
    assert cli(["report", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert name in err and where in err
