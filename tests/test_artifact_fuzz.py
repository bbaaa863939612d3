"""Seeded byte fuzz of the text artifacts: plan, trace and timings jsonl,
loss.csv, curves.csv, bench_report.json, an INI config and a schedule.

Each artifact comes from a real run. Every case (a flipped bit in each
quarter of the bytes, a truncation, or one appended byte) goes through
`ssmprune report`, `load_config` or `parse_schedule`, and must either read
to rows of their declared kinds or fail as one package error of one line;
no other exception may escape.
"""

import json
import os
import random

import pytest

from ssmprune.bench import REPORT_KEYS
from ssmprune.cli import cli
from ssmprune.config import DEFAULTS, load_config
from ssmprune.errors import ConfigError, ScheduleError, read_csv_rows
from ssmprune.model import KIND_ORDER
from ssmprune.pruning import PLAN_ROW, TIMINGS_ROW, TRACE_ROW, parse_schedule, read_jsonl
from ssmprune.study import CURVE_COLUMNS
from ssmprune.training import LOSS_COLUMNS

SCHEDULE = "mamba_block:2 + ssm&mha:2 + mlp_channels:4:16"

INI = """
[train]
n_blocks = 3
transformer_at = 1
d_model = 16
d_state = 4
mlp_hidden = 32
steps = 4
batch_size = 2
seq_len = 24
warmup = 1
eval_windows = 2

[prune]
checkpoint = {ckpt}
schedule = ssm:1 + mlp_channels:1:16
cal_count = 2
cal_length = 16

[bench]
dense_checkpoint = {ckpt}
pruned_checkpoint = {pruned}
prompt = 8
new_tokens = 2
batches = 1
warmup = 0
ppl_windows = 2
ppl_length = 16

[study]
n_blocks = 3
d_model = 16
d_state = 4
removals = 1
cal_count = 2
cal_length = 16
steps = 4
batch_size = 2
seq_len = 24
warmup = 1
"""


def _kinds_hold(row, table):
    """Whether a JSON row holds every key of table with a value of its kind
    (an " or absent" key may be missing), checked apart from check_rows."""
    types = {"a string": (str,), "an integer": (int,), "a number": (int, float)}
    for key, what in table.items():
        if key not in row:
            if not what.endswith(" or absent"):
                return False
        elif isinstance(row[key], bool) or \
                not isinstance(row[key], types[what.split(" or ")[0]]):
            return False
    return True


def _csv_kinds_hold(path, table):
    types = {"a string": (str,), "an integer": (int,), "a number": (float,)}
    return all(v is None and what.endswith(" or empty")
               or isinstance(v, types[what.split(" or ")[0]])
               for r in read_csv_rows(path, table) for v, what in zip(r.values(), table.values()))


def _read_jsonl(table):
    return lambda path: all(_kinds_hold(r, table) for r in read_jsonl(path))


def _read_timings(path):
    rows = read_jsonl(path)
    return (isinstance(rows[-1]["peak_rss_mb"], (int, float))
            and all(_kinds_hold(r, TIMINGS_ROW) for r in rows[:-1]))


def _read_bench(path):
    with open(path) as f:
        return _kinds_hold(json.load(f), REPORT_KEYS)


READERS = {
    "plan.jsonl": _read_jsonl(PLAN_ROW),
    "trace.jsonl": _read_jsonl(TRACE_ROW),
    "timings.jsonl": _read_timings,
    "loss.csv": lambda path: _csv_kinds_hold(path, LOSS_COLUMNS),
    "curves.csv": lambda path: _csv_kinds_hold(path, CURVE_COLUMNS),
    "bench_report.json": _read_bench,
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The bytes of each artifact of one tiny train, prune, bench and study
    run, and of the INI config they ran from."""
    root = tmp_path_factory.mktemp("fuzz")
    train, prune = str(root / "train"), str(root / "prune")
    ini = root / "run.ini"
    ini.write_text(INI.format(ckpt=os.path.join(train, "model.ckpt"),
                              pruned=os.path.join(prune, "pruned.ckpt")))
    for argv in (["train", "--out", train], ["prune", "--out", prune, "--emit-trace"],
                 ["bench", "--out", str(root / "bench")],
                 ["study-sensitivity", "--out", str(root / "study")]):
        assert cli(argv[:1] + ["--config", str(ini)] + argv[1:]) == 0, argv
    where = {"loss.csv": train, "plan.jsonl": prune, "trace.jsonl": prune,
             "timings.jsonl": prune, "bench_report.json": str(root / "bench"),
             "curves.csv": str(root / "study")}
    out = {name: open(os.path.join(d, name), "rb").read() for name, d in where.items()}
    out["run.ini"] = ini.read_bytes()
    return out


def _cases(raw, seed):
    """A flipped bit at 25 places in each quarter of raw, 20 truncations
    and one appended byte."""
    rng = random.Random(seed)
    cases = []
    for q in range(4):
        lo, hi = q * len(raw) // 4, (q + 1) * len(raw) // 4
        for _ in range(25):
            k = rng.randrange(lo, hi)
            cases.append(raw[:k] + bytes([raw[k] ^ (1 << rng.randrange(8))]) + raw[k + 1:])
    cases += [raw[:rng.randrange(len(raw))] for _ in range(20)]
    cases.append(raw + bytes([rng.randrange(256)]))
    return cases


@pytest.mark.parametrize("name", sorted(READERS))
def test_report_reads_a_fuzzed_artifact_or_fails_in_one_line(artifacts, tmp_path, capsys,
                                                            name):
    refused = 0
    for n, case in enumerate([artifacts[name]] + _cases(artifacts[name], 2025)):
        d = tmp_path / str(n)
        d.mkdir()
        (d / name).write_bytes(case)
        code = cli(["report", "--out", str(d)])
        err = capsys.readouterr().err
        if code == 0:
            assert err == "" and READERS[name](str(d / name)), case
        else:
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err
            assert name in err, (case, err)
            refused += 1
        assert n > 0 or code == 0  # the artifact as written reads
    assert refused > 0


def test_load_config_reads_a_fuzzed_ini_or_fails_in_one_line(artifacts, tmp_path):
    path = tmp_path / "c.ini"
    refused = 0
    for case in _cases(artifacts["run.ini"], 2026):
        path.write_bytes(case)
        try:
            cfg = load_config(str(path))
        except ConfigError as e:
            assert "\n" not in str(e), (case, str(e))
            refused += 1
            continue
        for sec, values in cfg.items():
            assert values.keys() == DEFAULTS[sec].keys()
            for key, v in values.items():
                assert type(v) is type(DEFAULTS[sec][key]), (case, sec, key, v)
    assert refused > 0


def test_parse_schedule_reads_a_fuzzed_schedule_or_fails_in_one_line():
    refused = 0
    for case in _cases(SCHEDULE.encode(), 2027):
        try:
            stages = parse_schedule(case.decode("latin-1"))
        except ScheduleError as e:
            assert "\n" not in str(e), (case, str(e))
            refused += 1
            continue
        for st in stages:
            assert st.kinds and set(st.kinds) <= set(KIND_ORDER), (case, st)
            assert type(st.steps) is int and st.steps >= 1, (case, st)
            assert (st.g is None) == ("mlp_channels" not in st.kinds), (case, st)
            assert st.g is None or type(st.g) is int and st.g >= 1, (case, st)
    assert refused > 0
