"""INI run configuration: one section per subcommand, unknown keys rejected.

Every run writes the section it consumed (with command-line overrides baked
in) next to its outputs as resolved.ini, so a run directory is always
self-describing.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict
from typing import Callable, Dict, Optional, Tuple

from .bench import BenchConfig
from .errors import ConfigError
from .study import StudyConfig
from .training import TrainConfig


def _posint(s: str) -> int:
    v = int(s)
    if v < 1:
        raise ValueError("must be positive")
    return v


def _nonneg(s: str) -> int:
    v = int(s)
    if v < 0:
        raise ValueError("must be nonnegative")
    return v


def _pfloat(s: str) -> float:
    v = float(s)
    if not v > 0:
        raise ValueError("must be positive")
    return v


def _nfloat(s: str) -> float:
    v = float(s)
    if v < 0:
        raise ValueError("must be nonnegative")
    return v


def _bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _ints(s: str) -> Tuple[int, ...]:
    s = s.strip()
    if not s:
        return ()
    return tuple(int(x) for x in s.split(","))


def _choice(*options: str) -> Callable[[str], str]:
    def conv(s: str) -> str:
        if s not in options:
            raise ValueError(f"expected one of {options}")
        return s
    return conv


_TRAINISH = {
    "steps": _posint,
    "batch_size": _posint,
    "seq_len": _posint,
    "lr": _pfloat,
    "min_lr": _nfloat,
    "warmup": _nonneg,
    "clip_norm": _pfloat,
    "beta1": _nfloat,
    "beta2": _nfloat,
    "eps": _pfloat,
    "seed": _nonneg,
}

SCHEMA: Dict[str, Dict[str, Callable]] = {
    "train": {
        "corpus": str,
        "variant": _choice("mamba1", "mamba2"),
        "n_blocks": _posint,
        "transformer_at": _ints,
        "d_model": _posint,
        "d_state": _posint,
        "mlp_hidden": _posint,
        "eval_every": _nonneg,
        "eval_windows": _posint,
        **_TRAINISH,
    },
    "prune": {
        "corpus": str,
        "checkpoint": str,
        "schedule": str,
        "cal_count": _posint,
        "cal_length": _posint,
        "batch_size": _posint,
        "threads": _posint,
        "emit_trace": _bool,
        "plan_only": _bool,
    },
    "eval": {
        "corpus": str,
        "checkpoint": str,
        "split": _choice("train", "val", "cal"),
        "windows": _posint,
        "length": _posint,
        "batch_size": _posint,
    },
    "bench": {
        "corpus": str,
        "dense_checkpoint": str,
        "pruned_checkpoint": str,
        "prompt": _posint,
        "new_tokens": _posint,
        "batches": _posint,
        "warmup": _nonneg,
        "seed": _nonneg,
        "ppl_windows": _posint,
        "ppl_length": _posint,
    },
    "study": {
        "corpus": str,
        "n_blocks": _posint,
        "d_model": _posint,
        "d_state": _posint,
        "removals": _posint,
        "cal_count": _posint,
        "cal_length": _posint,
        **_TRAINISH,
    },
}

_STUDY = asdict(StudyConfig())
_STUDY_TRAIN = _STUDY.pop("train")

DEFAULTS: Dict[str, Dict[str, object]] = {
    "train": {
        "corpus": "bundled", "variant": "mamba1", "n_blocks": 6,
        "transformer_at": (2,), "d_model": 64, "d_state": 16,
        "mlp_hidden": 128, **asdict(TrainConfig(steps=600, warmup=40)),
    },
    "prune": {
        "corpus": "bundled", "checkpoint": "", "schedule": "",
        "cal_count": 256, "cal_length": 256, "batch_size": 16,
        "threads": 1, "emit_trace": False, "plan_only": False,
    },
    "eval": {
        "corpus": "bundled", "checkpoint": "", "split": "val",
        "windows": 32, "length": 128, "batch_size": 16,
    },
    "bench": {
        "corpus": "bundled", "dense_checkpoint": "", "pruned_checkpoint": "",
        **asdict(BenchConfig()), "seed": 0, "ppl_windows": 16, "ppl_length": 128,
    },
    "study": {
        "corpus": "bundled", **_STUDY,
        **{k: _STUDY_TRAIN[k] for k in _TRAINISH},
    },
}


def load_config(path: Optional[str] = None) -> Dict[str, Dict[str, object]]:
    """Defaults overlaid with the file at path (when given). Unknown sections
    or keys, unparseable files, and out-of-range values all raise
    ConfigError naming the offender."""
    out = {sec: dict(kv) for sec, kv in DEFAULTS.items()}
    if path is None:
        return out
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"config file {path!r} is unreadable: {e}") from None
    if not read:
        raise ConfigError(f"config file {path!r} is unreadable or missing")
    for sec in cp.sections():
        if sec not in SCHEMA:
            raise ConfigError(
                f"unknown section [{sec}] in {path!r}; "
                f"expected one of {sorted(SCHEMA)}")
        for key, raw in cp.items(sec):
            if key not in SCHEMA[sec]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{sec}] of {path!r}")
            try:
                out[sec][key] = SCHEMA[sec][key](raw)
            except ValueError as e:
                raise ConfigError(
                    f"bad value for {sec}.{key}: {raw!r} ({e})") from None
    return out


def _fmt(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    return repr(v) if isinstance(v, float) else str(v)


def write_resolved(path: str, section: str, values: Dict[str, object]) -> None:
    """Persist one resolved section (overrides applied) in INI form."""
    cp = configparser.ConfigParser(interpolation=None)
    cp[section] = {k: _fmt(v) for k, v in sorted(values.items())}
    with open(path, "w") as f:
        cp.write(f)

