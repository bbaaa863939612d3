"""Shared exception types so callers can tell failure modes apart, and the
one check of bytes from outside: the text reader and the artifact row checks."""

import csv
from typing import Dict, List, Sequence


class ShapeError(ValueError):
    """Operand shapes rejected by the restricted broadcasting rules."""


class TokenError(ValueError):
    """Token id outside the vocabulary; message names the offending position."""


class StateError(RuntimeError):
    """Operation invalid for the current object state (double removal, stale tape)."""


class CapacityError(ValueError):
    """Structural edit asks for more capacity than the structure has left."""


class ScheduleError(ValueError):
    """Malformed pruning schedule, or one that targets structures the model lacks."""


class ConfigError(ValueError):
    """Unknown key, unknown section, bad value, or unreadable config file."""


class CheckpointError(RuntimeError):
    """Checkpoint bytes failing magic/version/shape validation."""


class DivergenceError(RuntimeError):
    """Training loss went non-finite. Carries the failing step index."""

    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step


def read_text(path: str) -> str:
    """The file at path as UTF-8 text; ConfigError naming the file and the
    offset of the first byte that is not UTF-8."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: byte {e.start} is not UTF-8 ({e.reason})") from None


# A kind is "a string", "an integer" or "a number", or one of them + " or absent"
# (a JSON key may be missing) or + " or empty" (a CSV cell may be empty: None).
_TYPES = {"a string": (str,), "an integer": (int,), "a number": (int, float)}
_PARSE = {"a string": str, "an integer": int, "a number": float}


def is_a(value, what: str) -> bool:
    """Whether value is of the kind `what`; a bool is no integer or number."""
    return isinstance(value, _TYPES[what.split(" or ")[0]]) and not isinstance(value, bool)


def check_rows(rows: Sequence, types: Dict[str, str], where: str) -> None:
    """ScheduleError naming the first row (counted from 1) that is not an
    object holding every key of `types` with a value of its kind; a key of
    an " or absent" kind may be missing."""
    for n, row in enumerate(rows, 1):
        if not isinstance(row, dict):
            raise ScheduleError(f"{where}: row {n} is not an object: {row!r}")
        missing = [k for k, what in types.items()
                   if k not in row and not what.endswith(" or absent")]
        if missing:
            raise ScheduleError(f"{where}: row {n} lacks {missing}")
        for k, what in types.items():
            if k in row and not is_a(row[k], what):
                raise ScheduleError(f"{where}: row {n} has {k} {row[k]!r}, expected {what}")


def read_csv_rows(path: str, columns: Dict[str, str]) -> List[dict]:
    """The rows of the CSV file at path, whose line 1 is the header naming
    the keys of `columns` in order, each cell parsed to its column's kind;
    ConfigError naming the file and the first line that does not fit."""
    reader = csv.reader(read_text(path).split("\n"))
    try:
        if next(reader) != list(columns):
            raise ConfigError(f"{path}: line 1 is not the header {','.join(columns)}")
        return [_cells(f"{path}: line {reader.line_num}", cells, columns)
                for cells in reader if cells]
    except csv.Error as e:
        raise ConfigError(f"{path}: line {reader.line_num} is not CSV ({e})") from None


def _cells(where: str, cells: List[str], columns: Dict[str, str]) -> dict:
    if len(cells) != len(columns):
        raise ConfigError(f"{where} has {len(cells)} fields, expected {len(columns)}")
    row = {}
    for (k, what), raw in zip(columns.items(), cells):
        try:
            row[k] = (None if raw == "" and what.endswith(" or empty")
                      else _PARSE[what.split(" or ")[0]](raw))
        except ValueError:
            raise ConfigError(f"{where} has {k} {raw!r}, expected {what}") from None
    return row
