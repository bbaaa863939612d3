"""Shared exception types so callers can tell failure modes apart, and the
text-file reader that turns bytes that are not UTF-8 into one of them."""


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
