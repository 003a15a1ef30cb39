"""Exception hierarchy shared across the toolkit, and the text-file reader
that maps bytes which are not UTF-8 onto it."""

import codecs
from pathlib import Path


def read_text(path, error: type[Exception]) -> str:
    """The UTF-8 text of the file at `path`, less one leading byte-order mark;
    a byte that is not UTF-8 raises `error`, the reader's own error for a bad
    input, with its offset in the file."""
    data = Path(path).read_bytes()
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        return str(memoryview(data)[start:], "utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {start + exc.start} is not UTF-8 ({exc.reason})") from None


class ResLearnError(Exception):
    """Base class for all toolkit errors."""


# --- trace ingest ---

class TruncatedHeader(ResLearnError):
    pass


class BadMagic(ResLearnError):
    pass


class SchemaMismatch(ResLearnError):
    pass


class RowParseError(ResLearnError):
    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


# --- view-frame ---

class EmptySegment(ResLearnError):
    pass


class DegenerateDistribution(ResLearnError):
    pass


class CaptureTooShort(ResLearnError):
    pass


# --- series preparation ---

class SeriesTooShort(ResLearnError):
    pass


class SplitTooSmall(ResLearnError):
    pass


class DegenerateSeries(ResLearnError):
    pass


# --- models ---

class ShapeMismatch(ResLearnError):
    pass


class NonFiniteLoss(ResLearnError):
    pass


class InputOverflow(ResLearnError):
    pass


class CheckpointError(ResLearnError):
    pass


# --- residual learning ---

class LengthMismatch(ResLearnError):
    pass


# --- metrics ---

class Empty(ResLearnError):
    pass


class AllTermsSkipped(ResLearnError):
    pass


class ZeroBase(ResLearnError):
    pass


# --- harness ---

class ConfigError(ResLearnError):
    pass


class WorkerDied(ResLearnError):
    pass
