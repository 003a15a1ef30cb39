"""Exception hierarchy shared across the toolkit."""


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
