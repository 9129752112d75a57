"""Exception types shared across the toolkit."""


class CodegapError(Exception):
    """Base class for all toolkit errors."""


class UnsupportedLanguage(CodegapError):
    pass


class EncodingError(CodegapError):
    pass


class InvalidBounds(CodegapError, ValueError):
    pass


class EmptyTree(CodegapError):
    pass


class SpanMismatch(CodegapError):
    pass


class AliasCollision(CodegapError):
    pass


class SchemaError(CodegapError):
    """Malformed persisted record; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DimensionMismatch(CodegapError, ValueError):
    pass


class ZeroVector(CodegapError, ValueError):
    pass


class NoRelevant(CodegapError):
    pass


class BatchTooSmall(CodegapError, ValueError):
    pass


class EmptyInput(CodegapError, ValueError):
    pass


class Diverged(CodegapError):
    pass


class UsageError(CodegapError):
    pass
