"""Exception types shared across the toolkit."""

from os import PathLike


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
    """Malformed data in a file, worded `<path>: line N: <message>` with the
    parts that are known; keeps the line number and the path."""

    def __init__(self, message: str, line: int | None = None, path: str | PathLike | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message if path is None else f"{path}: {message}")
        self.line = line
        self.path = path


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
