"""Exception types shared across the toolkit, and the bounds of every config field."""

import math
from os import PathLike


class CodegapError(Exception):
    """Base class for all toolkit errors."""


class UnsupportedLanguage(CodegapError):
    pass


class EncodingError(CodegapError):
    pass


class InvalidBounds(CodegapError, ValueError):
    pass


# the most workers `jobs` may ask for: a fixed ceiling, so one config is valid on every host
MAX_JOBS = 64

# config key -> (what it must be, test): the one declaration of each config field's bound
BOUNDS = {
    **dict.fromkeys(("shard_size", "pairs_per_input", "dim", "buckets", "segment_min_len",
                     "min_target_len"), ("at least 1", lambda v: v >= 1)),
    "jobs": (f"between 1 and {MAX_JOBS}", lambda v: 1 <= v <= MAX_JOBS),
    # a seed keys blake2b by its digits (64 bytes at most) and seeds numpy (no negatives)
    "seed": (f"between 0 and {2 ** 64 - 1}", lambda v: 0 <= v < 2 ** 64),
    "mean_target_len": ("finite", math.isfinite),
    **dict.fromkeys(("stddev_target_len", "decay_power"),
                    ("finite and at least 0", lambda v: math.isfinite(v) and v >= 0)),
    **dict.fromkeys(("mask_prob", "skip_pair_prob", "warmup_frac"),
                    ("between 0 and 1", lambda v: 0 <= v <= 1)),
    **dict.fromkeys(("tau", "lr"), ("finite and greater than 0", lambda v: 0 < v < math.inf)),
    **dict.fromkeys(("valid_cap", "steps", "truncation_threshold", "max_extractions", "eval_every"),
                    ("at least 0", lambda v: v >= 0)),
    # an oversized pair keeps budget // 2 tokens a side, at least one each
    "token_budget": ("at least 2", lambda v: v >= 2),
}
# (lower key, upper key) pairs of length bounds; the upper may not fall below the lower
ORDERED_BOUNDS = (("min_target_len", "max_target_len"), ("segment_min_len", "segment_max_len"))


def check_bounds(values: dict) -> None:
    """Raise InvalidBounds for the first key outside its BOUNDS, else the first pair out of order."""
    for key, value in values.items():
        if key in BOUNDS and not BOUNDS[key][1](value):
            raise InvalidBounds(f"config key {key!r} must be {BOUNDS[key][0]}, got {value}")
    for low, high in ORDERED_BOUNDS:
        if high in values and values[high] < values[low]:
            raise InvalidBounds(f"config key {high!r} must be at least {low!r} "
                                f"({values[low]}), got {values[high]}")


class BoundedConfig:
    """A config dataclass whose fields are checked against BOUNDS when it is made."""

    def __post_init__(self) -> None:
        check_bounds(vars(self))


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
