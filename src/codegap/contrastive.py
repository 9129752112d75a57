"""Temperature-scaled contrastive loss with in-batch negatives, plus a small
hashed-feature dual encoder that makes the full generate/train/evaluate loop
runnable without a pretrained transformer.

The loss denominator comes in two forms: the standard one includes the
positive term (non-negative loss, bounded optimum) and is the default; the
negatives-only variant, selectable by flag, omits it and can go negative.
One shared encoder embeds both contexts and targets; `ToyEncoder.bucket_counts`
is its one featurizer, for training, validation and encoding alike.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import random
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    BatchTooSmall,
    Diverged,
    EmptyInput,
    SchemaError,
    ZeroVector,
)
from .texttok import text_tokens

log = logging.getLogger(__name__)

DEFAULT_DIM = 256
DEFAULT_BUCKETS = 1 << 16
DEFAULT_TAU = 0.1
CHECKPOINT_FORMAT = 1
EMBED_ROWS = 32  # texts per block when encoding a side or a validation set

_GRAM_SEP = "\x1f"


# --------------------------------------------------------------------------
# hashed n-gram features

def stable_bucket(gram: str, buckets: int) -> int:
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % buckets


class BucketTable(dict):
    """gram -> stable_bucket(gram, buckets), hashing each distinct gram once."""

    def __init__(self, buckets: int):
        self.buckets = buckets

    def __missing__(self, gram: str) -> int:
        return self.setdefault(gram, stable_bucket(gram, self.buckets))


@dataclass
class ToyEncoder:
    """Linear bag-of-hashed-ngrams encoder with L2-normalized outputs."""

    params: np.ndarray
    tau: float = DEFAULT_TAU
    table: BucketTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.table = BucketTable(self.buckets)

    @property
    def buckets(self) -> int:
        return self.params.shape[0]

    @property
    def dim(self) -> int:
        return self.params.shape[1]

    @classmethod
    def create(cls, seed: int = 0, dim: int = DEFAULT_DIM,
               buckets: int = DEFAULT_BUCKETS, tau: float = DEFAULT_TAU) -> "ToyEncoder":
        rng = np.random.default_rng(seed)
        params = rng.normal(0.0, 1.0 / math.sqrt(dim), size=(buckets, dim))
        return cls(params=params, tau=tau)

    def bucket_counts(self, texts: list[str]) -> "PackedCounts":
        """The unigram and bigram bucket counts of the texts, packed: every gram
        through the table, each text's keys offset by row * buckets, and one
        unique count, so a row's entries are its buckets in ascending order."""
        tokens = [text_tokens(text) for text in texts]
        if not all(tokens):
            raise EmptyInput("cannot encode an empty token sequence")
        sizes = [2 * len(t) - 1 for t in tokens]  # unigrams and bigrams
        # streamed: each bigram string is freed once the table has mapped it
        grams = chain.from_iterable(chain(t, map(_GRAM_SEP.join, zip(t, t[1:]))) for t in tokens)
        keys = np.fromiter(map(self.table.__getitem__, grams), dtype=np.int64, count=sum(sizes))
        keys += np.repeat(np.arange(len(tokens)) * self.buckets, sizes)
        keys, mult = np.unique(keys, return_counts=True)
        rows, keys = np.divmod(keys, self.buckets)
        buckets, cols = np.unique(keys, return_inverse=True)
        # int32 entries: every batch stays packed for the whole of training
        return PackedCounts(buckets, rows.astype(np.int32), cols.astype(np.int32),
                            mult.astype(np.int32), len(texts))

    def blocks(self, texts: list[str]) -> Iterator["PackedCounts"]:
        """The bucket counts of the texts, packed EMBED_ROWS texts at a time."""
        return (self.bucket_counts(texts[i:i + EMBED_ROWS]) for i in range(0, len(texts), EMBED_ROWS))

    def encode(self, texts: list[str]) -> np.ndarray:
        """One unit row per text, packed in blocks; each row is its own product
        over its ascending buckets, as if encoded alone."""
        rows = np.empty((len(texts), self.dim))
        entries = (entry for packed in self.blocks(texts) for entry in packed.row_entries())
        for row, (keys, mult) in zip(rows, entries):
            row[:] = mult @ self.params[keys]
            norm = np.linalg.norm(row)
            if norm == 0.0:
                raise ZeroVector("degenerate embedding with zero norm")
            row /= norm
        return rows

    def save(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("wb") as fh:
            np.save(fh, self.params)
        sidecar = {
            "format_version": CHECKPOINT_FORMAT,
            "dim": self.dim,
            "buckets": self.buckets,
            "tau": self.tau,
        }
        Path(str(path) + ".json").write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ToyEncoder":
        path = Path(path)
        sidecar_path = Path(str(path) + ".json")
        try:
            sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"invalid checkpoint sidecar: {exc}", path=sidecar_path) from exc
        if not isinstance(sidecar, dict):
            raise SchemaError("a checkpoint sidecar must hold one JSON object", path=sidecar_path)
        if sidecar.get("format_version") != CHECKPOINT_FORMAT:
            raise SchemaError(f"unsupported checkpoint format: {sidecar.get('format_version')}",
                              path=sidecar_path)
        tau = sidecar.get("tau")
        if isinstance(tau, bool) or not isinstance(tau, (int, float)):
            raise SchemaError(f"checkpoint sidecar needs a numeric 'tau', got {tau!r}",
                              path=sidecar_path)
        shape = sidecar.get("buckets"), sidecar.get("dim")
        if not all(type(n) is int and n > 0 for n in shape):
            raise SchemaError(f"checkpoint sidecar needs positive integer 'buckets' and 'dim', "
                              f"got {shape[0]!r} and {shape[1]!r}", path=sidecar_path)
        with path.open("rb") as fh:
            try:
                params = np.load(fh)
            except (ValueError, EOFError) as exc:  # pickled data, or no .npy array at all
                raise SchemaError(f"not a checkpoint array: {exc}", path=path) from exc
        # an .npz archive loads as several arrays
        if not isinstance(params, np.ndarray) or params.dtype.kind != "f" or params.shape != shape:
            raise SchemaError(f"not one float array of the sidecar's shape {shape}", path=path)
        return cls(params=params, tau=float(tau))


# --------------------------------------------------------------------------
# packed bucket counts, the batch loss and its analytic gradient

class PackedCounts(NamedTuple):
    """Bucket counts of n texts: entry e puts mult[e] at (rows[e], cols[e]) of
    a dense n x len(buckets) matrix over the texts' sorted distinct buckets.
    Entries run row by row, each row's in ascending bucket order."""

    buckets: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    mult: np.ndarray
    n: int

    def dense(self) -> np.ndarray:
        counts = np.zeros((self.n, len(self.buckets)), dtype=np.float64)
        counts[self.rows, self.cols] = self.mult
        return counts

    def row_entries(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each row's buckets in ascending order and their counts."""
        keys = self.buckets[self.cols]
        bounds = np.searchsorted(self.rows, np.arange(self.n + 1)).tolist()
        return [(keys[lo:hi], self.mult[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _unit_rows(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row over its norm, and the norms. A norm of 0 or inf is refused: a zero row's, and
    one whose squares underflow to 0 or overflow to inf in float64. A row holding nan stays nan,
    for the caller's own check (the training loss, or the loaders' finite-number rule)."""
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(raw, axis=1)
    bad = (norms == 0.0) | np.isinf(norms)
    if bad.any():
        row = int(np.argmax(bad))
        if not raw[row].any():
            raise ZeroVector("cosine similarity of a zero vector is undefined")
        raise ZeroVector(f"a vector's norm is {norms[row]} in float64, not a finite positive "
                         f"number, so its cosine similarity is undefined")
    return raw / norms[:, None], norms


def batch_loss_and_grads(params: np.ndarray, packed: PackedCounts, tau: float,
                         include_positive: bool = True) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss of a packed batch (k contexts, then their k targets), its distinct
    buckets U and the gradient of params[U], one row per bucket."""
    counts = packed.dense()
    e, norms = _unit_rows(counts @ params[packed.buckets])
    k = packed.n // 2
    z = (e[:k] @ e[k:].T) / tau
    diag = np.diag(z).copy()
    if not include_positive:
        np.fill_diagonal(z, -np.inf)
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    dz = (np.exp(z - lse[:, None]) - np.eye(k)) / (k * tau)
    d_e = np.vstack((dz @ e[k:], dz.T @ e[:k]))
    # backprop through the L2 normalization
    d_raw = (d_e - np.sum(d_e * e, axis=1, keepdims=True) * e) / norms[:, None]
    return float(np.mean(lse - diag)), packed.buckets, counts.T @ d_raw


# --------------------------------------------------------------------------
# training loop

@dataclass
class TrainConfig:
    steps: int = 1000
    lr: float = 0.5
    seed: int = 0
    dim: int = DEFAULT_DIM
    buckets: int = DEFAULT_BUCKETS
    tau: float = DEFAULT_TAU
    token_budget: int = 7000
    include_positive: bool = True
    warmup_frac: float = 0.1
    decay_power: float = 1.0
    eval_every: int = 0
    valid_cap: int = 30000


@dataclass
class TrainReport:
    steps: int
    final_loss: float
    best_mrr: float
    best_step: int
    mrr_history: list[tuple[int, float]] = field(default_factory=list)


def learning_rate(step: int, config: TrainConfig) -> float:
    """Linear warmup for the first warmup_frac of steps, then polynomial decay."""
    warmup = max(1, int(config.steps * config.warmup_frac))
    if step < warmup:
        return config.lr * (step + 1) / warmup
    remaining = max(1, config.steps - warmup)
    progress = (step - warmup) / remaining
    return config.lr * (1.0 - progress) ** config.decay_power


def pack_validation(encoder: ToyEncoder, contexts: list[str], targets: list[str]
                    ) -> tuple[list[PackedCounts], np.ndarray]:
    """Contexts, then targets, packed in blocks of EMBED_ROWS texts, and each
    context's own row among the targets: the first target with equal bucket
    counts, so ties fall to the index rule, not to rounding."""
    target_blocks = list(encoder.blocks(targets))
    first: dict[tuple[bytes, bytes], int] = {}
    entries = (entry for packed in target_blocks for entry in packed.row_entries())
    own = np.array([first.setdefault((k.tobytes(), m.tobytes()), i)
                    for i, (k, m) in enumerate(entries)], dtype=np.intp)
    return [*encoder.blocks(contexts), *target_blocks], own


def validation_mrr(params: np.ndarray, blocks: list[PackedCounts], own: np.ndarray,
                   block: int = 512) -> float:
    """Mean reciprocal rank of each context's own target over all targets,
    on a validation set packed by pack_validation."""
    n = len(own)
    e = _unit_rows(np.vstack([b.dense() @ params[b.buckets] for b in blocks]))[0]
    eq, ek = e[:n], e[n:]
    total = 0.0
    for start in range(0, n, block):
        stop = min(n, start + block)
        scores = (eq[start:stop] @ ek.T)[:, own]
        mine = scores[np.arange(stop - start), np.arange(start, stop)]
        # rank = 1 + higher scores + equal scores at a lower index
        before = np.arange(n) < np.arange(start, stop)[:, None]
        ranks = (1 + (scores > mine[:, None]).sum(axis=1)
                 + ((scores == mine[:, None]) & before).sum(axis=1))
        total += float(np.sum(1.0 / ranks))
    return total / n


def train_toy(train_records, valid_records, config: TrainConfig,
              encoder: ToyEncoder | None = None) -> tuple[ToyEncoder, TrainReport]:
    """SGD on language-pure batches; returns the highest-validation-MRR state."""
    from .pipeline import batch_by_language  # batching lives with the pipeline

    encoder = encoder or ToyEncoder.create(seed=config.seed, dim=config.dim,
                                           buckets=config.buckets, tau=config.tau)
    batches = [b for b in batch_by_language(train_records, config.token_budget)
               if len(b.pairs) >= 2]
    if not batches:
        raise BatchTooSmall("no trainable batch holds two or more pairs")

    packed = [encoder.bucket_counts([p.context for p in b.pairs] + [p.target for p in b.pairs])
              for b in batches]
    valid = list(valid_records)[: config.valid_cap]
    valid_set = pack_validation(encoder, [p.context for p in valid], [p.target for p in valid])

    rng = random.Random(config.seed)
    order: list[int] = []
    params = encoder.params
    best_mrr = -1.0
    best_step = -1
    eval_every = config.eval_every or max(1, config.steps // 10)
    history: list[tuple[int, float]] = []
    loss = float("nan")

    for step in range(config.steps):
        if not order:
            order = list(range(len(packed)))
            rng.shuffle(order)
        loss, buckets, grads = batch_loss_and_grads(params, packed[order.pop()],
                                                    config.tau, config.include_positive)
        if not math.isfinite(loss):
            raise Diverged(f"loss became non-finite at step {step}")
        lr = learning_rate(step, config)
        params[buckets] -= lr * grads
        if valid and ((step + 1) % eval_every == 0 or step + 1 == config.steps):
            mrr = validation_mrr(params, *valid_set)
            history.append((step + 1, mrr))
            if mrr > best_mrr:
                best_mrr = mrr
                best_step = step + 1
                best_params = params.copy()
            log.info("step %d loss %.4f valid-mrr %.4f", step + 1, loss, mrr)

    if best_step < 0:  # no validation set: keep the final state
        best_params = params.copy()
        best_step = config.steps
        best_mrr = float("nan")
    final = ToyEncoder(params=best_params, tau=config.tau)
    report = TrainReport(steps=config.steps, final_loss=loss,
                         best_mrr=best_mrr, best_step=best_step, mrr_history=history)
    return final, report
