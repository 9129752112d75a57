"""End-to-end corpus machinery.

Files are deduplicated by content hash and split train/valid at repository
granularity. Long files are shortened by cutting syntactically complete
segments (150..800 tokens) and marking the cut points with fold tokens; the
shortened file and every segment then feed pair generation independently.
Output shards are a pure function of (corpus bytes, paths under the roots,
config, seed): every file gets its own random stream derived from the master
seed and its content hash, and shards are written in content-hash order, so
worker count, filesystem order and the spelling of a root never change the
bytes on disk.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
import re
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator

# mutual_identifiers is not called here; perfbench's layer tracer patches this name (ROADMAP item 5)
from .deleak import apply_masking, dedent_target, mutual_identifiers, plan_masking  # noqa: F401
from .deleak import MaskingPlan
from .errors import CodegapError, EmptyTree, SchemaError
from .languages import FOLD_TOKEN, Language, get_language, language_for_name
from .spans import SpanSelection, select_span, select_span_with_retry, split
from .texttok import count_text_tokens, truncate_text_tokens
from .tokenizer import clear_token_tables, tokenize
from .tree import SyntaxTree, parse, tree_from_run, tree_with_runs_folded

log = logging.getLogger(__name__)

TRAIN = "train"
VALID = "valid"
# enough chunks that a worker left with a slow chunk does not hold up the rest
CHUNKS_PER_WORKER = 8
MAX_CHUNK_FILES = 32  # a worker holds a chunk's records until it returns them
# the most workers `jobs` may ask for: a fixed ceiling, so one config is valid on every host
MAX_JOBS = 64


@dataclass
class PipelineConfig:
    seed: int = 0
    mean_target_len: float = 150.0
    stddev_target_len: float = 90.0
    min_target_len: int = 16
    max_target_len: int = 512
    mask_prob: float = 0.9
    skip_pair_prob: float = 0.05
    masking_enabled: bool = True
    dedent_enabled: bool = True
    truncation_threshold: int = 1024
    segment_min_len: int = 150
    segment_max_len: int = 800
    max_extractions: int = 8
    max_span_attempts: int = 8
    pairs_per_input: int = 1
    token_budget: int = 7000
    shard_size: int = 10000
    languages: tuple[str, ...] | None = None
    valid_repos: frozenset[str] = frozenset()
    jobs: int = 1

    def to_dict(self) -> dict:
        out = {}
        for key, value in self.__dict__.items():
            if isinstance(value, frozenset):
                out[key] = sorted(value)
            elif isinstance(value, tuple):
                out[key] = list(value)
            else:
                out[key] = value
        return out


@dataclass(frozen=True)
class CorpusFile:
    path: Path
    source: str  # POSIX path under the root the file was found in; meta.source
    language: str
    content_hash: str
    split: str


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_seed(master_seed: int, digest: str) -> int:
    keyed = hashlib.blake2b(digest.encode("ascii"),
                            key=str(master_seed).encode("ascii"), digest_size=8)
    return int.from_bytes(keyed.digest(), "little")


def repo_of(path: Path, root: Path) -> str:
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        return root.name
    return rel.parts[0] if len(rel.parts) > 1 else root.name


def _files_under(root: str) -> list[tuple[tuple[str, ...], str, bool]]:
    """(parts under the root, path, whether it is a link) of every file under `root`, in the
    order `sorted(Path(root).rglob("*"))` gives: by parts. One scandir pass per directory; a
    linked directory is not entered, and one that cannot be listed is skipped with a warning."""
    found, todo = [], [((), root)]
    while todo:
        parts, directory = todo.pop()
        try:
            with os.scandir(directory) as entries:
                for entry in entries:
                    if entry.is_dir(follow_symlinks=False):
                        todo.append(((*parts, entry.name), entry.path))
                    elif entry.is_file():
                        found.append(((*parts, entry.name), entry.path, entry.is_symlink()))
        except OSError as exc:
            log.warning("skipping %s: %s", directory, exc)
    found.sort()
    return found


def ingest(roots: Iterable[str | Path], config: PipelineConfig,
           ext_map: dict[str, str] | None = None) -> list[CorpusFile]:
    """Collect supported files, dedup by content, split by repository."""
    seen: set[str] = set()
    out: list[CorpusFile] = []
    wanted = set(config.languages) if config.languages else None
    for root in roots:
        root = Path(root)
        if not root.is_dir():
            raise CodegapError(f"corpus root {str(root)!r} is not a directory")
        for parts, path, linked in _files_under(str(root)):
            lang = language_for_name(parts[-1], ext_map)
            if lang is None:
                log.debug("skipping %s: unknown extension", path)
                continue
            if wanted is not None and lang.name not in wanted:
                continue
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                log.warning("skipping %s: %s", path, exc)
                continue
            digest = content_hash(data)
            if digest in seen:
                continue
            seen.add(digest)
            # the walk does not enter linked directories, so only a linked
            # file can resolve outside the repository its path names
            if linked:
                repo = repo_of(Path(path), root)
            else:
                repo = parts[0] if len(parts) > 1 else root.name
            split_name = VALID if repo in config.valid_repos else TRAIN
            out.append(CorpusFile(path=Path(path), source="/".join(parts),
                                  language=lang.name, content_hash=digest, split=split_name))
    out.sort(key=lambda f: f.content_hash)
    return out


# --------------------------------------------------------------------------
# truncation

@dataclass
class TruncationResult:
    shortened: SyntaxTree
    segments: list[SyntaxTree]  # in file order, one per fold marker; empty if not truncated


def truncate_file(tree: SyntaxTree, rng: random.Random, config: PipelineConfig) -> TruncationResult:
    """Cut 150..800-token segments out of an oversized file, marking folds."""
    total = tree.leaf_count
    if total <= config.truncation_threshold:
        return TruncationResult(shortened=tree, segments=[])
    chosen: list[SpanSelection] = []
    remaining = total
    for _ in range(config.max_extractions):
        if remaining <= config.truncation_threshold:
            break
        placed = None
        for _attempt in range(24):
            want = rng.randint(config.segment_min_len, config.segment_max_len)
            try:
                span = select_span(tree, want, rng)
            except EmptyTree:  # every node lies in an error region: keep the file whole
                return TruncationResult(shortened=tree, segments=[])
            if not config.segment_min_len <= span.leaf_count < total:  # all leaves: no fold
                continue
            if any(not (span.leaf_end <= s.leaf_start or s.leaf_end <= span.leaf_start)
                   for s in chosen):
                continue
            placed = span
            break
        if placed is None:
            break
        chosen.append(placed)
        remaining -= placed.leaf_count - 1  # the fold marker takes one slot
    if not chosen:
        return TruncationResult(shortened=tree, segments=[])
    chosen.sort(key=lambda s: s.leaf_start)
    runs = [s.sibling_run for s in chosen]
    shortened = tree_with_runs_folded(tree, runs)
    segments = [tree_from_run(tree, run) for run in runs]
    return TruncationResult(shortened=shortened, segments=segments)


def splice_truncation(result: TruncationResult) -> list[str]:
    """Token texts with each fold marker replaced by its segment, in order."""
    out: list[str] = []
    seg_iter = iter(result.segments)
    for tok in result.shortened.leaves:
        if tok.kind == "fold":
            out.extend(t.text for t in next(seg_iter).leaves)
        else:
            out.append(tok.text)
    return out


# --------------------------------------------------------------------------
# pair generation

@dataclass(frozen=True)
class PairRecord:
    """One persisted pair: strings plus metadata, as stored in shards."""

    pair_id: str
    language: str
    context: str
    target: str
    meta: dict
    split: str = TRAIN

    def to_record(self) -> dict:
        return {
            "id": self.pair_id,
            "language": self.language,
            "context": self.context,
            "target": self.target,
            "meta": self.meta,
        }


def pair_texts(tree: SyntaxTree, span: SpanSelection, rng: random.Random, config: PipelineConfig,
               folds: dict[int, str]) -> tuple[str, str, int, MaskingPlan | None]:
    """One pair's (context, target, dedent_cols, masking plan or None): folds, aliases and
    dedented indents are edits to the tree's leaves, and `split` writes the text around them."""
    edits, plan, dedent_cols = dict(folds), None, 0
    if config.masking_enabled:  # a side's names: the target's in the span, the context's around it
        ids, names = tree.identifiers
        a, b = bisect_left(ids, span.leaf_start), bisect_left(ids, span.leaf_end)
        around = ids[:a] + ids[b:], names[:a] + names[b:]
        plan = plan_masking(around[1], names[a:b], rng, config.mask_prob, config.skip_pair_prob)
        for side in apply_masking(around, (ids[a:b], names[a:b]), plan):
            edits.update(side)
    if config.dedent_enabled:
        dedent_cols, indents = dedent_target(tree, span.leaf_start, span.leaf_end)
        edits.update(indents)
    context, target = split(tree, span, edits)
    return context, target, dedent_cols, plan


def generate_pairs_for_source(source: str, language: Language, *, seed: int,
                              source_name: str, pair_id_prefix: str, split_name: str = TRAIN,
                              config: PipelineConfig) -> list[PairRecord]:
    """All pairs for one file: truncate if oversized, then split each input."""
    rng = random.Random(seed)
    tree = parse(source, language)
    if tree.leaf_count == 0:
        return []
    trunc = truncate_file(tree, rng, config)
    # a fold takes the offset of the first leaf it folded, its segment's first offset
    folds = {bisect_left(trunc.shortened.offsets, s.offsets[0]): FOLD_TOKEN for s in trunc.segments}
    records: list[PairRecord] = []
    for input_idx, input_tree in enumerate([trunc.shortened, *trunc.segments]):
        for copy_idx in range(config.pairs_per_input):
            span = select_span_with_retry(
                input_tree, rng,
                mean=config.mean_target_len, stddev=config.stddev_target_len,
                min_len=config.min_target_len, max_len=config.max_target_len,
                max_attempts=config.max_span_attempts)
            if span is None:
                log.info("no content-bearing span for %s input %d", source_name, input_idx)
                continue
            context, target, dedent_cols, plan = pair_texts(input_tree, span, rng, config,
                                                            {} if input_idx else folds)
            suffix = f":{copy_idx}" if config.pairs_per_input > 1 else ""
            records.append(PairRecord(
                pair_id=f"{pair_id_prefix}:{input_idx}{suffix}", language=language.name,
                context=context, target=target,
                meta={"source": source_name, "span_start": span.leaf_start,
                      "span_len": span.leaf_count, "dedent_cols": dedent_cols,
                      "skipped_masking": plan is None or plan.skip_pair,
                      "aliases": dict(plan.alias_map) if plan else {}, "seed": seed},
                split=split_name))
    return records


def _worker_generate(args: tuple[CorpusFile, PipelineConfig]) -> list[PairRecord]:
    """One file's pairs, or none for a file that cannot be read or fails: logged, not raised."""
    file, config = args
    try:
        source = file.path.read_bytes().decode("utf-8")
        return generate_pairs_for_source(
            source, get_language(file.language), seed=file_seed(config.seed, file.content_hash),
            source_name=file.source, pair_id_prefix=file.content_hash[:16], split_name=file.split,
            config=config)
    except Exception as exc:  # an unreadable file is reported; any other fault, with its traceback
        log.warning("skipping %s: %s: %s", file.path, type(exc).__name__, exc,
                    exc_info=not isinstance(exc, (OSError, UnicodeDecodeError)))
        return []


def chunk_size(files: int, jobs: int) -> int:
    """Files per pool chunk: CHUNKS_PER_WORKER chunks per worker, or more once
    a chunk would pass MAX_CHUNK_FILES, as many for every worker."""
    per_worker = max(CHUNKS_PER_WORKER, math.ceil(files / (jobs * MAX_CHUNK_FILES)))
    return max(1, math.ceil(files / (per_worker * jobs)))


def make_pairs(files: list[CorpusFile], config: PipelineConfig) -> Iterator[PairRecord]:
    """Deterministic pair stream over deduplicated files, hash order. The
    pool gets chunks of chunk_size files, and at most one worker per chunk.
    The token tables start empty, so each run pays its own warm-up."""
    clear_token_tables()
    tasks = [(f, config) for f in sorted(files, key=lambda f: f.content_hash)]
    if config.jobs <= 1:
        for records in map(_worker_generate, tasks):
            yield from records
        return
    for name in sorted({f.language for f in files}):
        tokenize("", get_language(name))  # compile the grammars once, before the workers fork
    size = chunk_size(len(tasks), config.jobs)
    workers = min(config.jobs, math.ceil(len(tasks) / size))
    with ProcessPoolExecutor(max_workers=max(1, workers)) as pool:
        for records in pool.map(_worker_generate, tasks, chunksize=size):
            yield from records


# --------------------------------------------------------------------------
# persistence

def dump_record(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def write_jsonl(path: str | Path, records: Iterable[PairRecord]) -> int:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(dump_record(rec.to_record()) + "\n")
            count += 1
    return count


_raw_decode = json.JSONDecoder().raw_decode
_NOT_UTF8 = re.compile("[\udc80-\udcff]")  # a byte that is no UTF-8, as surrogateescape reads it


def read_jsonl_objects(path: str | Path, required: tuple[str, ...] = (),
                       types: dict[str, type] | None = None) -> Iterator[tuple[int, dict]]:
    """(line number, object) per non-blank line, read as it is pulled; SchemaError names
    a bad line: one that is not UTF-8, lacks a `required` key or holds a `types` key of
    another type."""
    needed = frozenset(required)
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if not line.isascii() and _NOT_UTF8.search(line):
                raise SchemaError("not valid UTF-8", line=lineno)
            try:
                obj, end = _raw_decode(line)
            except json.JSONDecodeError:
                end = -1
            if end != len(line):  # json.loads words the error, a leading BOM included
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            if not isinstance(obj, dict):
                raise SchemaError("expected a JSON object", line=lineno)
            if not obj.keys() >= needed:
                missing = next(key for key in required if key not in obj)
                raise SchemaError(f"missing {missing!r} field", line=lineno)
            for key, kind in (types or {}).items():
                if key in obj and not isinstance(obj[key], kind):
                    raise SchemaError(f"{key!r} must be of type {kind.__name__}", line=lineno)
            yield lineno, obj


def read_jsonl(path: str | Path, split: str | None = None) -> list[PairRecord]:
    rows = read_jsonl_objects(path, ("id", "language", "context", "target", "meta"),
                              {"language": str, "context": str, "target": str, "meta": dict})
    return [PairRecord(pair_id=str(obj["id"]), language=obj["language"],
                       context=obj["context"], target=obj["target"],
                       meta=obj["meta"], split=split or TRAIN) for _, obj in rows]


def write_shards(records: Iterable[PairRecord], out_dir: str | Path,
                 shard_size: int = 10000) -> list[Path]:
    """One shard file per language per shard_size pairs, under split dirs."""
    out_dir = Path(out_dir)
    buffers: dict[tuple[str, str], list[PairRecord]] = {}
    indexes: dict[tuple[str, str], int] = {}
    written: list[Path] = []

    def flush(key: tuple[str, str]) -> None:
        batch = buffers.pop(key, [])
        if not batch:
            return
        split_name, lang = key
        idx = indexes.get(key, 0)
        indexes[key] = idx + 1
        path = out_dir / split_name / f"{lang}-{idx:05d}.jsonl"
        write_jsonl(path, batch)
        written.append(path)

    for rec in records:
        key = (rec.split, rec.language)
        buffers.setdefault(key, []).append(rec)
        if len(buffers[key]) >= shard_size:
            flush(key)
    for key in sorted(buffers):
        flush(key)
    return written


def read_shard_dir(root: str | Path) -> tuple[list[PairRecord], list[PairRecord]]:
    """Load (train, valid) records from a shard directory tree: the shards
    under train/ and valid/, or at the top level when those hold no record.
    A directory that is missing or holds no shard is a data error."""
    root = Path(root)
    train: list[PairRecord] = []
    valid: list[PairRecord] = []
    shards = 0
    for split_name, sink in ((TRAIN, train), (VALID, valid)):
        for path in sorted((root / split_name).glob("*.jsonl")):
            sink.extend(read_jsonl(path, split=split_name))
            shards += 1
    if not train and not valid:
        for path in sorted(root.glob("*.jsonl")):
            train.extend(read_jsonl(path, split=TRAIN))
            shards += 1
    if not shards:
        raise CodegapError(f"no shard (*.jsonl) under {root}")
    return train, valid


# --------------------------------------------------------------------------
# batching

@dataclass(frozen=True)
class Batch:
    pairs: tuple[PairRecord, ...]
    language: str
    token_count: int


def _pair_tokens(record: PairRecord) -> int:
    return count_text_tokens(record.context) + count_text_tokens(record.target)


def _shrink_oversized(record: PairRecord, budget: int) -> PairRecord:
    limit = max(1, budget // 2)
    return replace(record,
                   context=truncate_text_tokens(record.context, limit),
                   target=truncate_text_tokens(record.target, limit))


def batch_by_language(records: Iterable[PairRecord], token_budget: int = 7000) -> Iterator[Batch]:
    """Greedy language-pure batches filled up to the token budget."""
    buffers: dict[str, list[PairRecord]] = {}
    totals: dict[str, int] = {}
    order: list[str] = []
    for rec in records:
        size = _pair_tokens(rec)
        if size > token_budget:
            rec = _shrink_oversized(rec, token_budget)
            size = _pair_tokens(rec)
        lang = rec.language
        if lang not in buffers:
            buffers[lang] = []
            totals[lang] = 0
            order.append(lang)
        if buffers[lang] and totals[lang] + size > token_budget:
            yield Batch(tuple(buffers[lang]), lang, totals[lang])
            buffers[lang] = []
            totals[lang] = 0
        buffers[lang].append(rec)
        totals[lang] += size
    for lang in order:
        if buffers[lang]:
            yield Batch(tuple(buffers[lang]), lang, totals[lang])
