"""Single entry point: prepare / pairs / batch / eval / train-toy / inspect.

Exit codes: 0 success, 1 usage error, 2 data error. Flag values override the
optional JSON config file, which overrides built-in defaults; the fully
resolved configuration is echoed as the first log line so any run can be
replayed from its log.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .contrastive import DEFAULT_BUCKETS, DEFAULT_DIM, DEFAULT_TAU, ToyEncoder, TrainConfig, train_toy
from .errors import CodegapError, InvalidBounds, SchemaError, UsageError
from .languages import (
    DEFAULT_EXTENSIONS,
    MASK_TOKEN,
    get_language,
    load_extension_map,
    read_text,
    supported_languages,
)
from .pipeline import (
    MAX_JOBS,
    TRAIN,
    VALID,
    CorpusFile,
    PipelineConfig,
    batch_by_language,
    dump_record,
    ingest,
    make_pairs,
    read_jsonl,
    read_jsonl_objects,
    read_shard_dir,
    write_shards,
)
from .retrieval import (
    evaluate,
    evaluate_rankings,
    lexical_pool,
    load_candidates,
    load_embeddings,
    load_qrels,
    load_queries,
    rank_lexical,
    token_set,
)
from .texttok import text_tokens

log = logging.getLogger("codegap")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


# each flag's dest is the name of the config field it sets
def _add_corpus_flags(sub: argparse.ArgumentParser) -> None:
    """The flags that pick and split the corpus files."""
    sub.add_argument("--langs", dest="languages", nargs="+", default=None)
    sub.add_argument("--valid-repos", dest="valid_repos_file", type=Path, default=None,
                     help="file listing repository names reserved for validation")
    sub.add_argument("--ext-map", type=Path, default=None,
                     help="ext=grammar lines overriding the extension registry")


def _add_pair_flags(sub: argparse.ArgumentParser) -> None:
    """The flags that shape pair generation and shard writing."""
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--mean", dest="mean_target_len", type=float, default=None,
                     help="mean sampled target length")
    sub.add_argument("--stddev", dest="stddev_target_len", type=float, default=None,
                     help="stddev of target length")
    sub.add_argument("--min-len", dest="min_target_len", type=int, default=None)
    sub.add_argument("--max-len", dest="max_target_len", type=int, default=None)
    sub.add_argument("--mask-prob", type=float, default=None)
    sub.add_argument("--skip-prob", dest="skip_pair_prob", type=float, default=None)
    sub.add_argument("--threshold", dest="truncation_threshold", type=int, default=None,
                     help="truncation threshold in tokens")
    sub.add_argument("--shard-size", type=int, default=None)
    sub.add_argument("--pairs-per-input", type=int, default=None)
    sub.add_argument("--jobs", type=int, default=None)
    sub.add_argument("--no-masking", dest="masking_enabled", action="store_false", default=None)
    sub.add_argument("--no-dedent", dest="dedent_enabled", action="store_false", default=None)


def _fits_field(field: dataclasses.Field, value) -> bool:
    """Whether a config-file value may go in this field: a bool in a bool
    field, an int in an int or float field, a float in a float field, and a
    list of strings in a name field (or null where that is the default)."""
    if field.type == "bool":
        return isinstance(value, bool)
    if field.type in ("int", "float"):
        kinds = (int,) if field.type == "int" else (int, float)
        return isinstance(value, kinds) and not isinstance(value, bool)
    if value is None:
        return field.default is None
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


# config key -> (what it must be, test); a resolved value that fails is a data error
_BOUNDS = {
    **dict.fromkeys(("shard_size", "pairs_per_input", "dim", "buckets", "segment_min_len",
                     "max_span_attempts", "min_target_len"), ("at least 1", lambda v: v >= 1)),
    "jobs": (f"between 1 and {MAX_JOBS}", lambda v: 1 <= v <= MAX_JOBS),
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
_ORDERED_BOUNDS = (("min_target_len", "max_target_len"), ("segment_min_len", "segment_max_len"))


def _merge_config(cls, args: argparse.Namespace) -> dict:
    """Field values of `cls`: its defaults, then the --config file, then the
    flags that were given; a file value of the wrong type is a SchemaError,
    and a value outside its _BOUNDS is InvalidBounds."""
    file_config = _load_file_config(args)
    values = {}
    for field in dataclasses.fields(cls):
        values[field.name] = field.default
        if field.name in file_config:
            value = file_config[field.name]
            if not _fits_field(field, value):
                raise SchemaError(f"{args.config}: config key {field.name!r} "
                                  f"expects {field.type}, got {value!r}")
            values[field.name] = value
        if (flag := getattr(args, field.name, None)) is not None:
            values[field.name] = flag
        if field.name in _BOUNDS:
            must, test = _BOUNDS[field.name]
            if not test(values[field.name]):
                raise InvalidBounds(f"config key {field.name!r} must be {must}, "
                                    f"got {values[field.name]}")
    return values


def resolve_pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    if getattr(args, "valid_repos_file", None):
        names = [ln.strip() for ln in read_text(args.valid_repos_file).splitlines()]
        args.valid_repos = [n for n in names if n and not n.startswith("#")]
    values = _merge_config(PipelineConfig, args)
    for low, high in _ORDERED_BOUNDS:
        if values[high] < values[low]:
            raise InvalidBounds(f"config key {high!r} must be at least {low!r} "
                                f"({values[low]}), got {values[high]}")
    if values["languages"] is not None:
        values["languages"] = tuple(get_language(name).name for name in values["languages"])
    values["valid_repos"] = frozenset(values["valid_repos"])
    return PipelineConfig(**values)


# one config file may serve every subcommand; "subcommand" is in each echo
_CONFIG_KEYS = frozenset(["subcommand", *(field.name for cls in (PipelineConfig, TrainConfig)
                                          for field in dataclasses.fields(cls))])


def _load_file_config(args: argparse.Namespace) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: invalid JSON config: {exc}") from exc
    if not isinstance(config, dict):
        raise SchemaError(f"{path}: a config file must hold one JSON object")
    unknown = sorted(config.keys() - _CONFIG_KEYS)
    if unknown:
        raise SchemaError(f"{path}: unknown config key(s) {', '.join(map(repr, unknown))}")
    return config


def _echo_config(subcommand: str, payload: dict) -> None:
    log.info("config %s", json.dumps({"subcommand": subcommand, **payload},
                                     sort_keys=True, default=str))


def _ext_map(args: argparse.Namespace):
    return load_extension_map(args.ext_map) if getattr(args, "ext_map", None) else None


# --------------------------------------------------------------------------
# subcommands

def cmd_prepare(args: argparse.Namespace) -> int:
    config = resolve_pipeline_config(args)
    _echo_config("prepare", config.to_dict())
    files = ingest(args.roots, config, ext_map=_ext_map(args))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        for f in files:
            fh.write(dump_record({"path": str(f.path), "source": f.source,
                                  "language": f.language, "hash": f.content_hash,
                                  "split": f.split}) + "\n")
    log.info("prepared %d files -> %s", len(files), out)
    print(f"{len(files)} files -> {out}")
    return 0


def _files_for(args: argparse.Namespace, config: PipelineConfig) -> list[CorpusFile]:
    if args.manifest:
        fields = ("path", "source", "language", "hash", "split")
        files = []
        for lineno, obj in read_jsonl_objects(args.manifest, fields, dict.fromkeys(fields, str)):
            if obj["split"] not in (TRAIN, VALID):
                raise SchemaError(f"'split' must be {TRAIN!r} or {VALID!r}", line=lineno)
            if not config.languages or obj["language"] in config.languages:
                files.append(CorpusFile(path=Path(obj["path"]), source=obj["source"],
                                        language=obj["language"], content_hash=obj["hash"],
                                        split=obj["split"]))
        return files
    return ingest(args.roots, config, ext_map=_ext_map(args))


def cmd_pairs(args: argparse.Namespace) -> int:
    if args.manifest and (args.valid_repos_file or args.ext_map):
        raise UsageError("--manifest rows carry each file's split and language; "
                         "--valid-repos and --ext-map apply to --roots only")
    config = resolve_pipeline_config(args)
    _echo_config("pairs", config.to_dict())
    if args.manifest and config.valid_repos:
        log.warning("config key valid_repos is ignored with --manifest: "
                    "the manifest rows carry each file's split")
    # shards are written over by name only, so an earlier run's would mix into this one's
    stale = [path for split in (TRAIN, VALID) for path in sorted((args.out / split).glob("*.jsonl"))]
    if stale:
        raise CodegapError(f"--out {args.out} already holds shards, e.g. {stale[0]}; "
                           "pairs needs a directory without them")
    files = _files_for(args, config)
    records = make_pairs(files, config)
    written = write_shards(records, args.out, shard_size=config.shard_size)
    log.info("wrote %d shard files under %s", len(written), args.out)
    print(f"{len(written)} shards -> {args.out}")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    config = resolve_pipeline_config(args)
    _echo_config("batch", {"token_budget": config.token_budget})
    train, valid = read_shard_dir(args.shards)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with out.open("w", encoding="utf-8") as fh:
        for split_name, records in (("train", train), ("valid", valid)):
            for batch in batch_by_language(records, config.token_budget):
                fh.write(dump_record({
                    "split": split_name,
                    "language": batch.language,
                    "token_count": batch.token_count,
                    "pair_ids": [p.pair_id for p in batch.pairs],
                }) + "\n")
                count += 1
    print(f"{count} batches -> {out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    _echo_config("eval", {k: str(v) for k, v in vars(args).items() if k != "func"})
    if args.checkpoint and args.model != "toy":
        raise UsageError("--checkpoint is read only with --model toy")
    queries = load_queries(args.queries)
    candidates = load_candidates(args.candidates)
    judgments = load_qrels(args.qrels)
    if args.lexical:
        pool = lexical_pool({tid: c["text"] for tid, c in candidates.items()})
        lists = (rank_lexical(token_set(q["context"]), pool,
                              exclude=judgments.original.get(qid), query_id=qid)
                 for qid, q in sorted(queries.items()))
        report = evaluate_rankings(lists, judgments)
    elif args.model == "toy":
        if not args.checkpoint:
            raise UsageError("--model toy needs --checkpoint")
        encoder = ToyEncoder.load(args.checkpoint)
        report = evaluate(list(queries), encoder.encode([q["context"] for q in queries.values()]),
                          list(candidates), encoder.encode([c["text"] for c in candidates.values()]),
                          judgments)
    else:
        vectors = load_embeddings(args.embeddings)
        missing = [i for i in list(queries) + list(candidates) if i not in vectors]
        if missing:
            raise CodegapError(f"embeddings file lacks {len(missing)} ids, e.g. {missing[:3]}")
        rows, index = np.array(list(vectors.values())), {rid: r for r, rid in enumerate(vectors)}
        report = evaluate(list(queries), rows[[index[qid] for qid in queries]],
                          list(candidates), rows[[index[tid] for tid in candidates]], judgments)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
    print(report.to_table())
    return 0


def cmd_train_toy(args: argparse.Namespace) -> int:
    config = TrainConfig(**_merge_config(TrainConfig, args))
    _echo_config("train-toy", dataclasses.asdict(config))
    train, valid = read_shard_dir(args.shards)
    if not train:
        raise CodegapError(f"no training records under {args.shards}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    encoder, report = train_toy(train, valid, config)
    encoder.save(args.out)
    if valid:
        log.info("best validation MRR %.4f at step %d", report.best_mrr, report.best_step)
        print(f"trained {report.steps} steps; best valid MRR "
              f"{report.best_mrr:.4f} @ step {report.best_step} -> {args.out}")
    else:
        log.info("no validation split; kept the final state")
        print(f"trained {report.steps} steps (no validation split; "
              f"kept final state) -> {args.out}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    _echo_config("inspect", {k: str(v) for k, v in vars(args).items() if k != "func"})
    if args.file:
        records = read_jsonl(args.file)
    elif args.shards:
        train, valid = read_shard_dir(args.shards)
        records = train + valid
    else:
        raise UsageError("inspect needs --shards or --file")
    if args.id:
        matches = [r for r in records if r.pair_id == args.id]
        if not matches:
            raise CodegapError(f"no pair with id {args.id!r}")
        record = matches[0]
    elif records:
        record = records[0]
    else:
        raise CodegapError("no pairs found")
    meta = record.meta
    dedent = meta.get("dedent_cols", 0)
    skipped = meta.get("skipped_masking", False)
    aliases = meta.get("aliases", {})
    # the types a shard's JSON gives these values; `type(...) is int` refuses a bool
    for key, fits, must in (
            ("dedent_cols", type(dedent) is int, "an integer"),
            ("skipped_masking", type(skipped) is bool, "true or false"),
            ("aliases", type(aliases) is dict and all(type(v) is str for v in aliases.values()),
             "an object of strings")):
        if not fits:
            raise SchemaError(f"{args.file or args.shards}: pair {record.pair_id!r}: "
                              f"meta {key!r} must be {must}")
    print(f"pair {record.pair_id} ({record.language})")
    print(f"dedent: {dedent} columns; masking skipped: {skipped}")
    if aliases:
        ctx_tokens = set(text_tokens(record.context))
        tgt_tokens = set(text_tokens(record.target))
        print("aliases:")
        for name, alias in sorted(aliases.items(), key=lambda kv: kv[1]):
            side = "context" if alias in ctx_tokens else "target"
            visible = "target" if side == "context" else "context"
            print(f"  {alias} <- {name} (masked in {side}; surface visible in {visible})")
    highlighted = record.context.replace(MASK_TOKEN, f">>> {MASK_TOKEN} <<<")
    print("context:")
    for line in highlighted.splitlines() or [highlighted]:
        print(f"  | {line}")
    print("target:")
    for line in record.target.splitlines() or [record.target]:
        print(f"  | {line}")
    return 0


# --------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="codegap", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"codegap {__version__} "
                                f"(grammars: {', '.join(supported_languages())}; "
                                f"extensions: {', '.join(sorted(DEFAULT_EXTENSIONS))})")
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--log-level", default="INFO")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("prepare", help="ingest and deduplicate a corpus")
    p.add_argument("--roots", nargs="+", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    _add_corpus_flags(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("pairs", help="generate context/target pair shards")
    corpus = p.add_mutually_exclusive_group(required=True)
    corpus.add_argument("--roots", nargs="+", type=Path, default=None)
    corpus.add_argument("--manifest", type=Path, default=None, help="a manifest from prepare")
    p.add_argument("--out", required=True, type=Path)
    _add_corpus_flags(p)
    _add_pair_flags(p)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("batch", help="emit language-pure batch manifests")
    p.add_argument("--shards", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--budget", dest="token_budget", type=int, default=None,
                   help="batch token budget")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("eval", help="rank candidates for every query and report metrics")
    p.add_argument("--queries", required=True, type=Path)
    p.add_argument("--candidates", required=True, type=Path)
    p.add_argument("--qrels", required=True, type=Path)
    scorer = p.add_mutually_exclusive_group(required=True)
    scorer.add_argument("--embeddings", type=Path, default=None)
    scorer.add_argument("--model", choices=["toy"], default=None)
    scorer.add_argument("--lexical", action="store_true",
                        help="token-overlap baseline instead of embeddings")
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--out", type=Path, default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("train-toy", help="train the hashed dual encoder on pair shards")
    p.add_argument("--shards", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--d", dest="dim", type=int, default=None,
                   help=f"embedding dimension (default {DEFAULT_DIM})")
    p.add_argument("--tau", type=float, default=None, help=f"temperature (default {DEFAULT_TAU})")
    p.add_argument("--buckets", type=int, default=None, help=f"hash buckets (default {DEFAULT_BUCKETS})")
    p.add_argument("--budget", dest="token_budget", type=int, default=None)
    p.add_argument("--eval-every", type=int, default=None)
    p.add_argument("--valid-cap", type=int, default=None)
    p.add_argument("--negatives-only-denominator", dest="include_positive",
                   action="store_false", default=None,
                   help="score against negatives only instead of the full softmax pool")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("inspect", help="pretty-print one pair for auditing")
    p.add_argument("--shards", type=Path, default=None)
    p.add_argument("--file", type=Path, default=None)
    p.add_argument("--id", default=None)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(level=getattr(logging, str(args.log_level).upper(), logging.INFO),
                            format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (CodegapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
