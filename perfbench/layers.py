"""Per-layer tracing: wrappers installed where each caller imports a layer.

A layer is a codegap module. Each wrapper opens a span around one call into
a layer, named ``<layer>.<operation>``, and records (name, start, end,
parent). A span's self time is its duration minus the durations of its
child spans and of the tracer's own bookkeeping inside it. Wrappers sit on
the name the *caller* looks up, so ``codegap.pipeline.select_span``
(truncation attempts) and ``codegap.spans.select_span`` (target attempts)
are told apart although they are the same function.

Only per-file, per-input, per-step and per-query calls are wrapped, plus the
text tokenizer, whose every call costs far more than the wrapper. Per-score
counts come from the length of each ranked list, not from wrapping
``cosine``. Wrappers live in the parent process only, so traced passes run
with one job.
"""

from __future__ import annotations

import importlib
import os
import statistics
from collections import Counter
from time import perf_counter
from typing import Callable


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        # [name, start, end, parent index, excluded seconds]
        self.spans: list[list] = []
        self.open: list[int] = []
        self.counts: Counter = Counter()
        self.timed: Counter = Counter()
        self.bookkeeping = 0.0

    def _book(self, hook: Callable, result, args, kwargs) -> None:
        start = perf_counter()
        hook(self.counts, result, args, kwargs)
        spent = perf_counter() - start
        self.bookkeeping += spent
        if self.open:
            self.spans[self.open[-1]][4] += spent

    def span(self, name: str, fn: Callable, hook: Callable | None = None,
             transparent_under: frozenset = frozenset(), materialize: bool = False) -> Callable:
        """Wrap fn so each call is one span; under a listed span it only counts."""
        spans, open_, counts = self.spans, self.open, self.counts

        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            if open_ and spans[open_[-1]][0] in transparent_under:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            else:
                record = [name, 0.0, 0.0, open_[-1] if open_ else -1, 0.0]
                open_.append(len(spans))
                spans.append(record)
                record[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    if materialize:
                        result = list(result)
                finally:
                    record[2] = perf_counter()
                    open_.pop()
            if hook is not None:
                self._book(hook, result, args, kwargs)
            return iter(result) if materialize else result

        return traced

    def observe(self, key: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """Wrap fn to time and count it without opening a layer span."""

        def observed(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            self.timed[key] += perf_counter() - start
            self.counts[key + ".calls"] += 1
            if hook is not None:
                self._book(hook, result, args, kwargs)
            return result

        return observed

    def summary(self, wall: float) -> dict:
        """Self and total seconds per span name, plus time no span covers."""
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        covered = 0.0
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                covered += end - start
        for i, (name, start, end, parent, excluded) in enumerate(self.spans):
            total_s[name] += end - start
            self_s[name] += end - start - child[i] - excluded
        top_book = self.bookkeeping - sum(s[4] for s in self.spans)
        return {"self_s": self_s, "total_s": total_s,
                "unattributed_s": wall - covered - max(0.0, top_book)}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f'{{"id":{i},"name":"{name}","start":{start!r},'
                         f'"end":{end!r},"parent":{parent}}}\n')


# --------------------------------------------------------------------------
# what to wrap, per layer

def _tokens(counts, result, args, kwargs):
    counts["tokens"] += len(result)


def _nodes(counts, result, args, kwargs):
    counts["nodes"] += sum(1 for _ in result.walk())


def _segments(counts, result, args, kwargs):
    counts["segments"] += len(result.segments)


def _target_placed(counts, result, args, kwargs):
    counts["target_placed"] += result is not None


def _plan(counts, plan, args, kwargs):
    counts["plans"] += 1
    if plan.skip_pair:
        counts["plans_skipped"] += 1
    else:
        counts["mutual"] += len(plan.mutual_identifiers)
        counts["masked"] += len(plan.alias_map)


def _shard_bytes(counts, result, args, kwargs):
    counts["shard_bytes"] += os.path.getsize(args[0])


def _batches(counts, result, args, kwargs):
    counts["batches"] += len(result)


def _files(counts, result, args, kwargs):
    counts["files"] += len(args[0])


def _scores(counts, result, args, kwargs):
    counts["scores"] += len(result.ranking)


def _lexical_scores(counts, result, args, kwargs):
    counts["lexical_scores"] += len(result.ranking)


# (module or class path, attribute, span name, hook, options)
SPANS = [
    ("codegap.tree", "tokenize", "tokenizer.tokenize", _tokens, {}),
    ("codegap.pipeline", "parse", "tree.parse", _nodes, {}),
    ("codegap.pipeline", "tree_from_run", "tree.rebuild", None, {}),
    ("codegap.pipeline", "tree_with_runs_folded", "tree.rebuild", None, {}),
    ("codegap.pipeline", "select_span", "spans.trunc_select", None, {}),
    ("codegap.pipeline", "select_span_with_retry", "spans.target_select", _target_placed, {}),
    ("codegap.spans", "select_span", "spans.target_attempt", None,
     {"transparent_under": frozenset({"spans.target_select"})}),
    ("codegap.pipeline", "mutual_identifiers", "deleak.mutual", None, {}),
    ("codegap.pipeline", "plan_masking", "deleak.plan", _plan, {}),
    ("codegap.pipeline", "apply_masking", "deleak.apply", None, {}),
    ("codegap.pipeline", "dedent_target", "deleak.dedent", None, {}),
    ("codegap.pipeline", "truncate_file", "pipeline.truncate", _segments, {}),
    ("codegap.pipeline", "write_jsonl", "pipeline.write", _shard_bytes, {}),
    ("codegap.cli", "read_shard_dir", "pipeline.read", None, {}),
    ("codegap.pipeline", "batch_by_language", "pipeline.batch", _batches, {"materialize": True}),
    ("codegap.pipeline", "count_text_tokens", "texttok.tokens", None, {}),
    ("codegap.pipeline", "truncate_text_tokens", "texttok.tokens", None, {}),
    ("codegap.contrastive", "text_tokens", "texttok.tokens", None, {}),
    ("codegap.retrieval", "text_tokens", "texttok.tokens", None, {}),
    ("codegap.contrastive", "batch_loss_and_grads", "contrastive.step", None, {}),
    ("codegap.contrastive", "validation_mrr", "contrastive.validation", None, {}),
    ("codegap.contrastive:ToyEncoder", "bucket_counts", "contrastive.counts", None,
     {"transparent_under": frozenset({"contrastive.encode"})}),
    ("codegap.contrastive:ToyEncoder", "encode", "contrastive.encode", None, {}),
    ("codegap.retrieval", "rank", "retrieval.rank", _scores, {}),
    ("codegap.retrieval", "evaluate_rankings", "retrieval.metrics", None, {}),
    ("codegap.cli", "evaluate_rankings", "retrieval.metrics", None, {}),
    ("codegap.cli", "load_queries", "retrieval.load", None, {}),
    ("codegap.cli", "load_candidates", "retrieval.load", None, {}),
    ("codegap.cli", "load_qrels", "retrieval.load", None, {}),
    ("codegap.cli", "rank_lexical", "retrieval.lexical", _lexical_scores, {}),
]

# (module, attribute, key, hook): timed and counted, but no layer span
OBSERVED = [
    ("codegap.cli", "make_pairs", "pipeline.make_pairs", _files),
    ("codegap.pipeline", "generate_pairs_for_source", "pipeline.busy", None),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every listed name; return the function that restores them.

    A listed name that no longer exists raises, so a rename cannot make a
    layer drop out of the numbers unnoticed.
    """
    plan = [(path, attr, lambda fn, n=name, h=hook, o=options: tracer.span(n, fn, h, **o))
            for path, attr, name, hook, options in SPANS]
    plan += [(path, attr, lambda fn, k=key, h=hook: tracer.observe(k, fn, h))
             for path, attr, key, hook in OBSERVED]
    targets = [(_owner(path), attr, make) for path, attr, make in plan]
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets
               if attr not in vars(owner)]
    if missing:
        raise LookupError("traced names not found: " + ", ".join(missing))
    # vars(owner) holds the plain function for methods, so restoring puts
    # back exactly what was there
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    for (owner, attr, make), (_, _, original) in zip(targets, saved):
        setattr(owner, attr, make(original))

    def restore() -> None:
        for owner, attr, original in saved:
            setattr(owner, attr, original)

    return restore


# --------------------------------------------------------------------------
# per-layer metrics of one traced pass

# (name, unit, better): the order and units BENCHMARK.json lists
METRICS = [
    ("tokenizer.self_s", "s", "lower"),
    ("tokenizer.tokens", "count", "higher"),
    ("tokenizer.tokens_per_s", "1/s", "higher"),
    ("tree.parse_self_s", "s", "lower"),
    ("tree.nodes", "count", "lower"),
    ("tree.rebuild_self_s", "s", "lower"),
    ("tree.rebuild_calls", "count", "lower"),
    ("spans.trunc_select_self_s", "s", "lower"),
    ("spans.trunc_attempts", "count", "lower"),
    ("spans.trunc_placed", "count", "higher"),
    ("spans.trunc_yield", "ratio", "higher"),
    ("spans.target_select_self_s", "s", "lower"),
    ("spans.target_attempts", "count", "lower"),
    ("spans.target_yield", "ratio", "higher"),
    ("deleak.self_s", "s", "lower"),
    ("deleak.mask_frac", "ratio", "higher"),
    ("deleak.skip_frac", "ratio", "lower"),
    ("pipeline.truncate_self_s", "s", "lower"),
    ("pipeline.files", "count", "higher"),
    ("pipeline.segments", "count", "higher"),
    ("pipeline.write_s", "s", "lower"),
    ("pipeline.shard_bytes", "bytes", "lower"),
    ("pipeline.pool_busy_share", "ratio", "higher"),
    ("pipeline.read_s", "s", "lower"),
    ("pipeline.batch_s", "s", "lower"),
    ("pipeline.batches", "count", "higher"),
    ("texttok.calls", "count", "lower"),
    ("texttok.self_s", "s", "lower"),
    ("contrastive.step_ms", "ms", "lower"),
    ("contrastive.steps", "count", "higher"),
    ("contrastive.counts_self_s", "s", "lower"),
    ("contrastive.validation_self_s", "s", "lower"),
    ("contrastive.encode_self_s", "s", "lower"),
    ("retrieval.rank_self_s", "s", "lower"),
    ("retrieval.scores", "count", "higher"),
    ("retrieval.scores_per_s", "1/s", "higher"),
    ("retrieval.metrics_self_s", "s", "lower"),
    ("retrieval.load_self_s", "s", "lower"),
    ("retrieval.lexical_self_s", "s", "lower"),
    ("retrieval.lexical_scores_per_s", "1/s", "higher"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

# metrics that are counts of work: equal on every traced pass of one seed
COUNT_METRICS = frozenset(name for name, unit, _ in METRICS if unit in ("count", "bytes")) | {
    "spans.trunc_yield", "spans.target_yield", "deleak.mask_frac", "deleak.skip_frac"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass, except the two that need
    the untraced passes (pool_busy_share, overhead_share)."""
    s = tracer.summary(wall)
    self_s, total_s, c = s["self_s"], s["total_s"], tracer.counts
    deleak = sum(v for k, v in self_s.items() if k.startswith("deleak."))
    return {
        "tokenizer.self_s": self_s["tokenizer.tokenize"],
        "tokenizer.tokens": c["tokens"],
        "tokenizer.tokens_per_s": _ratio(c["tokens"], total_s["tokenizer.tokenize"]),
        "tree.parse_self_s": self_s["tree.parse"],
        "tree.nodes": c["nodes"],
        "tree.rebuild_self_s": self_s["tree.rebuild"],
        "tree.rebuild_calls": c["tree.rebuild.calls"],
        "spans.trunc_select_self_s": self_s["spans.trunc_select"],
        "spans.trunc_attempts": c["spans.trunc_select.calls"],
        "spans.trunc_placed": c["segments"],
        "spans.trunc_yield": _ratio(c["segments"], c["spans.trunc_select.calls"]),
        "spans.target_select_self_s": self_s["spans.target_select"],
        "spans.target_attempts": c["spans.target_attempt.calls"],
        "spans.target_yield": _ratio(c["target_placed"], c["spans.target_attempt.calls"]),
        "deleak.self_s": deleak,
        "deleak.mask_frac": _ratio(c["masked"], c["mutual"]),
        "deleak.skip_frac": _ratio(c["plans_skipped"], c["plans"]),
        "pipeline.truncate_self_s": self_s["pipeline.truncate"],
        "pipeline.files": c["files"],
        "pipeline.segments": c["segments"],
        "pipeline.write_s": total_s["pipeline.write"],
        "pipeline.shard_bytes": c["shard_bytes"],
        "pipeline.read_s": total_s["pipeline.read"],
        "pipeline.batch_s": total_s["pipeline.batch"],
        "pipeline.batches": c["batches"],
        "texttok.calls": c["texttok.tokens.calls"],
        "texttok.self_s": self_s["texttok.tokens"],
        "contrastive.step_ms": 1000.0 * _ratio(total_s["contrastive.step"], c["contrastive.step.calls"]),
        "contrastive.steps": c["contrastive.step.calls"],
        "contrastive.counts_self_s": self_s["contrastive.counts"],
        "contrastive.validation_self_s": self_s["contrastive.validation"],
        "contrastive.encode_self_s": self_s["contrastive.encode"],
        "retrieval.rank_self_s": self_s["retrieval.rank"],
        "retrieval.scores": c["scores"],
        "retrieval.scores_per_s": _ratio(c["scores"], total_s["retrieval.rank"]),
        "retrieval.metrics_self_s": self_s["retrieval.metrics"],
        "retrieval.load_self_s": self_s["retrieval.load"],
        "retrieval.lexical_self_s": self_s["retrieval.lexical"],
        "retrieval.lexical_scores_per_s": _ratio(c["lexical_scores"], total_s["retrieval.lexical"]),
        "trace.unattributed_s": s["unattributed_s"],
        "busy_s": tracer.timed["pipeline.busy"],
    }


def combine(passes: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each timing over the traced passes; counts must repeat."""
    problems = []
    out = {}
    for key in passes[0]:
        values = [p[key] for p in passes]
        if key in COUNT_METRICS:
            if len(set(values)) != 1:
                problems.append(f"{key} differs between traced passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out, problems


# Layer calls each workload must record; zero calls there is an error, so a
# rename or refactor cannot make a layer quietly vanish from the numbers.
_PAIRS_LAYERS = ("tokenizer.tokenize", "tree.parse", "spans.target_select",
                 "deleak.plan", "pipeline.truncate", "pipeline.write", "pipeline.make_pairs")
EXPECTED_CALLS = {
    "pairs_real": _PAIRS_LAYERS + ("tree.rebuild", "spans.trunc_select", "spans.target_attempt"),
    "pairs_short": _PAIRS_LAYERS + ("spans.target_attempt",),
    "train_clone": _PAIRS_LAYERS + (
        "pipeline.read", "pipeline.batch", "texttok.tokens", "contrastive.step",
        "contrastive.counts", "contrastive.validation", "contrastive.encode",
        "retrieval.rank", "retrieval.metrics", "retrieval.load"),
    "rank_pool": ("contrastive.encode", "retrieval.rank", "retrieval.metrics",
                  "retrieval.load", "retrieval.lexical", "texttok.tokens"),
}


def silent_zeros(workload: str, tracer: Tracer) -> list[str]:
    return [f"layer call {name} recorded no calls on {workload}"
            for name in EXPECTED_CALLS[workload] if not tracer.counts[name + ".calls"]]
