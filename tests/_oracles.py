"""Independent brute-force oracles the implementation is checked against.

Everything here is deliberately written from the definitions with plain
loops, not shared with package code. Three sections, which only tests call,
are built on package code: the test-only helpers (the truncation inverse and
the path-to-grammar lookup), the record-flow shard writer, which takes its
pairs from `generate_pairs_for_source`, and the loss-function section at the end:
single-query and whole-batch loss helpers and the finite difference gradient
check, built on the training kernel they check.
"""

from __future__ import annotations

import bisect
import glob
import io
import itertools
import json
import math
import random
import re
import tokenize
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from codegap.contrastive import (
    DEFAULT_TAU,
    ToyEncoder,
    batch_loss_and_grads,
)
from codegap.deleak import MASK_IN_CONTEXT, MASK_IN_TARGET, UNMASKED, MaskingPlan
from codegap.errors import (
    AliasCollision,
    BatchTooSmall,
    CodegapError,
    DimensionMismatch,
    EmptyTree,
    SchemaError,
    ZeroVector,
)
from codegap.languages import FOLD_TOKEN, MASK_TOKEN, Language, get_language, language_for_name
from codegap.pipeline import (
    TRAIN,
    VALID,
    CorpusFile,
    PairRecord,
    TruncationResult,
    content_hash,
    file_seed,
    generate_pairs_for_source,
    repo_of,
)
from codegap.spans import _child_holding, _verify_span, select_span
from codegap.tokenizer import MARKER_KINDS, MATCHING_BRACKET, OPEN_BRACKETS, Token, line_start
from codegap.tree import (
    _KIND_ALIASES,
    CONTROL_KEYWORDS,
    DECLARATION_KEYWORDS,
    SyntaxTree,
    tree_from_run,
    tree_with_runs_folded,
)


# --------------------------------------------------------------------------
# ranking metric oracles over explicit id lists (best first)

def oracle_precision_at_k(ranking: list[str], relevant: set[str], k: int) -> float:
    denom = min(k, len(ranking))
    if denom == 0:
        return 0.0
    hits = 0
    for tid in ranking[:k]:
        if tid in relevant:
            hits += 1
    return hits / denom


def oracle_average_precision(ranking: list[str], relevant: set[str]) -> float:
    hits = 0
    total = 0.0
    found = 0
    for pos, tid in enumerate(ranking, start=1):
        if tid in relevant:
            hits += 1
            total += hits / pos
            found += 1
    return total / found


def oracle_ndcg(ranking: list[str], relevant: set[str]) -> float:
    dcg = 0.0
    found = 0
    for pos, tid in enumerate(ranking, start=1):
        if tid in relevant:
            dcg += 1.0 / math.log2(pos + 1)
            found += 1
    ideal = sum(1.0 / math.log2(pos + 1) for pos in range(1, found + 1))
    return dcg / ideal


def oracle_reciprocal_rank(ranking: list[str], relevant: set[str]) -> float:
    for pos, tid in enumerate(ranking, start=1):
        if tid in relevant:
            return 1.0 / pos
    raise AssertionError("no relevant item in ranking")


def ranked_list(query_id: str, ids: list[str], scores: list[float]):
    """A RankedList over a pool of just `ids`, ranking them in the given
    order with the given scores."""
    from codegap.retrieval import Pool, RankedList

    pool = Pool(ids)
    order = np.array([pool.column[tid] for tid in ids], dtype=np.intp)
    row = np.empty(len(ids))
    row[order] = scores
    return RankedList(query_id, order, row, pool)


def exhaustive_metric_comparison() -> float:
    """Worst absolute deviation from the oracles over every ranking of pools
    with up to six candidates and up to three relevant ones."""
    from codegap.retrieval import Judgments, evaluate_rankings

    worst = 0.0
    for n in range(1, 7):
        ids = [chr(ord("a") + i) for i in range(n)]
        relevant_sets = [
            set(combo)
            for r in range(1, min(3, n) + 1)
            for combo in itertools.combinations(ids, r)
        ]
        for perm in itertools.permutations(ids):
            ranking = list(perm)
            rl = ranked_list("q", ranking, [float(n - i) for i in range(n)])
            for relevant in relevant_sets:
                row = evaluate_rankings([rl], Judgments(relevant={"q": relevant})).per_query[0]
                for k in (1, 3, 10):
                    worst = max(worst, abs(row["p_at"][str(k)]
                                           - oracle_precision_at_k(ranking, relevant, k)))
                worst = max(worst, abs(row["ap"]
                                       - oracle_average_precision(ranking, relevant)))
                worst = max(worst, abs(row["ndcg"]
                                       - oracle_ndcg(ranking, relevant)))
                worst = max(worst, abs(row["rr"]
                                       - oracle_reciprocal_rank(ranking, relevant)))
    return worst


# --------------------------------------------------------------------------
# reference ranking, metrics, lexical scores and hashed features: one tuple,
# one set lookup and one hash per item

def reference_rank(scores, ids, exclude=None) -> tuple[tuple[str, float], ...]:
    """Candidates best first as (id, score) tuples from one stable sort on the
    negated scores, every id equal to `exclude` filtered out on the way."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable").tolist()
    return tuple((ids[i], s) for i, s in zip(order, scores[order].tolist()) if ids[i] != exclude)


def reference_evaluate_rankings(rankings: list[tuple[str, list[str]]], judgments):
    """The metric report of (query id, ids best first) rankings, each hit
    found by a set lookup per ranked id."""
    from codegap.errors import NoRelevant
    from codegap.retrieval import PRECISION_KS, EvalReport

    if not rankings:
        raise NoRelevant("no queries to evaluate")
    per_query = []
    for query_id, ids in rankings:
        relevant = judgments.relevant_for(query_id)
        hits = [pos for pos, tid in enumerate(ids, start=1) if tid in relevant]
        if not hits:
            raise NoRelevant(f"query {query_id!r} has no relevant candidate")
        ideal = sum(1.0 / np.log2(pos + 1) for pos in range(1, len(hits) + 1))
        per_query.append({
            "query_id": query_id,
            "ap": sum(found / pos for found, pos in enumerate(hits, start=1)) / len(hits),
            "ndcg": float(sum(1.0 / np.log2(pos + 1) for pos in hits) / ideal),
            "rr": 1.0 / hits[0],
            "p_at": {str(k): sum(1 for pos in hits if pos <= k) / min(k, len(ids))
                     for k in PRECISION_KS},
        })
    n = len(per_query)
    return EvalReport(
        map=sum(row["ap"] for row in per_query) / n,
        ndcg=sum(row["ndcg"] for row in per_query) / n,
        p_at={k: sum(row["p_at"][str(k)] for row in per_query) / n for k in PRECISION_KS},
        mrr=sum(row["rr"] for row in per_query) / n,
        per_query=per_query,
    )


def lexical_overlap(a: frozenset[str], b: frozenset[str]) -> float:
    """Jaccard similarity of two token sets."""
    if not a or not b:
        return 0.0
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared)


def overlap_coefficient(a: frozenset[str], b: frozenset[str]) -> float:
    """Shared-token fraction of the smaller set; length-robust overlap."""
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def reference_bucket_counts(tokens: list[str], buckets: int) -> dict[int, int]:
    """Unigram and bigram buckets with multiplicities, hashing every gram
    occurrence with stable_bucket as it is met."""
    from codegap.contrastive import _GRAM_SEP, stable_bucket

    counts: dict[int, int] = {}
    for i, tok in enumerate(tokens):
        b = stable_bucket(tok, buckets)
        counts[b] = counts.get(b, 0) + 1
        if i + 1 < len(tokens):
            b2 = stable_bucket(tok + _GRAM_SEP + tokens[i + 1], buckets)
            counts[b2] = counts.get(b2, 0) + 1
    return counts


def reference_encode(encoder: ToyEncoder, text: str) -> np.ndarray:
    """One text's unit row, encoded alone: its bucket counts in ascending
    bucket order times the parameter rows, over the norm."""
    from codegap.texttok import text_tokens

    counts = reference_bucket_counts(text_tokens(text), encoder.buckets)
    buckets = sorted(counts)
    raw = np.array([counts[b] for b in buckets], dtype=np.int32) @ encoder.params[buckets]
    norm = np.linalg.norm(raw)
    if norm == 0.0:
        raise ZeroVector("degenerate embedding with zero norm")
    return raw / norm


# --------------------------------------------------------------------------
# reference masking planner: a separate scan per question asked of the tokens

def reference_mutual_identifiers(context: list[Token], target: list[Token]) -> set[str]:
    """Identifier texts present on both sides."""
    ctx = {t.text for t in context if t.kind == "identifier"}
    tgt = {t.text for t in target if t.kind == "identifier"}
    return ctx & tgt


def _reference_first_occurrence(tokens: list[Token]) -> dict[str, int]:
    seen: dict[str, int] = {}
    for idx, tok in enumerate(tokens):
        if tok.kind == "identifier" and tok.text not in seen:
            seen[tok.text] = idx
    return seen


def reference_plan_masking(mutuals: set[str], rng: random.Random,
                           mask_prob: float, skip_pair_prob: float,
                           *, context: list[Token] | None = None,
                           target: list[Token] | None = None):
    """Decide which mutual identifiers get hidden, on which side, and as what.

    The whole pair is exempted with probability skip_pair_prob; otherwise each
    identifier is hidden with probability mask_prob on a uniformly chosen
    side. Aliases are numbered by first occurrence in the sequence being
    masked (context-side ones first), skipping numbers whose VARk text already
    occurs as a token in either sequence.
    """
    if not 0 <= mask_prob <= 1 or not 0 <= skip_pair_prob <= 1:
        raise ValueError("probabilities must lie in [0, 1]")
    mutuals_frozen = frozenset(mutuals)
    if rng.random() < skip_pair_prob:
        return MaskingPlan({m: UNMASKED for m in sorted(mutuals_frozen)}, skip_pair=True,
                           alias_map={})

    decisions: dict[str, str] = {}
    for name in sorted(mutuals_frozen):
        if rng.random() < mask_prob:
            decisions[name] = MASK_IN_CONTEXT if rng.random() < 0.5 else MASK_IN_TARGET
        else:
            decisions[name] = UNMASKED

    forbidden: set[str] = set()
    ctx_order = _reference_first_occurrence(context) if context is not None else {}
    tgt_order = _reference_first_occurrence(target) if target is not None else {}
    if context is not None:
        forbidden.update(t.text for t in context)
    if target is not None:
        forbidden.update(t.text for t in target)

    def order_key(name: str) -> tuple:
        if decisions[name] == MASK_IN_CONTEXT:
            return (0, ctx_order.get(name, 0), name)
        return (1, tgt_order.get(name, 0), name)

    alias_map: dict[str, str] = {}
    k = 1
    for name in sorted((n for n, d in decisions.items() if d != UNMASKED), key=order_key):
        while f"VAR{k}" in forbidden:
            k += 1
        alias_map[name] = f"VAR{k}"
        k += 1
    return MaskingPlan(decisions, skip_pair=False, alias_map=alias_map)


def _reference_mask_side(tokens: list[Token], to_mask: dict[str, str]) -> list[Token]:
    if not to_mask:
        return list(tokens)
    return [tok._replace(text=to_mask[tok.text]) if tok.kind == "identifier" and tok.text in to_mask
            else tok for tok in tokens]


def reference_apply_masking(context: list[Token], target: list[Token],
                            plan: MaskingPlan) -> tuple[list[Token], list[Token]]:
    """Substitute aliases on each identifier's masked side: (context, target)."""
    if plan.skip_pair:
        return list(context), list(target)
    ctx_mask = {n: plan.alias_map[n] for n, d in plan.decisions.items() if d == MASK_IN_CONTEXT}
    tgt_mask = {n: plan.alias_map[n] for n, d in plan.decisions.items() if d == MASK_IN_TARGET}
    for side, tokens, mapping in (("context", context, ctx_mask), ("target", target, tgt_mask)):
        clash = {t.text for t in tokens} & set(mapping.values())
        if clash:
            raise AliasCollision(f"alias {sorted(clash)} already occurs in {side}")
    return _reference_mask_side(context, ctx_mask), _reference_mask_side(target, tgt_mask)


# --------------------------------------------------------------------------
# the token-list pair path: split into token lists, mask and dedent them, and
# join the texts, as `generate_pairs_for_source` did before pairs were text
# ranges. The functions below are that code, renamed token_* where the
# package name now means the text form; `token_pair` is the old per-pair body.

def token_split(tree: SyntaxTree, span) -> tuple[list[Token], list[Token]]:
    """Cut the leaves at the span: (masked context, cls-prefixed target)."""
    lang = tree.language
    _verify_span(tree, span)
    leaves = tree.leaves
    i, j = span.leaf_start, span.leaf_end
    cls, mask = Token(lang.cls_token, "cls"), Token(MASK_TOKEN, "mask")  # markers
    return [cls, *leaves[:i], mask, *leaves[j:]], [cls, *leaves[i:j]]


def splice_tokens(context: list[Token], target: list[Token]) -> list[Token]:
    """Undo a split: drop cls markers and substitute the target at the mask."""
    body = [t for t in target if t.kind != "cls"]
    out: list[Token] = []
    for tok in context:
        if tok.kind == "mask":
            out.extend(body)
        elif tok.kind != "cls":
            out.append(tok)
    return out


def _first_occurrence(tokens: list[Token]) -> dict[str, int]:
    """Each identifier text's rank among the side's first occurrences."""
    names = dict.fromkeys([tok.text for tok in tokens if tok.kind == "identifier"])
    return dict(zip(names, range(len(names))))


def token_plan_masking(context: list[Token], target: list[Token], rng: random.Random,
                       mask_prob: float, skip_pair_prob: float) -> MaskingPlan:
    """Decide which mutual identifiers get hidden, on which side, and as what."""
    if not 0 <= mask_prob <= 1 or not 0 <= skip_pair_prob <= 1:
        raise ValueError("probabilities must lie in [0, 1]")
    ctx_order, tgt_order = _first_occurrence(context), _first_occurrence(target)
    mutuals = sorted(ctx_order.keys() & tgt_order.keys())
    if rng.random() < skip_pair_prob:
        return MaskingPlan(dict.fromkeys(mutuals, UNMASKED), skip_pair=True, alias_map={})

    decisions: dict[str, str] = {}
    for name in mutuals:
        if rng.random() < mask_prob:
            decisions[name] = MASK_IN_CONTEXT if rng.random() < 0.5 else MASK_IN_TARGET
        else:
            decisions[name] = UNMASKED

    masked = [n for n, d in decisions.items() if d != UNMASKED]
    masked.sort(key=lambda n: (0, ctx_order[n]) if decisions[n] == MASK_IN_CONTEXT
                else (1, tgt_order[n]))
    alias_map: dict[str, str] = {}
    k = 1
    for name in masked:
        while f"VAR{k}" in ctx_order or f"VAR{k}" in tgt_order:
            k += 1
        alias_map[name] = f"VAR{k}"
        k += 1
    return MaskingPlan(decisions, skip_pair=False, alias_map=alias_map)


def _mask_side(side: str, tokens: list[Token], to_mask: dict[str, str]) -> list[Token]:
    """Substitute aliases, after rejecting an alias already present."""
    if not to_mask:
        return list(tokens)
    aliases = set(to_mask.values())
    texts = [tok.text for tok in tokens]
    if not aliases.isdisjoint(texts):
        clash = next(text for text in texts if text in aliases)
        raise AliasCollision(f"alias {clash!r} already occurs in {side}")
    return [tok._replace(text=to_mask[text]) if text in to_mask and tok.kind == "identifier"
            else tok
            for tok, text in zip(tokens, texts)]


def token_apply_masking(context: list[Token], target: list[Token],
                        plan: MaskingPlan) -> tuple[list[Token], list[Token]]:
    """Substitute aliases on each identifier's masked side: (context, target)."""
    if plan.skip_pair:
        return list(context), list(target)
    ctx_mask = {n: plan.alias_map[n] for n, d in plan.decisions.items() if d == MASK_IN_CONTEXT}
    tgt_mask = {n: plan.alias_map[n] for n, d in plan.decisions.items() if d == MASK_IN_TARGET}
    return _mask_side("context", context, ctx_mask), _mask_side("target", target, tgt_mask)


# dedentation: `offsets[i]` is where target[i] starts in `text`, the parsed
# text; a marker's entry only has to keep the offsets sorted

_LINE_BREAK = re.compile(r"[\r\n]")


def _line_heads(target: list[Token], offsets: list[int], text: str) -> list[int]:
    """The index of the first token of each source line the target holds,
    markers aside: the first token, and the first past each line break."""
    heads: list[int] = []
    breaks = _LINE_BREAK.finditer(text, offsets[0], offsets[-1]) if target else ()
    for i in [0, *(bisect.bisect_right(offsets, m.start()) for m in breaks)]:
        while i < len(target) and target[i].kind in MARKER_KINDS:
            i += 1
        if i < len(target) and (not heads or heads[-1] != i):
            heads.append(i)
    return heads


def _offset_line_indentation(target: list[Token], offsets: list[int], text: str, head: int,
                             end: int) -> int | None:
    """Expanded column of the line's first content token, None when it holds none."""
    for i in range(head, end):
        if target[i].kind not in MARKER_KINDS and target[i].kind not in WHITESPACE_KINDS:
            return expanded_width(text[line_start(text, offsets[i]):offsets[i]])
    return None


def token_dedent_target(target: list[Token], offsets: list[int], text: str
                        ) -> tuple[list[Token], int]:
    """Shift the target left so its minimum line indentation becomes zero.

    The first line's indentation is its starting column in the original
    source, even when the target begins mid-line, so a span cut out of a
    nested block loses the cut position. Leading whitespace is re-emitted as
    spaces; lines that begin inside a multi-line token are left untouched.
    """
    heads = _line_heads(target, offsets, text)
    indents = [_offset_line_indentation(target, offsets, text, head, end)
               for head, end in zip(heads, heads[1:] + [len(target)])]
    dedent_cols = min((ind for ind in indents if ind is not None), default=0)
    if dedent_cols == 0:
        return list(target), 0

    out = list(target)
    for head in heads:
        first = target[head]
        if first.kind != "whitespace" or line_start(text, offsets[head]) != offsets[head]:
            continue  # no leading indentation, or a line that starts mid-line
        old_width = expanded_width(first.text)
        if first.text[:dedent_cols] == " " * dedent_cols and "\t" not in first.text:
            new_text = first.text[dedent_cols:]
        else:
            new_text = " " * max(0, old_width - dedent_cols)
        out[head] = first._replace(text=new_text)
    return out, dedent_cols


def token_reindent_target(target: list[Token], dedent_cols: int, offsets: list[int],
                          text: str) -> list[Token]:
    """Inverse of token_dedent_target for space-indented sources."""
    if dedent_cols == 0:
        return list(target)
    out = list(target)
    for head in _line_heads(target, offsets, text):
        first = target[head]
        if first.kind == "whitespace" and line_start(text, offsets[head]) == offsets[head]:
            out[head] = first._replace(text=" " * dedent_cols + first.text)
    return out


def token_unalias(tokens: list[Token], alias_map: dict[str, str]) -> list[Token]:
    """Replace alias tokens by the identifiers they stand for."""
    inverse = {alias: name for name, alias in alias_map.items()}
    return [tok._replace(text=inverse[tok.text]) if tok.kind == "identifier" and tok.text in inverse
            else tok for tok in tokens]


def target_offsets(tree: SyntaxTree, span) -> list[int]:
    """The offsets of a cls-prefixed target: the cls marker's repeats the first leaf's."""
    starts = tree.offsets[span.leaf_start:span.leaf_end]
    return starts[:1] + starts


def token_pair(tree: SyntaxTree, span, rng: random.Random, config
               ) -> tuple[str, str, int, MaskingPlan | None]:
    """One pair's (context, target, dedent_cols, masking plan) through token
    lists, the plan None when masking is off."""
    context, target = token_split(tree, span)
    plan = None
    if config.masking_enabled:
        plan = token_plan_masking(context, target, rng, config.mask_prob, config.skip_pair_prob)
        context, target = token_apply_masking(context, target, plan)
    dedent_cols = 0
    if config.dedent_enabled:
        target, dedent_cols = token_dedent_target(target, target_offsets(tree, span), tree.text)
    return "".join([t.text for t in context]), "".join([t.text for t in target]), dedent_cols, plan


def pair_sides(tree: SyntaxTree, span) -> tuple[tuple[list[int], list[str]], ...]:
    """The context's and the target's (identifier leaves, names), cut at the span."""
    ids, names = tree.identifiers
    a, b = bisect.bisect_left(ids, span.leaf_start), bisect.bisect_left(ids, span.leaf_end)
    return (ids[:a] + ids[b:], names[:a] + names[b:]), (ids[a:b], names[a:b])


def side_of(tokens: list[Token]) -> tuple[list[int], list[str]]:
    """A token list read as a side: its identifier indices and their texts."""
    ids = [i for i, tok in enumerate(tokens) if tok.kind == "identifier"]
    return ids, [tokens[i].text for i in ids]


def with_edits(tokens: list[Token], edits: dict[int, str]) -> list[Token]:
    """The tokens with each edited index's text replaced."""
    return [tok._replace(text=edits[i]) if i in edits else tok for i, tok in enumerate(tokens)]


# --------------------------------------------------------------------------
# contrastive batch loss and its gradient, one text and one bucket at a time

def oracle_batch_loss_and_grads(params, ctx_counts: list[dict[int, int]],
                                tgt_counts: list[dict[int, int]], tau: float,
                                include_positive: bool = True) -> tuple[float, dict]:
    """Mean in-batch contrastive loss and its gradient as bucket -> d-vector:
    each text embedded from its own count dict, each pair's loss on its own,
    and every count entry scattered into the gradient one by one."""
    import numpy as np

    def embed(counts_list):
        unit, norms = [], []
        for counts in counts_list:
            raw = sum(mult * params[bucket] for bucket, mult in counts.items())
            norm = float(np.linalg.norm(raw))
            unit.append(raw / norm)
            norms.append(norm)
        return unit, norms

    k = len(ctx_counts)
    eq, norm_q = embed(ctx_counts)
    ek, norm_k = embed(tgt_counts)
    d_eq = [np.zeros_like(e) for e in eq]
    d_ek = [np.zeros_like(e) for e in ek]
    loss = 0.0
    for i in range(k):
        logits = [float(eq[i] @ ek[j]) / tau for j in range(k)]
        pool = [j for j in range(k) if include_positive or j != i]
        top = max(logits[j] for j in pool)
        lse = top + math.log(sum(math.exp(logits[j] - top) for j in pool))
        loss += (lse - logits[i]) / k
        for j in range(k):
            dz = (math.exp(logits[j] - lse) if j in pool else 0.0) - (1.0 if j == i else 0.0)
            d_eq[i] = d_eq[i] + dz / (k * tau) * ek[j]
            d_ek[j] = d_ek[j] + dz / (k * tau) * eq[i]
    grads: dict[int, np.ndarray] = {}
    for units, d_units, norms, counts_list in ((eq, d_eq, norm_q, ctx_counts),
                                                (ek, d_ek, norm_k, tgt_counts)):
        for e, d_e, norm, counts in zip(units, d_units, norms, counts_list):
            d_raw = (d_e - float(d_e @ e) * e) / norm  # through the L2 normalization
            for bucket, mult in counts.items():
                grads[bucket] = grads.get(bucket, 0.0) + mult * d_raw
    return loss, grads


# --------------------------------------------------------------------------
# delimiter balance over token streams

_PAIRS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = {v: k for k, v in _PAIRS.items()}


def tokens_balanced(tokens: list[Token]) -> bool:
    """Bracket tokens (outside strings/comments) must nest and close."""
    stack: list[str] = []
    for tok in tokens:
        if tok.kind != tok.text:  # a marker's kind is never its text either
            continue
        if tok.text in _PAIRS:
            stack.append(tok.text)
        elif tok.text in _CLOSERS:
            if not stack or stack[-1] != _CLOSERS[tok.text]:
                return False
            stack.pop()
    return not stack


# --------------------------------------------------------------------------
# hand-built trees for span-expansion tests

def make_leaf_tokens(n: int, text: str = "t") -> list[Token]:
    return [Token(text=f"{text}{i} ", kind="identifier") for i in range(n)]


def make_tree(spec, language: Language) -> SyntaxTree:
    """Build a tree from ("kind", [children]) / int (leaf count) nesting."""
    leaves: list[Token] = []
    kinds, first, end, parents = ["program"], [0], [0], [-1]

    def add(node_spec, up: int) -> None:
        if isinstance(node_spec, int):
            for _ in range(node_spec):
                leaves.append(Token(text=f"x{len(leaves)} ", kind="identifier"))
            return
        kind, children = node_spec
        row = len(kinds)  # row 0 is the program root
        for column, value in ((kinds, kind), (first, len(leaves)), (end, 0), (parents, up)):
            column.append(value)
        for child in children:
            add(child, row)
        end[row] = len(leaves)

    for child in [spec] if isinstance(spec, int) else spec[1]:
        add(child, 0)
    end[0] = len(leaves)
    return tree_of(language, "".join(tok.text for tok in leaves), leaves, kinds, first, end, parents)


def tree_of(language: Language, text: str, leaves: list[Token], kinds: list[str],
            first: list[int], end: list[int], parents: list[int]) -> SyntaxTree:
    """The tree of group rows given in preorder as parallel columns over
    `leaves`, which tile `text`: each leaf's offset is the running sum of
    the token lengths before it."""
    offsets = list(itertools.accumulate((len(tok.text) for tok in leaves), initial=0))[:-1]
    return SyntaxTree(language, text, leaves, offsets, kinds, first, end, parents)


def number_preorder(language: Language, text: str, kinds: list[str], tokens: list[Token | None],
                    parents: list[int]) -> SyntaxTree:
    """`tree_of` over all-row preorder columns, in which a group row has
    no token and every token is a row: the group rows keep their kinds, and
    their leaf ranges and parents are counted off the token rows."""
    # the leaves before each row
    before = list(itertools.accumulate((tok is not None for tok in tokens), initial=0))
    end = before[1:]
    open_rows: list[int] = []  # the rows on the path from the root to the last row
    for row, up in enumerate(parents):
        while open_rows and open_rows[-1] != up:
            end[open_rows.pop()] = before[row]
        open_rows.append(row)
    for row in open_rows:
        end[row] = before[-1]
    groups = [row for row, tok in enumerate(tokens) if tok is None]
    group_of = {row: g for g, row in enumerate(groups)} | {-1: -1}
    return tree_of(language, text, [tok for tok in tokens if tok is not None],
                   [kinds[r] for r in groups], [before[r] for r in groups],
                   [end[r] for r in groups], [group_of[parents[r]] for r in groups])


class PreorderRows:
    """A tree read as preorder rows in which every leaf is a row of its own:
    at each leaf, the group rows that start there, then the leaf. Its
    columns are the ones trees kept before their leaves left the rows:
    `first_leaf` with one more entry, the leaf total; `subtree_end`, the row
    after each subtree; `parent`; and the seed rows. `rows_of` and `run_of`
    map a sibling run (parent row, first leaf, leaf end) to the rows of its
    members and back, and `sibling` finds a row's neighbour from the
    tree's columns."""

    COLUMNS = ("kinds", "first_leaf", "subtree_end", "parent", "leaves", "offsets",
               "seed_nodes", "seed_leaves")

    def __init__(self, tree: SyntaxTree):
        self.tree, self.language, self.text = tree, tree.language, tree.text
        self.leaves, self.offsets = tree.leaves, tree.offsets
        n_groups, n_leaves = len(tree.kinds), len(tree.leaves)
        self.group_row, self.leaf_row = [0] * n_groups, [0] * n_leaves
        self.start_row = []  # the first row placed at each leaf, and the row total
        self.kinds, self.first_leaf, self.parent = [], [], []
        holding: list[int] = []  # the group rows that hold the next leaf, outermost first
        group = 0
        for leaf in range(n_leaves + 1):
            self.start_row.append(len(self.kinds))
            while holding and tree.leaf_end[holding[-1]] <= leaf:
                holding.pop()
            while group < n_groups and (group == 0 or tree.first_leaf[group] == leaf):
                self._place(tree.kinds[group], tree.first_leaf[group], tree.parent[group])
                self.group_row[group] = len(self.kinds) - 1
                holding.append(group)
                group += 1
            if leaf < n_leaves:
                self.leaf_row[leaf] = len(self.kinds)
                self._place(tree.leaves[leaf].kind, leaf, holding[-1])
        self.first_leaf.append(n_leaves)
        self.start_row[n_leaves] = len(self.kinds)  # the row total, also for an empty root
        self.group_of = {row: group for group, row in enumerate(self.group_row)}
        self.subtree_end = [row + 1 for row in self.walk()]  # a leaf row ends itself
        for group, row in enumerate(self.group_row):
            self.subtree_end[row] = self.start_row[tree.leaf_end[group]]
        self.seed_nodes = [self.group_row[row] for row in tree.seed_nodes]
        self.seed_leaves = [self.leaf_row[leaf] for leaf in tree.seed_leaves]

    def _place(self, kind: str, first: int, up: int) -> None:
        self.kinds.append(kind)
        self.first_leaf.append(first)
        self.parent.append(self.group_row[up] if up >= 0 else -1)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    def walk(self) -> range:
        return range(len(self.kinds))

    def is_leaf(self, row: int) -> bool:
        return self.first_leaf[row + 1] > self.first_leaf[row]  # only a leaf row takes a leaf

    def tokens(self) -> list[Token | None]:
        """Each row's token; a group row has none."""
        return [self.leaves[self.first_leaf[row]] if self.is_leaf(row) else None
                for row in self.walk()]

    def columns(self) -> dict[str, list]:
        return {key: getattr(self, key) for key in self.COLUMNS}

    def rows_of(self, run: tuple[int, int, int]) -> tuple[int, ...]:
        """The rows of a sibling run's members."""
        up, lo, hi = run
        top = self.group_row[up] if up >= 0 else -1
        members = []
        while lo < hi:
            row = self.start_row[lo]
            while self.parent[row] != top:  # the rows placed at lo, outermost first
                row += 1
            members.append(row)
            lo = self.first_leaf[self.subtree_end[row]]
        return tuple(members)

    def run_of(self, rows: tuple[int, ...]) -> tuple[int, int, int]:
        """The sibling run of consecutive rows under one parent."""
        up = self.parent[rows[0]]
        return (self.group_of[up] if up >= 0 else -1, self.first_leaf[rows[0]],
                self.first_leaf[self.subtree_end[rows[-1]]])

    def sibling(self, row: int, following: bool) -> int:
        """The row beside a row in the given direction, or -1, read off the
        tree's columns: the child group that starts at the row's end (a
        bisect of the first leaves), or the one that `_child_holding`, the
        lookup trimming and run checks use, finds before its start; else the
        leaf there. Span growth writes its own steps out, and
        `reference_expand` checks them against the sibling columns."""
        tree, (up, lo, hi) = self.tree, self.run_of((row,))
        first, end, parent = tree.first_leaf, tree.leaf_end, tree.parent
        if up < 0 or (hi == end[up] if following else lo == first[up]):
            return -1
        if following:
            leaf, child = hi, bisect.bisect_left(first, hi, up + 1)
            child = child if child < len(first) and first[child] == hi else -1
        else:
            leaf, child = lo - 1, _child_holding(first, end, parent, up, lo - 1)
        return self.group_row[child] if child >= 0 else self.leaf_row[leaf]


def preorder_rows(tree: SyntaxTree) -> PreorderRows:
    return PreorderRows(tree)


def child_rows(tree: PreorderRows) -> list[list[int]]:
    """Every row's child rows, in row order, read off the parent column."""
    kids: list[list[int]] = [[] for _ in tree.kinds]
    for row in range(1, len(kids)):
        kids[tree.parent[row]].append(row)
    return kids


# --------------------------------------------------------------------------
# reference trees: rows turned into nested (kind, children) / (kind, token)
# tuples, rebuilt there, and numbered by a walk that shares no code with
# codegap.tree; it lists the span seeds the way span selection once walked
# for them on every attempt

BRACKET_TEXTS = frozenset("()[]{}")
WHITESPACE_KINDS = frozenset({"whitespace", "newline"})


def _first_leaf(node: tuple) -> tuple[Token, int]:
    while isinstance(node[1], list):
        node = node[1][0]
    return node[1]


def oracle_nesting(tree: SyntaxTree, runs: list[tuple[int, ...]] = ()) -> list[tuple]:
    """Each row's subtree as nested tuples, built from the parent column
    alone: a row without children is a leaf and takes the next (token,
    offset). Each run is replaced by one fold leaf in its parent, at the
    offset of the run's first leaf; a run of the root itself has no parent
    to fold into and changes nothing."""
    n = len(tree.kinds)
    kids = child_rows(tree)
    tokens = zip(tree.leaves, tree.offsets)
    token_of = {row: next(tokens) for row in range(1, n) if not kids[row]}
    folded = {run[0] for run in runs if run[0] != 0}
    dropped = {row for run in runs if run[0] != 0 for row in run[1:]}
    built: list[tuple] = [()] * n
    for row in reversed(range(n)):  # children before their parents
        if row in token_of:
            built[row] = (tree.kinds[row], token_of[row])
            continue
        body = []
        for child in kids[row]:
            if child in folded:
                marker = Token(FOLD_TOKEN, "fold")
                body.append(("fold", (marker, _first_leaf(built[child])[1])))
            elif child not in dropped:
                body.append(built[child])
        built[row] = (tree.kinds[row], body)
    return built


def oracle_from_run(tree: SyntaxTree, run: tuple[int, ...]) -> tuple:
    built = oracle_nesting(tree)
    return ("program", [built[row] for row in run])


def oracle_columns(root: tuple) -> dict[str, list]:
    """Preorder columns of a nesting, the root as row 0: kind, first leaf
    (with one more entry, the leaf total), leaf count, subtree end, parent,
    previous and next sibling, the leaves and their offsets, and the seed
    rows (groups below the root; leaves that are no blank or bracket token),
    with error subtrees left out of the seeds."""
    cols: dict[str, list] = {key: [] for key in (
        "kinds", "first_leaf", "leaf_counts", "subtree_end", "parent", "prev_sibling",
        "next_sibling", "leaves", "offsets", "seed_nodes", "seed_leaves")}
    frames: list[list] = []  # per open group: children iterator, row, last child row, blocked

    def enter(node: tuple, up: int, before: int, blocked: bool) -> int:
        row = len(cols["kinds"])
        kind, body = node
        for key, value in (("kinds", kind), ("first_leaf", len(cols["leaves"])),
                           ("leaf_counts", 1), ("subtree_end", row + 1), ("parent", up),
                           ("prev_sibling", before), ("next_sibling", -1)):
            cols[key].append(value)
        if before >= 0:
            cols["next_sibling"][before] = row
        blocked = blocked or kind == "error"
        if isinstance(body, list):
            if row > 0 and not blocked:
                cols["seed_nodes"].append(row)
            frames.append([iter(body), row, -1, blocked])
        else:
            tok, offset = body
            cols["leaves"].append(tok)
            cols["offsets"].append(offset)
            delimiter = tok.text in BRACKET_TEXTS and kind == tok.text
            if not blocked and not delimiter and tok.kind not in WHITESPACE_KINDS:
                cols["seed_leaves"].append(row)
        return row

    enter(root, -1, -1, False)
    while frames:
        frame = frames[-1]
        child = next(frame[0], None)
        if child is None:
            frames.pop()
            row = frame[1]
            cols["leaf_counts"][row] = len(cols["leaves"]) - cols["first_leaf"][row]
            cols["subtree_end"][row] = len(cols["kinds"])
            continue
        frame[2] = enter(child, frame[1], frame[2], frame[3])
    cols["first_leaf"].append(len(cols["leaves"]))
    return cols


def stored_columns(tree: SyntaxTree) -> dict[str, list]:
    """The column lists a SyntaxTree holds (its text is shared, not a column)."""
    return {f.name: getattr(tree, f.name) for f in fields(tree)
            if f.name not in ("language", "text")}


def leaf_counts(tree: PreorderRows) -> list[int]:
    """Each row's leaf count, derived from the first-leaf column, whose last
    entry closes the subtrees that end with the tree."""
    first, end = tree.first_leaf, tree.subtree_end
    return [first[end[row]] - first[row] for row in tree.walk()]


def tree_columns(tree: SyntaxTree) -> dict[str, list]:
    """The columns of `oracle_columns` read off a SyntaxTree's preorder rows:
    the all-row columns, the derived leaf counts, and each row's siblings by
    span growth's own steps."""
    rows = preorder_rows(tree)
    return {**rows.columns(), "leaf_counts": leaf_counts(rows),
            "prev_sibling": [rows.sibling(row, False) for row in rows.walk()],
            "next_sibling": [rows.sibling(row, True) for row in rows.walk()]}


def reference_expand(cols: dict[str, list], seed: int, length: int) -> list[int]:
    """Span growth as it ran over all-row columns, the run a list of rows:
    the seed grows into its parent while the parent fits, else takes the
    next fitting sibling from the `oracle_columns` sibling columns, the
    following and the preceding side in turn."""
    kinds, parent, counts = cols["kinds"], cols["parent"], cols["leaf_counts"]
    first, end = cols["first_leaf"], cols["subtree_end"]
    run, follow_first = [seed], True
    while True:
        up = parent[run[0]]
        if up >= 0 and kinds[up] != "error" and counts[up] <= length:
            run = [up]
            continue
        placed = None
        for following in (follow_first, not follow_first):
            sib = cols["next_sibling"][run[-1]] if following else cols["prev_sibling"][run[0]]
            if sib < 0 or kinds[sib] == "error" or kinds[sib] in BRACKET_TEXTS:
                continue
            lo, hi = (run[0], sib) if following else (sib, run[-1])
            if first[hi] + counts[hi] - first[lo] <= length:
                placed = (sib, following)
                break
        if placed is None:
            return run
        sib, following = placed
        run = run + [sib] if following else [sib] + run
        follow_first = not follow_first
        if up >= 0 and run[0] == up + 1 and end[run[-1]] == end[up]:
            if counts[up] <= length:
                run = [up]
            else:  # a run of every child would re-create its parent without it
                del run[-1 if following else 0]
                return run


def oracle_eligible_nodes(tree: SyntaxTree) -> tuple[list[int], list[int]]:
    """Preorder (group, leaf) seed rows, error subtrees excluded."""
    cols = oracle_columns(oracle_nesting(tree)[0])
    return cols["seed_nodes"], cols["seed_leaves"]


def reference_pick_seed(tree: SyntaxTree, length: int, rng: random.Random) -> int:
    """The span seed as it was picked before the count order: scans of the
    seed lists on every call, drawing from the same lists in preorder."""
    counts = leaf_counts(tree)
    lo = max(1.0, length / 2)
    window = [r for r in tree.seed_nodes if lo <= counts[r] <= length]
    if window:
        return window[rng.randrange(len(window))]
    fitting = [r for r in tree.seed_nodes if counts[r] <= length]
    if fitting:
        best = max(counts[r] for r in fitting)
        largest = [r for r in fitting if counts[r] == best]
        return largest[rng.randrange(len(largest))]
    if tree.seed_leaves:
        return tree.seed_leaves[rng.randrange(len(tree.seed_leaves))]
    raise EmptyTree("no selectable node outside error regions")


def reference_truncate_file(tree: SyntaxTree, rng: random.Random, config) -> TruncationResult:
    """Truncation as it ran before attempts were rejected at the seed: every
    attempt grows and trims its span, and the overlap check comes last."""
    total = tree.leaf_count
    if total <= config.truncation_threshold:
        return TruncationResult(shortened=tree, segments=[])
    chosen = []
    remaining = total
    for _ in range(config.max_extractions):
        if remaining <= config.truncation_threshold:
            break
        placed = None
        for _attempt in range(24):
            want = rng.randint(config.segment_min_len, config.segment_max_len)
            try:
                span = select_span(tree, want, rng)
            except EmptyTree:
                return TruncationResult(shortened=tree, segments=[])
            if not config.segment_min_len <= span.leaf_count < total:
                continue
            if any(not (span.leaf_end <= s.leaf_start or s.leaf_end <= span.leaf_start)
                   for s in chosen):
                continue
            placed = span
            break
        if placed is None:
            break
        chosen.append(placed)
        remaining -= placed.leaf_count - 1
    if not chosen:
        return TruncationResult(shortened=tree, segments=[])
    chosen.sort(key=lambda s: s.leaf_start)
    runs = [s.sibling_run for s in chosen]
    return TruncationResult(shortened=tree_with_runs_folded(tree, runs),
                            segments=[tree_from_run(tree, run) for run in runs])


def leaf_positions(text: str, offsets: list[int]) -> list[tuple[int, int]]:
    """Each leaf's (line, expanded column), derived from the offsets of
    leaves that tile `text`: the text between two offsets is one token's, a
    line break is \\r\\n, \\r or \\n within a token, so a \\r\\n that two
    tokens split counts twice, as the lexers count it, and a column counts
    tabs to the next multiple of TAB_WIDTH."""
    positions = []
    line = column = last = 0
    for offset in offsets:
        gap = text[last:offset]
        breaks = gap.count("\n") + gap.count("\r") - gap.count("\r\n")
        if breaks:
            line += breaks
            column = expanded_width(gap[max(gap.rfind("\n"), gap.rfind("\r")) + 1:])
        else:
            column += expanded_width(gap, column)
        positions.append((line, column))
        last = offset
    return positions


class PositionedToken(NamedTuple):
    """A token with the line and expanded column it starts at, as tokens
    carried them before positions moved to the tree's offset column."""

    text: str
    kind: str
    line: int
    column_expanded: int


def positioned(tokens: list[Token], positions: list[tuple[int, int]]) -> list[PositionedToken]:
    return [PositionedToken(tok.text, tok.kind, line, column)
            for tok, (line, column) in zip(tokens, positions)]


def _line_groups(tokens: list[PositionedToken]) -> list[list[int]]:
    """Indices grouped by source line, markers excluded; in order."""
    groups: list[list[int]] = []
    current_line: int | None = None
    for idx, tok in enumerate(tokens):
        if tok.kind in MARKER_KINDS:
            continue
        if tok.line != current_line:
            groups.append([idx])
            current_line = tok.line
        else:
            groups[-1].append(idx)
    return groups


def _line_indentation(tokens: list[PositionedToken], group: list[int]) -> int | None:
    """Expanded indentation of the line, None when it holds no real content."""
    for idx in group:
        tok = tokens[idx]
        if tok.kind not in WHITESPACE_KINDS:
            return tok.column_expanded
    return None


def reference_dedent_target(target: list[PositionedToken]) -> tuple[list[PositionedToken], int]:
    """`dedent_target` as it was when tokens carried their positions: lines
    are grouped by comparing each token's line with the last one's."""
    groups = _line_groups(target)
    indents = [_line_indentation(target, g) for g in groups]
    real = [ind for ind in indents if ind is not None]
    if not real:
        return list(target), 0
    dedent_cols = min(real)
    if dedent_cols == 0:
        return list(target), 0

    out = list(target)
    for group in groups:
        first_idx = group[0]
        first = target[first_idx]
        if first.column_expanded != 0:
            continue  # only the first line can start mid-line; nothing to shift
        if first.kind != "whitespace":
            continue  # no leading indentation (content or empty line)
        old_width = expanded_width(first.text)
        if first.text[:dedent_cols] == " " * dedent_cols and "\t" not in first.text:
            new_text = first.text[dedent_cols:]
        else:
            new_text = " " * max(0, old_width - dedent_cols)
        out[first_idx] = first._replace(text=new_text)
    return out, dedent_cols


def reference_reindent_target(target: list[PositionedToken], dedent_cols: int
                              ) -> list[PositionedToken]:
    """`reindent_target` as it was when tokens carried their positions."""
    if dedent_cols == 0:
        return list(target)
    out = list(target)
    for group in _line_groups(target):
        first_idx = group[0]
        first = target[first_idx]
        if first.column_expanded != 0:
            continue
        if first.kind == "whitespace":
            out[first_idx] = first._replace(text=" " * dedent_cols + first.text)
    return out


def real_sources(pattern: str, count: int) -> list[str]:
    """The first `count` files matching `pattern` (by name) that decode as
    UTF-8 and stay under 20 kB, so the reference scanner runs quickly."""
    out = []
    for path in sorted(glob.glob(pattern)):
        data = Path(path).read_bytes()
        if len(data) < 20_000:
            try:
                out.append(data.decode("utf-8"))
            except UnicodeDecodeError:
                continue
        if len(out) == count:
            break
    return out


_CPYTHON_SKIPPED = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.COMMENT, tokenize.ENDMARKER}
# from Python 3.12 an f-string comes as parts between these two; one token spans them
_FSTRING = (getattr(tokenize, "FSTRING_START", None), getattr(tokenize, "FSTRING_END", None))


def cpython_tokens(source: str) -> list[tuple[int, str]]:
    """Start offset and text of each token CPython's own `tokenize` emits,
    leaving out line ends, indentation changes, comments and the end marker."""
    lines = io.StringIO(source).readlines()
    starts = list(itertools.accumulate(map(len, lines), initial=0))
    out, depth = [], 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _CPYTHON_SKIPPED:
            continue
        offset = starts[tok.start[0] - 1] + tok.start[1]
        if tok.type == _FSTRING[0]:
            depth += 1
            if depth == 1:
                first = offset
        elif tok.type == _FSTRING[1]:
            depth -= 1
            if depth == 0:
                out.append((first, source[first:starts[tok.end[0] - 1] + tok.end[1]]))
        elif depth == 0:
            out.append((offset, tok.string))
    return out


# --------------------------------------------------------------------------
# reference builders: the grammar builders as they were before parse wrote
# rows in token order. They build a nesting of groups and tokens, which a
# stack walk turns into the (kinds, tokens, parents) columns that
# `number_preorder` takes

class _Group(NamedTuple):
    """A group under construction; its children are groups and tokens. No
    group kind is a token kind, so a kind test alone tells a bracket,
    ';', ':' or trivia token from a group."""

    kind: str
    children: list[_Item]


_Item = Token | _Group


def _nesting_rows(items: list[_Item]) -> tuple[list[str], list[Token | None], list[int]]:
    """Preorder (kinds, tokens, parents) columns of the builders' nesting,
    hung under a program root that is row 0."""
    kinds: list[str] = ["program"]
    tokens: list[Token | None] = [None]
    parents = [-1]
    stack = [(iter(items), 0)]  # the unvisited children of each open group
    while stack:
        children, up = stack[-1]
        for item in children:
            kinds.append(item.kind)
            parents.append(up)
            if type(item) is _Group:
                tokens.append(None)
                stack.append((iter(item.children), len(kinds) - 1))
                break
            tokens.append(item)
        else:
            stack.pop()
    return kinds, tokens, parents


# --------------------------------------------------------------------------
# bracket grouping (shared by both block styles)

def _group_brackets(tokens: list[Token]) -> list[_Item]:
    """Nest bracket pairs; unmatched delimiters end up inside error groups."""
    groups: list[list[_Item]] = [[]]  # items of each open group, outermost first
    for tok in tokens:
        if tok.kind in BRACKET_TEXTS:
            if tok.kind in OPEN_BRACKETS:
                groups.append([tok])
                continue
            if len(groups) > 1 and tok.text == MATCHING_BRACKET[groups[-1][0].text]:
                items = groups.pop()
                items.append(tok)
                groups[-1].append(_Group(OPEN_BRACKETS[items[0].text], items))
            else:
                groups[-1].append(_Group("error", [tok]))  # stray closer
            continue
        groups[-1].append(tok)
    while len(groups) > 1:  # still open at the end of input
        items = groups.pop()
        groups[-1].append(_Group("error", items))
    return groups[0]


def _first_leaf_token(item: _Item) -> Token:
    while type(item) is _Group:
        item = item.children[0]
    return item


# --------------------------------------------------------------------------
# brace-language statement grouping

def _statement_kind(first_kw: str | None, parts: list[_Item]) -> str:
    if first_kw in CONTROL_KEYWORDS:
        return f"{first_kw}_statement"
    if first_kw in DECLARATION_KEYWORDS:
        return _KIND_ALIASES.get(first_kw, f"{first_kw}_declaration")
    if any(p.kind == "block" for p in parts):
        return "definition"
    return "statement"


def _skip_trivia(items: list[_Item], i: int) -> int:
    while i < len(items) and items[i].kind in TRIVIA_KINDS:
        i += 1
    return i


def _continues_statement(first_kw: str | None, item: _Item) -> bool:
    text = item.text if type(item) is Token else None
    return text in ("else", "catch", "finally", ";") or (text == "while" and first_kw == "do")


def _group_statements(items: list[_Item], lang: Language) -> list[_Item]:
    """Group one block interior (or the top level) into statement groups."""
    out: list[_Item] = []
    i = 0
    n = len(items)
    while i < n:
        item = items[i]
        if item.kind in TRIVIA_KINDS or item.kind == "error":
            out.append(item)
            i += 1
            continue
        first = _first_leaf_token(item)
        first_kw = first.text if first.kind == "keyword" else None
        consume_to_semi = lang.name == "c" and first_kw == "typedef"
        parts: list[_Item] = [item]
        ended = item.kind == ";"
        i += 1
        while not ended and i < n:
            nxt = items[i]
            if nxt.kind == "error":
                break
            parts.append(nxt)
            i += 1
            if nxt.kind == ";":
                break
            if nxt.kind == "block" and not consume_to_semi:
                j = _skip_trivia(items, i)
                if j < n and _continues_statement(first_kw, items[j]):
                    parts.extend(items[i:j + 1])
                    i = j + 1
                    if items[j].kind == ";":
                        break
                    continue
                break
        if len(parts) == 1 and type(parts[0]) is _Group:
            out.append(parts[0])
        else:
            out.append(_Group(_statement_kind(first_kw, parts), parts))
    return out


def _build_brace_items(tokens: list[Token], lang: Language) -> list[_Item]:
    """Bracket groups, with statements grouped at the top level and inside
    every closed block. Each block's grouping depends on no other block's,
    so the blocks are visited in any order."""
    items = _group_brackets(tokens)
    stack = [item for item in items if type(item) is _Group]
    while stack:
        group = stack.pop()
        if group.kind == "block":
            group.children[1:-1] = _group_statements(group.children[1:-1], lang)
        stack.extend(item for item in group.children if type(item) is _Group)
    return _group_statements(items, lang)


# --------------------------------------------------------------------------
# indentation-language (python) suite grouping

class _LogicalLine:
    __slots__ = ("items", "indent", "blank", "significant")

    def __init__(self, tokens: list[Token]):
        self.items = _group_brackets(tokens)
        self.significant = [t for t in tokens if t.kind not in TRIVIA_KINDS]
        self.blank = not self.significant
        first = tokens[0]
        self.indent = expanded_width(first.text) if first.kind == "whitespace" else 0


def _split_logical_lines(tokens: list[Token]) -> list[_LogicalLine]:
    lines: list[_LogicalLine] = []
    current: list[Token] = []
    depth = 0
    for tok in tokens:
        current.append(tok)
        if tok.kind in OPEN_BRACKETS:
            depth += 1
        elif tok.kind in BRACKET_TEXTS:
            depth = max(0, depth - 1)
        elif tok.kind == "newline" and depth == 0:
            prev = current[-2] if len(current) >= 2 else None
            if prev is not None and prev.text == "\\":
                continue
            lines.append(_LogicalLine(current))
            current = []
    if current:
        lines.append(_LogicalLine(current))
    return lines


_CLAUSE_OWNERS = {
    "else": {"if", "for", "while", "try"},
    "elif": {"if"},
    "except": {"try"},
    "finally": {"try"},
}


def _items_end_with_colon(items: list[_Item]) -> bool:
    for item in reversed(items):
        if item.kind not in TRIVIA_KINDS:
            return item.kind == ":"
    return False


def _next_real_index(lines: list[_LogicalLine], pos: int) -> int | None:
    for k in range(pos, len(lines)):
        if not lines[k].blank:
            return k
    return None


class _Statement:
    """A statement being built: its header line, then suites and clauses."""

    __slots__ = ("keyword", "indent", "leading", "parts")

    def __init__(self, line: _LogicalLine):
        first_sig = line.significant[0]
        self.keyword = first_sig.text if first_sig.kind == "keyword" else None
        self.indent = line.indent
        self.parts = list(line.items)
        self.leading = [self.parts.pop(0)] if self.parts[0].kind == "whitespace" else []

    def node(self) -> _Item:
        parts = self.parts
        if self.keyword is None and len(parts) == 1 and type(parts[0]) is _Group:
            return parts[0]
        return _Group(_statement_kind(self.keyword, parts), parts)


def _build_indent_items(tokens: list[Token]) -> list[_Item]:
    """Nest python suites under the statements whose header ends in a colon,
    with an explicit stack of open suites."""
    lines = _split_logical_lines(tokens)
    suites: list[tuple[list[_Item], int]] = [([], 0)]  # items and indent of each open suite
    owners: list[_Statement] = []  # the statement owning each suite but the outermost
    pos = 0
    while True:
        items, level = suites[-1]
        k = _next_real_index(lines, pos)
        if pos < len(lines) and (k is None or lines[k].indent >= level):
            if lines[pos].blank:
                items.extend(lines[pos].items)
                pos += 1
                continue
            stmt = _Statement(lines[pos])
            pos += 1
        else:  # the innermost suite ends here
            if not owners:
                return items
            suites.pop()
            stmt = owners.pop()
            stmt.parts.append(_Group("block", items))
            cand = lines[k] if k is not None else None
            if (cand is None or cand.indent != stmt.indent
                    or cand.significant[0].kind != "keyword"
                    or stmt.keyword not in _CLAUSE_OWNERS.get(cand.significant[0].text, ())):
                suites[-1][0].extend([*stmt.leading, stmt.node()])
                continue
            for blank in lines[pos:k]:
                stmt.parts.extend(blank.items)
            stmt.parts.extend(cand.items)  # clause line, leading ws included
            pos = k + 1
        if _items_end_with_colon(stmt.parts):
            k = _next_real_index(lines, pos)
            if k is not None and lines[k].indent > stmt.indent:
                owners.append(stmt)
                suites.append(([], lines[k].indent))
                continue
        suites[-1][0].extend([*stmt.leading, stmt.node()])


def reference_nesting_columns(tokens: list[Token], lang: Language
                              ) -> tuple[list[str], list[Token | None], list[int]]:
    """The (kinds, tokens, parents) columns that parse numbered before it
    wrote rows in token order."""
    items = _build_indent_items(tokens) if lang.indent_blocks else _build_brace_items(tokens, lang)
    return _nesting_rows(items)


# --------------------------------------------------------------------------
# reference lexer: a per-character scanner that shares no code with the
# compiled patterns of codegap.tokenizer; its records also carry UTF-8 byte
# offsets

TAB_WIDTH = 4
TRIVIA_KINDS = frozenset({"whitespace", "newline", "comment"})
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_DIGITS = frozenset("0123456789")
_WS_CHARS = frozenset(" \t\f\v")
_NO_REGEX_AFTER_KINDS = frozenset({"identifier", "number", "string", "regex", "template_string"})
_NO_REGEX_AFTER_TEXTS = frozenset({")", "]", "}", "++", "--", "this", "super", "true", "false", "null"})


@dataclass(frozen=True, slots=True)
class OracleToken:
    text: str
    byte_start: int
    byte_end: int
    kind: str
    is_identifier: bool
    line: int
    column: int
    column_expanded: int


def expanded_width(text: str, start: int = 0) -> int:
    col = start
    for ch in text:
        col = (col // TAB_WIDTH + 1) * TAB_WIDTH if ch == "\t" else col + 1
    return col - start


def oracle_tokenize(source: str, lang: Language) -> list[OracleToken]:
    return _Scanner(source, lang).run()


class _Scanner:
    def __init__(self, source: str, lang: Language):
        self.src = source
        self.n = len(source)
        self.lang = lang
        self.i = 0
        self.line = 0
        self.col = 0
        self.colx = 0
        self.byte = 0
        self.tokens: list[OracleToken] = []
        self.prev_significant: OracleToken | None = None

    def emit(self, end: int, kind: str, is_identifier: bool = False) -> None:
        text = self.src[self.i:end]
        nbytes = len(text.encode("utf-8"))
        tok = OracleToken(text, self.byte, self.byte + nbytes, kind, is_identifier,
                    self.line, self.col, self.colx)
        self.tokens.append(tok)
        if kind not in TRIVIA_KINDS:
            self.prev_significant = tok
        # advance source position counters
        if "\n" not in text and "\r" not in text:
            self.col += len(text)
            self.colx += expanded_width(text, self.colx) if "\t" in text else len(text)
        else:
            for ch in text:
                if ch == "\n" or ch == "\r":
                    self.line += 1
                    self.col = 0
                    self.colx = 0
                elif ch == "\t":
                    self.col += 1
                    self.colx = (self.colx // TAB_WIDTH + 1) * TAB_WIDTH
                else:
                    self.col += 1
                    self.colx += 1
            # \r\n counts as a single line break
            text_pairs = text.count("\r\n")
            self.line -= text_pairs
        self.byte += nbytes
        self.i = end

    # --- branch scanners; each returns the token end index ---------------

    def scan_string(self, start: int, quote: str, triple: bool) -> int:
        closer = quote * 3 if triple else quote
        j = start + len(closer)
        while j < self.n:
            ch = self.src[j]
            if ch == "\\":
                j += 2
                continue
            if self.src.startswith(closer, j):
                return j + len(closer)
            if not triple and ch in "\n\r":
                return j  # unterminated single-line string: stop at newline
            j += 1
        return self.n

    def scan_template(self, start: int) -> int:
        j = start + 1
        while j < self.n:
            ch = self.src[j]
            if ch == "\\":
                j += 2
                continue
            if ch == "`":
                return j + 1
            j += 1
        return self.n

    def scan_line_comment(self, start: int) -> int:
        j = start
        while j < self.n and self.src[j] not in "\n\r":
            j += 1
        return j

    def scan_block_comment(self, start: int) -> int:
        close = self.lang.block_comment[1]
        end = self.src.find(close, start + len(self.lang.block_comment[0]))
        return self.n if end < 0 else end + len(close)

    def scan_preproc(self, start: int) -> int:
        # '#...' to end of line, honouring backslash-newline continuations
        j = start
        while j < self.n:
            if self.src[j] in "\n\r":
                k = j - 1
                while k >= start and self.src[k] in " \t":
                    k -= 1
                if k >= start and self.src[k] == "\\":
                    j += 2 if self.src.startswith("\r\n", j) else 1
                    continue
                return j
            j += 1
        return self.n

    def scan_number(self, start: int) -> int:
        j = start + 1
        while j < self.n:
            ch = self.src[j]
            if ch in "+-" and self.src[j - 1] in "eEpP" and j - 1 > start:
                j += 1
            elif ch == "." or ch == "_" or ch in _DIGITS or (ch.isalpha() and ch.isascii()):
                j += 1
            else:
                break
        return j

    def scan_identifier(self, start: int) -> int:
        j = start + 1
        allow_dollar = self.lang.dollar_identifiers
        while j < self.n:
            ch = self.src[j]
            if ch in _IDENT_START or ch in _DIGITS or (allow_dollar and ch == "$"):
                j += 1
            else:
                break
        return j

    def try_scan_regex(self, start: int) -> int | None:
        prev = self.prev_significant
        if prev is not None:
            if prev.kind in _NO_REGEX_AFTER_KINDS or prev.text in _NO_REGEX_AFTER_TEXTS:
                return None
        j = start + 1
        in_class = False
        saw_body = False
        while j < self.n:
            ch = self.src[j]
            if ch == "\\":
                j += 2
                saw_body = True
                continue
            if ch in "\n\r":
                return None
            if in_class:
                if ch == "]":
                    in_class = False
            elif ch == "[":
                in_class = True
            elif ch == "/":
                if not saw_body:
                    return None
                j += 1
                while j < self.n and (self.src[j] in _IDENT_START):
                    j += 1
                return j
            saw_body = True
            j += 1
        return None

    # --- main loop -------------------------------------------------------

    def run(self) -> list[OracleToken]:
        src, n, lang = self.src, self.n, self.lang
        dollar = lang.dollar_identifiers
        while self.i < n:
            i = self.i
            ch = src[i]
            if ch == "\r":
                self.emit(i + 2 if src.startswith("\r\n", i) else i + 1, "newline")
                continue
            if ch == "\n":
                self.emit(i + 1, "newline")
                continue
            if ch in _WS_CHARS:
                j = i + 1
                while j < n and src[j] in _WS_CHARS:
                    j += 1
                self.emit(j, "whitespace")
                continue
            if lang.block_comment and src.startswith(lang.block_comment[0], i):
                self.emit(self.scan_block_comment(i), "comment")
                continue
            if lang.line_comment and src.startswith(lang.line_comment, i):
                self.emit(self.scan_line_comment(i), "comment")
                continue
            if lang.preprocessor and ch == "#" and src[i - self.col:i].strip(" \t") == "":
                # a directive only when nothing but blanks precede it on the line
                self.emit(self.scan_preproc(i), "preproc")
                continue
            if ch in ("'", '"'):
                triple = lang.triple_quotes and src.startswith(ch * 3, i)
                self.emit(self.scan_string(i, ch, triple), "string")
                continue
            if ch == "`" and lang.template_strings:
                self.emit(self.scan_template(i), "template_string")
                continue
            if ch in _DIGITS or (ch == "." and i + 1 < n and src[i + 1] in _DIGITS):
                self.emit(self.scan_number(i), "number")
                continue
            if ch in _IDENT_START or (dollar and ch == "$"):
                j = self.scan_identifier(i)
                word = src[i:j]
                if (lang.string_prefixes and word in lang.string_prefixes
                        and j < n and src[j] in ("'", '"')):
                    quote = src[j]
                    triple = lang.triple_quotes and src.startswith(quote * 3, j)
                    self.emit(self.scan_string(j, quote, triple) , "string")
                    continue
                if word in lang.keywords:
                    self.emit(j, "keyword")
                else:
                    self.emit(j, "identifier", is_identifier=True)
                continue
            if ch == "/" and lang.regex_literals:
                end = self.try_scan_regex(i)
                if end is not None:
                    self.emit(end, "regex")
                    continue
            matched = False
            for op in lang.operators:
                if src.startswith(op, i):
                    self.emit(i + len(op), op)
                    matched = True
                    break
            if matched:
                continue
            self.emit(i + 1, ch)
        return self.tokens


# --------------------------------------------------------------------------
# reference JSONL reader: `json.loads` on every line and one membership test
# per required key, as the schema-checked reader was before it decoded with
# `raw_decode` and tested the keys as one subset

def reference_read_jsonl_objects(path: str | Path, required: tuple[str, ...] = (),
                                 types: dict[str, type] | None = None) -> list[tuple[int, dict]]:
    rows = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON: {exc.msg}", line=lineno, path=path) from exc
            if not isinstance(obj, dict):
                raise SchemaError("expected a JSON object", line=lineno, path=path)
            for key in required:
                if key not in obj:
                    raise SchemaError(f"missing {key!r} field", line=lineno, path=path)
            for key, kind in (types or {}).items():
                if key in obj and not isinstance(obj[key], kind):
                    raise SchemaError(f"{key!r} must be of type {kind.__name__}",
                                      line=lineno, path=path)
            rows.append((lineno, obj))
    return rows


# --------------------------------------------------------------------------
# test-only helpers built on package code

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


def language_for_path(path: str | Path, ext_map: dict[str, str] | None = None) -> Language | None:
    """Resolve a file to its grammar via the extension registry, or None."""
    return language_for_name(Path(path).name, ext_map)


# --------------------------------------------------------------------------
# reference ingest: `Path.rglob` and `pathlib` calls per file, as ingest was
# before it walked each root with one scandir pass per directory

def rglob_ingest(roots, config, ext_map: dict[str, str] | None = None) -> list:
    seen: set[str] = set()
    out = []
    wanted = set(config.languages) if config.languages else None
    for root in roots:
        root = Path(root)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            lang = language_for_path(path, ext_map)
            if lang is None or (wanted is not None and lang.name not in wanted):
                continue
            digest = content_hash(path.read_bytes())
            if digest in seen:
                continue
            seen.add(digest)
            rel = path.relative_to(root)
            # rglob does not enter linked directories, so only a linked file
            # can resolve outside the repository its path names
            if path.is_symlink():
                repo = repo_of(path, root)
            else:
                repo = rel.parts[0] if len(rel.parts) > 1 else root.name
            out.append(CorpusFile(path=str(path), source=rel.as_posix(), language=lang.name,
                                  content_hash=digest,
                                  split=VALID if repo in config.valid_repos else TRAIN))
    out.sort(key=lambda f: f.content_hash)
    return out


# --------------------------------------------------------------------------
# record-flow shards: pairs travel as `PairRecord`s in content-hash order and
# are JSON-encoded only when their shard is written, as `make_pairs` and
# `write_shards` did before the workers returned finished shard lines

def record_flow_pairs(files: list[CorpusFile], config) -> list[PairRecord]:
    """Every pair of the files, in hash order; a file that cannot be read or
    whose pairs raise gives none."""
    records: list[PairRecord] = []
    for file in sorted(files, key=lambda f: f.content_hash):
        try:
            source = Path(file.path).read_bytes().decode("utf-8")
            records += generate_pairs_for_source(
                source, get_language(file.language),
                seed=file_seed(config.seed, file.content_hash), source_name=file.source,
                pair_id_prefix=file.content_hash[:16], split_name=file.split, config=config)
        except Exception:
            continue
    return records


def record_flow_write_shards(records, out_dir: str | Path, shard_size: int) -> list[Path]:
    """One shard file per language per shard_size records, under split dirs."""
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
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for record in batch:
                fh.write(json.dumps(record.to_record(), ensure_ascii=False,
                                    separators=(",", ":")) + "\n")
        written.append(path)

    for rec in records:
        key = (rec.split, rec.language)
        buffers.setdefault(key, []).append(rec)
        if len(buffers[key]) >= shard_size:
            flush(key)
    for key in sorted(buffers):
        flush(key)
    return written


# --------------------------------------------------------------------------
# loss functions: cosine similarity, the single-query loss, the mean batch
# loss and a finite-difference check of the batch gradient

class InvalidTemperature(CodegapError, ValueError):
    """A temperature that is not positive; only the loss functions here check it."""


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector shapes differ: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine similarity of a zero vector is undefined")
    return float(np.dot(a, b) / (na * nb))


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + math.log(float(np.sum(np.exp(values - m))))


def info_nce(query: np.ndarray, positive: np.ndarray, negatives: list[np.ndarray],
             tau: float = DEFAULT_TAU, include_positive: bool = True) -> float:
    """Contrastive loss of one query against its positive and negatives."""
    if tau <= 0:
        raise InvalidTemperature(f"temperature must be positive, got {tau}")
    if not negatives:
        raise ValueError("at least one negative is required")
    pos = cosine(query, positive) / tau
    negs = np.array([cosine(query, n) for n in negatives], dtype=np.float64) / tau
    pool = np.concatenate(([pos], negs)) if include_positive else negs
    return _logsumexp(pool) - pos


def batch_loss(encoder: ToyEncoder, contexts: list[str], targets: list[str],
               tau: float | None = None, include_positive: bool = True) -> float:
    """Mean contrastive loss over a batch; other pairs' targets are negatives."""
    if len(contexts) != len(targets):
        raise DimensionMismatch("context and target counts differ")
    if len(contexts) < 2:
        raise BatchTooSmall("a batch needs at least two pairs to have negatives")
    tau = encoder.tau if tau is None else tau
    if tau <= 0:
        raise InvalidTemperature(f"temperature must be positive, got {tau}")
    packed = encoder.bucket_counts([*contexts, *targets])
    return batch_loss_and_grads(encoder.params, packed, tau, include_positive)[0]


@dataclass
class GradCheckReport:
    max_rel_error: float
    checked: int
    zero_grad_checked: int
    eps: float

    @property
    def ok(self) -> bool:
        return self.max_rel_error < 1e-3


def grad_check(encoder: ToyEncoder, contexts: list[str], targets: list[str],
               eps: float = 1e-5, samples: int = 120,
               rng: random.Random | None = None,
               include_positive: bool = True) -> GradCheckReport:
    """Compare analytic row gradients against central finite differences."""
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError("eps outside the supported range [1e-6, 1e-3]")
    rng = rng or random.Random(0)
    packed = encoder.bucket_counts([*contexts, *targets])
    tau = encoder.tau
    _, buckets, rows = batch_loss_and_grads(encoder.params, packed, tau, include_positive)
    touched = buckets.tolist()
    grads = dict(zip(touched, rows))
    untouched = []
    while len(untouched) < max(4, samples // 8):
        b = rng.randrange(encoder.buckets)
        if b not in grads:
            untouched.append(b)
    coords: list[tuple[int, int]] = []
    for _ in range(samples):
        bucket = touched[rng.randrange(len(touched))]
        coords.append((bucket, rng.randrange(encoder.dim)))
    zero_coords = [(b, rng.randrange(encoder.dim)) for b in untouched]

    params = encoder.params.copy()
    max_rel = 0.0
    for bucket, col in coords + zero_coords:
        analytic = float(grads.get(bucket, np.zeros(encoder.dim))[col])
        saved = params[bucket, col]
        params[bucket, col] = saved + eps
        up = batch_loss_and_grads(params, packed, tau, include_positive)[0]
        params[bucket, col] = saved - eps
        down = batch_loss_and_grads(params, packed, tau, include_positive)[0]
        params[bucket, col] = saved
        numeric = (up - down) / (2 * eps)
        scale = max(abs(analytic), abs(numeric))
        if scale > 1e-8:
            max_rel = max(max_rel, abs(analytic - numeric) / scale)
    return GradCheckReport(max_rel_error=max_rel, checked=len(coords),
                           zero_grad_checked=len(zero_coords), eps=eps)
