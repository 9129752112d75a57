"""Independent brute-force oracles the implementation is checked against.

Everything here is deliberately written from the metric definitions with
plain loops, not shared with package code.
"""

from __future__ import annotations

import itertools
import math

from codegap.languages import Language
from codegap.tokenizer import Token
from codegap.tree import Node, SyntaxTree, _build_tree


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


def exhaustive_metric_comparison() -> float:
    """Worst absolute deviation from the oracles over every ranking of pools
    with up to six candidates and up to three relevant ones."""
    from codegap.retrieval import (
        RankedList,
        average_precision,
        ndcg,
        precision_at_k,
        reciprocal_rank,
    )

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
            scored = tuple((tid, float(n - i)) for i, tid in enumerate(ranking))
            rl = RankedList(query_id="q", ranking=scored)
            for relevant in relevant_sets:
                for k in (1, 3, 10):
                    worst = max(worst, abs(precision_at_k(rl, relevant, k)
                                           - oracle_precision_at_k(ranking, relevant, k)))
                worst = max(worst, abs(average_precision(rl, relevant)
                                       - oracle_average_precision(ranking, relevant)))
                worst = max(worst, abs(ndcg(rl, relevant)
                                       - oracle_ndcg(ranking, relevant)))
                worst = max(worst, abs(reciprocal_rank(rl, relevant)
                                       - oracle_reciprocal_rank(ranking, relevant)))
    return worst


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
        if tok.synthetic or tok.kind != tok.text:
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
    return [
        Token(text=f"{text}{i} ", byte_start=i * 4, byte_end=i * 4 + 3,
              kind="identifier", is_identifier=True, line=0, column=i * 4,
              column_expanded=i * 4)
        for i in range(n)
    ]


def make_tree(spec, language: Language) -> SyntaxTree:
    """Build a tree from ("kind", [children]) / int (leaf count) nesting."""
    counter = itertools.count()

    def nodes(node_spec) -> list[Node]:
        if isinstance(node_spec, int):
            leaves = []
            for _ in range(node_spec):
                i = next(counter)
                leaves.append(Node("identifier", token=Token(
                    text=f"x{i} ", byte_start=i * 4, byte_end=i * 4 + 3, kind="identifier",
                    is_identifier=True, line=0, column=i * 4, column_expanded=i * 4)))
            return leaves
        kind, children = node_spec
        return [Node(kind, [node for child in children for node in nodes(child)])]

    top = nodes(spec)
    return _build_tree(top if isinstance(spec, int) else top[0].children, language)
