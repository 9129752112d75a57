"""Ranking and evaluation for contextualized code retrieval.

Protocol: every context query is ranked against the full candidate pool with
its own original target removed, relevance labels are binary, and all metrics
are macro-averaged over queries. Ties order by ascending candidate id so runs
are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, NoRelevant, SchemaError, ZeroVector
from .pipeline import read_jsonl_objects
from .texttok import text_tokens

PRECISION_KS = (1, 3, 10)
QUERY_BLOCK = 64  # queries per score matrix: memory stays O(block x pool)


@dataclass(frozen=True)
class RankedList:
    query_id: str
    ranking: tuple[tuple[str, float], ...]  # (target_id, score), best first

    @property
    def ids(self) -> list[str]:
        return [tid for tid, _ in self.ranking]


@dataclass
class Judgments:
    relevant: dict[str, set[str]]
    original: dict[str, str] = field(default_factory=dict)

    def relevant_for(self, query_id: str) -> set[str]:
        rel = self.relevant.get(query_id, set())
        orig = self.original.get(query_id)
        return rel - {orig} if orig is not None else set(rel)


def rank(scores: np.ndarray, ids: Sequence[str], exclude: str | None = None,
         query_id: str = "") -> RankedList:
    """Candidates best first; the only sorter of every ranking path.

    `ids` are ascending and `scores` is the row of scores aligned with them,
    so a stable sort on the negated scores keeps ties in ascending-id order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable").tolist()
    ranking = tuple((ids[i], s) for i, s in zip(order, scores[order].tolist())
                    if ids[i] != exclude)
    return RankedList(query_id=query_id, ranking=ranking)


# --------------------------------------------------------------------------
# metrics, all read off the 1-based positions of the relevant candidates

def _ndcg(hits: list[int]) -> float:
    """Binary-gain NDCG with a log2(rank + 1) discount."""
    dcg = sum(1.0 / np.log2(pos + 1) for pos in hits)
    ideal = sum(1.0 / np.log2(pos + 1) for pos in range(1, len(hits) + 1))
    return float(dcg / ideal)


@dataclass
class EvalReport:
    map: float
    ndcg: float
    p_at: dict[int, float]
    mrr: float
    per_query: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "map": self.map,
            "ndcg": self.ndcg,
            "p_at": {str(k): v for k, v in self.p_at.items()},
            "mrr": self.mrr,
            "per_query": self.per_query,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_table(self) -> str:
        header = f"{'MAP':>8} {'NDCG':>8} " + " ".join(f"{'P@%d' % k:>8}" for k in PRECISION_KS) + f" {'MRR':>8}"
        row = f"{self.map:8.4f} {self.ndcg:8.4f} " + " ".join(
            f"{self.p_at[k]:8.4f}" for k in PRECISION_KS) + f" {self.mrr:8.4f}"
        return header + "\n" + row


def evaluate_rankings(lists: list[RankedList], judgments: Judgments) -> EvalReport:
    if not lists:
        raise NoRelevant("no queries to evaluate")
    per_query = []
    for ranked in lists:
        relevant = judgments.relevant_for(ranked.query_id)
        hits = [pos for pos, (tid, _) in enumerate(ranked.ranking, start=1) if tid in relevant]
        if not hits:
            raise NoRelevant(f"query {ranked.query_id!r} has no relevant candidate")
        pool = len(ranked.ranking)  # pools smaller than k cap the P@k denominator
        per_query.append({
            "query_id": ranked.query_id,
            "ap": sum(found / pos for found, pos in enumerate(hits, start=1)) / len(hits),
            "ndcg": _ndcg(hits),
            "rr": 1.0 / hits[0],
            "p_at": {str(k): sum(1 for pos in hits if pos <= k) / min(k, pool)
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


def _unit_rows(vectors: list[np.ndarray], dim: int) -> np.ndarray:
    for vec in vectors:
        if np.shape(vec) != (dim,):
            raise DimensionMismatch(f"vector shapes differ: {np.shape(vec)} vs {(dim,)}")
    rows = np.array(vectors, dtype=np.float64).reshape(len(vectors), dim)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ZeroVector("cosine similarity of a zero vector is undefined")
    return rows / norms


def evaluate(queries: dict[str, np.ndarray], candidates: dict[str, np.ndarray],
             judgments: Judgments) -> EvalReport:
    """Rank every query against the shared pool by cosine similarity and
    aggregate all metrics.

    Scores come from one matrix product of unit rows, QUERY_BLOCK queries at
    a time. Identical candidate vectors share one column, so their scores are
    bitwise equal and only the id decides their order.
    """
    qids, tids = sorted(queries), sorted(candidates)
    if not qids:
        return evaluate_rankings([], judgments)
    dim = np.asarray(queries[qids[0]]).size
    q_rows = _unit_rows([queries[q] for q in qids], dim)
    c_rows = _unit_rows([candidates[t] for t in tids], dim)
    first: dict[bytes, int] = {}
    column = np.array([first.setdefault(row.tobytes(), len(first)) for row in c_rows],
                      dtype=np.intp)
    distinct = np.empty((len(first), dim))
    distinct[column] = c_rows
    lists = []
    for start in range(0, len(qids), QUERY_BLOCK):
        block = slice(start, start + QUERY_BLOCK)
        scores = (q_rows[block] @ distinct.T)[:, column]
        lists.extend(rank(row, tids, exclude=judgments.original.get(qid), query_id=qid)
                     for qid, row in zip(qids[block], scores))
    return evaluate_rankings(lists, judgments)


# --------------------------------------------------------------------------
# a deliberately naive baseline for leakage measurements: token-set overlap

def token_set(text: str) -> frozenset[str]:
    return frozenset(text_tokens(text))


def lexical_pool(texts: Mapping[str, str]) -> tuple[list[str], list[frozenset[str]]]:
    """Ascending candidate ids and their token sets, each text tokenized once."""
    ids = sorted(texts)
    return ids, [token_set(texts[tid]) for tid in ids]


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


def rank_lexical(query_tokens: frozenset[str],
                 pool: tuple[list[str], list[frozenset[str]]],
                 exclude: str | None = None, query_id: str = "",
                 scorer: Callable[[frozenset, frozenset], float] = lexical_overlap) -> RankedList:
    """Score one query's token set against a pool from `lexical_pool`, then rank."""
    ids, token_sets = pool
    scores = np.fromiter((scorer(query_tokens, tokens) for tokens in token_sets),
                         dtype=np.float64, count=len(token_sets))
    return rank(scores, ids, exclude=exclude, query_id=query_id)


# --------------------------------------------------------------------------
# file formats: queries / candidates / qrels / embeddings

def load_queries(path: str | Path) -> dict[str, dict]:
    return {str(obj["query_id"]): {"language": obj["language"], "context": obj["context"]}
            for _, obj in read_jsonl_objects(path, ("query_id", "language", "context"))}


def load_candidates(path: str | Path) -> dict[str, dict]:
    return {str(obj["target_id"]): {"language": obj["language"], "text": obj["text"]}
            for _, obj in read_jsonl_objects(path, ("target_id", "language", "text"))}


def load_qrels(path: str | Path) -> Judgments:
    relevant: dict[str, set[str]] = {}
    original: dict[str, str] = {}
    for _, obj in read_jsonl_objects(path, ("query_id", "target_id")):
        qid, tid = str(obj["query_id"]), str(obj["target_id"])
        rel = int(obj.get("relevance", 0))
        if int(obj.get("is_original", 0)):
            original[qid] = tid
        elif rel > 0:
            relevant.setdefault(qid, set()).add(tid)
    return Judgments(relevant=relevant, original=original)


def load_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    out = {}
    for lineno, obj in read_jsonl_objects(path, ("id", "vector")):
        vec = obj["vector"]
        if not isinstance(vec, list) or not vec:
            raise SchemaError("'vector' must be a non-empty list", line=lineno)
        bad = "'vector' must be a flat list of finite numbers"
        try:
            arr = np.asarray(vec)
        except ValueError as exc:  # ragged nesting
            raise SchemaError(bad, line=lineno) from exc
        if arr.ndim != 1 or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
            raise SchemaError(bad, line=lineno)
        out[str(obj["id"])] = arr.astype(np.float64)
    return out
