"""Ranking and evaluation for contextualized code retrieval.

Protocol: every context query is ranked against the full candidate pool with
its own original target removed, relevance labels are binary, and all metrics
are macro-averaged over queries. Ties order by ascending candidate id so runs
are reproducible.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Container, Iterable, Mapping, Sequence

import numpy as np

from .contrastive import _unit_rows
from .errors import DimensionMismatch, NoRelevant, SchemaError, ZeroVector
from .pipeline import read_jsonl_objects
from .texttok import text_tokens

PRECISION_KS = (1, 3, 10)
QUERY_BLOCK = 64  # queries per score matrix: memory stays O(block x pool)
_discount = functools.cache(lambda pos: 1.0 / np.log2(pos + 1))  # NDCG discount at a 1-based rank


class Pool:
    """Distinct candidate ids in ascending order, and the column of each id."""

    def __init__(self, ids: Iterable[str]):
        self.ids = sorted(ids)
        self.column = {tid: col for col, tid in enumerate(self.ids)}


@dataclass(eq=False)
class RankedList:
    """One query's ranking: columns of `pool`, best first, and the score row
    over all columns. `ids` and `ranking` are built only when read."""

    query_id: str
    order: np.ndarray
    row: np.ndarray
    pool: Pool

    @property
    def ids(self) -> list[str]:
        return list(map(self.pool.ids.__getitem__, self.order.tolist()))

    @property
    def ranking(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.ids, self.row[self.order].tolist()))


@dataclass
class Judgments:
    relevant: dict[str, set[str]]
    original: dict[str, str] = field(default_factory=dict)

    def relevant_for(self, query_id: str) -> set[str]:
        return self.relevant.get(query_id, set()) - {self.original.get(query_id)}


def rank(scores: np.ndarray, pool: Pool, exclude: str | None = None,
         query_id: str = "") -> RankedList:
    """Candidates best first; the only sorter of every ranking path. `scores`
    follows the pool's ascending ids, so a stable sort on the negated scores
    keeps ties in ascending-id order."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    if exclude in pool.column:
        order = order[order != pool.column[exclude]]
    return RankedList(query_id, order, scores, pool)


# --------------------------------------------------------------------------
# metrics, all read off the 1-based positions of the relevant candidates

def _ndcg(hits: list[int]) -> float:
    """Binary-gain NDCG with a log2(rank + 1) discount."""
    return float(sum(map(_discount, hits)) / sum(map(_discount, range(1, len(hits) + 1))))


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
        """`json.dumps(self.to_dict(), indent=2)` without the pure-Python encoder `indent` picks."""
        rows = [f'    {{\n      "query_id": {_json_str(row["query_id"])},\n      "ap": '
                f'{_json_float(row["ap"])},\n      "ndcg": {_json_float(row["ndcg"])},\n      "rr": '
                f'{_json_float(row["rr"])},\n      "p_at": {_json_floats(row["p_at"], 6)}\n    }}'
                for row in self.per_query]
        per_query = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        return (f'{{\n  "map": {_json_float(self.map)},\n  "ndcg": {_json_float(self.ndcg)},\n'
                f'  "p_at": {_json_floats(self.p_at, 2)},\n  "mrr": {_json_float(self.mrr)},\n'
                f'  "per_query": {per_query}\n}}')

    def to_table(self) -> str:
        header = f"{'MAP':>8} {'NDCG':>8} " + " ".join(f"{'P@%d' % k:>8}" for k in PRECISION_KS) + f" {'MRR':>8}"
        row = f"{self.map:8.4f} {self.ndcg:8.4f} " + " ".join(
            f"{self.p_at[k]:8.4f}" for k in PRECISION_KS) + f" {self.mrr:8.4f}"
        return header + "\n" + row


_json_str = json.encoder.encode_basestring_ascii
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # float repr -> JSON


def _json_float(value: float) -> str:
    """A float as `json.dumps` writes it, non-finite ones included."""
    text = float.__repr__(value)
    return _JSON_NON_FINITE.get(text, text)


def _json_floats(values: dict, indent: int) -> str:
    """A dict of floats as `json.dumps(..., indent=2)` writes it at this indent."""
    items = [f"{' ' * (indent + 2)}{_json_str(str(k))}: {_json_float(v)}" for k, v in values.items()]
    return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}" if items else "{}"


def evaluate_rankings(lists: Iterable[RankedList], judgments: Judgments) -> EvalReport:
    """Metrics of the rankings, pulled one at a time; only the per-query rows are kept."""
    per_query = []
    for ranked in lists:
        column = ranked.pool.column
        relevant = np.zeros(len(column), dtype=bool)
        relevant[[column[t] for t in judgments.relevant_for(ranked.query_id) if t in column]] = True
        hits = (np.flatnonzero(relevant[ranked.order]) + 1).tolist()
        if not hits:
            raise NoRelevant(f"query {ranked.query_id!r} has no relevant candidate")
        pool = len(ranked.order)  # pools smaller than k cap the P@k denominator
        per_query.append({
            "query_id": ranked.query_id,
            "ap": sum(found / pos for found, pos in enumerate(hits, start=1)) / len(hits),
            "ndcg": _ndcg(hits),
            "rr": 1.0 / hits[0],
            "p_at": {str(k): sum(1 for pos in hits if pos <= k) / min(k, pool)
                     for k in PRECISION_KS},
        })
        del ranked  # before the next is pulled: a ranking holds its block's scores
    if not per_query:
        raise NoRelevant("no queries to evaluate")
    n = len(per_query)
    return EvalReport(
        map=sum(row["ap"] for row in per_query) / n,
        ndcg=sum(row["ndcg"] for row in per_query) / n,
        p_at={k: sum(row["p_at"][str(k)] for row in per_query) / n for k in PRECISION_KS},
        mrr=sum(row["rr"] for row in per_query) / n,
        per_query=per_query,
    )


def _unit_rows_by_id(ids: Sequence[str], rows: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The ids in ascending order, and their rows in that order as unit rows."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return [ids[i] for i in order], _unit_rows(rows[order])[0]


def evaluate(query_ids: Sequence[str], query_rows: np.ndarray, candidate_ids: Sequence[str],
             candidate_rows: np.ndarray, judgments: Judgments) -> EvalReport:
    """Rank every query against the shared pool by cosine similarity and
    aggregate all metrics. Row i of a row matrix is the vector of id i.

    Scores come from one matrix product of unit rows, QUERY_BLOCK queries at
    a time, and a block's rankings are scored before the next product is
    taken. Identical candidate vectors share one column, so their scores are
    bitwise equal and only the id decides their order.
    """
    if not query_ids:
        return evaluate_rankings([], judgments)
    query_rows = np.asarray(query_rows, dtype=np.float64)
    candidate_rows = np.asarray(candidate_rows, dtype=np.float64)
    dim = query_rows.shape[-1]
    if (query_rows.shape != (len(query_ids), dim)
            or candidate_rows.shape != (len(candidate_ids), dim)):
        raise DimensionMismatch(f"vector shapes differ: {query_rows.shape} vs {candidate_rows.shape}")
    qids, q_rows = _unit_rows_by_id(query_ids, query_rows)
    pool_ids, c_rows = _unit_rows_by_id(candidate_ids, candidate_rows)
    pool = Pool(pool_ids)
    first: dict[bytes, int] = {}
    column = np.array([first.setdefault(row.tobytes(), len(first)) for row in c_rows],
                      dtype=np.intp)
    distinct = np.empty((len(first), dim))
    distinct[column] = c_rows

    def rankings():
        for start in range(0, len(qids), QUERY_BLOCK):
            block = slice(start, start + QUERY_BLOCK)
            scores = (q_rows[block] @ distinct.T)[:, column]
            for qid, row in zip(qids[block], scores):
                yield rank(row, pool, exclude=judgments.original.get(qid), query_id=qid)

    return evaluate_rankings(rankings(), judgments)


# --------------------------------------------------------------------------
# a deliberately naive baseline for leakage measurements: token-set overlap

def token_set(text: str) -> frozenset[str]:
    return frozenset(text_tokens(text))


def lexical_pool(texts: Mapping[str, str]) -> tuple[Pool, dict[str, np.ndarray], np.ndarray]:
    """The candidates, each token's ascending columns (an inverted index of the
    token sets, each text tokenized once) and each column's set size."""
    pool = Pool(texts)
    sets = [token_set(texts[tid]) for tid in pool.ids]
    columns: dict[str, list[int]] = {}
    for col, tokens in enumerate(sets):
        for token in tokens:
            columns.setdefault(token, []).append(col)
    postings = {token: np.array(cols, dtype=np.intp) for token, cols in columns.items()}
    return pool, postings, np.array([len(tokens) for tokens in sets], dtype=np.int64)


def rank_lexical(query_tokens: frozenset[str], pool: tuple, exclude: str | None = None,
                 query_id: str = "", coefficient: bool = False) -> RankedList:
    """Rank a `lexical_pool` by Jaccard similarity of token sets, or with `coefficient`
    by shared tokens over the smaller set's size; 0 where either set is empty. One bincount
    of postings counts shared tokens; one division of exact integers equals int / int."""
    candidates, postings, sizes = pool
    hit = [postings[token] for token in query_tokens if token in postings]
    shared = np.bincount(np.concatenate([np.empty(0, np.intp), *hit]), minlength=len(sizes))
    size = len(query_tokens)
    denominator = np.minimum(sizes, size) if coefficient else sizes + size - shared
    scores = np.divide(shared, denominator, out=np.zeros(len(sizes)), where=denominator > 0)
    return rank(scores, candidates, exclude=exclude, query_id=query_id)


# --------------------------------------------------------------------------
# file formats: queries / candidates / qrels / embeddings

def _by_id(path: str | Path, key: str, fields: dict[str, type]) -> dict[str, dict]:
    """Each row's `fields` under its `key` read as a string; a repeated id is a data error."""
    out: dict[str, dict] = {}
    for lineno, obj in read_jsonl_objects(path, (key, *fields), fields):
        rid = str(obj[key])
        if rid in out:
            raise SchemaError(f"repeated {key} {rid!r}", lineno, path)
        out[rid] = {name: obj[name] for name in fields}
    return out


def load_queries(path: str | Path) -> dict[str, dict]:
    return _by_id(path, "query_id", {"language": str, "context": str})


def load_candidates(path: str | Path) -> dict[str, dict]:
    return _by_id(path, "target_id", {"language": str, "text": str})


def load_qrels(path: str | Path) -> Judgments:
    """The judgments, holding one string per distinct target id however many rows name it."""
    listed: dict[str, list[str]] = {}
    original: dict[str, str] = {}
    names: dict[str, str] = {}
    for _, obj in read_jsonl_objects(path, ("query_id", "target_id"),
                                     {"relevance": int, "is_original": int}):
        qid, tid = str(obj["query_id"]), str(obj["target_id"])
        tid = names.setdefault(tid, tid)
        if obj.get("is_original", 0):
            original[qid] = tid
        elif obj.get("relevance", 0) > 0:
            listed.setdefault(qid, []).append(tid)
    # a set copied from a dict is sized once; one grown by adds keeps its larger tables
    relevant = {qid: set(dict.fromkeys(listed.pop(qid))) for qid in list(listed)}
    return Judgments(relevant=relevant, original=original)


def load_embeddings(path: str | Path, used: Container[str] = ()) -> dict[str, np.ndarray]:
    """Each id's vector; every vector has as many numbers as the file's first. An id in
    `used` needs a vector whose norm is finite and positive in float64: cosine similarity
    is undefined for the rest, so one is a data error naming the file, line and id."""
    out, width = {}, 0
    for lineno, obj in read_jsonl_objects(path, ("id", "vector")):
        rid, vec = str(obj["id"]), obj["vector"]
        if rid in out:
            raise SchemaError(f"repeated id {rid!r}", lineno, path)
        if not isinstance(vec, list) or not vec:
            raise SchemaError("'vector' must be a non-empty list", lineno, path)
        bad = "'vector' must be a flat list of finite numbers"
        try:
            arr = np.asarray(vec)
        except ValueError as exc:  # ragged nesting
            raise SchemaError(bad, lineno, path) from exc
        if arr.ndim != 1 or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
            raise SchemaError(bad, lineno, path)
        width = width or len(arr)
        if len(arr) != width:
            raise SchemaError(f"'vector' has {len(arr)} numbers, the first one {width}", lineno, path)
        out[rid] = arr.astype(np.float64)
        if rid in used:
            try:
                _unit_rows(out[rid][None])
            except ZeroVector as exc:
                raise SchemaError(f"id {rid!r}: {exc}", lineno, path) from None
    return out
