"""Independent recomputation of a codegap eval report.

Nothing here calls codegap's ranking or metric code. Embeddings come from
the checkpoint's parameter matrix and this file's own hashed-n-gram
features; scores form one numpy matrix; each ranking sorts by descending
score, then ascending id; and the metrics follow the README: the query's
original target is removed from the pool, AP averages precision at each
relevant position, NDCG uses binary gains with a log2(rank + 1) discount,
P@k divides by min(k, pool) and RR is one over the first relevant rank, all
macro-averaged over queries.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

TOKEN_RE = re.compile(r"<[a-z][a-z0-9_]*>|\w+|[^\w\s]")
GRAM_SEP = "\x1f"
PRECISION_KS = (1, 3, 10)
TOLERANCE = 1e-9


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_eval_files(queries: Path, candidates: Path, qrels: Path):
    """(query id -> context, target id -> text, relevant sets, originals)."""
    q = {str(r["query_id"]): r["context"] for r in read_jsonl(queries)}
    c = {str(r["target_id"]): r["text"] for r in read_jsonl(candidates)}
    relevant: dict[str, set[str]] = {}
    original: dict[str, str] = {}
    for r in read_jsonl(qrels):
        qid, tid = str(r["query_id"]), str(r["target_id"])
        if int(r.get("is_original", 0)):
            original[qid] = tid
        elif int(r.get("relevance", 0)) > 0:
            relevant.setdefault(qid, set()).add(tid)
    for qid, orig in original.items():
        relevant.get(qid, set()).discard(orig)
    return q, c, relevant, original


def _embed(texts: list[str], params: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Unit embeddings of the distinct token sequences, and each text's row.

    Identical token sequences share one row, so their scores are bitwise
    equal and only the id decides their order, as in the program.
    """
    buckets = params.shape[0]
    rows: dict[tuple, int] = {}
    index = [rows.setdefault(tuple(TOKEN_RE.findall(t)), len(rows)) for t in texts]
    memo: dict[str, int] = {}

    def bucket(gram: str) -> int:
        got = memo.get(gram)
        if got is None:
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
            got = memo[gram] = int.from_bytes(digest, "little") % buckets
        return got

    out = np.empty((len(rows), params.shape[1]))
    for toks, r in rows.items():
        grams = list(toks) + [a + GRAM_SEP + b for a, b in zip(toks, toks[1:])]
        out[r] = params[[bucket(g) for g in grams]].sum(axis=0)
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return out, index


def toy_scores(queries: list[str], candidates: list[str], params: np.ndarray) -> np.ndarray:
    eq, qi = _embed(queries, params)
    ec, ci = _embed(candidates, params)
    return (eq @ ec.T)[np.ix_(qi, ci)]


def lexical_scores(queries: list[str], candidates: list[str]) -> np.ndarray:
    """Jaccard similarity of token sets, as exact integer counts divided."""
    vocab: dict[str, int] = {}

    def indicators(texts: list[str]) -> list[set[int]]:
        return [{vocab.setdefault(t, len(vocab)) for t in TOKEN_RE.findall(x)} for x in texts]

    q_sets, c_sets = indicators(queries), indicators(candidates)
    bq = np.zeros((len(q_sets), len(vocab)))
    bc = np.zeros((len(c_sets), len(vocab)))
    for matrix, sets in ((bq, q_sets), (bc, c_sets)):
        for i, ids in enumerate(sets):
            matrix[i, list(ids)] = 1.0
    inter = bq @ bc.T
    nq, nc = bq.sum(axis=1)[:, None], bc.sum(axis=1)[None, :]
    union = nq + nc - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = inter / union
    scores[(nq == 0) | (nc == 0)] = 0.0
    return scores


def report_from_scores(scores: np.ndarray, qids: list[str], tids: list[str],
                       relevant: dict[str, set[str]], original: dict[str, str]) -> dict:
    """Per-query and macro-averaged metrics; qids and tids sorted ascending."""
    tid_arr = np.array(tids)
    per_query = []
    for row, qid in enumerate(qids):
        keep = tid_arr != original.get(qid)
        ids = tid_arr[keep]
        order = np.lexsort((np.arange(len(ids)), -scores[row][keep]))
        hits = np.flatnonzero(np.isin(ids[order], list(relevant.get(qid, ())))) + 1
        if len(hits) == 0:
            raise ValueError(f"query {qid} has no relevant candidate")
        pool = len(ids)
        per_query.append({
            "query_id": qid,
            "ap": float(np.mean(np.arange(1, len(hits) + 1) / hits)),
            "ndcg": float(np.sum(1.0 / np.log2(hits + 1))
                          / np.sum(1.0 / np.log2(np.arange(1, len(hits) + 1) + 1))),
            "rr": float(1.0 / hits[0]),
            "p_at": {str(k): float(np.sum(hits <= k) / min(k, pool)) for k in PRECISION_KS},
        })
    n = len(per_query)
    return {
        "map": sum(r["ap"] for r in per_query) / n,
        "ndcg": sum(r["ndcg"] for r in per_query) / n,
        "p_at": {str(k): sum(r["p_at"][str(k)] for r in per_query) / n for k in PRECISION_KS},
        "mrr": sum(r["rr"] for r in per_query) / n,
        "per_query": per_query,
    }


def expected_report(queries: Path, candidates: Path, qrels: Path,
                    checkpoint: Path | None) -> dict:
    """The report `codegap eval` must write: toy model when a checkpoint is
    given, the lexical baseline otherwise."""
    q, c, relevant, original = load_eval_files(queries, candidates, qrels)
    qids, tids = sorted(q), sorted(c)
    q_texts, c_texts = [q[i] for i in qids], [c[i] for i in tids]
    if checkpoint is None:
        scores = lexical_scores(q_texts, c_texts)
    else:
        with checkpoint.open("rb") as fh:
            params = np.load(fh)
        scores = toy_scores(q_texts, c_texts, params)
    return report_from_scores(scores, qids, tids, relevant, original)


def differences(actual, expected, where: str = "report") -> list[str]:
    """Every field where the two reports disagree beyond TOLERANCE."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys differ"]
        return [d for k in expected for d in differences(actual[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: lengths differ"]
        return [d for i, (a, e) in enumerate(zip(actual, expected))
                for d in differences(a, e, f"{where}[{i}]")]
    if isinstance(expected, str):
        return [] if actual == expected else [f"{where}: {actual!r} != {expected!r}"]
    return [] if abs(actual - expected) <= TOLERANCE else [f"{where}: {actual!r} != {expected!r}"]
