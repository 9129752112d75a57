import itertools
import json

import numpy as np
import pytest

from _oracles import exhaustive_metric_comparison
from codegap.errors import DimensionMismatch, NoRelevant, SchemaError, ZeroVector
from codegap.retrieval import (
    Judgments,
    RankedList,
    evaluate,
    evaluate_rankings,
    lexical_overlap,
    lexical_pool,
    load_candidates,
    load_embeddings,
    load_qrels,
    load_queries,
    overlap_coefficient,
    rank,
    rank_lexical,
    token_set,
)
from codegap.texttok import text_tokens


def ranked(ids, query_id="q"):
    scores = [(tid, float(len(ids) - i)) for i, tid in enumerate(ids)]
    return RankedList(query_id=query_id, ranking=tuple(scores))


def metrics(ids, relevant):
    """The per-query report row of one ranking: ap, ndcg, rr and p_at."""
    return evaluate_rankings([ranked(ids)], Judgments(relevant={"q": relevant})).per_query[0]


# --------------------------------------------------------------------------
# ranking

def test_rank_tie_break_ascending_id():
    result = rank(np.array([0.5, 0.9, 0.5, 0.5]), ["alpha", "beta", "mid", "zeta"])
    assert result.ids == ["beta", "alpha", "mid", "zeta"]
    assert result.ranking[0] == ("beta", 0.9)


def test_rank_excludes_original():
    assert rank(np.array([1.0, 0.0]), ["A", "B"], exclude="A").ids == ["B"]
    assert rank(np.array([1.0, 0.0]), ["A", "B"], exclude="Z").ids == ["A", "B"]


def test_evaluate_self_similarity_first():
    a = np.array([1.0, 0.0, 0.0])
    cands = {"A": a, "B": np.array([0.0, 1.0, 0.0]), "C": np.array([0.0, 0.0, 1.0])}
    report = evaluate({"q": a}, cands, Judgments(relevant={"q": {"A"}}))
    assert report.mrr == 1.0


def test_evaluate_scale_invariance():
    rng = np.random.default_rng(0)
    queries = {f"q{i}": rng.normal(size=8) for i in range(3)}
    cands = {f"c{i}": rng.normal(size=8) for i in range(10)}
    judgments = Judgments(relevant={f"q{i}": {f"c{i}", f"c{i + 5}"} for i in range(3)})
    base = evaluate(queries, cands, judgments).to_dict()
    scaled_q = {qid: vec * 11.0 for qid, vec in queries.items()}
    scaled_c = {tid: vec * (3.7 if i % 2 else 0.004) for i, (tid, vec) in enumerate(cands.items())}
    assert evaluate(scaled_q, scaled_c, judgments).to_dict() == base


def test_evaluate_identical_candidates_rank_by_id():
    # 37 copies of one vector: only the id orders them, so the query
    # relevant to c{i} finds it at position i + 1. A lone query takes BLAS's
    # matrix-vector path, which need not score equal columns equally.
    rng = np.random.default_rng(1)
    shared = rng.normal(size=256)
    cands = {f"c{i:02d}": shared.copy() for i in range(37)}
    queries = {f"q{i:02d}": rng.normal(size=256) for i in range(37)}
    judgments = Judgments(relevant={f"q{i:02d}": {f"c{i:02d}"} for i in range(37)})
    report = evaluate(queries, cands, judgments)
    assert [row["rr"] for row in report.per_query] == [1.0 / (i + 1) for i in range(37)]
    for i, (qid, vec) in enumerate(queries.items()):
        assert evaluate({qid: vec}, cands, judgments).mrr == 1.0 / (i + 1)


def test_evaluate_vector_errors():
    judgments = Judgments(relevant={"q": {"a"}})
    with pytest.raises(DimensionMismatch):
        evaluate({"q": np.ones(3)}, {"a": np.ones(4)}, judgments)
    with pytest.raises(DimensionMismatch):
        evaluate({"q": np.ones(3)}, {"a": np.ones(3), "b": np.ones((1, 3))}, judgments)
    with pytest.raises(ZeroVector):
        evaluate({"q": np.zeros(3)}, {"a": np.ones(3)}, judgments)
    with pytest.raises(ZeroVector):
        evaluate({"q": np.ones(3)}, {"a": np.ones(3), "b": np.zeros(3)}, judgments)


# --------------------------------------------------------------------------
# single metrics against the worked examples

def test_precision_at_k_cases():
    assert metrics(["A", "B"], {"A"})["p_at"]["1"] == 1.0
    assert metrics(["B", "A", "C"], {"A"})["p_at"]["3"] == pytest.approx(1 / 3)
    assert metrics(["A", "B", "C", "D"], {"A", "C"})["p_at"]["3"] == pytest.approx(2 / 3)
    # pool smaller than k: denominator capped at the pool size
    assert metrics(["A", "B"], {"A", "B"})["p_at"]["10"] == 1.0


def test_average_precision_cases():
    assert metrics(["A", "B", "C"], {"A", "C"})["ap"] == pytest.approx(5 / 6)
    assert metrics(["A", "B"], {"A"})["ap"] == 1.0
    assert metrics(["B", "C", "D", "A"], {"A"})["ap"] == 0.25


def test_ndcg_cases():
    assert metrics(["A", "B"], {"A"})["ndcg"] == 1.0
    assert metrics(["B", "A"], {"A"})["ndcg"] == pytest.approx(1 / np.log2(3))
    assert metrics(["A", "B", "C"], {"A", "B"})["ndcg"] == 1.0
    assert metrics(["B", "A", "C"], {"A", "B"})["ndcg"] == 1.0


def test_mrr_cases():
    assert metrics(["A", "B"], {"A"})["rr"] == 1.0
    assert metrics(["B", "A"], {"A"})["rr"] == 0.5
    lists = [ranked(["A", "B", "C", "D"], "q1"), ranked(["B", "C", "D", "A"], "q2")]
    judgments = Judgments(relevant={"q1": {"A"}, "q2": {"A"}})
    assert evaluate_rankings(lists, judgments).mrr == pytest.approx((1 + 0.25) / 2)


def test_no_relevant_raises():
    with pytest.raises(NoRelevant):
        metrics(["A", "B"], set())
    with pytest.raises(NoRelevant):
        metrics(["A"], {"Z"})
    with pytest.raises(NoRelevant):
        evaluate_rankings([ranked(["A"]), ranked(["A"], "q2")], Judgments(relevant={"q": {"A"}}))


# --------------------------------------------------------------------------
# exhaustive equivalence with the brute-force oracles

def test_metrics_match_oracle_on_all_small_rankings():
    assert exhaustive_metric_comparison() <= 1e-12


def test_metrics_invariant_below_deepest_relevant():
    relevant = {"A", "B"}
    row1 = metrics(["A", "B", "C", "D", "E"], relevant)
    row2 = metrics(["A", "B", "E", "D", "C"], relevant)  # shuffled below the relevant depth
    assert row1["ap"] == row2["ap"]
    assert row1["ndcg"] == row2["ndcg"]
    assert row1["rr"] == row2["rr"]


# --------------------------------------------------------------------------
# full evaluation

def _orthogonal_pool(relevant_per_query=12, irrelevant=8, dim=32):
    queries = {}
    candidates = {}
    judgments = Judgments(relevant={}, original={})
    basis = np.eye(dim)
    for qi in range(2):
        qvec = basis[qi]
        qid = f"q{qi}"
        queries[qid] = qvec
        rel = set()
        for ri in range(relevant_per_query):
            tid = f"t{qi}_{ri}"
            candidates[tid] = qvec * (1.0 + ri)
            rel.add(tid)
        judgments.relevant[qid] = rel
    for ii in range(irrelevant):
        candidates[f"junk{ii}"] = basis[10 + ii]
    return queries, candidates, judgments


def test_evaluate_oracle_embeddings_all_metrics_one():
    queries, candidates, judgments = _orthogonal_pool()
    report = evaluate(queries, candidates, judgments)
    assert report.map == 1.0
    assert report.ndcg == 1.0
    assert report.mrr == 1.0
    assert report.p_at == {1: 1.0, 3: 1.0, 10: 1.0}


def test_evaluate_adversarial_embeddings():
    dim = 8
    q = np.eye(dim)[0]
    queries = {"q0": q}
    candidates = {"rel": np.eye(dim)[1]}
    for i in range(4):
        candidates[f"bad{i}"] = q * (i + 1)
    judgments = Judgments(relevant={"q0": {"rel"}})
    report = evaluate(queries, candidates, judgments)
    assert report.map < 0.5


def test_evaluate_excludes_original_target():
    q = np.array([1.0, 0.0])
    candidates = {"orig": q, "other": np.array([0.9, 0.1])}
    judgments = Judgments(relevant={"q0": {"orig", "other"}}, original={"q0": "orig"})
    report = evaluate({"q0": q}, candidates, judgments)
    assert report.per_query[0]["rr"] == 1.0
    ids = [row["query_id"] for row in report.per_query]
    assert ids == ["q0"]


def test_report_schema_and_table():
    queries, candidates, judgments = _orthogonal_pool()
    report = evaluate(queries, candidates, judgments)
    payload = json.loads(report.to_json())
    assert set(payload) == {"map", "ndcg", "p_at", "mrr", "per_query"}
    assert set(payload["p_at"]) == {"1", "3", "10"}
    table = report.to_table()
    for col in ("MAP", "NDCG", "P@1", "P@3", "P@10", "MRR"):
        assert col in table


# --------------------------------------------------------------------------
# lexical baseline + loaders

def test_lexical_overlap_bounds():
    assert lexical_overlap(token_set("a b c"), token_set("a b c")) == 1.0
    assert lexical_overlap(token_set("a b"), token_set("c d")) == 0.0
    assert 0.0 < lexical_overlap(token_set("a b c d"), token_set("a x y z")) < 1.0
    assert lexical_overlap(token_set(""), token_set("a")) == 0.0
    assert overlap_coefficient(token_set("a b"), token_set("a b c d e f")) == 1.0
    assert overlap_coefficient(token_set("a"), token_set("")) == 0.0


_SAMPLE_TEXTS = [
    "<cls_python>def f(x):\n    return x + 1",
    "<cls_python>x = <mask>\nprint(x, x)",
    "int main(void) { return 0; }",
    "for (int i = 0; i < n; i++) { s += a[i]; }",
    "return x + 1",
    "",
    "(((",
]


def _brute_counts(a: str, b: str) -> tuple[int, int, int, int]:
    """(shared, union, size a, size b) of the distinct tokens, by plain loops."""
    da, db = [], []
    for tok in text_tokens(a):
        if tok not in da:
            da.append(tok)
    for tok in text_tokens(b):
        if tok not in db:
            db.append(tok)
    shared = sum(1 for tok in da if tok in db)
    return shared, len(da) + sum(1 for tok in db if tok not in da), len(da), len(db)


def test_set_scorers_match_brute_force_counts():
    for a, b in itertools.product(_SAMPLE_TEXTS, repeat=2):
        shared, union, na, nb = _brute_counts(a, b)
        jaccard = shared / union if na and nb else 0.0
        coefficient = shared / min(na, nb) if na and nb else 0.0
        assert lexical_overlap(token_set(a), token_set(b)) == jaccard
        assert overlap_coefficient(token_set(a), token_set(b)) == coefficient


def test_rank_lexical_matches_per_pair_sort():
    texts = {f"t{i}": text for i, text in enumerate(_SAMPLE_TEXTS)}
    pool = lexical_pool(texts)
    for scorer in (lexical_overlap, overlap_coefficient):
        for query in _SAMPLE_TEXTS:
            got = rank_lexical(token_set(query), pool, exclude="t1", query_id="q", scorer=scorer)
            want = sorted(((tid, scorer(token_set(query), token_set(text)))
                           for tid, text in texts.items() if tid != "t1"),
                          key=lambda pair: (-pair[1], pair[0]))
            assert got.ranking == tuple(want)


def test_loaders_roundtrip(tmp_path):
    qpath = tmp_path / "queries.jsonl"
    cpath = tmp_path / "candidates.jsonl"
    rpath = tmp_path / "qrels.jsonl"
    epath = tmp_path / "embeddings.jsonl"
    qpath.write_text(json.dumps({"query_id": "q1", "language": "python",
                                 "context": "<cls_python>x <mask>"}) + "\n", encoding="utf-8")
    cpath.write_text(
        json.dumps({"target_id": "t1", "language": "python", "text": "<cls_python>y"}) + "\n"
        + json.dumps({"target_id": "t2", "language": "python", "text": "<cls_python>z"}) + "\n",
        encoding="utf-8")
    rpath.write_text(
        json.dumps({"query_id": "q1", "target_id": "t1", "relevance": 1, "is_original": 0}) + "\n"
        + json.dumps({"query_id": "q1", "target_id": "t2", "relevance": 1, "is_original": 1}) + "\n",
        encoding="utf-8")
    epath.write_text(
        json.dumps({"id": "q1", "vector": [1.0, 0.0]}) + "\n"
        + json.dumps({"id": "t1", "vector": [0.9, 0.1]}) + "\n", encoding="utf-8")

    queries = load_queries(qpath)
    candidates = load_candidates(cpath)
    judgments = load_qrels(rpath)
    vectors = load_embeddings(epath)
    assert set(queries) == {"q1"} and set(candidates) == {"t1", "t2"}
    assert judgments.relevant_for("q1") == {"t1"}
    assert judgments.original["q1"] == "t2"
    assert vectors["t1"].shape == (2,)


def test_loader_schema_errors(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"query_id": "q"}\n', encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_queries(bad)
    assert info.value.line == 1
