import itertools
import json
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    exhaustive_metric_comparison,
    lexical_overlap,
    overlap_coefficient,
    ranked_list,
    reference_evaluate_rankings,
    reference_rank,
)
from codegap.errors import DimensionMismatch, NoRelevant, SchemaError, ZeroVector
from codegap import retrieval
from codegap.retrieval import (
    PRECISION_KS,
    QUERY_BLOCK,
    EvalReport,
    Judgments,
    Pool,
    evaluate,
    evaluate_rankings,
    lexical_pool,
    load_candidates,
    load_embeddings,
    load_qrels,
    load_queries,
    rank,
    rank_lexical,
    token_set,
)
from codegap.texttok import text_tokens


def rows(vectors):
    """A dict of vectors as the ids and row matrix `evaluate` takes."""
    return list(vectors), np.array(list(vectors.values()))


def ranked(ids, query_id="q"):
    return ranked_list(query_id, list(ids), [float(len(ids) - i) for i in range(len(ids))])


def metrics(ids, relevant):
    """The per-query report row of one ranking: ap, ndcg, rr and p_at."""
    return evaluate_rankings([ranked(ids)], Judgments(relevant={"q": relevant})).per_query[0]


# --------------------------------------------------------------------------
# ranking

def test_rank_tie_break_ascending_id():
    result = rank(np.array([0.5, 0.9, 0.5, 0.5]), Pool(["alpha", "beta", "mid", "zeta"]))
    assert result.ids == ["beta", "alpha", "mid", "zeta"]
    assert result.ranking[0] == ("beta", 0.9)


def test_rank_excludes_original():
    assert rank(np.array([1.0, 0.0]), Pool(["A", "B"]), exclude="A").ids == ["B"]
    assert rank(np.array([1.0, 0.0]), Pool(["A", "B"]), exclude="Z").ids == ["A", "B"]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=12))
def test_rank_matches_reference_under_forced_ties(data, n):
    ids = [f"t{i:02d}" for i in range(n)]
    scores = np.array(data.draw(st.lists(st.sampled_from([-0.5, 0.0, 0.75]), min_size=n,
                                         max_size=n)))
    exclude = data.draw(st.sampled_from([None, "absent", *ids]))
    relevant = set(data.draw(st.lists(st.sampled_from(ids), min_size=1)))
    got = rank(scores, Pool(ids), exclude=exclude, query_id="q")
    want = reference_rank(scores, ids, exclude=exclude)
    assert got.query_id == "q"
    assert got.ranking == want
    assert got.ids == [tid for tid, _ in want]
    judgments = Judgments(relevant={"q": relevant}, original={} if exclude is None else {"q": exclude})
    rankings = [("q", got.ids)]
    if relevant - {exclude}:
        assert (evaluate_rankings([got], judgments).to_json()
                == reference_evaluate_rankings(rankings, judgments).to_json())
    else:  # the only relevant candidate is the excluded original
        with pytest.raises(NoRelevant):
            evaluate_rankings([got], judgments)
        with pytest.raises(NoRelevant):
            reference_evaluate_rankings(rankings, judgments)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=4))
def test_mask_hits_match_id_scan_reference(data, n, queries):
    # forced ties, an excluded original that may also be listed as relevant,
    # and relevant ids the pool does not hold; one report over all queries
    ids = [f"t{i:02d}" for i in range(n)]
    pool = Pool(ids)
    judgments = Judgments(relevant={}, original={})
    lists = []
    for q in range(queries):
        qid = f"q{q}"
        scores = np.array(data.draw(st.lists(st.sampled_from([-0.5, 0.0, 0.75]),
                                             min_size=n, max_size=n)))
        exclude = data.draw(st.sampled_from([None, "absent", *ids]))
        if exclude is not None:
            judgments.original[qid] = exclude
        judgments.relevant[qid] = set(data.draw(st.lists(st.sampled_from([*ids, "gone"]),
                                                         min_size=1)))
        lists.append(rank(scores, pool, exclude=exclude, query_id=qid))
    rankings = [(r.query_id, r.ids) for r in lists]
    try:
        want = reference_evaluate_rankings(rankings, judgments).to_json()
    except NoRelevant as exc:
        with pytest.raises(NoRelevant) as info:
            evaluate_rankings(lists, judgments)
        assert str(info.value) == str(exc)
    else:
        assert evaluate_rankings(lists, judgments).to_json() == want


def test_evaluate_self_similarity_first():
    a = np.array([1.0, 0.0, 0.0])
    cands = {"A": a, "B": np.array([0.0, 1.0, 0.0]), "C": np.array([0.0, 0.0, 1.0])}
    report = evaluate(*rows({"q": a}), *rows(cands), Judgments(relevant={"q": {"A"}}))
    assert report.mrr == 1.0


def test_evaluate_scale_invariance():
    rng = np.random.default_rng(0)
    queries = {f"q{i}": rng.normal(size=8) for i in range(3)}
    cands = {f"c{i}": rng.normal(size=8) for i in range(10)}
    judgments = Judgments(relevant={f"q{i}": {f"c{i}", f"c{i + 5}"} for i in range(3)})
    base = evaluate(*rows(queries), *rows(cands), judgments).to_dict()
    scaled_q = {qid: vec * 11.0 for qid, vec in queries.items()}
    scaled_c = {tid: vec * (3.7 if i % 2 else 0.004) for i, (tid, vec) in enumerate(cands.items())}
    assert evaluate(*rows(scaled_q), *rows(scaled_c), judgments).to_dict() == base


def test_evaluate_identical_candidates_rank_by_id():
    # 37 copies of one vector: only the id orders them, so the query
    # relevant to c{i} finds it at position i + 1. A lone query takes BLAS's
    # matrix-vector path, which need not score equal columns equally.
    rng = np.random.default_rng(1)
    shared = rng.normal(size=256)
    cands = {f"c{i:02d}": shared.copy() for i in range(37)}
    queries = {f"q{i:02d}": rng.normal(size=256) for i in range(37)}
    judgments = Judgments(relevant={f"q{i:02d}": {f"c{i:02d}"} for i in range(37)})
    report = evaluate(*rows(queries), *rows(cands), judgments)
    assert [row["rr"] for row in report.per_query] == [1.0 / (i + 1) for i in range(37)]
    for i, (qid, vec) in enumerate(queries.items()):
        assert evaluate(*rows({qid: vec}), *rows(cands), judgments).mrr == 1.0 / (i + 1)


def test_evaluate_vector_errors():
    judgments = Judgments(relevant={"q": {"a"}})
    with pytest.raises(DimensionMismatch):
        evaluate(*rows({"q": np.ones(3)}), *rows({"a": np.ones(4)}), judgments)
    with pytest.raises(DimensionMismatch):
        evaluate(["q"], np.ones((1, 3)), ["a", "b"], np.ones((2, 1, 3)), judgments)
    with pytest.raises(ZeroVector):
        evaluate(*rows({"q": np.zeros(3)}), *rows({"a": np.ones(3)}), judgments)
    with pytest.raises(ZeroVector):
        evaluate(*rows({"q": np.ones(3)}), *rows({"a": np.ones(3), "b": np.zeros(3)}), judgments)


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


def test_evaluate_holds_at_most_one_block_of_rankings(monkeypatch):
    real_rank, alive, most = retrieval.rank, [], [0]

    def tracked(*args, **kwargs):
        most[0] = max(most[0], sum(ref() is not None for ref in alive))
        ranked = real_rank(*args, **kwargs)
        alive.append(weakref.ref(ranked))
        return ranked

    monkeypatch.setattr(retrieval, "rank", tracked)
    rng = np.random.default_rng(0)
    n = 2 * QUERY_BLOCK + 5
    queries = {f"q{i:03d}": rng.normal(size=4) for i in range(n)}
    candidates = {f"t{i:03d}": rng.normal(size=4) for i in range(n)}
    report = evaluate(*rows(queries), *rows(candidates),
                      Judgments(relevant={f"q{i:03d}": {f"t{i:03d}"} for i in range(n)}))
    assert len(report.per_query) == len(alive) == n
    assert most[0] <= QUERY_BLOCK


def test_evaluate_rankings_releases_each_ranking_before_pulling_the_next():
    pool, previous = Pool(["A", "B", "C"]), []

    def stream():
        for i in range(5):
            ranked = rank(np.array([3.0, 2.0, 1.0]), pool, query_id=f"q{i}")
            previous.append(weakref.ref(ranked))
            yield ranked
            del ranked
            assert previous[-1]() is None, f"ranking q{i} was alive when the next was pulled"

    report = evaluate_rankings(stream(), Judgments(relevant={f"q{i}": {"B"} for i in range(5)}))
    assert [row["query_id"] for row in report.per_query] == [f"q{i}" for i in range(5)]
    assert report.mrr == 0.5


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
    report = evaluate(*rows(queries), *rows(candidates), judgments)
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
    report = evaluate(*rows(queries), *rows(candidates), judgments)
    assert report.map < 0.5


def test_evaluate_excludes_original_target():
    q = np.array([1.0, 0.0])
    candidates = {"orig": q, "other": np.array([0.9, 0.1])}
    judgments = Judgments(relevant={"q0": {"orig", "other"}}, original={"q0": "orig"})
    report = evaluate(*rows({"q0": q}), *rows(candidates), judgments)
    assert report.per_query[0]["rr"] == 1.0
    ids = [row["query_id"] for row in report.per_query]
    assert ids == ["q0"]


def test_report_schema_and_table():
    queries, candidates, judgments = _orthogonal_pool()
    report = evaluate(*rows(queries), *rows(candidates), judgments)
    payload = json.loads(report.to_json())
    assert set(payload) == {"map", "ndcg", "p_at", "mrr", "per_query"}
    assert set(payload["p_at"]) == {"1", "3", "10"}
    table = report.to_table()
    for col in ("MAP", "NDCG", "P@1", "P@3", "P@10", "MRR"):
        assert col in table


# --------------------------------------------------------------------------
# lexical baseline + loaders

def lexical_score(query: str, candidate: str, coefficient: bool = False) -> float:
    """The score rank_lexical gives one candidate text for one query text."""
    pool = lexical_pool({"t": candidate})
    return rank_lexical(token_set(query), pool, coefficient=coefficient).ranking[0][1]


def test_lexical_overlap_bounds():
    assert lexical_score("a b c", "a b c") == 1.0
    assert lexical_score("a b", "c d") == 0.0
    assert 0.0 < lexical_score("a b c d", "a x y z") < 1.0
    assert lexical_score("", "a") == 0.0
    assert lexical_score("a b", "a b c d e f", coefficient=True) == 1.0
    assert lexical_score("a", "", coefficient=True) == 0.0


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
        assert lexical_score(a, b) == jaccard
        assert lexical_score(a, b, coefficient=True) == coefficient


def test_rank_lexical_matches_per_pair_sort():
    texts = {f"t{i}": text for i, text in enumerate(_SAMPLE_TEXTS)}
    pool = lexical_pool(texts)
    for coefficient, scorer in ((False, lexical_overlap), (True, overlap_coefficient)):
        for query in _SAMPLE_TEXTS:
            got = rank_lexical(token_set(query), pool, exclude="t1", query_id="q",
                               coefficient=coefficient)
            want = sorted(((tid, scorer(token_set(query), token_set(text)))
                           for tid, text in texts.items() if tid != "t1"),
                          key=lambda pair: (-pair[1], pair[0]))
            assert got.ranking == tuple(want)


_LEXICAL_WORDS = ["a", "b", "c", "x1", "<mask>", "(", "é", "_"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_LEXICAL_WORDS), max_size=6), max_size=8),
       st.lists(st.lists(st.sampled_from(_LEXICAL_WORDS), max_size=6), min_size=1, max_size=4))
def test_inverted_index_scores_match_set_arithmetic(candidates, queries):
    # empty queries and empty candidate sets included; the pool may be empty
    texts = {f"t{i}": " ".join(words) for i, words in enumerate(candidates)}
    pool = lexical_pool(texts)
    for words in queries:
        query = token_set(" ".join(words))
        for coefficient, scorer in ((False, lexical_overlap), (True, overlap_coefficient)):
            got = rank_lexical(query, pool, coefficient=coefficient)
            want = np.array([scorer(query, token_set(texts[tid])) for tid in pool[0].ids])
            assert got.row.tobytes() == want.tobytes()  # bitwise, signs of zero too


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


def test_load_qrels_keeps_one_string_per_target_id(tmp_path):
    path = tmp_path / "qrels.jsonl"
    targets = ["target-a", "target-b", 1234]  # a numeric id is read as a string
    path.write_text("".join(
        json.dumps({"query_id": f"query-{q}", "target_id": t, "relevance": 1,
                    "is_original": int(i == q)}) + "\n"
        for q in range(4) for i, t in enumerate(targets)), encoding="utf-8")
    judgments = load_qrels(path)
    named = [t for ts in judgments.relevant.values() for t in ts] + list(judgments.original.values())
    assert len(named) == 12
    assert {*named} == {"target-a", "target-b", "1234"}
    assert len({id(t) for t in named}) == 3


def test_load_qrels_sets_are_made_at_their_final_size(tmp_path):
    """A set grown one id at a time keeps the larger tables it grew through;
    each query's set must be as small as one copied from a finished set."""
    path = tmp_path / "qrels.jsonl"
    path.write_text("".join(
        json.dumps({"query_id": f"q{q}", "target_id": f"t{t % (q + 1)}", "relevance": 1}) + "\n"
        for q in (0, 5, 60, 99) for t in range(2 * q + 2)), encoding="utf-8")
    judgments = load_qrels(path)
    assert [len(ids) for ids in judgments.relevant.values()] == [1, 6, 61, 100]
    for ids in judgments.relevant.values():
        assert sys.getsizeof(ids) == sys.getsizeof(set(ids))


_REPORT_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_REPORT_FLOATS = _REPORT_FLOATS | _REPORT_FLOATS.map(np.float64)  # numpy floats print as floats
_REPORT_IDS = st.text(st.characters(codec="utf-8"), max_size=12) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\n\t", "é€😀", ""])
_P_AT = st.dictionaries(st.sampled_from(["1", "3", "10"]), _REPORT_FLOATS)


@settings(max_examples=200, deadline=None)
@given(map_=_REPORT_FLOATS, ndcg=_REPORT_FLOATS, mrr=_REPORT_FLOATS,
       p_at=st.dictionaries(st.sampled_from(PRECISION_KS), _REPORT_FLOATS),
       rows=st.lists(st.tuples(_REPORT_IDS, _REPORT_FLOATS, _REPORT_FLOATS, _REPORT_FLOATS,
                               _P_AT), max_size=4))
def test_report_json_matches_json_dumps(map_, ndcg, mrr, p_at, rows):
    per_query = [dict(zip(("query_id", "ap", "ndcg", "rr", "p_at"), row)) for row in rows]
    report = EvalReport(map=map_, ndcg=ndcg, p_at=p_at, mrr=mrr, per_query=per_query)
    assert report.to_json() == json.dumps(report.to_dict(), indent=2)


def test_report_json_matches_json_dumps_on_an_evaluated_report():
    lists = [ranked(["a", "b", "c"], query_id=q) for q in ("q1", 'q"2', "q\\3")]
    judgments = Judgments(relevant={q: {"b"} for q in ("q1", 'q"2', "q\\3")})
    report = evaluate_rankings(lists, judgments)
    assert report.to_json() == json.dumps(report.to_dict(), indent=2)


def test_loader_schema_errors(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"query_id": "q"}\n', encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_queries(bad)
    assert info.value.line == 1
