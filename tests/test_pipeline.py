import gc
import json
import random
import re
import sysconfig
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    real_sources,
    record_flow_pairs,
    record_flow_write_shards,
    reference_read_jsonl_objects,
    reference_truncate_file,
    rglob_ingest,
    splice_truncation,
    stored_columns,
    tokens_balanced,
    tree_columns,
)
from codegap import experiments, pipeline, spans
from codegap.experiments import AblationConfig, run_ablation
from codegap.errors import CodegapError, SchemaError
from codegap.pipeline import (
    PairRecord,
    PipelineConfig,
    batch_by_language,
    content_hash,
    encode_row,
    file_seed,
    generate_pairs_for_source,
    ingest,
    make_pairs,
    read_jsonl,
    read_jsonl_objects,
    read_shard_dir,
    repo_of,
    truncate_file,
    write_jsonl,
    write_shards,
)
from codegap.texttok import count_text_tokens
from codegap.tree import parse


def test_dedup_by_content(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "one.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "b" / "two.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "b" / "three.py").write_text("y = 2\n", encoding="utf-8")
    files = ingest([tmp_path], PipelineConfig())
    assert len(files) == 2
    assert len({f.content_hash for f in files}) == 2


def test_unknown_extensions_excluded(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "a.txt").write_text("not code\n", encoding="utf-8")
    files = ingest([tmp_path], PipelineConfig())
    assert [f.language for f in files] == ["python"]


def test_language_filter(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "a.js").write_text("let x = 1;\n", encoding="utf-8")
    files = ingest([tmp_path], PipelineConfig(languages=("javascript",)))
    assert [f.language for f in files] == ["javascript"]


def test_repo_level_split(tmp_path):
    for repo, name, body in (("r1", "a.py", "x = 1\n"), ("r2", "b.py", "y = 2\n"),
                             ("r2", "c.py", "z = 3\n")):
        (tmp_path / repo).mkdir(exist_ok=True)
        (tmp_path / repo / name).write_text(body, encoding="utf-8")
    files = ingest([tmp_path], PipelineConfig(valid_repos=frozenset({"r2"})))
    by_split = {Path(f.path).name: f.split for f in files}
    assert by_split == {"a.py": "train", "b.py": "valid", "c.py": "valid"}


@pytest.mark.parametrize("spelling", ["plain", "linked root", "root with .."])
def test_ingest_split_matches_repo_of(tmp_path, spelling):
    """Linked files, one into another repo and one outside the root, take
    their split from where they resolve, however the root is spelled."""
    corpus = tmp_path / "corpus"
    for rel, body in (("r1/a.py", "a = 1\n"), ("r2/b.py", "b = 2\n"), ("r2/c.py", "c = 3\n"),
                      ("top.py", "t = 0\n")):
        (corpus / rel).parent.mkdir(parents=True, exist_ok=True)
        (corpus / rel).write_text(body, encoding="utf-8")
    (tmp_path / "outside.py").write_text("o = 4\n", encoding="utf-8")
    (corpus / "r1" / "in.py").symlink_to(corpus / "r2" / "c.py")  # r2/c.py is then a duplicate
    (corpus / "r1" / "out.py").symlink_to(tmp_path / "outside.py")
    root = {"plain": corpus, "linked root": tmp_path / "alias",
            "root with ..": corpus / "r1" / ".."}[spelling]
    if spelling == "linked root":
        root.symlink_to(corpus, target_is_directory=True)
    valid = frozenset({"r2", root.name})
    files = ingest([root], PipelineConfig(valid_repos=valid))
    splits = {f.source: f.split for f in files}
    assert splits == {f.source: "valid" if repo_of(Path(f.path), root) in valid else "train"
                      for f in files}
    assert splits == {"r1/a.py": "train", "r1/in.py": "valid", "r1/out.py": "valid",
                      "r2/b.py": "valid", "top.py": "valid"}


def test_ingest_walk_matches_rglob_reference(tmp_path, monkeypatch):
    corpus, outside = tmp_path / "corpus", tmp_path / "outside"
    for rel, body in (("corpus/r1/a.py", "a = 1\n"), ("corpus/r1/a-b.py", "ab = 1\n"),
                      ("corpus/r1/a/z.py", "ab = 1\n"), ("corpus/r1/sub/deep/b-c.d.py", "b = 2\n"),
                      ("corpus/r1/.hidden.py", "h = 3\n"), ("corpus/r1/.hdir/x.js", "let x = 4;\n"),
                      ("corpus/r1/.py", "e = 5\n"), ("corpus/r1/tail.", "t\n"),
                      ("corpus/r2/dup.py", "a = 1\n"), ("corpus/r2/x.js", "let y = 6;\n"),
                      ("corpus/r2/notes.txt", "n\n"), ("corpus/r2/m.Java", "class M {}\n"),
                      ("corpus/top.c", "int t;\n"), ("outside/o.py", "o = 7\n"),
                      ("outside/d/p.py", "p = 8\n")):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(body, encoding="utf-8")
    (corpus / "r1" / "link.py").symlink_to(outside / "o.py")  # a linked file
    (corpus / "r1" / "in.py").symlink_to(corpus / "r2" / "x.js")  # into another repo: a duplicate
    (corpus / "r2" / "linkdir").symlink_to(outside / "d", target_is_directory=True)  # not entered
    (corpus / "r2" / "loop").symlink_to(corpus, target_is_directory=True)
    (corpus / "r2" / "broken.py").symlink_to(tmp_path / "missing.py")
    directories = [corpus, *(p for p in corpus.rglob("*") if p.is_dir() and not p.is_symlink())]
    outcomes = []
    for config in (PipelineConfig(valid_repos=frozenset({"r2", "outside"})),
                   PipelineConfig(languages=("python",), valid_repos=frozenset({"r1"}))):
        want = rglob_ingest([corpus, outside], config)
        listed = []
        real_scandir = pipeline.os.scandir
        monkeypatch.setattr(pipeline.os, "scandir", lambda path: listed.append(path) or real_scandir(path))
        got = ingest([corpus, outside], config)
        monkeypatch.undo()
        assert got == want
        assert sorted(listed) == sorted(map(str, directories + [outside, outside / "d"]))
        outcomes.append(sorted((f.source, f.split) for f in got))
    # a/z.py sorts before a-b.py by parts; in.py resolves into r2; link.py outside the root
    assert outcomes[0] == [("d/p.py", "train"), ("r1/.hdir/x.js", "train"), ("r1/.hidden.py", "train"),
                           ("r1/a.py", "train"), ("r1/a/z.py", "train"), ("r1/in.py", "valid"),
                           ("r1/link.py", "train"), ("r1/sub/deep/b-c.d.py", "train"),
                           ("r2/m.Java", "valid"), ("top.c", "train")]


def test_validation_isolation(tmp_path):
    for repo in ("r1", "r2"):
        (tmp_path / repo).mkdir()
        for i in range(3):
            (tmp_path / repo / f"f{i}.py").write_text(f"v{repo} = {i}\n", encoding="utf-8")
    files = ingest([tmp_path], PipelineConfig(valid_repos=frozenset({"r2"})))
    train_hashes = {f.content_hash for f in files if f.split == "train"}
    valid_hashes = {f.content_hash for f in files if f.split == "valid"}
    assert not (train_hashes & valid_hashes)


def test_truncate_below_threshold_is_identity(parsed_corpus):
    _, tree = parsed_corpus[1]
    cfg = PipelineConfig(truncation_threshold=tree.leaf_count + 100)
    result = truncate_file(tree, random.Random(0), cfg)
    assert not result.segments
    assert result.shortened is tree


def test_truncate_long_file_reconstructs(parsed_corpus):
    cfg = PipelineConfig()
    long_trees = [t for _, t in parsed_corpus if t.leaf_count > cfg.truncation_threshold]
    assert long_trees
    for tree in long_trees[:6]:
        result = truncate_file(tree, random.Random(5), cfg)
        assert result.segments
        for segment in result.segments:
            assert cfg.segment_min_len <= segment.leaf_count <= cfg.segment_max_len
        spliced = splice_truncation(result)
        assert spliced == [t.text for t in tree.leaves]
        folds = [t for t in result.shortened.leaves if t.kind == "fold"]
        assert len(folds) == len(result.segments)
        for segment in result.segments:
            assert tokens_balanced(segment.leaves)


@pytest.mark.parametrize("seed", range(12))
def test_truncation_never_folds_the_whole_file(python_lang, seed):
    # with a threshold below segment_max_len, a span over every leaf (the
    # root alone) fits the requested length; folding it would fold nothing
    source = "".join(f"value_{i} = compute(alpha, beta) + other(gamma)\n" for i in range(30))
    tree = parse(source, python_lang)
    cfg = PipelineConfig(truncation_threshold=100, segment_min_len=20, segment_max_len=800)
    result = truncate_file(tree, random.Random(seed), cfg)
    assert result.segments
    assert all(segment.leaf_count < tree.leaf_count for segment in result.segments)
    folds = [t for t in result.shortened.leaves if t.kind == "fold"]
    assert len(folds) == len(result.segments)
    assert splice_truncation(result) == [t.text for t in tree.leaves]


def _assert_truncation_matches_reference(source, lang, seed, cfg):
    """truncate_file cuts the segments and leaves the rng state that the
    reference loop, which grows every attempt's span, does."""
    rng, reference_rng = random.Random(seed), random.Random(seed)
    result = truncate_file(parse(source, lang), rng, cfg)
    expected = reference_truncate_file(parse(source, lang), reference_rng, cfg)
    columns = [stored_columns(tree) for tree in (result.shortened, *result.segments)]
    assert columns == [stored_columns(tree) for tree in (expected.shortened, *expected.segments)]
    assert rng.getstate() == reference_rng.getstate()
    return len(result.segments)


_TRUNCATION_TEXT = st.lists(st.sampled_from([
    "x = f(a, b)\n", "if x:\n", "    y = [1, 2]\n", "    return y;\n", "else:\n", "\n", "    ",
    "int f(int a) { return a; }\n", "{", "}", "(", ")", "[", "]", ";", " ", "\t", "while (x) ",
]), max_size=120).map("".join)


@pytest.mark.parametrize("lang", ["c", "java", "javascript", "python"])
@settings(max_examples=150, deadline=None)
@given(text=_TRUNCATION_TEXT, seed=st.integers(min_value=0, max_value=999),
       threshold=st.integers(min_value=4, max_value=60),
       seg_min=st.integers(min_value=1, max_value=20),
       seg_extra=st.integers(min_value=0, max_value=60))
def test_truncation_matches_reference(lang, text, seed, threshold, seg_min, seg_extra):
    cfg = PipelineConfig(truncation_threshold=threshold, segment_min_len=seg_min,
                         segment_max_len=seg_min + seg_extra)
    _assert_truncation_matches_reference(text, lang, seed, cfg)


@pytest.mark.parametrize("source_set", ["stdlib", "headers"])
def test_truncation_matches_reference_on_real_files(source_set):
    if source_set == "stdlib":
        pattern, lang = str(Path(sysconfig.get_paths()["stdlib"]) / "*.py"), "python"
    else:
        pattern, lang = "/usr/include/*.h", "c"
    sources = real_sources(pattern, 20)
    if len(sources) < 20:
        pytest.skip(f"fewer than 20 {source_set} files here")
    segments = 0
    for cfg in (PipelineConfig(), PipelineConfig(truncation_threshold=200, segment_min_len=20,
                                                 segment_max_len=120)):
        for seed, source in enumerate(sources):
            segments += _assert_truncation_matches_reference(source, lang, seed, cfg)
    assert segments


def test_truncation_does_not_grow_an_attempt_whose_seed_is_placed(parsed_corpus, monkeypatch):
    """An attempt whose seed lies in a segment placed before it is rejected
    before its span is grown."""
    seeds, placed, grown = [], [], []
    pick_seed, expand, select = spans._pick_seed, spans._expand, pipeline.select_span

    def picking(tree, length, rng):
        seeds.append(pick_seed(tree, length, rng))
        return seeds[-1]

    def expanding(tree, run, length):
        grown.append(run)
        return expand(tree, run, length)

    def selecting(tree, length, rng, clear_of=()):
        placed.append(list(clear_of))
        return select(tree, length, rng, clear_of=clear_of)

    monkeypatch.setattr(spans, "_pick_seed", picking)
    monkeypatch.setattr(spans, "_expand", expanding)
    monkeypatch.setattr(pipeline, "select_span", selecting)
    cfg = PipelineConfig(truncation_threshold=200, segment_min_len=20, segment_max_len=120)
    for _, tree in parsed_corpus:
        truncate_file(parse(tree.text, tree.language), random.Random(4), cfg)
    clear = [seed for seed, spans_before in zip(seeds, placed)
             if all(seed[2] <= s.leaf_start or s.leaf_end <= seed[1] for s in spans_before)]
    assert len(seeds) == len(placed) and len(clear) < len(seeds)
    assert grown == clear


def _preorder_shape(tree):
    """A copy of every stored and derived column."""
    return {key: column[:] for key, column in tree_columns(tree).items()}


def test_truncate_file_leaves_input_tree_unchanged(parsed_corpus):
    cfg = PipelineConfig()
    long_trees = [t for _, t in parsed_corpus if t.leaf_count > cfg.truncation_threshold]
    assert long_trees
    for tree in long_trees[:6]:
        before = _preorder_shape(tree)
        leaves = list(tree.leaves)
        result = truncate_file(tree, random.Random(5), cfg)
        assert result.segments
        assert _preorder_shape(tree) == before
        assert tree.leaves == leaves
        # the rebuilt trees share no column list, nor the seed order cached
        # on the input while truncation picked from it
        assert "seed_order" in vars(tree)
        inputs = {id(column) for column in stored_columns(tree).values()}
        for rebuilt in (result.shortened, *result.segments):
            assert not any(id(column) in inputs for column in stored_columns(rebuilt).values())
            assert "seed_order" not in vars(rebuilt)


def test_pair_generation_leaves_no_cyclic_garbage(parsed_corpus):
    # trees hold no reference cycles, so each one is freed by reference
    # counting when the pipeline drops it and the cyclic collector finds none
    cfg = PipelineConfig()
    path, tree = next((p, t) for p, t in parsed_corpus
                      if t.leaf_count > cfg.truncation_threshold)
    source = path.read_text(encoding="utf-8")
    gc.collect()
    gc.disable()
    try:
        records = generate_pairs_for_source(source, tree.language, seed=1, source_name=path.name,
                                            pair_id_prefix="p", config=cfg)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert len({r.pair_id for r in records}) > 1  # the file was truncated
    assert unreachable == 0


def test_make_pairs_deterministic_and_parallel_stable(tmp_path, mixed_corpus):
    root, _ = mixed_corpus
    cfg = PipelineConfig(seed=13)
    files = ingest([root], cfg)[:37]  # the pool's last chunk is short at 2 and 3 workers
    one = list(make_pairs(files, cfg))
    two = list(make_pairs(files, cfg))
    for jobs in (2, 3):
        assert list(make_pairs(files, replace(cfg, jobs=jobs))) == one
    assert one == two
    assert one


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_file_that_fails_is_skipped_and_named(mixed_corpus, monkeypatch, caplog, jobs):
    """A file whose pairs raise yields none, and the run goes on: the records
    are those of the corpus without it, and the warning names the file."""
    root, _ = mixed_corpus
    cfg = PipelineConfig(seed=5, jobs=jobs)
    files = ingest([root], cfg)[:12]
    bad = files[4]
    want = list(make_pairs(files[:4] + files[5:], replace(cfg, jobs=1)))
    real_parse = pipeline.parse

    def parse(source, language):
        if source == Path(bad.path).read_text(encoding="utf-8"):
            raise ValueError("marked file")
        return real_parse(source, language)

    monkeypatch.setattr(pipeline, "parse", parse)  # the pool's workers fork with it
    with caplog.at_level("WARNING", logger="codegap.pipeline"):
        got = list(make_pairs(files, cfg))
    assert got == want and want
    if jobs == 1:
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping {bad.path}: ValueError: marked file"]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("shard_size", [1, 7, PipelineConfig.shard_size])
def test_shard_lines_match_the_record_flow_writer(mixed_corpus, tmp_path, monkeypatch, jobs,
                                                  shard_size):
    """Shards written from the workers' lines equal, byte for byte, those the
    record-flow writer makes from the same pairs as records, on a corpus with
    a file that is gone, one that is not UTF-8 and one whose pairs raise."""
    root, _ = mixed_corpus
    cfg = PipelineConfig(seed=11, jobs=jobs, shard_size=shard_size)
    extra = tmp_path / "extra" / "repo"
    extra.mkdir(parents=True)
    (extra / "latin1.py").write_bytes(b"name = 'caf\xe9'\n")
    (extra / "gone.py").write_text("gone = 1\n", encoding="utf-8")
    files = ingest([root], cfg)[:40] + ingest([extra.parent], cfg)
    (extra / "gone.py").unlink()
    bad = files[5]
    real_parse = pipeline.parse

    def parse(source, language):
        if source == Path(bad.path).read_text(encoding="utf-8"):
            raise ValueError("marked file")
        return real_parse(source, language)

    monkeypatch.setattr(pipeline, "parse", parse)  # the pool's workers fork with it
    got = write_shards(make_pairs(files, cfg), tmp_path / "lines", shard_size)
    want = record_flow_write_shards(record_flow_pairs(files, cfg), tmp_path / "records",
                                    shard_size)
    assert ([p.relative_to(tmp_path / "lines") for p in got]
            == [p.relative_to(tmp_path / "records") for p in want])
    assert [p.read_bytes() for p in got] == [p.read_bytes() for p in want]
    assert len(want) >= {1: 40, 7: 8}.get(shard_size, 4)


def test_ablation_trains_on_the_records_of_its_shards(tmp_path, monkeypatch):
    """run_ablation trains on the shards it writes, read back; the records
    equal, in order, those generate_pairs_for_source yields over the files in
    hash order."""
    trained = []
    real_train_toy = experiments.train_toy

    def train_toy(train, valid, config):
        trained.append((train, valid))
        return real_train_toy(train, valid, config)

    monkeypatch.setattr(experiments, "train_toy", train_toy)
    config = AblationConfig(workdir=tmp_path, seed=9, steps=2)
    result = run_ablation(config)
    base = PipelineConfig(seed=config.seed, pairs_per_input=config.pairs_per_input,
                          valid_repos=frozenset(result.corpus.valid_repos))
    files = ingest([result.corpus.corpus_dir], base)
    want = []
    for cfg in (base, replace(base, masking_enabled=False, dedent_enabled=False)):
        records = record_flow_pairs(files, cfg)
        want.append(([r for r in records if r.split == "train"],
                     [r for r in records if r.split == "valid"]))
    assert trained == want
    assert all(train and valid for train, valid in want)


def test_pair_records_have_exact_schema(mixed_corpus):
    root, _ = mixed_corpus
    cfg = PipelineConfig(seed=1)
    files = ingest([root], cfg)[:4]
    rec = json.loads(next(iter(make_pairs(files, cfg)))[2])
    assert list(rec.keys()) == ["id", "language", "context", "target", "meta"]
    assert list(rec["meta"].keys()) == [
        "source", "span_start", "span_len", "dedent_cols",
        "skipped_masking", "aliases", "seed",
    ]
    assert isinstance(rec["meta"]["seed"], int)


def test_whitespace_only_file_yields_no_pairs(tmp_path):
    (tmp_path / "blank.py").write_text("\n\n   \n\n", encoding="utf-8")
    cfg = PipelineConfig(seed=0)
    files = ingest([tmp_path], cfg)
    assert list(make_pairs(files, cfg)) == []


def test_jsonl_roundtrip_thousand_pairs(tmp_path):
    records = [
        PairRecord(pair_id=f"p{i}", language="python",
                   context=f"<cls_python>ctx {i} <mask>", target=f"<cls_python>tgt {i}",
                   meta={"source": "s", "span_start": i, "span_len": 2,
                         "dedent_cols": 0, "skipped_masking": False,
                         "aliases": {}, "seed": 1})
        for i in range(1000)
    ]
    path = tmp_path / "shard.jsonl"
    assert write_jsonl(path, [encode_row(r.to_record()) for r in records]) == 1000
    loaded = read_jsonl(path)
    assert [r.to_record() for r in loaded] == [r.to_record() for r in records]


def test_jsonl_schema_error_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"id": "a", "language": "python", "context": "c",
                       "target": "t", "meta": {}})
    missing_target = json.dumps({"id": "b", "language": "python", "context": "c",
                                 "meta": {}})
    path.write_text(good + "\n" + missing_target + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        read_jsonl(path)
    assert info.value.line == 2
    assert "target" in str(info.value)

    broken = tmp_path / "broken.jsonl"
    broken.write_text(good + "\n{oops\n", encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        read_jsonl(broken)
    assert info.value.line == 2


@pytest.mark.parametrize("field,value", [("context", None), ("target", 5), ("language", 5),
                                         ("meta", [])])
def test_jsonl_field_of_wrong_type_reports_line(tmp_path, field, value):
    row = {"id": "a", "language": "python", "context": "c", "target": "t", "meta": {}}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(row) + "\n" + json.dumps({**row, field: value}) + "\n",
                    encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        read_jsonl(path)
    assert info.value.line == 2
    assert repr(field) in str(info.value)


def test_empty_shard_roundtrip(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert write_jsonl(path, []) == 0
    assert read_jsonl(path) == []


# control characters, which JSON escapes, characters it writes as they are
# that `str.splitlines` or `str.strip` take for a line end or a blank, and
# any other character UTF-8 encodes
_JSONL_TEXT = st.text(st.one_of(st.sampled_from("\x00\t\r\n\x1c\x1f\x7f\x85\xa0\u2028\u2029"
                                                "\ufeff\u00e9\u2713\U0001f600"),
                                st.characters(codec="utf-8")))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _JSONL_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSONL_TEXT, inner, max_size=3),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.fixed_dictionaries({"id": _JSONL_TEXT, "context": _JSONL_TEXT,
                                            "meta": st.dictionaries(_JSONL_TEXT, _JSON_VALUES,
                                                                    max_size=4)}),
                     max_size=4))
def test_written_rows_read_back_equal(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        assert write_jsonl(path, map(encode_row, rows)) == len(rows)
        assert [obj for _, obj in read_jsonl_objects(path, ("id", "context", "meta"))] == rows


def test_write_shards_layout(tmp_path):
    records = [
        PairRecord(pair_id=f"p{i}", language="python" if i % 2 else "java",
                   context="c", target="t", meta={}, split="train" if i < 8 else "valid")
        for i in range(10)
    ]
    written = write_shards([(r.split, r.language, encode_row(r.to_record())) for r in records],
                           tmp_path, shard_size=3)
    names = sorted(str(p.relative_to(tmp_path)) for p in written)
    assert names == [
        "train/java-00000.jsonl", "train/java-00001.jsonl",
        "train/python-00000.jsonl", "train/python-00001.jsonl",
        "valid/java-00000.jsonl", "valid/python-00000.jsonl",
    ]
    train, valid = read_shard_dir(tmp_path)
    assert len(train) == 8 and len(valid) == 2


def test_write_shards_refuses_a_directory_that_holds_shards(tmp_path):
    stale = tmp_path / "train" / "python-00000.jsonl"
    stale.parent.mkdir()
    stale.write_text("", encoding="utf-8")
    pulled = []

    def lines():
        pulled.append(True)
        yield "train", "python", "{}"

    with pytest.raises(CodegapError, match=f"already holds shards, e.g. {re.escape(str(stale))}"):
        write_shards(lines(), tmp_path, shard_size=3)
    assert not pulled and [p.name for p in tmp_path.rglob("*")] == ["train", "python-00000.jsonl"]


def _record(lang, tokens_each_side, pid):
    body = " ".join(f"w{i}" for i in range(tokens_each_side - 1))
    text = f"<cls_{lang}>" + body
    assert count_text_tokens(text) == tokens_each_side
    return PairRecord(pair_id=pid, language=lang, context=text, target=text, meta={})


def test_batch_greedy_fill_by_hand():
    # java pairs of 3000 and 3500 tokens, one python pair of 2000; budget 7000
    records = [_record("java", 1500, "j1"), _record("java", 1750, "j2"),
               _record("python", 1000, "p1")]
    batches = list(batch_by_language(records, 7000))
    key = {(b.language, tuple(p.pair_id for p in b.pairs), b.token_count) for b in batches}
    assert key == {("java", ("j1", "j2"), 6500), ("python", ("p1",), 2000)}


def test_batch_flushes_at_budget():
    records = [_record("java", 2000, f"j{i}") for i in range(3)]
    batches = list(batch_by_language(records, 7000))
    assert [b.token_count for b in batches] == [4000, 4000, 4000]
    assert [len(b.pairs) for b in batches] == [1, 1, 1]


def test_batch_single_pair():
    batches = list(batch_by_language([_record("python", 10, "p")], 7000))
    assert len(batches) == 1
    assert batches[0].token_count == 20


def test_batches_never_mix_languages(mixed_corpus, tmp_path):
    root, _ = mixed_corpus
    cfg = PipelineConfig(seed=3)
    files = ingest([root], cfg)[:30]
    write_shards(make_pairs(files, cfg), tmp_path, cfg.shard_size)
    records = [r for split in read_shard_dir(tmp_path) for r in split]
    assert records
    for batch in batch_by_language(records, 4000):
        assert {p.language for p in batch.pairs} == {batch.language}
        assert batch.token_count <= 4000


def test_oversized_pair_is_truncated_to_fit():
    record = _record("python", 5000, "big")
    batches = list(batch_by_language([record], 1000))
    assert len(batches) == 1
    assert batches[0].token_count <= 1000


def test_file_seed_depends_on_master_seed_and_hash():
    digest = content_hash(b"same bytes")
    assert file_seed(1, digest) != file_seed(2, digest)
    assert file_seed(1, digest) == file_seed(1, digest)
    assert file_seed(1, digest) != file_seed(1, content_hash(b"other"))


# lines that reach every branch of the reader: blanks (Unicode ones too),
# objects with keys missing or of the wrong type, other JSON values,
# trailing data, a byte order mark and NaN
_JSONL_LINES = st.one_of(
    st.sampled_from(["", " ", "\t", "\xa0", "\u2003", "\u3000", "\x1c", "\ufeff{}", "NaN",
                     "[]", "1", '"s"', "null", "{", "{}{}", "{} x", '{"id": "a"} 1', "{'id': 1}",
                     '{"id": NaN, "vector": []}', '{"id": "a", "vector": Infinity}']),
    st.fixed_dictionaries({}, optional={"id": st.sampled_from(["a", 1, None]),
                                        "vector": st.sampled_from([[], [1.0], "v"]),
                                        "extra": st.just(True)}).map(json.dumps),
).flatmap(lambda line: st.sampled_from([line, " " + line, line + "\u2003", "\ufeff" + line]))


def test_read_jsonl_objects_names_the_line_that_is_not_utf8(tmp_path):
    # a lone CR still ends a line, and the lines before the bad byte are read
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\r{"a": "\xc3\xa9"}\r\n\n{"a": "\xe9"}\n{"a": 4}\n')
    rows = read_jsonl_objects(path)
    assert next(rows) == (1, {"a": 1})
    assert next(rows) == (2, {"a": "\u00e9"})
    with pytest.raises(SchemaError) as info:
        next(rows)
    assert info.value.line == 4 and "not valid UTF-8" in str(info.value)


def _read_outcome(reader, path, required, types):
    try:
        return list(reader(path, required, types))
    except SchemaError as exc:
        return exc.line, str(exc)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_JSONL_LINES, max_size=6),
       required=st.sampled_from([(), ("id",), ("vector", "id"), ("id", "vector", "extra")]),
       types=st.sampled_from([None, {"id": str}, {"vector": list, "id": str}]))
def test_read_jsonl_objects_matches_reference(lines, required, types):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outcome = _read_outcome(read_jsonl_objects, path, required, types)
        # reprs, so that a NaN value compares equal to itself
        assert repr(outcome) == repr(_read_outcome(reference_read_jsonl_objects, path,
                                                   required, types))
