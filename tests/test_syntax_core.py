import hashlib
import random
import sysconfig
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codegap.errors import EncodingError, IndexOutOfRange, UnsupportedLanguage
from codegap.languages import (
    DEFAULT_EXTENSIONS,
    FOLD_TOKEN,
    MASK_TOKEN,
    get_language,
    language_for_path,
    load_extension_map,
    supported_languages,
)
from codegap.pipeline import PipelineConfig, splice_truncation, truncate_file
from codegap.spans import _expand, _pick_seed, select_span
from codegap import tokenizer
from codegap.tokenizer import MARKER_KINDS, TRIVIA_KINDS, line_start, tokenize
from codegap.errors import EmptyTree
from codegap.tree import (
    _build_rows,
    indentation_of,
    parse,
    tree_from_run,
    tree_with_runs_folded,
)

from _oracles import (
    child_rows,
    cpython_tokens,
    leaf_counts,
    leaf_positions,
    number_preorder,
    oracle_columns,
    oracle_eligible_nodes,
    oracle_from_run,
    oracle_nesting,
    oracle_tokenize,
    preorder_rows,
    reference_indentation_of,
    reference_nesting_columns,
    reference_expand,
    reference_pick_seed,
    real_sources,
    stored_columns,
    tree_columns,
    tree_of,
)


def roundtrip(tree, source):
    return "".join(tok.text for tok in tree.leaves) == source


def test_empty_input_has_zero_leaves():
    tree = parse("", "java")
    assert tree.leaf_count == 0
    assert leaf_counts(preorder_rows(tree)) == [0]


def test_simple_python_roundtrip():
    src = "x = 1\n"
    tree = parse(src, "python")
    assert roundtrip(tree, src)


@pytest.mark.parametrize("lang", sorted(supported_languages()))
def test_corpus_roundtrip_and_ranges(lang, parsed_corpus):
    trees = [t for p, t in parsed_corpus if t.language.name == lang]
    assert trees
    for tree in map(preorder_rows, trees):
        assert roundtrip(tree, tree.text)
        kids, counts = child_rows(tree), leaf_counts(tree)
        for row in tree.walk():
            if tree.is_leaf(row):
                assert counts[row] == 1
                continue
            pos = tree.first_leaf[row]
            for child in kids[row]:
                assert tree.first_leaf[child] == pos
                pos += counts[child]
            assert pos == tree.first_leaf[row] + counts[row]


def test_byte_ranges_tile_the_source(parsed_corpus):
    for _, tree in parsed_corpus[:20]:
        scanned = oracle_tokenize(tree.text, tree.language)
        assert [t.text for t in scanned] == [t.text for t in tokenize(tree.text, tree.language)]
        pos = 0
        for tok in scanned:
            assert tok.byte_start == pos
            assert tok.byte_end - tok.byte_start == len(tok.text.encode("utf-8"))
            pos = tok.byte_end
        assert pos == len(tree.text.encode("utf-8"))


def _stream(text, grammar):
    """Comparable token tuples of the parsed text, each leaf's line and
    column derived from its offset. The last field says whether the token
    opens its line, which dedent reads as an offset at its line start."""
    tree = parse(text, grammar)
    positions = leaf_positions(tree.text, tree.offsets)
    return [(t.text, t.kind, t.kind == "identifier", line, column,
             line_start(tree.text, offset) == offset)
            for t, (line, column), offset in zip(tree.leaves, positions, tree.offsets)]


def _reference_stream(text, grammar):
    """The same tuples from the reference scanner, whose last field is a
    character column of 0."""
    return [(t.text, t.kind, t.kind == "identifier", t.line, t.column_expanded, t.column == 0)
            for t in oracle_tokenize(text, grammar)]


# quotes, escapes, comment and directive openers, template and regex starts,
# every line break and blank, brackets, string prefixes, number parts and one
# letter outside ASCII: the characters where lexing rules meet
_LEXER_HOSTILE = st.text(
    st.sampled_from(list("'\"\\/*#`$\r\n\t\f\v ()[]{}rbufRBUFe.+-0123456789é")), max_size=60)


@pytest.mark.parametrize("lang", sorted(supported_languages()))
@settings(max_examples=300, deadline=None)
@given(text=_LEXER_HOSTILE)
@example(text="a\rb\r\rc")  # lone carriage returns
@example(text="a\r\nb\r\n\r\n")
@example(text="x = 'a\\\r\nb' + \"c\\\r\n")  # an escaped \r ends a string just before \n
@example(text="\tx\n \tx\n  \tx\n   \tx\n    \tx \t y\n")  # a tab at each column mod 4
@example(text="x = /'/ + 1 # y\nf(/\"/, a / b) # z\n")  # rules that restart inside a scanned token
def test_tokenize_matches_reference_scanner(lang, text):
    grammar = get_language(lang)
    assert _stream(text, grammar) == _reference_stream(text, grammar)


# whole fragments where the lexer's two restarts happen: a '/' after a word,
# ')' or 'this' (regex or division), a '#' after code or first on its line
# (plain '#' or directive), and tokens that span line breaks, across CRLF
# and tabs
_RESTART_FRAGMENTS = ["return", "this", ")", "x", "/", "/[/]x/g", "/\\\n/", "/=", "a # b", "#",
                      "#define A \\\n 1", "#if X \\\r\n", "'a\\\nb'", '"""a\r\nb"""',
                      "/* c\n */", "// c", "`t\n`", " ", "\t", "\n", "\r\n", "\r"]
_RESTART_TEXT = st.lists(st.sampled_from(_RESTART_FRAGMENTS), max_size=24).map("".join)


@pytest.mark.parametrize("lang", sorted(supported_languages()))
@settings(max_examples=300, deadline=None)
@given(text=_RESTART_TEXT)
@example(text="return /[/]x/g\n\t#define A \\\n 1 a # b")
def test_tokenize_restarts_match_reference_scanner(lang, text):
    grammar = get_language(lang)
    assert _stream(text, grammar) == _reference_stream(text, grammar)


# each line restarts the lexer inside a token of its first scan: a regex
# literal after '=' or '(' that ends inside a string the scan saw, or a '#'
# after code, which the scan took for a directive to the line end
_RESTARTS = {
    "javascript": "".join(f'x = /"/;\nf(/\'/, {i});\n' for i in range(1000)),
    "c": "".join(f"x = {i}; # y\n" for i in range(2000)),
}


@pytest.mark.parametrize("lang", sorted(_RESTARTS))
def test_rule_restarts_stay_linear(lang, monkeypatch):
    covered = []
    scan = tokenizer._scan

    def counting_scan(source, pos, grammar, one=False):
        texts = scan(source, pos, grammar, one)
        covered.append(sum(map(len, texts)))
        return texts

    monkeypatch.setattr(tokenizer, "_scan", counting_scan)
    source = _RESTARTS[lang]
    tokens = tokenize(source, get_language(lang))
    assert "".join(t.text for t in tokens) == source
    assert sum(t.kind in ("regex", "#") for t in tokens) == 2000
    assert len(covered) > 2000  # the restarts went through the one helper
    assert sum(covered) <= 2 * len(source)


@pytest.mark.parametrize("lang", sorted(supported_languages()))
def test_equal_tokens_share_one_object_until_the_tables_clear(lang, parsed_corpus):
    grammar = get_language(lang)
    source = "".join(tree.text for _, tree in parsed_corpus[::10]) + "".join(_RESTARTS.values())
    tokenizer.clear_token_tables()
    first, second = tokenize(source, grammar), tokenize(source, grammar)
    assert len(tokenizer._TABLES[grammar]) <= tokenizer.TABLE_LIMIT  # no clear between them
    shared: dict = {}
    assert all(shared.setdefault(tok, tok) is tok for tok in first + second)
    assert len(shared) < len(first) / 4
    tokenizer.clear_token_tables()
    third = tokenize(source, grammar)
    assert third == first
    assert not {id(tok) for tok in first} & {id(tok) for tok in third}


# where the directive rule is settled from the token list or from the text: a
# '#' first in the file, after a line break of each spelling, after blanks
# with and without a form feed or vertical tab, after a block comment or
# code, and continued directives; then a '/' rule and a '#' inside a string
_TABLE_FRAGMENTS = ["#", "#define A 1", "#if X \\\n 1", "#x \\\r\n y", "a # b", " ", "\t", "\f",
                    "\v", " \t", "\n", "\r\n", "\r", "/* c\n */", "/* c */", "x", ";", "/",
                    "/[/]x/g", "'#'", "// #"]
_TABLE_TEXT = st.lists(st.sampled_from(_TABLE_FRAGMENTS), max_size=16).map("".join)


@pytest.mark.parametrize("lang", sorted(supported_languages()))
@settings(max_examples=150, deadline=None)
@given(warm=st.lists(_TABLE_TEXT, max_size=4), text=_TABLE_TEXT, limit=st.integers(0, 24))
@example(warm=["a # b # c\n"], text="x; # c\n", limit=100)  # '# c' first made by a restart
@example(warm=[], text="\f#define A\n\v #x\n \t#y\n/* c */#z\r#w \\\r\n v", limit=100)
def test_warm_token_table_tokenizes_as_a_fresh_one(lang, warm, text, limit):
    grammar = get_language(lang)
    kept = tokenizer.TABLE_LIMIT
    try:
        tokenizer.TABLE_LIMIT = limit  # the warm-up calls pass the bound and clear the table
        tokenizer.clear_token_tables()
        for other in [*warm, text * 2]:  # a restart in the doubled text may make a text of its own
            tokenize(other, grammar)
        warmed = tokenize(text, grammar)
        tokenizer.clear_token_tables()
        fresh = tokenize(text, grammar)
        assert warmed == fresh
    finally:
        tokenizer.TABLE_LIMIT = kept
    assert fresh == [(t.text, t.kind) for t in oracle_tokenize(text, grammar)]


@pytest.mark.parametrize("source_set", ["mixed", "stdlib", "headers"])
def test_tokenize_matches_reference_scanner_on_real_files(source_set, parsed_corpus):
    if source_set == "mixed":
        sources = [tree.text for _, tree in parsed_corpus]
    elif source_set == "stdlib":
        sources = real_sources(str(Path(sysconfig.get_paths()["stdlib"]) / "*.py"), 40)
    else:
        sources = real_sources("/usr/include/*.h", 40)
    if len(sources) < 40:
        pytest.skip(f"fewer than 40 {source_set} files here")
    for source in sources:
        for lang in supported_languages():
            grammar = get_language(lang)
            stream = _stream(source, grammar)
            assert stream == _reference_stream(source, grammar)
            assert not {kind for _, kind, *_ in stream} & MARKER_KINDS  # a kind tells a marker


def test_python_lexer_matches_cpython_tokenize_on_stdlib_files():
    # an independent grammar: CPython's own tokenizer. It emits nothing for a
    # backslash line continuation, which codegap keeps as a one-character token
    sources = real_sources(str(Path(sysconfig.get_paths()["stdlib"]) / "*.py"), 40)
    if len(sources) < 40:
        pytest.skip("fewer than 40 stdlib files here")
    for source in sources:
        tree = parse(source, "python")
        ours = [(offset, tok.text) for tok, offset in zip(tree.leaves, tree.offsets)
                if tok.kind not in TRIVIA_KINDS and tok.text != "\\"]
        assert ours == cpython_tokens(source)


@settings(max_examples=120, deadline=None)
@given(st.text(max_size=120), st.sampled_from(sorted(supported_languages())))
def test_roundtrip_on_arbitrary_text(text, lang):
    tree = parse(text, lang)
    assert roundtrip(tree, text)


def test_c_for_statement_covers_whole_statement():
    src = "for(i=0;i<n;i++){f(i);}"
    tree = preorder_rows(parse(src, "c"))
    fors = [row for row in tree.walk() if tree.kinds[row] == "for_statement"]
    assert len(fors) == 1
    row = fors[0]
    start, count = tree.first_leaf[row], leaf_counts(tree)[row]
    assert "".join(t.text for t in tree.leaves[start:start + count]) == src
    assert count == tree.leaf_count


def identifier_occurrences(tree):
    """(leaf index, name) of each identifier leaf, as the tree lists them."""
    return list(zip(*tree.identifiers))


def test_identifier_occurrences_matches_brute_force(parsed_corpus):
    for _, tree in parsed_corpus[:24]:
        brute = [(i, t.text) for i, t in enumerate(tree.leaves) if t.kind == "identifier"]
        assert identifier_occurrences(tree) == brute


def test_identifier_occurrences_examples():
    tree = parse("x = x + y", "python")
    assert [text for _, text in identifier_occurrences(tree)] == ["x", "x", "y"]
    assert all(tree.leaves[i].kind == "identifier" for i, _ in identifier_occurrences(tree))

    assert identifier_occurrences(parse("42 + 7", "python")) == []

    occ = identifier_occurrences(parse("foo(foo)", "python"))
    assert [text for _, text in occ] == ["foo", "foo"]


def test_indentation_levels():
    tree = parse("        x = 1\n", "python")
    xi = next(i for i, t in enumerate(tree.leaves) if t.text == "x")
    assert indentation_of(tree, xi) == 8

    tree = parse("y = 2\n", "python")
    assert indentation_of(tree, 0) == 0

    tree = parse("\tx = 1\n", "python")
    xi = next(i for i, t in enumerate(tree.leaves) if t.text == "x")
    assert indentation_of(tree, xi) == 4


def test_indentation_of_matches_reference_on_every_leaf(parsed_corpus):
    sources = [(tree.text, tree.language) for _, tree in parsed_corpus[::12]]
    stdlib = str(Path(sysconfig.get_paths()["stdlib"]) / "*.py")
    sources += [(source, get_language("python")) for source in real_sources(stdlib, 2)]
    sources += [(source, get_language("c")) for source in real_sources("/usr/include/*.h", 2)]
    for source, grammar in sources:
        tree = parse(source, grammar)
        positions = leaf_positions(tree.text, tree.offsets)
        for i in range(tree.leaf_count):
            assert indentation_of(tree, i) == reference_indentation_of(tree, positions, i)


def test_indentation_out_of_range():
    tree = parse("x = 1\n", "python")
    with pytest.raises(IndexOutOfRange):
        indentation_of(tree, 99)


def test_unsupported_language():
    with pytest.raises(UnsupportedLanguage):
        get_language("cobol")
    with pytest.raises(UnsupportedLanguage):
        parse("x", "cobol")


def test_encoding_error_on_bad_bytes():
    with pytest.raises(EncodingError):
        parse(b"\xff\xfe\x00bad", "python")


def test_parse_accepts_utf8_bytes():
    tree = parse("x = 'café'\n".encode("utf-8"), "python")
    assert "café" in tree.text


def test_error_nodes_are_retained():
    tree = preorder_rows(parse("f(a, b\nint g;\n", "c"))
    assert roundtrip(tree, tree.text)
    assert any(tree.kinds[row] == "error" for row in tree.walk())

    tree = preorder_rows(parse(") x = 1\n", "python"))
    assert roundtrip(tree, tree.text)
    assert any(tree.kinds[row] == "error" for row in tree.walk())


def test_marker_texts_never_lex_as_single_tokens():
    for name in supported_languages():
        lang = get_language(name)
        for marker in (lang.cls_token, MASK_TOKEN, FOLD_TOKEN):
            for tok in tokenize(f"a {marker} b", lang):
                assert tok.text != marker and tok.kind not in MARKER_KINDS


def test_multiline_tokens_keep_roundtrip():
    src = 'doc = """line one\n    line two\n"""\nx = 1\n'
    tree = parse(src, "python")
    assert roundtrip(tree, src)
    strings = [t for t in tree.leaves if t.kind == "string"]
    assert any("\n" in t.text for t in strings)

    src = "/* multi\n line */ int x;\n"
    tree = parse(src, "c")
    assert roundtrip(tree, src)


def test_extension_registry(tmp_path):
    assert language_for_path("Foo.java").name == "java"
    assert language_for_path("foo.py").name == "python"
    assert language_for_path("foo.unknown") is None

    cfg = tmp_path / "ext.cfg"
    cfg.write_text("# comment\nxyz = java\n.abc=python\n", encoding="utf-8")
    mapping = load_extension_map(cfg)
    assert mapping == {"xyz": "java", "abc": "python"}
    assert language_for_path("m.xyz", mapping).name == "java"
    assert language_for_path("m.py", mapping) is None  # override replaces defaults

    bad = tmp_path / "bad.cfg"
    bad.write_text("zz = cobol\n", encoding="utf-8")
    with pytest.raises(UnsupportedLanguage):
        load_extension_map(bad)


def test_default_extensions_cover_supported_grammars():
    assert set(DEFAULT_EXTENSIONS.values()) == set(supported_languages())


# SHA-256 of every parsed_corpus tree's preorder (kind, leaf_start, leaf_count),
# taken from the nested-tuple builders this tree code replaced
CORPUS_TREE_SHAPES_SHA256 = "3e282d5b4cbe3a84301c27d1296dd6ea597cba4cbb0a670e8cf8b2d2d8c7d5c4"


def test_corpus_tree_shapes_match_golden_digest(parsed_corpus):
    digest = hashlib.sha256()
    for tree in (preorder_rows(tree) for _, tree in parsed_corpus):
        counts = leaf_counts(tree)
        for row in tree.walk():
            digest.update(f"{tree.kinds[row]} {tree.first_leaf[row]} {counts[row]}\n".encode())
        digest.update(b"\n")
    assert digest.hexdigest() == CORPUS_TREE_SHAPES_SHA256


DEEP = 5000
DEEP_SOURCES = {
    "c": "int f(void) " + "{" * DEEP + "g();" + "}" * DEEP + "\n",
    "java": "class A { void f() " + "{" * DEEP + "g();" + "}" * DEEP + " }\n",
    "javascript": "let x = " + "[" * DEEP + "1" + "]" * DEEP + ";\n",
    "python": "x = " + "(" * DEEP + "1" + ")" * DEEP + "\n",
    "python_suites": "".join(" " * i + "if x:\n" for i in range(600)) + " " * 600 + "pass\n",
}


@pytest.mark.parametrize("name", sorted(DEEP_SOURCES))
def test_deep_nesting_parses_splits_and_truncates(name):
    src = DEEP_SOURCES[name]
    tree = parse(src, name.split("_")[0])
    assert roundtrip(tree, src)
    assert max(_depths(tree)) >= 600

    span = select_span(tree, 64, random.Random(0))
    assert 0 < span.leaf_count <= 64
    rows = preorder_rows(tree)
    first, last = rows.rows_of(span.sibling_run)[0], rows.rows_of(span.sibling_run)[-1]
    count = leaf_counts(rows)[last] + rows.first_leaf[last] - rows.first_leaf[first]
    assert count == span.leaf_count

    cfg = PipelineConfig()
    assert tree.leaf_count > cfg.truncation_threshold
    result = truncate_file(tree, random.Random(0), cfg)
    assert result.segments
    assert splice_truncation(result) == [t.text for t in tree.leaves]


def _depths(tree):
    tree = preorder_rows(tree)
    depth = [0] * len(tree.kinds)
    for row in tree.walk():
        if row > 0:
            depth[row] = depth[tree.parent[row]] + 1
    return depth


_SEED_TEXT = st.lists(st.sampled_from([
    "(", ")", "[", "]", "{", "}", "\n", "    ", "\t", " ", ":", ";", "'", '"', "x", "f(", "1",
    "if ", "else", "elif ", "def ", "class ", "for ", "while ", "do ", "try", "return ",
]), max_size=80).map("".join)


def _assert_seeds_match_reference(tree):
    tree = preorder_rows(tree)
    internal, leaves = oracle_eligible_nodes(tree)
    assert tree.seed_nodes == internal
    assert tree.seed_leaves == leaves


@pytest.mark.parametrize("lang", sorted(supported_languages()))
@settings(max_examples=300, deadline=None)
@given(text=_SEED_TEXT)
@example(text="f(x, (1 ] ;\n{ if x: (\n  y) } }")
def test_seed_lists_match_reference_walk(lang, text):
    _assert_seeds_match_reference(parse(text, lang))


def _assert_parent_map_is_exact(tree):
    """Parents, leaf ranges and siblings against child lists: a childless
    row below the root is a leaf and takes the next leaf."""
    tree = preorder_rows(tree)
    rows = list(tree.walk())
    assert tree.parent[0] == -1 and len(tree.parent) == len(rows)
    kids = child_rows(tree)
    takes = [row > 0 and not kids[row] for row in rows]
    assert tree.first_leaf == list(accumulate(takes, initial=0))
    assert tree.first_leaf[-1] == len(tree.leaves)
    counts = [0] * len(rows)
    for row in reversed(rows):
        counts[row] = 1 if takes[row] else sum(counts[child] for child in kids[row])
    assert leaf_counts(tree) == counts
    assert tree.sibling(0, False) == tree.sibling(0, True) == -1
    for row in rows[1:]:
        assert tree.parent[row] < row < tree.subtree_end[tree.parent[row]]
        siblings = kids[tree.parent[row]]
        index = siblings.index(row)
        assert tree.sibling(row, False) == (siblings[index - 1] if index else -1)
        assert tree.sibling(row, True) == (siblings[index + 1:] or [-1])[0]


@pytest.mark.parametrize("lang", sorted(supported_languages()))
@settings(max_examples=300, deadline=None)
@given(text=_SEED_TEXT)
@example(text="f(x, (1 ] ;\n{ if x: (\n  y) } }")
def test_parent_map_matches_children(lang, text):
    _assert_parent_map_is_exact(parse(text, lang))


def _seed_test_trees(tree_set, parsed_corpus):
    if tree_set == "corpus":
        return [tree for _, tree in parsed_corpus]
    if tree_set == "deep":
        return [parse(src, name.split("_")[0]) for name, src in DEEP_SOURCES.items()]
    sources = real_sources(str(Path(sysconfig.get_paths()["stdlib"]) / "*.py"), 30)
    if len(sources) < 30:
        pytest.skip("fewer than 30 stdlib files here")
    cfg = PipelineConfig(truncation_threshold=200, segment_min_len=20, segment_max_len=120)
    rng = random.Random(0)
    trees = []
    for source in sources:
        for lang in ("python", "c"):
            result = truncate_file(parse(source, lang), rng, cfg)
            trees += [result.shortened, *result.segments]
    return trees


@pytest.mark.parametrize("tree_set", ["corpus", "deep", "truncated"])
def test_seed_lists_match_reference_walk_on_real_trees(tree_set, parsed_corpus):
    trees = _seed_test_trees(tree_set, parsed_corpus)
    for tree in trees:
        _assert_seeds_match_reference(tree)
    if tree_set == "truncated":  # shortened files and segments, some with error nodes
        assert any(tok.kind == "fold" for tree in trees for tok in tree.leaves)
        assert any(kind == "error" for tree in trees for kind in tree.kinds)


_SEED_LISTS = {"seed_nodes", "seed_leaves", "seed_order"}


def _assert_pick_derives_seed_nodes_alone(tree, rng):
    """A pick at the tree's whole length, where every seed node fits, lists
    the seed nodes and leaves the seed leaves underived."""
    select_span(tree, tree.leaf_count, rng)
    assert "seed_nodes" in vars(tree) and "seed_order" in vars(tree)
    assert bool(tree.seed_nodes) != ("seed_leaves" in vars(tree))
    return bool(tree.seed_nodes)


def test_seed_lists_are_derived_at_the_first_pick(parsed_corpus):
    cfg, rng = PipelineConfig(), random.Random(3)
    node_picks = rebuilt = 0
    for _, parsed in parsed_corpus:
        tree = parse(parsed.text, parsed.language)
        assert not _SEED_LISTS & vars(tree).keys()  # parse lists no seed
        if tree.leaf_count > cfg.truncation_threshold:
            result = truncate_file(tree, rng, cfg)
            for segment in (result.shortened, *result.segments):
                assert not _SEED_LISTS & vars(segment).keys()  # nor does a rebuild
                node_picks += _assert_pick_derives_seed_nodes_alone(segment, rng)
                rebuilt += 1
        else:
            node_picks += _assert_pick_derives_seed_nodes_alone(tree, rng)
    assert rebuilt and node_picks > len(parsed_corpus) / 2


def test_parent_map_matches_children_on_truncated_trees(parsed_corpus):
    for tree in _seed_test_trees("truncated", parsed_corpus):
        _assert_parent_map_is_exact(tree)


def _disjoint_runs(tree, rng, tries=4):
    """Up to `tries` selected sibling runs with disjoint leaf ranges, in file order."""
    spans = []
    for _ in range(tries):
        try:
            span = select_span(tree, rng.randint(1, 80), rng)
        except EmptyTree:
            return []
        if all(span.leaf_end <= s.leaf_start or s.leaf_end <= span.leaf_start for s in spans):
            spans.append(span)
    return [s.sibling_run for s in sorted(spans, key=lambda s: s.leaf_start)]


def _assert_shares_nothing(rebuilt, tree):
    """No column list of a rebuilt tree is one of its input's, and the
    input's cached seed order did not come along."""
    inputs = {id(column) for column in stored_columns(tree).values()}
    assert not any(id(column) in inputs for column in stored_columns(rebuilt).values())
    assert "seed_order" not in vars(rebuilt)
    assert rebuilt.text is tree.text  # offsets still index the parsed text


def _assert_rebuilds_match_reference(tree, rng):
    # each leaf's text stands at its offset in the parsed text, in leaf order
    assert all(tok.kind in MARKER_KINDS or tree.text.startswith(tok.text, offset)
               for tok, offset in zip(tree.leaves, tree.offsets))
    assert tree.offsets == sorted(set(tree.offsets))
    rows = preorder_rows(tree)
    assert tree_columns(tree) == oracle_columns(oracle_nesting(rows)[0])
    runs = _disjoint_runs(tree, rng)
    assert tree.seed_order is not None  # cached on the input before it is rebuilt
    for run in runs:
        segment = tree_from_run(tree, run)
        assert tree_columns(segment) == oracle_columns(oracle_from_run(rows, rows.rows_of(run)))
        _assert_shares_nothing(segment, tree)
    folded = tree_with_runs_folded(tree, runs)
    folded_rows = list(map(rows.rows_of, runs))
    assert tree_columns(folded) == oracle_columns(oracle_nesting(rows, folded_rows)[0])
    _assert_shares_nothing(folded, tree)
    whole = tree_with_runs_folded(tree, [rows.run_of((0,))])  # no column changes
    assert tree_columns(whole) == tree_columns(tree)
    _assert_shares_nothing(whole, tree)


@pytest.mark.parametrize("lang", sorted(supported_languages()))
@settings(max_examples=200, deadline=None)
@given(text=_SEED_TEXT, seed=st.integers(min_value=0, max_value=999))
@example(text="f(x, (1 ] ;\n{ if x: (\n  y) } }", seed=0)
def test_rebuilds_match_reference(lang, text, seed):
    _assert_rebuilds_match_reference(parse(text, lang), random.Random(seed))


@pytest.mark.parametrize("tree_set", ["corpus", "deep", "truncated"])
def test_rebuilds_match_reference_on_real_trees(tree_set, parsed_corpus):
    rng = random.Random(1)
    for tree in _seed_test_trees(tree_set, parsed_corpus):
        _assert_rebuilds_match_reference(tree, rng)


def _pick_branch(tree, length):
    """Which list the reference seed pick draws from at this length."""
    counts = list(map(leaf_counts(tree).__getitem__, tree.seed_nodes))
    if any(max(1.0, length / 2) <= count <= length for count in counts):
        return "window"
    if any(count <= length for count in counts):
        return "largest"
    return "leaf" if tree.seed_leaves else "empty"


def _assert_pick_matches_reference(tree, rows, length, seed):
    rng, reference_rng = random.Random(seed), random.Random(seed)
    try:
        expected = reference_pick_seed(rows, length, reference_rng)
    except EmptyTree:
        with pytest.raises(EmptyTree):
            _pick_seed(tree, length, rng)
    else:
        assert rows.rows_of(_pick_seed(tree, length, rng)) == (expected,)
    assert rng.getstate() == reference_rng.getstate()
    return _pick_branch(rows, length)


@pytest.mark.parametrize("lang", sorted(supported_languages()))
@settings(max_examples=200, deadline=None)
@given(text=_SEED_TEXT, lengths=st.lists(st.integers(min_value=1, max_value=60), min_size=1,
                                         max_size=4), seed=st.integers(min_value=0, max_value=999))
@example(text="f(x, (1 ] ;\n{ if x: (\n  y) } }", lengths=[1, 3, 7, 40], seed=0)
@example(text="   \n(", lengths=[1], seed=0)  # no seed outside the error region
@example(text="x y z", lengths=[2], seed=0)  # every group too long: a seed leaf
@example(text="(x) y y y y y", lengths=[7], seed=0)  # only a short group fits
def test_seed_pick_matches_reference(lang, text, lengths, seed):
    tree = parse(text, lang)
    rows = preorder_rows(tree)
    for length in lengths:  # later picks read the cached count order
        _assert_pick_matches_reference(tree, rows, length, seed)


@pytest.mark.parametrize("tree_set", ["corpus", "deep", "truncated"])
def test_seed_pick_matches_reference_on_real_trees(tree_set, parsed_corpus):
    trees = _seed_test_trees(tree_set, parsed_corpus)
    branches = set()
    for i, tree in enumerate(trees):
        lengths = {1, 2, 3, 5, 8, 13, 40, 150, 400, 800, tree.leaf_count}
        rows = preorder_rows(tree)
        counts = sorted(set(map(leaf_counts(rows).__getitem__, rows.seed_nodes)))
        lengths |= set(counts[:3])
        # past twice a count and short of the next: no window, a largest fit
        lengths |= {2 * a + 1 for a, b in zip(counts, counts[1:]) if b > 2 * a + 1}
        for length in sorted(lengths - {0}):
            branches.add(_assert_pick_matches_reference(tree, rows, length, i))
    assert {"window", "largest", "leaf"} <= branches
    empty = parse("   \n(", "python")
    assert _assert_pick_matches_reference(empty, preorder_rows(empty), 5, 0) == "empty"


def _assert_growth_matches_reference(tree, every=1):
    """Span growth from every `every`-th seed, at short and long lengths,
    against growth over the oracle's sibling columns."""
    rows = preorder_rows(tree)
    cols = oracle_columns(oracle_nesting(rows)[0])
    for seed in (rows.seed_nodes + rows.seed_leaves)[::every]:
        for length in (1, 2, 5, 13, 40, 150, 400):
            grown = _expand(tree, rows.run_of((seed,)), length)
            assert rows.rows_of(grown) == tuple(reference_expand(cols, seed, length))


@pytest.mark.parametrize("lang", sorted(supported_languages()))
@settings(max_examples=200, deadline=None)
@given(text=_SEED_TEXT)
@example(text="f(x, (1 ] ;\n{ if x: (\n  y) } }")
@example(text="if x:\n    y\n\nelse:\n    z\n")
def test_span_growth_matches_reference(lang, text):
    _assert_growth_matches_reference(parse(text, lang))


@pytest.mark.parametrize("tree_set", ["corpus", "deep", "truncated"])
def test_span_growth_matches_reference_on_real_trees(tree_set, parsed_corpus):
    for tree in _seed_test_trees(tree_set, parsed_corpus):
        _assert_growth_matches_reference(tree, every=23)


# lines of words, brackets and separators at mixed indents, so that the
# inputs hold stray, mismatched and unclosed brackets (at the end of input
# and at a python line end), brace clauses, typedefs, python suites with
# clauses after blank lines and dedents to an outer suite, and backslash
# continuations; the file may end without a line break
_BUILDER_PIECES = st.sampled_from([
    "if ", "else ", "elif ", "for ", "while ", "do ", "try", "catch ", "except ", "finally",
    "def ", "class ", "typedef ", "struct ", "return ", "x ", "f", "name", "1",
    "(", ")", "[", "]", "{", "}", ";", ":", ",", " = ", "\\", "# c", "// c", "/* c */", "'s'", " ",
])
_BUILDER_LINE = st.tuples(st.sampled_from(["", "", "  ", "    ", "\t", "        "]),
                          st.lists(_BUILDER_PIECES, max_size=8).map("".join)).map("".join)
_BUILDER_TEXT = st.tuples(st.lists(_BUILDER_LINE, max_size=12), st.sampled_from(["\n", "\r\n"]),
                          st.booleans()).map(lambda t: t[1].join(t[0]) + (t[1] if t[2] else ""))


def _assert_matches_reference_builders(text, grammar):
    tokens = tokenize(text, grammar)
    reference = reference_nesting_columns(tokens, grammar)
    rows = preorder_rows(tree_of(grammar, text, tokens, *_build_rows(tokens, grammar)))
    assert (rows.kinds, rows.tokens(), rows.parent) == reference
    numbered = number_preorder(grammar, text, *reference)
    assert tree_columns(parse(text, grammar)) == tree_columns(numbered)


@pytest.mark.parametrize("lang", sorted(supported_languages()))
@settings(max_examples=300, deadline=None)
@given(text=_BUILDER_TEXT)
@example(text="f(x, (1 ] ;\n{ if x: (\n  y) } }")
@example(text="x = (]\ny = [1,\n  2\nz = f(1")
@example(text="do { x(); } while (y);\nif (a) { b; }\nelse { c; }\n"
              "try { t(); } catch (e) { } finally { }\n")
@example(text="typedef struct {\n  int a;\n} name;\nstruct s { int b; };\n")
@example(text="if x:\n    y\n\n\nelif z:\n    w\n\nelse:\n    v\n")
@example(text="def f():\n    if x:\n        y\n    z\nw = 1 + \\\n    2\nclass A:\n  pass")
@example(text="try:\n  a\nexcept E:\n  b\nfinally:\n  c\nx = {1: 2}\n{1: 2}")
def test_parse_matches_reference_builders(lang, text):
    _assert_matches_reference_builders(text, get_language(lang))


@pytest.mark.parametrize("source_set", ["stdlib", "headers"])
def test_parse_matches_reference_builders_on_real_files(source_set):
    pattern = (str(Path(sysconfig.get_paths()["stdlib"]) / "*.py") if source_set == "stdlib"
               else "/usr/include/*.h")
    sources = real_sources(pattern, 30)
    if len(sources) < 30:
        pytest.skip(f"fewer than 30 {source_set} files here")
    for source in sources:
        for lang in supported_languages():
            _assert_matches_reference_builders(source, get_language(lang))
