import glob
import hashlib
import random
import sysconfig
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
from codegap.spans import select_span
from codegap.tokenizer import tokenize
from codegap.tree import identifier_occurrences, indentation_of, parse

from _oracles import OracleToken, oracle_eligible_nodes, oracle_tokenize


def roundtrip(tree, source):
    return "".join(tok.text for tok in tree.leaves) == source


def test_empty_input_has_zero_leaves():
    tree = parse("", "java")
    assert tree.leaf_count == 0
    assert tree.root.leaf_count == 0


def test_simple_python_roundtrip():
    src = "x = 1\n"
    tree = parse(src, "python")
    assert roundtrip(tree, src)


@pytest.mark.parametrize("lang", sorted(supported_languages()))
def test_corpus_roundtrip_and_ranges(lang, parsed_corpus):
    trees = [t for p, t in parsed_corpus if t.language.name == lang]
    assert trees
    for tree in trees:
        assert roundtrip(tree, tree.source)
        for node in tree.walk():
            if node.is_leaf:
                assert node.leaf_count == 1
                continue
            pos = node.leaf_start
            for child in node.children:
                assert child.leaf_start == pos
                pos = child.leaf_end
            assert pos == node.leaf_end


def test_byte_ranges_tile_the_source(parsed_corpus):
    for _, tree in parsed_corpus[:20]:
        scanned = oracle_tokenize(tree.source, tree.language)
        assert [t.text for t in scanned] == [t.text for t in tokenize(tree.source, tree.language)]
        pos = 0
        for tok in scanned:
            assert tok.byte_start == pos
            assert tok.byte_end - tok.byte_start == len(tok.text.encode("utf-8"))
            pos = tok.byte_end
        assert pos == len(tree.source.encode("utf-8"))


def _stream(tokens):
    """Comparable token tuples. The last field says whether the token opens
    its line: tokenize's tokens tell it by `column_expanded == 0`, which
    dedent relies on, the reference scanner's by a character column of 0."""
    return [(t.text, t.kind, t.is_identifier, t.line, t.column_expanded,
             (t.column if isinstance(t, OracleToken) else t.column_expanded) == 0)
            for t in tokens]


# quotes, escapes, comment and directive openers, template and regex starts,
# every line break and blank, brackets, string prefixes, number parts and one
# letter outside ASCII: the characters where lexing rules meet
_LEXER_HOSTILE = st.text(
    st.sampled_from(list("'\"\\/*#`$\r\n\t\f\v ()[]{}rbufRBUFe.+-0123456789é")), max_size=60)


@pytest.mark.parametrize("lang", sorted(supported_languages()))
@settings(max_examples=300, deadline=None)
@given(text=_LEXER_HOSTILE)
def test_tokenize_matches_reference_scanner(lang, text):
    grammar = get_language(lang)
    assert _stream(tokenize(text, grammar)) == _stream(oracle_tokenize(text, grammar))


def _real_sources(pattern: str, count: int) -> list[str]:
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


@pytest.mark.parametrize("source_set", ["mixed", "stdlib", "headers"])
def test_tokenize_matches_reference_scanner_on_real_files(source_set, parsed_corpus):
    if source_set == "mixed":
        sources = [tree.source for _, tree in parsed_corpus]
    elif source_set == "stdlib":
        sources = _real_sources(str(Path(sysconfig.get_paths()["stdlib"]) / "*.py"), 40)
    else:
        sources = _real_sources("/usr/include/*.h", 40)
    if len(sources) < 40:
        pytest.skip(f"fewer than 40 {source_set} files here")
    for source in sources:
        for lang in supported_languages():
            grammar = get_language(lang)
            assert _stream(tokenize(source, grammar)) == _stream(oracle_tokenize(source, grammar))


@settings(max_examples=120, deadline=None)
@given(st.text(max_size=120), st.sampled_from(sorted(supported_languages())))
def test_roundtrip_on_arbitrary_text(text, lang):
    tree = parse(text, lang)
    assert roundtrip(tree, text)


def test_c_for_statement_covers_whole_statement():
    src = "for(i=0;i<n;i++){f(i);}"
    tree = parse(src, "c")
    fors = [n for n in tree.walk() if n.kind == "for_statement"]
    assert len(fors) == 1
    node = fors[0]
    assert tree.node_text(node) == src
    assert node.leaf_count == tree.leaf_count


def test_identifier_occurrences_matches_brute_force(parsed_corpus):
    for _, tree in parsed_corpus[:24]:
        brute = [(i, t.text) for i, t in enumerate(tree.leaves) if t.is_identifier]
        assert identifier_occurrences(tree) == brute


def test_identifier_occurrences_examples():
    tree = parse("x = x + y", "python")
    assert [text for _, text in identifier_occurrences(tree)] == ["x", "x", "y"]
    assert all(tree.leaves[i].is_identifier for i, _ in identifier_occurrences(tree))

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
    assert "café" in tree.source


def test_error_nodes_are_retained():
    tree = parse("f(a, b\nint g;\n", "c")
    assert roundtrip(tree, tree.source)
    assert any(n.kind == "error" for n in tree.walk())

    tree = parse(") x = 1\n", "python")
    assert roundtrip(tree, tree.source)
    assert any(n.kind == "error" for n in tree.walk())


def test_marker_texts_never_lex_as_single_tokens():
    for name in supported_languages():
        lang = get_language(name)
        for marker in (lang.cls_token, MASK_TOKEN, FOLD_TOKEN):
            for tok in tokenize(f"a {marker} b", lang):
                assert tok.text != marker


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
    for _, tree in parsed_corpus:
        for node in tree.walk():
            digest.update(f"{node.kind} {node.leaf_start} {node.leaf_count}\n".encode())
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
    assert span.sibling_run[-1].leaf_end - span.sibling_run[0].leaf_start == span.leaf_count

    cfg = PipelineConfig()
    assert tree.leaf_count > cfg.truncation_threshold
    result = truncate_file(tree, random.Random(0), cfg)
    assert result.segments
    assert splice_truncation(result) == [t.text for t in tree.leaves]


def _depths(tree):
    depth = {id(tree.root): 0}
    for node in tree.walk():
        if node in tree.parents:
            depth[id(node)] = depth[id(tree.parents[node])] + 1
    return depth.values()


_SEED_TEXT = st.lists(st.sampled_from([
    "(", ")", "[", "]", "{", "}", "\n", "    ", "\t", " ", ":", ";", "'", '"', "x", "f(", "1",
    "if ", "else", "elif ", "def ", "class ", "for ", "while ", "do ", "try", "return ",
]), max_size=80).map("".join)


def _assert_seeds_match_reference(tree):
    internal, leaves = oracle_eligible_nodes(tree)
    for listed, reference in ((tree.seed_nodes, internal), (tree.seed_leaves, leaves)):
        assert len(listed) == len(reference)
        assert all(a is b for a, b in zip(listed, reference))


@pytest.mark.parametrize("lang", sorted(supported_languages()))
@settings(max_examples=300, deadline=None)
@given(text=_SEED_TEXT)
@example(text="f(x, (1 ] ;\n{ if x: (\n  y) } }")
def test_seed_lists_match_reference_walk(lang, text):
    _assert_seeds_match_reference(parse(text, lang))


def _assert_parent_map_is_exact(tree):
    nodes = list(tree.walk())
    assert tree.root not in tree.parents
    assert len(tree.parents) == len(nodes) - 1
    for node in nodes[1:]:
        assert tree.parents[node].children[node.child_index] is node


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
    sources = _real_sources(str(Path(sysconfig.get_paths()["stdlib"]) / "*.py"), 30)
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
        assert any(node.kind == "error" for tree in trees for node in tree.walk())


def test_parent_map_matches_children_on_truncated_trees(parsed_corpus):
    for tree in _seed_test_trees("truncated", parsed_corpus):
        _assert_parent_map_is_exact(tree)
