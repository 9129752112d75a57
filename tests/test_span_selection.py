import math
import random
import sysconfig
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    child_rows,
    leaf_counts,
    make_tree,
    preorder_rows,
    real_sources,
    splice_tokens,
    token_split,
    tokens_balanced,
)
from codegap.errors import EmptyTree, InvalidBounds, SpanMismatch
from codegap.languages import MASK_TOKEN
from codegap.pipeline import PipelineConfig, truncate_file
from codegap.spans import (
    SpanSelection,
    _expand,
    sample_target_length,
    select_span,
    select_span_with_retry,
    split,
)
from codegap.tokenizer import WHITESPACE_KINDS
from codegap.tree import parse

_CONFIG = PipelineConfig()
_TARGET_LENGTHS = dict(mean=_CONFIG.mean_target_len, stddev=_CONFIG.stddev_target_len,
                       min_len=_CONFIG.min_target_len, max_len=_CONFIG.max_target_len)


def rendered(tokens):
    return "".join(t.text for t in tokens)


def holds_content(tree, lo, hi):
    """Whether leaves lo:hi hold a leaf that is not blank."""
    return any(tok.kind not in WHITESPACE_KINDS for tok in tree.leaves[lo:hi])


def test_sample_length_zero_variance():
    assert sample_target_length(random.Random(1), 150, 0, 16, 512) == 150


@given(st.integers(min_value=0, max_value=10_000))
def test_sample_length_always_clamped(seed):
    value = sample_target_length(random.Random(seed), 150, 90, 16, 512)
    assert 16 <= value <= 512


def test_sample_length_defaults_match_training_distribution():
    import inspect

    assert _CONFIG.mean_target_len == 150.0
    assert _CONFIG.stddev_target_len == 90.0
    assert _CONFIG.min_target_len == 16
    assert _CONFIG.max_target_len == 512
    # the config is the schedule's only home: the sampler has no defaults
    sig = inspect.signature(sample_target_length)
    assert all(p.default is inspect.Parameter.empty for p in sig.parameters.values())


def test_sample_length_invalid_bounds():
    rng = random.Random(0)
    with pytest.raises(InvalidBounds):
        sample_target_length(rng, 150, 90, 0, 512)
    with pytest.raises(InvalidBounds):
        sample_target_length(rng, 150, 90, 16, 8)
    with pytest.raises(InvalidBounds):
        sample_target_length(rng, 150, -1, 16, 512)
    for mean, stddev in ((math.nan, 90), (math.inf, 90), (-math.inf, 0), (150, math.inf),
                         (150, math.nan)):
        with pytest.raises(InvalidBounds):
            sample_target_length(rng, mean, stddev, 16, 512)


def test_expansion_example_three_siblings(python_lang):
    # root[A(3), B(5), C(4)], seed B, budget 8:
    #  parent (12) exceeds 8; following sibling C gives 9 -> rejected;
    #  preceding sibling A gives 8 -> accepted; then no move fits.
    tree = make_tree(("program", [("A", [3]), ("B", [5]), ("C", [4])]), python_lang)
    rows = preorder_rows(tree)
    a, b, c = child_rows(rows)[0]
    run = list(rows.rows_of(_expand(tree, rows.run_of((b,)), 8)))
    assert run == [a, b]
    assert rows.first_leaf[run[-1]] + leaf_counts(rows)[run[-1]] - rows.first_leaf[run[0]] == 8


def test_expansion_collapses_to_parent_when_it_fits(python_lang):
    tree = make_tree(("program", [("A", [3]), ("B", [5]), ("C", [4])]), python_lang)
    rows = preorder_rows(tree)
    b = child_rows(rows)[0][1]
    run = list(rows.rows_of(_expand(tree, rows.run_of((b,)), 12)))
    assert run == [0]
    assert leaf_counts(rows)[0] == 12


def test_single_leaf_tree_selects_root():
    tree = parse("x", "python")
    span = select_span(tree, 5, random.Random(0))
    assert span.leaf_count == 1
    assert preorder_rows(tree).rows_of(span.sibling_run) == (0,)


def test_select_span_empty_tree():
    tree = parse("", "python")
    with pytest.raises(EmptyTree):
        select_span(tree, 10, random.Random(0))


def test_select_span_deterministic(parsed_corpus):
    _, tree = parsed_corpus[5]
    for seed in range(5):
        first = select_span(tree, 40, random.Random(seed))
        second = select_span(tree, 40, random.Random(seed))
        assert first.leaf_start == second.leaf_start
        assert first.leaf_count == second.leaf_count
        assert first.sibling_run == second.sibling_run


def test_selected_spans_respect_budget_and_structure(parsed_corpus):
    rng = random.Random(7)
    for _, tree in parsed_corpus[:30]:
        rows = preorder_rows(tree)
        for _ in range(5):
            length = rng.randrange(8, 120)
            span = select_span(tree, length, rng)
            assert 1 <= span.leaf_count <= max(length, 1)
            prev = None
            for row in rows.rows_of(span.sibling_run):
                assert rows.kinds[row] != "error"
                if prev is not None:
                    assert rows.parent[row] == rows.parent[prev]
                    assert rows.subtree_end[prev] == row  # the next sibling
                prev = row
            assert tokens_balanced(tree.leaves[span.leaf_start:span.leaf_end])


def test_split_degenerate_full_span(python_lang):
    tree = parse("x = 1\n", "python")
    span = SpanSelection(tree, *preorder_rows(tree).run_of((0,)))
    assert (span.leaf_start, span.leaf_count) == (0, tree.leaf_count)
    context, target = split(tree, span)
    assert context == python_lang.cls_token + MASK_TOKEN
    assert target == python_lang.cls_token + "x = 1\n"


def test_split_token_count_example(python_lang):
    # seven leaves, span [2, 5) -> context = CLS + 2 prefix + MASK + 2 suffix
    tree = make_tree(("program", [("s", [7])]), python_lang)
    rows = preorder_rows(tree)
    kids = child_rows(rows)
    run = kids[kids[0][0]][2:5]
    span = SpanSelection(tree, *rows.run_of(tuple(run)))
    assert (span.leaf_start, span.leaf_end, span.leaf_count) == (2, 5, 3)
    context, target = token_split(tree, span)
    assert len(context) == 7 - 3 + 2
    assert len(target) == 3 + 1
    assert context[3].kind == "mask"


def test_split_reconstruction(parsed_corpus):
    rng = random.Random(3)
    lang = None
    for _, tree in parsed_corpus[:20]:
        span = select_span(tree, 60, rng)
        context, target = token_split(tree, span)
        lang = tree.language
        spliced = splice_tokens(context, target)
        assert [t.text for t in spliced] == [t.text for t in tree.leaves]
        assert [t.text for t in context].count(MASK_TOKEN) == 1
        assert context[0].text == lang.cls_token
        assert target[0].text == lang.cls_token
        assert split(tree, span) == (rendered(context), rendered(target))


def test_split_rejects_foreign_span():
    tree_a = parse("x = 1\n", "python")
    tree_b = parse("y = 2\n", "python")
    span = select_span(tree_a, 4, random.Random(0))
    with pytest.raises(SpanMismatch):
        split(tree_b, span)


def test_split_rejects_run_of_non_siblings(python_lang):
    # rows: 0 program, 1 A, 2 P, 3-4 leaves, 5 Q, 6 leaf, 7 B, 8 leaf
    tree = make_tree(("program", [("A", [("P", [2]), ("Q", [1])]), ("B", [1])]), python_lang)
    rows = preorder_rows(tree)
    assert child_rows(rows)[0] == [1, 7] and child_rows(rows)[1] == [2, 5]
    for run in ((2, 5), (1, 7)):
        span = SpanSelection(tree, *rows.run_of(run))
        context, target = token_split(tree, span)
        assert [t.text for t in splice_tokens(context, target)] == [t.text for t in tree.leaves]
        assert split(tree, span) == (rendered(context), rendered(target))
    # Q's subtree ends where B starts, but B is A's sibling, not Q's
    for run in ((5, 7), (2, 7), (2, 5, 7)):
        with pytest.raises(SpanMismatch):
            split(tree, SpanSelection(tree, *rows.run_of(run)))
    # the root alone covers every leaf
    for lo, hi in ((0, 3), (1, 4)):
        with pytest.raises(SpanMismatch):
            split(tree, SpanSelection(tree, -1, lo, hi))


def test_split_rejects_rows_that_do_not_exist():
    tree = parse("x = 1\ny = 2\n", "python")
    assert len(preorder_rows(tree).kinds) == 15
    assert (len(tree.kinds), tree.leaf_count) == (3, 12)
    # -2 would wrap around to a real row; row 3 and leaf 13 lie past the last;
    # an empty run and a leaf range that runs backwards name no leaves
    for run in ((-2, 0, 1), (3, 0, 1), (0, 11, 13), (0, 4, 4), (0, 5, 4)):
        with pytest.raises(SpanMismatch):
            split(tree, SpanSelection(tree, *run))


def test_retry_gives_up_on_whitespace_only_file():
    tree = parse("\n\n    \n\n", "python")
    assert select_span_with_retry(tree, random.Random(0), **_TARGET_LENGTHS) is None


def test_retry_returns_content(parsed_corpus):
    _, tree = parsed_corpus[0]
    span = select_span_with_retry(tree, random.Random(1), **_TARGET_LENGTHS)
    assert span is not None
    assert holds_content(tree, span.leaf_start, span.leaf_end)


def test_retry_makes_one_draw(parsed_corpus):
    # a length, then the span grown to it: no second draw follows
    for seed, (_, tree) in enumerate(parsed_corpus[:20]):
        rng, expected_rng = random.Random(seed), random.Random(seed)
        span = select_span_with_retry(tree, rng, **_TARGET_LENGTHS)
        length = sample_target_length(expected_rng, **_TARGET_LENGTHS)
        assert span == select_span(tree, length, expected_rng)
        assert rng.getstate() == expected_rng.getstate()


def _assert_no_blank_rows_or_spans(tree, seed):
    """Every group row below the root and every span `select_span` grows
    holds a leaf that is not blank, so a target is never blank."""
    first, end = tree.first_leaf, tree.leaf_end
    assert all(holds_content(tree, first[row], end[row]) for row in range(1, len(tree.kinds)))
    rng = random.Random(seed)
    for length in (1, 2, 3, 5, 8, 16, 40, 150, 512):
        try:
            span = select_span(tree, length, rng)
        except EmptyTree:  # no seed outside error regions
            return
        assert holds_content(tree, span.leaf_start, span.leaf_end)


def _assert_no_blank_targets(source, lang, seed, cfg):
    """`_assert_no_blank_rows_or_spans` on a parsed file and on the
    shortened file and segments that truncating it rebuilds."""
    tree = parse(source, lang)
    trunc = truncate_file(tree, random.Random(seed), cfg) if tree.leaf_count else None
    for tree in [tree, *([trunc.shortened, *trunc.segments] if trunc else [])]:
        _assert_no_blank_rows_or_spans(tree, seed)


# lines of words, brackets and separators at space and tab indents, blank
# and whitespace-only lines, with LF or CRLF breaks: unclosed and stray
# brackets, python suites and brace blocks
_CODE_PIECES = st.sampled_from([
    "if ", "else", "elif ", "for ", "while ", "do ", "def ", "class ", "return ", "x", "f", "1",
    "(", ")", "[", "]", "{", "}", ";", ":", ",", " = ", "\\", "# c", "// c", "/* c */", "'s'",
    " ", "\t",
])
_CODE_LINE = st.tuples(st.sampled_from(["", "", "  ", "    ", "\t", "\t ", " \t", "        "]),
                       st.lists(_CODE_PIECES, max_size=8).map("".join)).map("".join)
_CODE_TEXT = st.tuples(st.lists(_CODE_LINE, max_size=16), st.sampled_from(["\n", "\r\n"]),
                       st.booleans()).map(lambda t: t[1].join(t[0]) + (t[1] if t[2] else ""))


@pytest.mark.parametrize("lang", ["c", "java", "javascript", "python"])
@settings(max_examples=150, deadline=None)
@given(text=_CODE_TEXT, seed=st.integers(min_value=0, max_value=999),
       threshold=st.integers(min_value=4, max_value=60),
       seg_min=st.integers(min_value=1, max_value=20),
       seg_extra=st.integers(min_value=0, max_value=60))
@example(text="def f():\r\n\t\r\n\tx = (1,\r\n  \t\r\n", seed=0, threshold=4, seg_min=1,
         seg_extra=0)
@example(text="{ x; {\n\t  \n}\n  (\n [\n", seed=1, threshold=4, seg_min=1, seg_extra=4)
def test_no_group_row_or_span_is_blank(lang, text, seed, threshold, seg_min, seg_extra):
    cfg = PipelineConfig(truncation_threshold=threshold, segment_min_len=seg_min,
                         segment_max_len=seg_min + seg_extra)
    _assert_no_blank_targets(text, lang, seed, cfg)


@pytest.mark.parametrize("source_set", ["stdlib", "headers"])
def test_no_group_row_or_span_is_blank_on_real_files(source_set):
    if source_set == "stdlib":
        pattern, lang = str(Path(sysconfig.get_paths()["stdlib"]) / "*.py"), "python"
    else:
        pattern, lang = "/usr/include/*.h", "c"
    sources = real_sources(pattern, 20)
    if len(sources) < 20:
        pytest.skip(f"fewer than 20 {source_set} files here")
    for cfg in (PipelineConfig(), PipelineConfig(truncation_threshold=200, segment_min_len=20,
                                                 segment_max_len=120)):
        for seed, source in enumerate(sources):
            _assert_no_blank_targets(source, lang, seed, cfg)


def test_spans_avoid_error_node_endpoints():
    src = "int ok(void) { return 1; }\nint broken(void { return 2;\n"
    tree = parse(src, "c")
    rows = preorder_rows(tree)
    error_rows = set()
    for row in rows.walk():
        if rows.kinds[row] == "error":
            error_rows.update(range(row, rows.subtree_end[row]))
    assert error_rows
    rng = random.Random(0)
    for _ in range(50):
        run = rows.rows_of(select_span(tree, 12, rng).sibling_run)
        assert run[0] not in error_rows
        assert run[-1] not in error_rows


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=999))
def test_split_splices_back_for_random_lengths(length, seed):
    src = (
        "def outer(a, b):\n"
        "    total = 0\n"
        "    for i in range(a):\n"
        "        if i % 2 == 0:\n"
        "            total += i * b\n"
        "        else:\n"
        "            total -= 1\n"
        "    return total\n"
        "\n"
        "value = outer(3, 4)\n"
    )
    tree = parse(src, "python")
    span = select_span(tree, length, random.Random(seed))
    context, target = token_split(tree, span)
    spliced = splice_tokens(context, target)
    assert "".join(t.text for t in spliced) == src
    assert split(tree, span) == (rendered(context), rendered(target))
