import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import child_rows, leaf_counts, make_tree, tokens_balanced
from codegap.errors import EmptyTree, InvalidBounds, SpanMismatch
from codegap.languages import MASK_TOKEN
from codegap.pipeline import PipelineConfig
from codegap.spans import (
    SpanSelection,
    _expand,
    sample_target_length,
    select_span,
    select_span_with_retry,
    span_has_content,
    splice_tokens,
    split,
)
from codegap.tree import parse

_CONFIG = PipelineConfig()
_TARGET_LENGTHS = dict(mean=_CONFIG.mean_target_len, stddev=_CONFIG.stddev_target_len,
                       min_len=_CONFIG.min_target_len, max_len=_CONFIG.max_target_len,
                       max_attempts=_CONFIG.max_span_attempts)


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
    a, b, c = child_rows(tree)[0]
    run = _expand(tree, b, 8)
    assert run == [a, b]
    assert tree.first_leaf[run[-1]] + leaf_counts(tree)[run[-1]] - tree.first_leaf[run[0]] == 8


def test_expansion_collapses_to_parent_when_it_fits(python_lang):
    tree = make_tree(("program", [("A", [3]), ("B", [5]), ("C", [4])]), python_lang)
    b = child_rows(tree)[0][1]
    run = _expand(tree, b, 12)
    assert run == [0]
    assert leaf_counts(tree)[0] == 12


def test_single_leaf_tree_selects_root():
    tree = parse("x", "python")
    span = select_span(tree, 5, random.Random(0))
    assert span.leaf_count == 1
    assert span.sibling_run == (0,)


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
        for _ in range(5):
            length = rng.randrange(8, 120)
            span = select_span(tree, length, rng)
            assert 1 <= span.leaf_count <= max(length, 1)
            prev = None
            for row in span.sibling_run:
                assert tree.kinds[row] != "error"
                if prev is not None:
                    assert tree.parent[row] == tree.parent[prev]
                    assert tree.subtree_end[prev] == row  # the next sibling
                prev = row
            assert tokens_balanced(tree.leaves[span.leaf_start:span.leaf_end])


def test_split_degenerate_full_span(python_lang):
    tree = parse("x = 1\n", "python")
    span = SpanSelection(tree, (0,))
    assert (span.leaf_start, span.leaf_count) == (0, tree.leaf_count)
    context, target = split(tree, span)
    assert [t.text for t in context] == [python_lang.cls_token, MASK_TOKEN]
    assert [t.text for t in target] == [python_lang.cls_token] + [t.text for t in tree.leaves]


def test_split_token_count_example(python_lang):
    # seven leaves, span [2, 5) -> context = CLS + 2 prefix + MASK + 2 suffix
    tree = make_tree(("program", [("s", [7])]), python_lang)
    kids = child_rows(tree)
    run = kids[kids[0][0]][2:5]
    span = SpanSelection(tree, tuple(run))
    assert (span.leaf_start, span.leaf_end, span.leaf_count) == (2, 5, 3)
    context, target = split(tree, span)
    assert len(context) == 7 - 3 + 2
    assert len(target) == 3 + 1
    assert context[3].kind == "mask"


def test_split_reconstruction(parsed_corpus):
    rng = random.Random(3)
    lang = None
    for _, tree in parsed_corpus[:20]:
        span = select_span(tree, 60, rng)
        context, target = split(tree, span)
        lang = tree.language
        spliced = splice_tokens(context, target)
        assert [t.text for t in spliced] == [t.text for t in tree.leaves]
        assert [t.text for t in context].count(MASK_TOKEN) == 1
        assert context[0].text == lang.cls_token
        assert target[0].text == lang.cls_token


def test_split_rejects_foreign_span():
    tree_a = parse("x = 1\n", "python")
    tree_b = parse("y = 2\n", "python")
    span = select_span(tree_a, 4, random.Random(0))
    with pytest.raises(SpanMismatch):
        split(tree_b, span)


def test_split_rejects_run_of_non_siblings(python_lang):
    # rows: 0 program, 1 A, 2 P, 3-4 leaves, 5 Q, 6 leaf, 7 B, 8 leaf
    tree = make_tree(("program", [("A", [("P", [2]), ("Q", [1])]), ("B", [1])]), python_lang)
    assert child_rows(tree)[0] == [1, 7] and child_rows(tree)[1] == [2, 5]
    for run in ((2, 5), (1, 7)):
        context, target = split(tree, SpanSelection(tree, run))
        assert [t.text for t in splice_tokens(context, target)] == [t.text for t in tree.leaves]
    # Q's subtree ends where B starts, but B is A's sibling, not Q's
    for run in ((5, 7), (2, 7), (2, 5, 7)):
        with pytest.raises(SpanMismatch):
            split(tree, SpanSelection(tree, run))


def test_retry_gives_up_on_whitespace_only_file():
    tree = parse("\n\n    \n\n", "python")
    assert select_span_with_retry(tree, random.Random(0), **_TARGET_LENGTHS) is None


def test_retry_returns_content(parsed_corpus):
    _, tree = parsed_corpus[0]
    span = select_span_with_retry(tree, random.Random(1), **_TARGET_LENGTHS)
    assert span is not None
    assert span_has_content(tree, span)


def test_spans_avoid_error_node_endpoints():
    src = "int ok(void) { return 1; }\nint broken(void { return 2;\n"
    tree = parse(src, "c")
    error_rows = set()
    for row in tree.walk():
        if tree.kinds[row] == "error":
            error_rows.update(range(row, tree.subtree_end[row]))
    assert error_rows
    rng = random.Random(0)
    for _ in range(50):
        span = select_span(tree, 12, rng)
        assert span.sibling_run[0] not in error_rows
        assert span.sibling_run[-1] not in error_rows


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
    context, target = split(tree, span)
    spliced = splice_tokens(context, target)
    assert "".join(t.text for t in spliced) == src
