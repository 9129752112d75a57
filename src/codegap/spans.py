"""Tree-based span selection: grow a sibling run toward a sampled length.

A target is always a run of adjacent whole subtrees, so it never cuts a
bracket pair in half. Growth starts at a seed node and repeatedly replaces the
run by its parent when the parent still fits the length budget, otherwise
appends the next sibling, alternating between the following and preceding
direction. Runs never absorb a bare bracket leaf: covering all statements of a
block is allowed, taking its braces requires taking the whole block node.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

from .errors import EmptyTree, InvalidBounds, SpanMismatch
from .languages import MASK_TOKEN
from .tokenizer import BRACKET_TEXTS, WHITESPACE_KINDS, Token
from .tree import SyntaxTree


@dataclass(frozen=True)
class SpanSelection:
    """A run of consecutive sibling rows of `tree`; its leaf range is read
    off the tree at the run's ends."""

    tree: SyntaxTree = field(repr=False)
    sibling_run: tuple[int, ...]

    @property
    def leaf_start(self) -> int:
        return self.tree.first_leaf[self.sibling_run[0]]

    @property
    def leaf_end(self) -> int:
        return self.tree.first_leaf[self.tree.subtree_end[self.sibling_run[-1]]]

    @property
    def leaf_count(self) -> int:
        return self.leaf_end - self.leaf_start


def sample_target_length(rng: random.Random, mean: float, stddev: float,
                         min_len: int, max_len: int) -> int:
    """One target length: a rounded normal draw clamped into [min_len, max_len]."""
    if min_len < 1 or max_len < min_len or not (0 <= stddev < math.inf and math.isfinite(mean)):
        raise InvalidBounds(f"bad length bounds: min={min_len} max={max_len} mean={mean} stddev={stddev}")
    draw = rng.gauss(mean, stddev) if stddev > 0 else mean
    return max(min_len, min(max_len, round(draw)))


def _pick_seed(tree: SyntaxTree, length: int, rng: random.Random) -> int:
    """A seed node of leaf count in [length / 2, length], else of the largest
    count that fits (bisected out of the count order, then drawn from in
    preorder), else a seed leaf."""
    order, first, end = tree.seed_order, tree.first_leaf, tree.subtree_end

    def count(row: int) -> int:
        return first[end[row]] - first[row]

    fits = bisect.bisect_right(order, length, key=count)
    start = bisect.bisect_left(order, max(1.0, length / 2), hi=fits, key=count)
    if start == fits and fits:  # ties of the largest count that fits
        start = bisect.bisect_left(order, count(order[fits - 1]), hi=fits, key=count)
    if start < fits:
        window = sorted(order[start:fits])
        return window[rng.randrange(len(window))]
    if tree.seed_leaves:
        return tree.seed_leaves[rng.randrange(len(tree.seed_leaves))]
    raise EmptyTree("no selectable node outside error regions")


def _sibling(tree: SyntaxTree, run: list[int], following: bool) -> int:
    """The row beside the run in the given direction, or -1. Unless the run
    starts its parent's children, the row before it lies under the sibling."""
    parent = tree.parent
    up = parent[run[0]]
    if following:
        after = tree.subtree_end[run[-1]]
        return after if up >= 0 and after < tree.subtree_end[up] else -1
    if run[0] == up + 1:  # the first child, or the root
        return -1
    row = run[0] - 1
    while parent[row] != up:
        row = parent[row]
    return row


def _expand(tree: SyntaxTree, seed: int, length: int) -> list[int]:
    kinds, parent = tree.kinds, tree.parent
    first, end = tree.first_leaf, tree.subtree_end
    run = [seed]
    follow_first = True
    while True:
        up = parent[run[0]]
        if up >= 0 and kinds[up] != "error" and first[end[up]] - first[up] <= length:
            run = [up]
            continue
        placed = None
        for following in (follow_first, not follow_first):
            sib = _sibling(tree, run, following)
            # a bracket leaf's kind is its text
            if sib < 0 or kinds[sib] == "error" or kinds[sib] in BRACKET_TEXTS:
                continue
            lo, hi = (run[0], sib) if following else (sib, run[-1])
            if first[end[hi]] - first[lo] <= length:  # the leaves of the run and sib
                placed = (sib, following)
                break
        if placed is None:
            return run
        sib, following = placed
        if following:
            run.append(sib)
        else:
            run.insert(0, sib)
        follow_first = not follow_first
        if up >= 0 and run[0] == up + 1 and end[run[-1]] == end[up]:
            if first[end[up]] - first[up] <= length:
                run = [up]
            else:
                # a run of every child would re-create the block without its
                # delimiters; roll the last addition back and stop
                del run[-1 if following else 0]
                return run


def _trim_edge_whitespace(tree: SyntaxTree, run: list[int]) -> list[int]:
    """Drop bare whitespace leaves from the run edges; interior ones stay.

    A target beginning at a mid-line blank would render with phantom
    indentation that dedentation must not touch; trailing newlines are kept
    so multi-line targets stay line-complete. A leaf row's kind is its
    token's kind, and no group row has a whitespace kind.
    """
    kinds = tree.kinds
    start, end = 0, len(run)
    while start < end and kinds[run[start]] in WHITESPACE_KINDS:
        start += 1
    while end - start > 1 and kinds[run[end - 1]] == "whitespace":
        end -= 1
    return run[start:end] if end > start else run


def select_span(tree: SyntaxTree, length: int, rng: random.Random) -> SpanSelection:
    """Pick a sibling run covering at most `length` leaves."""
    if tree.leaf_count == 0:
        raise EmptyTree("cannot select a span from an empty tree")
    if length < 1:
        raise InvalidBounds("target length must be >= 1")
    seed = _pick_seed(tree, length, rng)
    return SpanSelection(tree, tuple(_trim_edge_whitespace(tree, _expand(tree, seed, length))))


def span_has_content(tree: SyntaxTree, span: SpanSelection) -> bool:
    return any(t.kind not in WHITESPACE_KINDS
               for t in tree.leaves[span.leaf_start:span.leaf_end])


def select_span_with_retry(tree: SyntaxTree, rng: random.Random, *, mean: float,
                           stddev: float, min_len: int, max_len: int,
                           max_attempts: int) -> SpanSelection | None:
    """Sample lengths and spans until a target contains real content."""
    for _ in range(max_attempts):
        length = sample_target_length(rng, mean, stddev, min_len, max_len)
        try:
            span = select_span(tree, length, rng)
        except EmptyTree:
            return None
        if span_has_content(tree, span):
            return span
    return None


def _verify_span(tree: SyntaxTree, span: SpanSelection) -> None:
    # a row number fits any tree with that many rows, so ask for this tree
    if span.tree is not tree:
        raise SpanMismatch("span does not belong to this tree")
    run = span.sibling_run
    if not run or min(run) < 0 or max(run) >= len(tree.kinds):
        raise SpanMismatch(f"sibling run {run} names no row or a row outside the tree")
    for prev, row in zip(run, run[1:]):
        if tree.subtree_end[prev] != row or tree.parent[prev] != tree.parent[row]:
            raise SpanMismatch("sibling run is not a consecutive run")


def split(tree: SyntaxTree, span: SpanSelection) -> tuple[list[Token], list[Token]]:
    """Cut the leaves at the span: (masked context, cls-prefixed target)."""
    lang = tree.language
    _verify_span(tree, span)
    leaves = tree.leaves
    i, j = span.leaf_start, span.leaf_end
    cls, mask = Token(lang.cls_token, "cls", True), Token(MASK_TOKEN, "mask", True)  # markers
    return [cls, *leaves[:i], mask, *leaves[j:]], [cls, *leaves[i:j]]


def splice_tokens(context: list[Token], target: list[Token]) -> list[Token]:
    """Undo a split: drop cls markers and substitute the target at the mask."""
    body = [t for t in target if not (t.synthetic and t.kind == "cls")]
    out: list[Token] = []
    for tok in context:
        if tok.synthetic and tok.kind == "cls":
            continue
        if tok.synthetic and tok.kind == "mask":
            out.extend(body)
        else:
            out.append(tok)
    return out
