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
    """A run of consecutive sibling nodes of `tree`: the children of row
    `parent` that cover leaves leaf_start:leaf_end, or the root alone when
    `parent` is -1."""

    tree: SyntaxTree = field(repr=False)
    parent: int
    leaf_start: int
    leaf_end: int

    @property
    def sibling_run(self) -> tuple[int, int, int]:
        return self.parent, self.leaf_start, self.leaf_end

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


def _pick_seed(tree: SyntaxTree, length: int, rng: random.Random) -> tuple[int, int, int]:
    """The run of one seed: a seed node of leaf count in [length / 2,
    length], else of the largest count that fits (bisected out of the count
    order, then drawn from in preorder), else a seed leaf."""
    order, first, end = tree.seed_order, tree.first_leaf, tree.leaf_end

    def count(row: int) -> int:
        return end[row] - first[row]

    fits = bisect.bisect_right(order, length, key=count)
    start = bisect.bisect_left(order, max(1.0, length / 2), hi=fits, key=count)
    if start == fits and fits:  # ties of the largest count that fits
        start = bisect.bisect_left(order, count(order[fits - 1]), hi=fits, key=count)
    if start < fits:
        window = sorted(order[start:fits])
        row = window[rng.randrange(len(window))]
        return tree.parent[row], first[row], end[row]
    if tree.seed_leaves:
        leaf = tree.seed_leaves[rng.randrange(len(tree.seed_leaves))]
        row = bisect.bisect_right(first, leaf) - 1  # the last row to start by the leaf,
        while end[row] <= leaf:  # climbed to the innermost one that holds it
            row = tree.parent[row]
        return row, leaf, leaf + 1
    raise EmptyTree("no selectable node outside error regions")


def _child_holding(first: list[int], end: list[int], parent: list[int], up: int, leaf: int) -> int:
    """The child row of `up` whose leaves hold `leaf`, which is one of up's
    leaves, or -1 when it is one of up's own: the last row to start by the
    leaf, climbed to up's child."""
    row = bisect.bisect_right(first, leaf, up + 1) - 1
    if row == up:
        return -1
    while parent[row] != up:
        row = parent[row]
    return row if end[row] > leaf else -1


def _expand(tree: SyntaxTree, run: tuple[int, int, int], length: int) -> tuple[int, int, int]:
    """Grow a run toward `length` leaves. A sibling is the parent's child row
    that starts at the run's end or holds the leaf before its start, else
    the parent's own leaf there, found from the run's first row and the row
    after it, which are kept across steps."""
    kinds, parent, leaves = tree.kinds, tree.parent, tree.leaves
    first, end = tree.first_leaf, tree.leaf_end
    n_rows = len(first)
    up, lo, hi = run
    top = bisect.bisect_left(first, lo, up + 1)  # the first row that starts at or after lo
    after = bisect.bisect_left(first, hi, top)  # the first row that starts at or after hi
    follow_first = True
    while up >= 0:
        if kinds[up] != "error" and end[up] - first[up] <= length:
            top, after = up, bisect.bisect_left(first, end[up], after)
            up, lo, hi = parent[up], first[up], end[up]
            continue
        for following in (follow_first, not follow_first):
            if following:
                if hi == end[up]:
                    continue
                if after < n_rows and first[after] == hi:
                    row, kind, start, stop = after, kinds[after], lo, end[after]
                else:
                    row, kind, start, stop = -1, leaves[hi].kind, lo, hi + 1
            else:
                if lo == first[up]:
                    continue
                row = top - 1
                while row > up and parent[row] != up:
                    row = parent[row]
                if row > up and end[row] == lo:
                    kind, start, stop = kinds[row], first[row], hi
                else:
                    row, kind, start, stop = -1, leaves[lo - 1].kind, lo - 1, hi
            # a bracket leaf's kind is its text
            if kind != "error" and kind not in BRACKET_TEXTS and stop - start <= length:
                if row >= 0:  # a child group: move the row bound on its side
                    if following:
                        after = bisect.bisect_left(first, stop, row + 1)
                    else:
                        top = row
                lo, hi = start, stop
                follow_first = not follow_first
                break
        else:
            break
    return up, lo, hi


def _trim_edge_whitespace(tree: SyntaxTree, up: int, lo: int, hi: int) -> tuple[int, int, int]:
    """Drop bare whitespace leaves from the run edges; interior ones stay.

    A target beginning at a mid-line blank would render with phantom
    indentation that dedentation must not touch; trailing newlines are kept
    so multi-line targets stay line-complete. A group may start with a
    whitespace leaf (a python block with its first line's indent), so only
    up's own leaves are dropped.
    """
    leaves, start, stop = tree.leaves, lo, hi
    columns = tree.first_leaf, tree.leaf_end, tree.parent
    while (start < stop and leaves[start].kind in WHITESPACE_KINDS
           and _child_holding(*columns, up, start) < 0):
        start += 1
    while (stop - start > 1 and leaves[stop - 1].kind == "whitespace"
           and _child_holding(*columns, up, stop - 1) < 0):
        stop -= 1
    return (up, start, stop) if stop > start else (up, lo, hi)


def select_span(tree: SyntaxTree, length: int, rng: random.Random) -> SpanSelection:
    """Pick a sibling run covering at most `length` leaves."""
    if tree.leaf_count == 0:
        raise EmptyTree("cannot select a span from an empty tree")
    if length < 1:
        raise InvalidBounds("target length must be >= 1")
    run = _expand(tree, _pick_seed(tree, length, rng), length)
    return SpanSelection(tree, *_trim_edge_whitespace(tree, *run))


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
    # a run's numbers fit any tree with that many rows and leaves, so ask for this tree
    if span.tree is not tree:
        raise SpanMismatch("span does not belong to this tree")
    run = up, lo, hi = span.sibling_run
    first, end = tree.first_leaf, tree.leaf_end
    if not (-1 <= up < len(tree.kinds) and 0 <= lo < hi <= tree.leaf_count):
        raise SpanMismatch(f"sibling run {run} names no row or leaves outside the tree")
    # within up's leaves (all of them for the root, parent -1, whose one child
    # is row 0), and at each end no child of up holds the leaves on both sides
    top, bottom = (first[up], end[up]) if up >= 0 else (0, tree.leaf_count)
    if not (top <= lo and hi <= bottom and all(
            first[child] == edge for edge in (lo, hi) if edge < bottom
            if (child := _child_holding(first, end, tree.parent, up, edge)) >= 0)):
        raise SpanMismatch(f"sibling run {run} is not a run of whole children of its parent")


def split(tree: SyntaxTree, span: SpanSelection) -> tuple[list[Token], list[Token]]:
    """Cut the leaves at the span: (masked context, cls-prefixed target)."""
    lang = tree.language
    _verify_span(tree, span)
    leaves = tree.leaves
    i, j = span.leaf_start, span.leaf_end
    cls, mask = Token(lang.cls_token, "cls"), Token(MASK_TOKEN, "mask")  # markers
    return [cls, *leaves[:i], mask, *leaves[j:]], [cls, *leaves[i:j]]


def splice_tokens(context: list[Token], target: list[Token]) -> list[Token]:
    """Undo a split: drop cls markers and substitute the target at the mask."""
    body = [t for t in target if t.kind != "cls"]
    out: list[Token] = []
    for tok in context:
        if tok.kind == "mask":
            out.extend(body)
        elif tok.kind != "cls":
            out.append(tok)
    return out
