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
from typing import Sequence

from .errors import EmptyTree, InvalidBounds, SpanMismatch
from .languages import MASK_TOKEN
from .tokenizer import BRACKET_TEXTS, WHITESPACE_KINDS
from .tree import SyntaxTree

_CLIMB_ALONE = range(8)  # most children are found within 8 parent steps


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


def _child_holding(first: list[int], end: list[int], parent: list[int], up: int, leaf: int,
                   row: int | None = None) -> int:
    """The child row of `up` holding `leaf`, one of up's leaves, or -1 for one of up's
    own: a climb of `parent` from `row`, the last row to start by the leaf. Past
    _CLIMB_ALONE steps a walk along up's children (c's next sibling is the first row
    to start at end[c]) steps beside it, so the cost is the lesser of depth and siblings."""
    if row is None:
        row = bisect.bisect_right(first, leaf, up + 1) - 1
    if row == up:
        return -1
    for _ in _CLIMB_ALONE:
        if parent[row] == up:
            return row if end[row] > leaf else -1
        row = parent[row]
    child = up + 1  # a child of up that starts by the leaf
    while parent[row] != up:
        row = parent[row]
        if end[child] > leaf:
            return child
        child = bisect.bisect_left(first, end[child], child + 1)
        if child == len(first) or first[child] > leaf:  # the leaf lies between children
            return -1
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
                row = _child_holding(first, end, parent, up, lo - 1, top - 1)
                if row >= 0:  # it ends at lo, where the run starts
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
    up's own leaves are dropped; the seed, in a child of up or a leaf that is
    not blank, always stays.
    """
    leaves, start, stop = tree.leaves, lo, hi
    columns = tree.first_leaf, tree.leaf_end, tree.parent
    while (start < stop and leaves[start].kind in WHITESPACE_KINDS
           and _child_holding(*columns, up, start) < 0):
        start += 1
    while (stop - start > 1 and leaves[stop - 1].kind == "whitespace"
           and _child_holding(*columns, up, stop - 1) < 0):
        stop -= 1
    return up, start, stop


def select_span(tree: SyntaxTree, length: int, rng: random.Random,
                clear_of: Sequence[SpanSelection] = ()) -> SpanSelection | None:
    """Pick a sibling run covering at most `length` leaves, or None when its
    seed overlaps a span of `clear_of`: growth keeps the seed's leaves, and
    trimming drops only blanks of the run's parent, so the run would too."""
    if tree.leaf_count == 0:
        raise EmptyTree("cannot select a span from an empty tree")
    if length < 1:
        raise InvalidBounds("target length must be >= 1")
    _, lo, hi = seed = _pick_seed(tree, length, rng)
    if any(lo < s.leaf_end and s.leaf_start < hi for s in clear_of):
        return None
    return SpanSelection(tree, *_trim_edge_whitespace(tree, *_expand(tree, seed, length)))


def select_span_with_retry(tree: SyntaxTree, rng: random.Random, *, mean: float,
                           stddev: float, min_len: int, max_len: int) -> SpanSelection | None:
    """One target: a sampled length and the span grown to it, or None when no seed
    lies outside error regions. It never retries: a span keeps its seed, a group row
    below the root or a leaf of a seeding kind, and each holds a leaf that is not blank."""
    length = sample_target_length(rng, mean, stddev, min_len, max_len)
    try:
        return select_span(tree, length, rng)
    except EmptyTree:
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


def _render(tree: SyntaxTree, lo: int, hi: int, edits: dict[int, str], keys: list[int]) -> str:
    """The text of leaves lo:hi with each leaf in `keys`, the edited ones
    among them in order, spelled as `edits` says: the rest is slices of the
    parsed text. A fold's next leaf starts past the text it folded."""
    text, offsets, pieces, at = tree.text, tree.offsets, [], lo
    for leaf in keys:
        pieces += text[offsets[at]:offsets[leaf]], edits[leaf]
        at = leaf + 1
    if at < hi:
        stop = offsets[hi] if hi < len(offsets) else offsets[-1] + len(tree.leaves[-1].text)
        pieces.append(text[offsets[at]:stop])
    return "".join(pieces)


def split(tree: SyntaxTree, span: SpanSelection,
          edits: dict[int, str] | None = None) -> tuple[str, str]:
    """Cut the text at the span: (masked context, cls-prefixed target), each leaf in
    `edits` spelled as it says; a fold, absent from the parsed text, needs one."""
    _verify_span(tree, span)
    keys, (i, j) = sorted(edits or ()), (span.leaf_start, span.leaf_end)
    a, b = bisect.bisect_left(keys, i), bisect.bisect_left(keys, j)
    cls = tree.language.cls_token
    return (cls + _render(tree, 0, i, edits, keys[:a]) + MASK_TOKEN
            + _render(tree, j, tree.leaf_count, edits, keys[b:]),
            cls + _render(tree, i, j, edits, keys[a:b]))
