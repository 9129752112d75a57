"""Tree-based span selection: grow a sibling run toward a sampled length.

A target is always a run of adjacent whole subtrees, so it never cuts a
bracket pair in half. Growth starts at a seed node and repeatedly replaces the
run by its parent when the parent still fits the length budget, otherwise
appends the next sibling, alternating between the following and preceding
direction. Runs never absorb a bare bracket leaf: covering all statements of a
block is allowed, taking its braces requires taking the whole block node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import EmptyTree, InvalidBounds, SpanMismatch
from .tokenizer import BRACKET_TEXTS, WHITESPACE_KINDS, Token, make_marker
from .tree import Node, SyntaxTree


@dataclass(frozen=True)
class SpanSelection:
    sibling_run: tuple[Node, ...]
    leaf_start: int
    leaf_count: int

    @property
    def leaf_end(self) -> int:
        return self.leaf_start + self.leaf_count


def sample_target_length(rng: random.Random, mean: float = 150.0, stddev: float = 90.0,
                         min_len: int = 16, max_len: int = 512) -> int:
    """One target length: a rounded normal draw clamped into [min_len, max_len]."""
    if min_len < 1 or max_len < min_len or stddev < 0:
        raise InvalidBounds(f"bad length bounds: min={min_len} max={max_len} stddev={stddev}")
    draw = rng.gauss(mean, stddev) if stddev > 0 else mean
    return max(min_len, min(max_len, round(draw)))


def _is_delimiter_leaf(node: Node) -> bool:
    return node.is_leaf and node.token.text in BRACKET_TEXTS and node.kind == node.token.text


def _pick_seed(tree: SyntaxTree, length: int, rng: random.Random) -> Node:
    lo = max(1.0, length / 2)
    window = [n for n in tree.seed_nodes if lo <= n.leaf_count <= length]
    if window:
        return window[rng.randrange(len(window))]
    fitting = [n for n in tree.seed_nodes if n.leaf_count <= length]
    if fitting:
        best = max(n.leaf_count for n in fitting)
        largest = [n for n in fitting if n.leaf_count == best]
        return largest[rng.randrange(len(largest))]
    if tree.seed_leaves:
        return tree.seed_leaves[rng.randrange(len(tree.seed_leaves))]
    raise EmptyTree("no selectable node outside error regions")


def _sibling(tree: SyntaxTree, run: list[Node], following: bool) -> Node | None:
    edge = run[-1] if following else run[0]
    parent = tree.parents.get(edge)
    idx = edge.child_index + (1 if following else -1)
    if parent is not None and 0 <= idx < len(parent.children):
        return parent.children[idx]
    return None


def _expand(tree: SyntaxTree, seed: Node, length: int) -> list[Node]:
    run: list[Node] = [seed]
    count = seed.leaf_count
    follow_first = True
    while True:
        parent = tree.parents.get(run[0])
        if parent is not None and parent.kind != "error" and parent.leaf_count <= length:
            run = [parent]
            count = parent.leaf_count
            continue
        placed = None
        for following in (follow_first, not follow_first):
            sib = _sibling(tree, run, following)
            if sib is None or sib.kind == "error" or _is_delimiter_leaf(sib):
                continue
            if count + sib.leaf_count <= length:
                placed = (sib, following)
                break
        if placed is None:
            return run
        sib, following = placed
        if following:
            run.append(sib)
        else:
            run.insert(0, sib)
        count += sib.leaf_count
        follow_first = not follow_first
        if parent is not None and len(run) == len(parent.children):
            if parent.leaf_count <= length:
                run = [parent]
                count = parent.leaf_count
            else:
                # a run of every child would re-create the block without its
                # delimiters; roll the last addition back and stop
                if following:
                    run.pop()
                else:
                    run.pop(0)
                return run


def _trim_edge_whitespace(run: list[Node]) -> list[Node]:
    """Drop bare whitespace leaves from the run edges; interior ones stay.

    A target beginning at a mid-line blank would render with phantom
    indentation that dedentation must not touch; trailing newlines are kept
    so multi-line targets stay line-complete.
    """
    start, end = 0, len(run)
    while start < end and run[start].is_leaf and run[start].token.kind in WHITESPACE_KINDS:
        start += 1
    while end - start > 1 and run[end - 1].is_leaf and run[end - 1].token.kind == "whitespace":
        end -= 1
    return run[start:end] if end > start else run


def select_span(tree: SyntaxTree, length: int, rng: random.Random) -> SpanSelection:
    """Pick a sibling run covering at most `length` leaves."""
    if tree.leaf_count == 0:
        raise EmptyTree("cannot select a span from an empty tree")
    if length < 1:
        raise InvalidBounds("target length must be >= 1")
    seed = _pick_seed(tree, length, rng)
    run = _trim_edge_whitespace(_expand(tree, seed, length))
    start = run[0].leaf_start
    return SpanSelection(tuple(run), start, run[-1].leaf_end - start)


def span_has_content(tree: SyntaxTree, span: SpanSelection) -> bool:
    return any(t.kind not in WHITESPACE_KINDS
               for t in tree.leaves[span.leaf_start:span.leaf_end])


def select_span_with_retry(tree: SyntaxTree, rng: random.Random, *, mean: float = 150.0,
                           stddev: float = 90.0, min_len: int = 16, max_len: int = 512,
                           max_attempts: int = 8) -> SpanSelection | None:
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
    parents = tree.parents
    first = span.sibling_run[0]
    if first is not tree.root and first not in parents:
        raise SpanMismatch("span does not belong to this tree")
    pos = span.leaf_start
    prev = None
    for n in span.sibling_run:
        if prev is not None and (parents.get(n) is not parents.get(prev)
                                 or n.child_index != prev.child_index + 1):
            raise SpanMismatch("sibling run is not a consecutive run")
        if n.leaf_start != pos:
            raise SpanMismatch("span leaf range does not match its nodes")
        pos = n.leaf_end
        prev = n
    if pos != span.leaf_end:
        raise SpanMismatch("span leaf count does not match its nodes")


def split(tree: SyntaxTree, span: SpanSelection) -> tuple[list[Token], list[Token]]:
    """Cut the leaves at the span: (masked context, cls-prefixed target)."""
    lang = tree.language
    _verify_span(tree, span)
    leaves = tree.leaves
    i, j = span.leaf_start, span.leaf_end
    anchor = leaves[i]
    cls_ctx = make_marker(lang.cls_token, "cls", at=leaves[0])
    cls_tgt = make_marker(lang.cls_token, "cls", at=anchor)
    mask = make_marker(lang.mask_token, "mask", at=anchor)
    return [cls_ctx, *leaves[:i], mask, *leaves[j:]], [cls_tgt, *leaves[i:j]]


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
