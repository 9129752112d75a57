"""Concrete-structure trees over lossless token streams.

Every token (whitespace included) is a leaf of exactly one node, node leaf
ranges are contiguous unions of their children's ranges, and concatenating the
leaves reproduces the source. Brace languages nest by bracket pairs and group
statement-shaped runs; python nests by indentation suites. The trees are not
full grammars — they exist so spans can be cut along whole-subtree boundaries.
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import EncodingError, IndexOutOfRange
from .languages import FOLD_TOKEN, Language, get_language
from .tokenizer import (
    BRACKET_TEXTS,
    MATCHING_BRACKET,
    OPEN_BRACKETS,
    TRIVIA_KINDS,
    WHITESPACE_KINDS,
    Token,
    expanded_width,
    make_marker,
    tokenize,
)

CONTROL_KEYWORDS = frozenset(
    "if else elif for while do switch try catch finally return break continue goto "
    "throw raise case default synchronized assert yield with pass del global nonlocal".split()
)
DECLARATION_KEYWORDS = frozenset(
    "class interface enum struct union typedef namespace import package export "
    "function def from using".split()
)
_KIND_ALIASES = {"def": "function_definition", "class": "class_definition"}
_NO_ERROR = sys.maxsize  # error_floor when no error subtree is open


class Node:
    """One tree node; leaves carry their token, internals carry children.
    Parents live in `SyntaxTree.parents`, so a tree holds no reference cycle."""

    __slots__ = ("kind", "children", "token", "leaf_start", "leaf_count", "child_index")

    def __init__(self, kind: str, children: Sequence["Node"] = (), token: Token | None = None):
        self.kind = kind
        self.children = children
        self.token = token
        self.leaf_start = 0
        self.leaf_count = 0
        self.child_index = 0

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

    @property
    def leaf_end(self) -> int:
        return self.leaf_start + self.leaf_count

    def walk(self) -> Iterator["Node"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_leaf:
            return f"Leaf({self.kind!r}, {self.token.text!r})"
        return f"Node({self.kind!r}, leaves[{self.leaf_start}:{self.leaf_end}])"


def _leaf(tok: Token) -> Node:
    return Node(tok.kind, token=tok)


@dataclass
class SyntaxTree:
    """A parsed file. `parents` maps every node but the root to its parent.
    `seed_nodes` (internal nodes below the root) and `seed_leaves` (leaves
    that are not whitespace, newline or a bracket token) are the span seed
    candidates, in preorder, with error subtrees left out."""

    language: Language
    leaves: list[Token]
    root: Node
    parents: dict[Node, Node]
    seed_nodes: list[Node]
    seed_leaves: list[Node]

    def walk(self) -> Iterator[Node]:
        return self.root.walk()

    @property
    def source(self) -> str:
        return self.node_text(self.root)

    def node_text(self, node: Node) -> str:
        return "".join(t.text for t in self.leaves[node.leaf_start:node.leaf_end])

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)


def _build_tree(children: list[Node], language: Language) -> SyntaxTree:
    """Hang fresh nodes under a program root and number them in preorder:
    leaf ranges, parent map and child indexes, collecting the leaves and the
    span seeds."""
    root = Node("program", children)
    leaves: list[Token] = []
    parents: dict[Node, Node] = {}
    internal: list[Node] = []
    seed_nodes: list[Node] = []
    seed_leaves: list[Node] = []
    stack = [root]
    # an error node's descendants are popped while the stack stays at least
    # as high as it was just after the error node itself was popped
    error_floor = _NO_ERROR
    while stack:
        node = stack.pop()
        tok = node.token
        if len(stack) < error_floor:
            error_floor = _NO_ERROR
            if node.kind == "error":
                error_floor = len(stack)
            elif tok is None:
                seed_nodes.append(node)
            elif tok.kind not in WHITESPACE_KINDS and not (
                    node.kind == tok.text and tok.text in BRACKET_TEXTS):
                seed_leaves.append(node)
        node.leaf_start = len(leaves)
        if tok is not None:
            leaves.append(tok)
            node.leaf_count = 1
            continue
        internal.append(node)
        for idx, child in enumerate(node.children):
            parents[child] = node
            child.child_index = idx
        stack.extend(reversed(node.children))
    del seed_nodes[0]  # the root is no seed
    for node in reversed(internal):  # children before their parents
        node.leaf_count = node.children[-1].leaf_end - node.leaf_start if node.children else 0
    return SyntaxTree(language, leaves, root, parents, seed_nodes, seed_leaves)


# --------------------------------------------------------------------------
# bracket grouping (shared by both block styles)

def _group_brackets(tokens: list[Token]) -> list[Node]:
    """Nest bracket pairs; unmatched delimiters end up inside error nodes."""
    groups: list[list[Node]] = [[]]  # items of each open group, outermost first
    for tok in tokens:
        if tok.kind == tok.text and tok.text in BRACKET_TEXTS:
            if tok.text in OPEN_BRACKETS:
                groups.append([_leaf(tok)])
                continue
            if len(groups) > 1 and tok.text == MATCHING_BRACKET[groups[-1][0].token.text]:
                items = groups.pop()
                items.append(_leaf(tok))
                groups[-1].append(Node(OPEN_BRACKETS[items[0].token.text], items))
            else:
                groups[-1].append(Node("error", [_leaf(tok)]))  # stray closer
            continue
        groups[-1].append(_leaf(tok))
    while len(groups) > 1:  # still open at the end of input
        items = groups.pop()
        groups[-1].append(Node("error", items))
    return groups[0]


def _is_trivia(node: Node) -> bool:
    return node.token is not None and node.kind in TRIVIA_KINDS


def _first_leaf_token(node: Node) -> Token:
    while node.token is None:
        node = node.children[0]
    return node.token


def _is_text(node: Node, text: str) -> bool:
    return node.token is not None and node.token.text == text


# --------------------------------------------------------------------------
# brace-language statement grouping

def _statement_kind(first_kw: str | None, parts: list[Node]) -> str:
    if first_kw in CONTROL_KEYWORDS:
        return f"{first_kw}_statement"
    if first_kw in DECLARATION_KEYWORDS:
        return _KIND_ALIASES.get(first_kw, f"{first_kw}_declaration")
    if any(p.kind == "block" for p in parts):
        return "definition"
    return "statement"


def _skip_trivia(items: list[Node], i: int) -> int:
    while i < len(items) and _is_trivia(items[i]):
        i += 1
    return i


def _continues_statement(first_kw: str | None, node: Node) -> bool:
    text = node.token.text if node.token is not None else None
    return text in ("else", "catch", "finally", ";") or (text == "while" and first_kw == "do")


def _group_statements(items: list[Node], lang: Language) -> list[Node]:
    """Group one block interior (or the top level) into statement nodes."""
    out: list[Node] = []
    i = 0
    n = len(items)
    while i < n:
        item = items[i]
        if _is_trivia(item) or item.kind == "error":
            out.append(item)
            i += 1
            continue
        first = _first_leaf_token(item)
        first_kw = first.text if first.kind == "keyword" else None
        consume_to_semi = lang.name == "c" and first_kw == "typedef"
        parts: list[Node] = [item]
        ended = _is_text(item, ";")
        i += 1
        while not ended and i < n:
            nxt = items[i]
            if nxt.kind == "error":
                break
            parts.append(nxt)
            i += 1
            if _is_text(nxt, ";"):
                break
            if nxt.kind == "block" and not consume_to_semi:
                j = _skip_trivia(items, i)
                if j < n and _continues_statement(first_kw, items[j]):
                    parts.extend(items[i:j + 1])
                    i = j + 1
                    if _is_text(items[j], ";"):
                        break
                    continue
                break
        if len(parts) == 1 and parts[0].token is None:
            out.append(parts[0])
        else:
            out.append(Node(_statement_kind(first_kw, parts), parts))
    return out


def _build_brace_items(tokens: list[Token], lang: Language) -> list[Node]:
    """Bracket groups, with statements grouped at the top level and inside
    every closed block. Each block's grouping depends on no other block's,
    so the blocks are visited in any order."""
    items = _group_brackets(tokens)
    stack = list(items)
    while stack:
        node = stack.pop()
        if node.kind == "block":
            node.children[1:-1] = _group_statements(node.children[1:-1], lang)
        stack.extend(node.children)
    return _group_statements(items, lang)


# --------------------------------------------------------------------------
# indentation-language (python) suite grouping

class _LogicalLine:
    __slots__ = ("items", "indent", "blank", "significant")

    def __init__(self, tokens: list[Token]):
        self.items = _group_brackets(tokens)
        self.significant = [t for t in tokens if t.kind not in TRIVIA_KINDS]
        self.blank = not self.significant
        first = tokens[0]
        self.indent = expanded_width(first.text) if first.kind == "whitespace" else 0


def _split_logical_lines(tokens: list[Token]) -> list[_LogicalLine]:
    lines: list[_LogicalLine] = []
    current: list[Token] = []
    depth = 0
    for tok in tokens:
        current.append(tok)
        if tok.kind == tok.text and tok.text in "([{":
            depth += 1
        elif tok.kind == tok.text and tok.text in ")]}":
            depth = max(0, depth - 1)
        elif tok.kind == "newline" and depth == 0:
            prev = current[-2] if len(current) >= 2 else None
            if prev is not None and prev.text == "\\" and not prev.synthetic:
                continue
            lines.append(_LogicalLine(current))
            current = []
    if current:
        lines.append(_LogicalLine(current))
    return lines


_CLAUSE_OWNERS = {
    "else": {"if", "for", "while", "try"},
    "elif": {"if"},
    "except": {"try"},
    "finally": {"try"},
}


def _items_end_with_colon(items: list[Node]) -> bool:
    for item in reversed(items):
        if _is_trivia(item):
            continue
        return _is_text(item, ":")
    return False


def _next_real_index(lines: list[_LogicalLine], pos: int) -> int | None:
    for k in range(pos, len(lines)):
        if not lines[k].blank:
            return k
    return None


class _Statement:
    """A statement being built: its header line, then suites and clauses."""

    __slots__ = ("keyword", "indent", "leading", "parts")

    def __init__(self, line: _LogicalLine):
        first_sig = line.significant[0]
        self.keyword = first_sig.text if first_sig.kind == "keyword" else None
        self.indent = line.indent
        self.parts = list(line.items)
        self.leading = [self.parts.pop(0)] if self.parts[0].kind == "whitespace" else []

    def node(self) -> Node:
        parts = self.parts
        if self.keyword is None and len(parts) == 1 and parts[0].token is None:
            return parts[0]
        return Node(_statement_kind(self.keyword, parts), parts)


def _build_indent_items(tokens: list[Token]) -> list[Node]:
    """Nest python suites under the statements whose header ends in a colon,
    with an explicit stack of open suites."""
    lines = _split_logical_lines(tokens)
    suites: list[tuple[list[Node], int]] = [([], 0)]  # items and indent of each open suite
    owners: list[_Statement] = []  # the statement owning each suite but the outermost
    pos = 0
    while True:
        items, level = suites[-1]
        k = _next_real_index(lines, pos)
        if pos < len(lines) and (k is None or lines[k].indent >= level):
            if lines[pos].blank:
                items.extend(lines[pos].items)
                pos += 1
                continue
            stmt = _Statement(lines[pos])
            pos += 1
        else:  # the innermost suite ends here
            if not owners:
                return items
            suites.pop()
            stmt = owners.pop()
            stmt.parts.append(Node("block", items))
            cand = lines[k] if k is not None else None
            if (cand is None or cand.indent != stmt.indent
                    or cand.significant[0].kind != "keyword"
                    or stmt.keyword not in _CLAUSE_OWNERS.get(cand.significant[0].text, ())):
                suites[-1][0].extend([*stmt.leading, stmt.node()])
                continue
            for blank in lines[pos:k]:
                stmt.parts.extend(blank.items)
            stmt.parts.extend(cand.items)  # clause line, leading ws included
            pos = k + 1
        if _items_end_with_colon(stmt.parts):
            k = _next_real_index(lines, pos)
            if k is not None and lines[k].indent > stmt.indent:
                owners.append(stmt)
                suites.append(([], lines[k].indent))
                continue
        suites[-1][0].extend([*stmt.leading, stmt.node()])


# --------------------------------------------------------------------------
# public API

def parse(source: str | bytes, language: Language | str) -> SyntaxTree:
    """Parse source text into a structure tree whose leaves are all tokens."""
    lang = get_language(language) if isinstance(language, str) else language
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"input is not valid UTF-8: {exc}") from exc
    tokens = tokenize(source, lang)
    if lang.indent_blocks:
        return _build_tree(_build_indent_items(tokens), lang)
    return _build_tree(_build_brace_items(tokens, lang), lang)


def identifier_occurrences(tree: SyntaxTree) -> list[tuple[int, str]]:
    """All identifier leaves as (leaf_index, text), in leaf order."""
    return [(i, tok.text) for i, tok in enumerate(tree.leaves) if tok.is_identifier]


def indentation_of(tree: SyntaxTree, leaf_index: int) -> int:
    """Indentation (expanded columns) of the line holding the given leaf.

    Returns the expanded column of the first non-whitespace token starting on
    that line; for all-whitespace lines, the width of the whitespace itself.
    """
    if not 0 <= leaf_index < len(tree.leaves):
        raise IndexOutOfRange(f"leaf index {leaf_index} out of range 0..{len(tree.leaves) - 1}")
    line = tree.leaves[leaf_index].line
    lines = [t.line for t in tree.leaves]
    start = bisect.bisect_left(lines, line)
    width = 0
    for tok in tree.leaves[start:]:
        if tok.line != line:
            break
        if tok.kind not in WHITESPACE_KINDS:
            return tok.column_expanded
        width = tok.column_expanded + expanded_width(tok.text, tok.column_expanded)
    return width


# --------------------------------------------------------------------------
# structural rebuilds used by file truncation

def _copy_subtrees(nodes: Iterable[Node], swap: dict[int, Node | None]) -> list[Node]:
    """Fresh copies of the given subtrees, iteratively; a node whose id is in
    `swap` is replaced by the node it maps to, or dropped if that is None."""
    copies: list[Node] = []
    pending = [(nodes, copies)]
    while pending:
        originals, siblings = pending.pop()
        for node in originals:
            if id(node) in swap:
                if swap[id(node)] is not None:
                    siblings.append(swap[id(node)])
            elif node.token is not None:
                siblings.append(_leaf(node.token))
            else:
                copy = Node(node.kind, [])
                siblings.append(copy)
                pending.append((node.children, copy.children))
    return copies


def tree_from_run(tree: SyntaxTree, run: tuple[Node, ...] | list[Node]) -> SyntaxTree:
    """A standalone tree viewing a sibling run as its own program."""
    return _build_tree(_copy_subtrees(run, {}), tree.language)


def tree_with_runs_folded(tree: SyntaxTree, runs: list[tuple[Node, ...]]) -> SyntaxTree:
    """Rebuild the tree with each sibling run replaced by one fold marker."""
    if not runs:
        return tree
    swap: dict[int, Node | None] = {}
    for run in runs:
        for node in run:
            swap[id(node)] = None
        swap[id(run[0])] = _leaf(make_marker(FOLD_TOKEN, "fold",
                                             at=tree.leaves[run[0].leaf_start]))
    return _build_tree(_copy_subtrees(tree.root.children, swap), tree.language)
