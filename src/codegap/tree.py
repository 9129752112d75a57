"""Concrete-structure trees over lossless token streams.

Every token (whitespace included) is a leaf of exactly one node, node leaf
ranges are contiguous unions of their children's ranges, and concatenating the
leaves reproduces the source. Brace languages nest by bracket pairs and group
statement-shaped runs; python nests by indentation suites. The trees are not
full grammars — they exist so spans can be cut along whole-subtree boundaries.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import NamedTuple

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
# leaf kinds that never seed a span: blanks and bare brackets (a bracket
# token's kind is its text)
_NO_SEED_LEAF_KINDS = WHITESPACE_KINDS | BRACKET_TEXTS


@dataclass
class SyntaxTree:
    """A parsed file as preorder rows in parallel lists; row 0 is the
    program root. The subtree of row r is rows r:subtree_end[r] and covers
    leaves[first_leaf[r]:][:leaf_counts[r]]. `parent` and `prev_sibling`
    hold -1 where there is none. `seed_nodes` (group rows below the root) and
    `seed_leaves` (leaf rows that are not whitespace, newline or a bracket
    token) are the span seed candidates, in preorder, with error subtrees
    left out. Rows are plain ints, so a tree holds no reference cycle."""

    language: Language
    leaves: list[Token]
    kinds: list[str]
    first_leaf: list[int]
    leaf_counts: list[int]
    subtree_end: list[int]
    parent: list[int]
    prev_sibling: list[int]
    seed_nodes: list[int]
    seed_leaves: list[int]

    def walk(self) -> range:
        return range(len(self.kinds))

    def is_leaf(self, row: int) -> bool:
        return self.subtree_end[row] == row + 1 and self.leaf_counts[row] == 1

    @property
    def source(self) -> str:
        return "".join(t.text for t in self.leaves)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)


def _number_rows(language: Language, kinds: list[str], tokens: list[Token | None],
                 parents: list[int]) -> SyntaxTree:
    """Number rows given in preorder as parallel columns, row 0 being the
    program root; a group row has no token. One pass fills the subtree ends,
    leaf counts, sibling links and span seeds; the tree keeps `kinds` and
    `parents` as its columns."""
    n = len(kinds)
    leaves = [tok for tok in tokens if tok is not None]
    first = list(accumulate([tok is not None for tok in tokens], initial=0))
    first.pop()
    # one int object per row number, shared by every column that names rows
    ids = list(range(-1, n + 1))
    # a leaf closes itself, and a row's previous sibling is the row before
    # it unless the loop finds otherwise
    end, counts, prev = ids[2:], [1] * n, ids[:n]
    seed_nodes: list[int] = []
    seed_leaves: list[int] = []
    open_rows = [0]  # the groups on the path from the root to the last row
    error_row = -1  # the open error row that no other error row encloses
    for row in ids[2:n + 1]:  # rows 1 to n - 1
        up = parents[row]
        if open_rows[-1] != up:
            while open_rows[-1] != up:  # close the groups that do not enclose this row
                before = open_rows.pop()
                end[before] = row
                counts[before] = first[row] - first[before]
                if before == error_row:
                    error_row = -1
            prev[row] = before
        elif row - 1 == up:
            prev[row] = -1
        if tokens[row] is not None:
            if error_row < 0 and kinds[row] not in _NO_SEED_LEAF_KINDS:
                seed_leaves.append(row)
            continue
        open_rows.append(row)
        if error_row < 0:
            if kinds[row] == "error":
                error_row = row
            else:
                seed_nodes.append(row)
    for row in open_rows:
        end[row] = n
        counts[row] = len(leaves) - first[row]
    return SyntaxTree(language, leaves, kinds, first, counts, end, parents, prev,
                      seed_nodes, seed_leaves)


class _Group(NamedTuple):
    """A group under construction; its children are groups and tokens. No
    group kind is a token kind, so a kind test alone tells a bracket,
    ';', ':' or trivia token from a group."""

    kind: str
    children: list[_Item]


_Item = Token | _Group


def _nesting_rows(items: list[_Item]) -> tuple[list[str], list[Token | None], list[int]]:
    """Preorder (kinds, tokens, parents) columns of the builders' nesting,
    hung under a program root that is row 0."""
    kinds: list[str] = ["program"]
    tokens: list[Token | None] = [None]
    parents = [-1]
    stack = [(iter(items), 0)]  # the unvisited children of each open group
    while stack:
        children, up = stack[-1]
        for item in children:
            kinds.append(item.kind)
            parents.append(up)
            if type(item) is _Group:
                tokens.append(None)
                stack.append((iter(item.children), len(kinds) - 1))
                break
            tokens.append(item)
        else:
            stack.pop()
    return kinds, tokens, parents


# --------------------------------------------------------------------------
# bracket grouping (shared by both block styles)

def _group_brackets(tokens: list[Token]) -> list[_Item]:
    """Nest bracket pairs; unmatched delimiters end up inside error groups."""
    groups: list[list[_Item]] = [[]]  # items of each open group, outermost first
    for tok in tokens:
        if tok.kind in BRACKET_TEXTS:
            if tok.kind in OPEN_BRACKETS:
                groups.append([tok])
                continue
            if len(groups) > 1 and tok.text == MATCHING_BRACKET[groups[-1][0].text]:
                items = groups.pop()
                items.append(tok)
                groups[-1].append(_Group(OPEN_BRACKETS[items[0].text], items))
            else:
                groups[-1].append(_Group("error", [tok]))  # stray closer
            continue
        groups[-1].append(tok)
    while len(groups) > 1:  # still open at the end of input
        items = groups.pop()
        groups[-1].append(_Group("error", items))
    return groups[0]


def _first_leaf_token(item: _Item) -> Token:
    while type(item) is _Group:
        item = item.children[0]
    return item


# --------------------------------------------------------------------------
# brace-language statement grouping

def _statement_kind(first_kw: str | None, parts: list[_Item]) -> str:
    if first_kw in CONTROL_KEYWORDS:
        return f"{first_kw}_statement"
    if first_kw in DECLARATION_KEYWORDS:
        return _KIND_ALIASES.get(first_kw, f"{first_kw}_declaration")
    if any(p.kind == "block" for p in parts):
        return "definition"
    return "statement"


def _skip_trivia(items: list[_Item], i: int) -> int:
    while i < len(items) and items[i].kind in TRIVIA_KINDS:
        i += 1
    return i


def _continues_statement(first_kw: str | None, item: _Item) -> bool:
    text = item.text if type(item) is Token else None
    return text in ("else", "catch", "finally", ";") or (text == "while" and first_kw == "do")


def _group_statements(items: list[_Item], lang: Language) -> list[_Item]:
    """Group one block interior (or the top level) into statement groups."""
    out: list[_Item] = []
    i = 0
    n = len(items)
    while i < n:
        item = items[i]
        if item.kind in TRIVIA_KINDS or item.kind == "error":
            out.append(item)
            i += 1
            continue
        first = _first_leaf_token(item)
        first_kw = first.text if first.kind == "keyword" else None
        consume_to_semi = lang.name == "c" and first_kw == "typedef"
        parts: list[_Item] = [item]
        ended = item.kind == ";"
        i += 1
        while not ended and i < n:
            nxt = items[i]
            if nxt.kind == "error":
                break
            parts.append(nxt)
            i += 1
            if nxt.kind == ";":
                break
            if nxt.kind == "block" and not consume_to_semi:
                j = _skip_trivia(items, i)
                if j < n and _continues_statement(first_kw, items[j]):
                    parts.extend(items[i:j + 1])
                    i = j + 1
                    if items[j].kind == ";":
                        break
                    continue
                break
        if len(parts) == 1 and type(parts[0]) is _Group:
            out.append(parts[0])
        else:
            out.append(_Group(_statement_kind(first_kw, parts), parts))
    return out


def _build_brace_items(tokens: list[Token], lang: Language) -> list[_Item]:
    """Bracket groups, with statements grouped at the top level and inside
    every closed block. Each block's grouping depends on no other block's,
    so the blocks are visited in any order."""
    items = _group_brackets(tokens)
    stack = [item for item in items if type(item) is _Group]
    while stack:
        group = stack.pop()
        if group.kind == "block":
            group.children[1:-1] = _group_statements(group.children[1:-1], lang)
        stack.extend(item for item in group.children if type(item) is _Group)
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
        if tok.kind in OPEN_BRACKETS:
            depth += 1
        elif tok.kind in BRACKET_TEXTS:
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


def _items_end_with_colon(items: list[_Item]) -> bool:
    for item in reversed(items):
        if item.kind not in TRIVIA_KINDS:
            return item.kind == ":"
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

    def node(self) -> _Item:
        parts = self.parts
        if self.keyword is None and len(parts) == 1 and type(parts[0]) is _Group:
            return parts[0]
        return _Group(_statement_kind(self.keyword, parts), parts)


def _build_indent_items(tokens: list[Token]) -> list[_Item]:
    """Nest python suites under the statements whose header ends in a colon,
    with an explicit stack of open suites."""
    lines = _split_logical_lines(tokens)
    suites: list[tuple[list[_Item], int]] = [([], 0)]  # items and indent of each open suite
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
            stmt.parts.append(_Group("block", items))
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
    items = _build_indent_items(tokens) if lang.indent_blocks else _build_brace_items(tokens, lang)
    return _number_rows(lang, *_nesting_rows(items))


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
    start = bisect.bisect_left(tree.leaves, line, hi=leaf_index, key=attrgetter("line"))
    width = 0
    for tok in tree.leaves[start:]:
        if tok.line != line:
            break
        if tok.kind not in WHITESPACE_KINDS:
            return tok.column_expanded
        width = tok.column_expanded + expanded_width(tok.text, tok.column_expanded)
    return width


# --------------------------------------------------------------------------
# structural rebuilds used by file truncation: renumber kept rows

def _renumbered_rows(tree: SyntaxTree, pieces: list[tuple[int, int, Token | None]]
                     ) -> tuple[list[str], list[Token | None], list[int]]:
    """Columns for `_number_rows`: each (start, stop, marker) piece keeps old
    rows start:stop, then puts a fold leaf with the marker, if any, in the
    place of row stop. An old parent outside the kept rows becomes the root."""
    kinds: list[str] = ["program"]
    tokens: list[Token | None] = [None]
    parents = [-1]
    leaves, first, is_leaf = tree.leaves, tree.first_leaf, tree.is_leaf
    new_row = [0] * (len(tree.kinds) + 1)  # the extra last slot is the root's parent, -1
    for start, stop, marker in pieces:
        new_row[start:stop] = range(len(kinds), len(kinds) + stop - start)
        kinds += tree.kinds[start:stop]
        tokens += [leaves[first[old]] if is_leaf(old) else None for old in range(start, stop)]
        parents += [new_row[up] for up in tree.parent[start:stop]]
        if marker is not None:
            kinds.append("fold")
            tokens.append(marker)
            parents.append(new_row[tree.parent[stop]])
    return kinds, tokens, parents


def tree_from_run(tree: SyntaxTree, run: tuple[int, ...]) -> SyntaxTree:
    """A standalone tree viewing a sibling run as its own program."""
    return _number_rows(tree.language,
                        *_renumbered_rows(tree, [(run[0], tree.subtree_end[run[-1]], None)]))


def tree_with_runs_folded(tree: SyntaxTree, runs: list[tuple[int, ...]]) -> SyntaxTree:
    """Renumber the tree with each sibling run, given in file order, replaced
    by one fold marker. The root has no place to fold into, so a run of the
    root alone leaves the tree whole."""
    pieces = []
    kept = 1
    for run in runs:
        if run[0] > 0:
            at = tree.leaves[tree.first_leaf[run[0]]]
            pieces.append((kept, run[0], make_marker(FOLD_TOKEN, "fold", at=at)))
            kept = tree.subtree_end[run[-1]]
    pieces.append((kept, len(tree.kinds), None))
    return _number_rows(tree.language, *_renumbered_rows(tree, pieces))
