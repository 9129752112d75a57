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
from functools import cached_property
from itertools import accumulate, compress, repeat
from operator import itemgetter

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
    line_start,
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
# False for the leaf kinds that never seed a span: blanks and bare brackets
# (a bracket token's kind is its text)
_SEEDING = dict.fromkeys(WHITESPACE_KINDS | BRACKET_TEXTS, False)
_token_kind = itemgetter(Token._fields.index("kind"))


@dataclass
class SyntaxTree:
    """A parsed file: its token list, and the program root and the groups
    as preorder rows in parallel lists. Row r covers the leaves
    first_leaf[r]:leaf_end[r], at least one of them (the root of an empty
    file aside), and its descendants are the rows after it that start
    before its leaf end. The root, row 0, has `parent` -1. A leaf's kind is
    its token's. The span seed candidates are derived from these columns
    the first time a span is picked: `seed_nodes` (group rows below the
    root) and `seed_leaves` (leaf indices of tokens that are no whitespace,
    newline or bracket), in file order, with error groups' leaves left out;
    `seed_order` ranks the seed nodes by leaf count. Rows are plain ints,
    so a tree holds no reference cycle. Each leaf starts at its `offsets`
    entry in `text`, which trees cut from this one share (a fold at its
    first leaf's)."""

    language: Language
    text: str
    leaves: list[Token]
    offsets: list[int]
    kinds: list[str]
    first_leaf: list[int]
    leaf_end: list[int]
    parent: list[int]

    def walk(self) -> range:
        """One id per node: the group rows, then the row count plus each leaf index."""
        return range(len(self.kinds) + len(self.leaves))

    @cached_property
    def seed_nodes(self) -> list[int]:
        """The rows below the root, each error group's subtree skipped."""
        first, end = self.first_leaf, self.leaf_end
        nodes, row = [], 1  # row: the first row neither listed nor skipped
        for error in compress(range(len(first)), map("error".__eq__, self.kinds)):
            if error >= row:  # else skipped with an enclosing error group
                nodes += range(row, error)
                row = bisect.bisect_left(first, end[error], error + 1)
        nodes += range(row, len(first))
        return nodes

    @cached_property
    def seed_leaves(self) -> list[int]:
        """The leaves of seeding kinds, each error group's leaves struck out;
        read only when no seed node fits."""
        first, end, kinds = self.first_leaf, self.leaf_end, map(_token_kind, self.leaves)
        leaves = list(compress(range(len(self.leaves)), map(_SEEDING.get, kinds, repeat(True))))
        for error in compress(range(len(first)), map("error".__eq__, self.kinds)):
            del leaves[bisect.bisect_left(leaves, first[error]):bisect.bisect_left(leaves, end[error])]
        return leaves

    @cached_property
    def seed_order(self) -> list[int]:
        """`seed_nodes` by (leaf count, preorder), sorted on first use."""
        first, end = self.first_leaf, self.leaf_end
        return sorted(self.seed_nodes, key=lambda r: end[r] - first[r])

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)


# --------------------------------------------------------------------------
# grammar builders: rows written in token order. An item starts at each
# token index: an open bracket starts a group that runs to its matching
# closer, or, left unclosed, an error group to the end of input (python: of
# its logical line); a stray closer is an error group of its own; any other
# token is an item alone.

_STOPS = {True: BRACKET_TEXTS | {"newline"}, False: BRACKET_TEXTS | {";"}}
_CLOSERS = frozenset(MATCHING_BRACKET.values())
# items a statement stops before: an error group, or the closer of its block
_STATEMENT_BREAKS = _CLOSERS | {"error"}


def _statement_kind(first_kw: str | None, has_block: bool) -> str:
    if first_kw in CONTROL_KEYWORDS:
        return f"{first_kw}_statement"
    if first_kw in DECLARATION_KEYWORDS:
        return _KIND_ALIASES.get(first_kw, f"{first_kw}_declaration")
    return "definition" if has_block else "statement"


class _Rows:
    """Preorder (kinds, first leaf, leaf end, parent) columns of the groups
    under a program root, row 0, written over one file's items."""

    def __init__(self, tokens: list[Token], lang: Language):
        """Match the brackets. Python's newlines outside brackets end its
        logical lines, unless a backslash continues them, and reset the
        stack of open brackets."""
        self.source, self.lang = tokens, lang
        self.items = items = list(map(_token_kind, tokens))  # kinds, until matched
        n = len(items)
        # the brackets, with python's newlines or brace grammars' semicolons
        stops = list(compress(range(n), map(_STOPS[lang.indent_blocks].__contains__, items)))
        brackets = [i for i in stops if items[i] in BRACKET_TEXTS]
        self.brackets, self.stops = brackets + [n], stops + [n]
        self.ends = ends = list(range(1, n + 1))  # one past the item that starts at each index
        self.line_ends: list[int] = []
        opened: list[int] = []
        depth = 0  # as opened, but a closer of either shape takes one off
        for i in stops if lang.indent_blocks else brackets:
            kind = items[i]
            if kind in OPEN_BRACKETS:
                opened.append(i)
                depth += 1
            elif kind == "newline":
                if depth or (i and items[i - 1] == "\\"):
                    continue
                for start in opened:
                    items[start], ends[start] = "error", i + 1
                opened.clear()
                self.line_ends.append(i + 1)
            else:
                depth = max(0, depth - 1)
                if opened and MATCHING_BRACKET[items[opened[-1]]] == kind:
                    start = opened.pop()
                    items[start], ends[start] = OPEN_BRACKETS[items[start]], i + 1
                else:
                    items[i] = "error"
        for start in opened:
            items[start], ends[start] = "error", n
        self.cursor = 0  # rows are written in token order: the first bracket not yet written
        self.kinds, self.first, self.end, self.parents = ["program"], [0], [n], [-1]

    def group(self, kind: str, start: int, end: int, up: int) -> int:
        self.kinds.append(kind)
        self.first.append(start)
        self.end.append(end)
        self.parents.append(up)
        return len(self.kinds) - 1

    def write(self, pos: int, stop: int, up: int, grouped: bool) -> None:
        """Rows for the groups in pos:stop under row `up`, with statements
        grouped there when `grouped` and inside every closed block of a
        brace grammar; the tokens between them are `up`'s own leaves."""
        cursor = self.cursor
        if not grouped and self.brackets[cursor] >= stop:  # leaves alone
            return
        items, ends, brackets = self.items, self.ends, self.brackets
        group_blocks = not self.lang.indent_blocks
        outer: list[tuple[int, int, bool]] = []  # (row, end, grouped) of the rows that enclose `up`
        while True:
            while pos == stop:
                if not outer:
                    self.cursor = cursor
                    return
                up, stop, grouped = outer.pop()
            item = items[pos]
            if not grouped:  # leaves up to the next bracket
                pos = brackets[cursor]
                if pos >= stop:
                    pos = stop
                    continue
                item = items[pos]
            elif item in TRIVIA_KINDS:  # blanks and comments between statements
                pos += 1
                continue
            elif item not in _STATEMENT_BREAKS:
                end, kind = self._statement(pos, stop)
                if kind is not None:
                    outer.append((up, stop, grouped))
                    up, stop, grouped = self.group(kind, pos, end, up), end, False
                    continue
            cursor += 1  # a bracket at pos
            if item in _CLOSERS:  # the last leaf of the innermost row
                pos += 1
                continue
            outer.append((up, stop, grouped))
            up, stop = self.group(item, pos, ends[pos], up), ends[pos]
            grouped = group_blocks and item == "block"
            pos += 1

    def _statement(self, pos: int, stop: int) -> tuple[int, str | None]:
        """The end and kind of the brace statement that starts at pos; the
        kind is None when the statement is one bracket group alone. The scan
        jumps from one semicolon or bracket group to the next."""
        items, ends, source, stops = self.items, self.ends, self.source, self.stops
        first = source[pos]
        first_kw = first.text if first.kind == "keyword" else None
        to_semi = first_kw == "typedef" and self.lang.name == "c"
        has_block = items[pos] == "block"
        end = ends[pos]
        while items[pos] != ";":  # a ';' alone is a statement
            at = stops[bisect.bisect_left(stops, end)]
            if at >= stop:
                end = stop
                break
            item = items[at]
            if item in _STATEMENT_BREAKS:
                end = at
                break
            end = ends[at]
            if item == ";":
                break
            if item == "block":
                has_block = True
                if to_semi:
                    continue
                while end < stop and items[end] in TRIVIA_KINDS:
                    end += 1
                text = source[end].text if end < stop else None
                if text in ("else", "catch", "finally", ";") or (text == "while" and first_kw == "do"):
                    end += 1
                    if text != ";":
                        continue
                else:
                    end = ends[at]
                break
        alone = end == ends[pos] and items[pos] != first.kind
        return end, None if alone else _statement_kind(first_kw, has_block)


_CLAUSE_OWNERS = {"else": {"if", "for", "while", "try"}, "elif": {"if"}, "except": {"try"},
                  "finally": {"try"}}


def _indent_rows(rows: _Rows) -> None:
    """Nest python suites under the statements whose header ends in a
    colon, with explicit stacks of open suites and their owners."""
    items, ends, source = rows.items, rows.ends, rows.source
    bounds = [0, *rows.line_ends]
    if bounds[-1] < len(items):
        bounds.append(len(items))
    n_lines = len(bounds) - 1
    first_sig: list[Token | None] = []  # each line's first token that is no trivia
    indents = []
    for start, stop in zip(bounds, bounds[1:]):
        pos = start
        while pos < stop and items[pos] in TRIVIA_KINDS:
            pos += 1
        first_sig.append(source[pos] if pos < stop else None)
        indents.append(expanded_width(source[start].text) if items[start] == "whitespace" else 0)
    real = [n_lines] * (n_lines + 1)  # the first line at or after each that is not blank
    for k in reversed(range(n_lines)):
        real[k] = k if first_sig[k] is not None else real[k + 1]

    suites = [(0, 0)]  # (indent, block row) of each open suite; the outermost is the root
    owners: list[list] = []  # [row, keyword, indent, has block] of each suite's statement
    line = 0
    while True:
        level, up = suites[-1]
        k = real[line]
        if line < n_lines and (k == n_lines or indents[k] >= level):
            start, stop = bounds[line], bounds[line + 1]
            line += 1
            if k != line - 1:  # a blank line: no brackets, so no rows
                continue
            if items[start] == "whitespace":  # the indent stays outside the statement
                start += 1
            sig = first_sig[k]
            keyword = sig.text if sig.kind == "keyword" else None
            if keyword is None and ends[start] == stop and items[start] != source[start].kind:
                rows.write(start, stop, up, False)  # one bracket group alone
                continue
            stmt = [rows.group("statement", start, stop, up), keyword, indents[k], False]
            rows.write(start, stop, stmt[0], False)
        else:  # the innermost suite ends here
            if not owners:
                return
            rows.end[suites.pop()[1]] = bounds[line]
            stmt = owners.pop()
            sig = first_sig[k] if k < n_lines else None
            if (sig is None or indents[k] != stmt[2] or sig.kind != "keyword"
                    or stmt[1] not in _CLAUSE_OWNERS.get(sig.text, ())):
                rows.kinds[stmt[0]] = _statement_kind(stmt[1], stmt[3])
                rows.end[stmt[0]] = bounds[line]
                continue
            rows.write(bounds[line], bounds[k + 1], stmt[0], False)  # blank lines, then the clause
            line = k + 1
        pos, last = bounds[line - 1], None  # the last line's last top-level item, trivia aside
        while pos < bounds[line]:
            if items[pos] not in TRIVIA_KINDS:
                last = items[pos]
                stmt[3] = stmt[3] or last == "block"
            pos = ends[pos]
        k = real[line]
        if last == ":" and k < n_lines and indents[k] > stmt[2]:
            stmt[3] = True
            owners.append(stmt)
            suites.append((indents[k], rows.group("block", bounds[line], bounds[line], stmt[0])))
            continue
        rows.kinds[stmt[0]] = _statement_kind(stmt[1], stmt[3])
        rows.end[stmt[0]] = bounds[line]


def _build_rows(tokens: list[Token], lang: Language
                ) -> tuple[list[str], list[int], list[int], list[int]]:
    """The (kinds, first leaf, leaf end, parent) columns of a file's group
    rows, in preorder."""
    rows = _Rows(tokens, lang)
    if lang.indent_blocks:
        _indent_rows(rows)
    else:
        rows.write(0, len(tokens), 0, True)
    return rows.kinds, rows.first, rows.end, rows.parents


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
    offsets = list(accumulate(map(len, map(itemgetter(0), tokens)), initial=0))[:-1]  # 0: the text
    return SyntaxTree(lang, source, tokens, offsets, *_build_rows(tokens, lang))


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
    text, offsets, width = tree.text, tree.offsets, 0
    start = line_start(text, offsets[leaf_index])
    for i in range(bisect.bisect_left(offsets, start, hi=leaf_index), len(offsets)):
        if line_start(text, offsets[i]) != start:
            break
        column, tok = expanded_width(text[start:offsets[i]]), tree.leaves[i]
        if tok.kind not in WHITESPACE_KINDS:
            return column
        width = column + expanded_width(tok.text, column)
    return width


# --------------------------------------------------------------------------
# structural rebuilds used by file truncation: a sibling run is (parent row,
# first leaf, leaf end), and the rows under it are the rows after the parent
# that start in its leaf range. Kept rows are slices of the tree's columns,
# with row and leaf numbers shifted by a constant per slice

def tree_from_run(tree: SyntaxTree, run: tuple[int, int, int]) -> SyntaxTree:
    """A standalone tree viewing a sibling run as its own program. The rows
    under the run are one range, so each column is a slice of the tree's
    shifted by a constant."""
    up, lo, hi = run
    first = tree.first_leaf
    start = bisect.bisect_left(first, lo, up + 1)
    stop = bisect.bisect_left(first, hi, start)
    shift = 1 - start  # old row r is new row r + shift; the run's members hang from the root
    return SyntaxTree(tree.language, tree.text, tree.leaves[lo:hi], tree.offsets[lo:hi],
                      ["program", *tree.kinds[start:stop]],
                      [0, *(i - lo for i in first[start:stop])],
                      [hi - lo, *(i - lo for i in tree.leaf_end[start:stop])],
                      [-1, *(max(0, r + shift) for r in tree.parent[start:stop])])


def tree_with_runs_folded(tree: SyntaxTree, runs: list[tuple[int, int, int]]) -> SyntaxTree:
    """The tree with each sibling run, given in file order, replaced by one
    fold leaf. Kept rows and leaves are slices shifted by the rows and
    leaves that earlier folds removed, parents map through one old -> new
    row list, and only a fold's ancestors have their leaf ends cut. The root
    has no place to fold into, so a run of the root alone leaves the tree
    whole."""
    first = tree.first_leaf
    new_row = [-1] * (len(first) + 1)  # the extra last slot maps "no row", -1, to itself
    kinds, leaves, offsets, firsts, ends, parent = [[] for _ in range(6)]
    start = leaf = 0  # the first row and leaf of the piece kept next
    tail = (0, len(tree.leaves), -1)  # no fold: the rows and leaves to the end
    for up, lo, hi in [*(run for run in runs if run[0] >= 0), tail]:
        cut = bisect.bisect_left(first, lo, up + 1)
        shift, leaf_shift = len(kinds) - start, len(leaves) - leaf
        new_row[start:cut] = range(start + shift, cut + shift)
        kinds += tree.kinds[start:cut]
        firsts += [i + leaf_shift for i in first[start:cut]]
        ends += [i + leaf_shift for i in tree.leaf_end[start:cut]]
        parent += map(new_row.__getitem__, tree.parent[start:cut])
        leaves += tree.leaves[leaf:lo]
        offsets += tree.offsets[leaf:lo]
        if hi < 0:
            break
        row = new_row[up]
        while row >= 0:
            ends[row] -= hi - lo - 1
            row = parent[row]
        leaves.append(Token(FOLD_TOKEN, "fold"))
        offsets.append(tree.offsets[lo])
        start, leaf = bisect.bisect_left(first, hi, cut), hi
    return SyntaxTree(tree.language, tree.text, leaves, offsets, kinds, firsts, ends, parent)
