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
from itertools import accumulate, compress
from operator import attrgetter, itemgetter

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
    leaves[first_leaf[r]:first_leaf[subtree_end[r]]]; `first_leaf` ends in
    one extra entry, len(leaves). The root's `parent` is -1. `seed_nodes`
    (group rows below the root) and `seed_leaves` (leaf rows that are not
    whitespace, newline or a bracket token) are the span seed candidates,
    in preorder, with error subtrees left out; `seed_order` ranks the seed
    nodes by leaf count. Parse numbers the rows in one pass, and truncation
    slices them out of the parsed tree's. Rows are plain ints, so a tree
    holds no reference cycle."""

    language: Language
    leaves: list[Token]
    kinds: list[str]
    first_leaf: list[int]
    subtree_end: list[int]
    parent: list[int]
    seed_nodes: list[int]
    seed_leaves: list[int]

    def walk(self) -> range:
        return range(len(self.kinds))

    def is_leaf(self, row: int) -> bool:
        return self.first_leaf[row + 1] > self.first_leaf[row]  # only a leaf row takes a leaf

    @cached_property
    def seed_order(self) -> list[int]:
        """`seed_nodes` by (leaf count, preorder), sorted on first use."""
        first, end = self.first_leaf, self.subtree_end
        return sorted(self.seed_nodes, key=lambda r: first[end[r]] - first[r])

    @property
    def source(self) -> str:
        return "".join(t.text for t in self.leaves)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)


def _number_rows(language: Language, kinds: list[str], tokens: list[Token | None],
                 parents: list[int]) -> SyntaxTree:
    """Number rows given in preorder as parallel columns, row 0 being the
    program root; a group row has no token. One pass closes the subtree ends
    and lists the span seeds; the tree keeps `kinds` and `parents` as its
    columns."""
    n = len(kinds)
    leaves = [tok for tok in tokens if tok is not None]
    first = list(accumulate([tok is not None for tok in tokens], initial=0))
    # one int object per row number, shared by every column that names rows
    ids = list(range(n + 1))
    end = ids[1:]  # a leaf closes itself
    seed_nodes: list[int] = []
    seed_leaves: list[int] = []
    open_rows = [0]  # the groups on the path from the root to the last row
    error_row = -1  # the open error row that no other error row encloses
    for row in ids[1:n]:
        up = parents[row]
        while open_rows[-1] != up:  # close the groups that do not enclose this row
            before = open_rows.pop()
            end[before] = row
            if before == error_row:
                error_row = -1
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
    return SyntaxTree(language, leaves, kinds, first, end, parents, seed_nodes, seed_leaves)


# --------------------------------------------------------------------------
# grammar builders: rows written in token order. An item starts at each
# token index: an open bracket starts a group that runs to its matching
# closer, or, left unclosed, an error group to the end of input (python: of
# its logical line); a stray closer is an error group of its own; any other
# token is an item alone.

_STOPS = {True: BRACKET_TEXTS | {"newline"}, False: BRACKET_TEXTS | {";"}}
_token_kind = itemgetter(Token._fields.index("kind"))
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
    """Preorder (kinds, tokens, parents) columns under a program root, row
    0, written over one file's items."""

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
        self.kinds, self.tokens, self.parents = ["program"], [None], [-1]

    def group(self, kind: str, up: int) -> int:
        self.kinds.append(kind)
        self.tokens.append(None)
        self.parents.append(up)
        return len(self.kinds) - 1

    def write(self, pos: int, stop: int, up: int, grouped: bool) -> None:
        """Rows for the items in pos:stop under row `up`, with statements
        grouped there when `grouped` and inside every closed block of a
        brace grammar. A row closes once the writing reaches its end."""
        cursor = self.cursor
        if not grouped and self.brackets[cursor] >= stop:  # leaves alone
            self.kinds += self.items[pos:stop]
            self.tokens += self.source[pos:stop]
            self.parents += [up] * (stop - pos)
            return
        items, ends, source, brackets = self.items, self.ends, self.source, self.brackets
        kinds, tokens, parents = self.kinds, self.tokens, self.parents
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
                end = brackets[cursor]
                if end > stop:
                    end = stop
            elif item in TRIVIA_KINDS:  # blanks and comments between statements
                end = pos + 1
                while end < stop and items[end] in TRIVIA_KINDS:
                    end += 1
            elif item in _STATEMENT_BREAKS:
                end = pos
            else:
                end, kind = self._statement(pos, stop)
                if kind is not None:
                    outer.append((up, stop, grouped))
                    kinds.append(kind)
                    tokens.append(None)
                    parents.append(up)
                    up, stop, grouped = len(kinds) - 1, end, False
                    continue
                end = pos
            if pos < end:
                if end - pos == 1:
                    kinds.append(item)
                    tokens.append(source[pos])
                    parents.append(up)
                else:
                    kinds += items[pos:end]
                    tokens += source[pos:end]
                    parents += [up] * (end - pos)
                pos = end
                if pos == stop or grouped:
                    continue
                item = items[pos]
            cursor += 1  # a bracket at pos
            tok = source[pos]
            if item in _CLOSERS:  # the last leaf of the innermost row
                kinds.append(item)
                tokens.append(tok)
                parents.append(up)
                pos += 1
                continue
            row = len(kinds)
            kinds += (item, tok.kind)
            tokens += (None, tok)
            parents += (up, row)
            outer.append((up, stop, grouped))
            up, stop, grouped = row, ends[pos], group_blocks and item == "block"
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
            if k != line - 1:  # a blank line
                rows.write(start, stop, up, False)
                continue
            if items[start] == "whitespace":  # the indent stays outside the statement
                rows.write(start, start + 1, up, False)
                start += 1
            sig = first_sig[k]
            keyword = sig.text if sig.kind == "keyword" else None
            if keyword is None and ends[start] == stop and items[start] != source[start].kind:
                rows.write(start, stop, up, False)  # one bracket group alone
                continue
            stmt = [rows.group("statement", up), keyword, indents[k], False]
            rows.write(start, stop, stmt[0], False)
        else:  # the innermost suite ends here
            if not owners:
                return
            suites.pop()
            stmt = owners.pop()
            sig = first_sig[k] if k < n_lines else None
            if (sig is None or indents[k] != stmt[2] or sig.kind != "keyword"
                    or stmt[1] not in _CLAUSE_OWNERS.get(sig.text, ())):
                rows.kinds[stmt[0]] = _statement_kind(stmt[1], stmt[3])
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
            suites.append((indents[k], rows.group("block", stmt[0])))
            continue
        rows.kinds[stmt[0]] = _statement_kind(stmt[1], stmt[3])


def _build_rows(tokens: list[Token], lang: Language) -> tuple[list[str], list[Token | None], list[int]]:
    """The (kinds, tokens, parents) columns of a file's tree, in preorder."""
    rows = _Rows(tokens, lang)
    if lang.indent_blocks:
        _indent_rows(rows)
    else:
        rows.write(0, len(tokens), 0, True)
    return rows.kinds, rows.tokens, rows.parents


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
    return _number_rows(lang, *_build_rows(tokens, lang))


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
# structural rebuilds used by file truncation: kept rows are slices of the
# tree's columns, with row and leaf numbers shifted by a constant per slice

def _seeds_in(seeds: list[int], start: int, stop: int, shift: int) -> list[int]:
    """The seed rows in start:stop, shifted."""
    return [r + shift for r in seeds[bisect.bisect_left(seeds, start):bisect.bisect_left(seeds, stop)]]


def tree_from_run(tree: SyntaxTree, run: tuple[int, ...]) -> SyntaxTree:
    """A standalone tree viewing a sibling run as its own program. The rows
    under the run are one range, so each column is a slice of the tree's
    shifted by a constant, and the seeds are bisected out of its seed lists
    (a selected run lies outside error subtrees)."""
    start, stop = run[0], tree.subtree_end[run[-1]]
    lo, hi = tree.first_leaf[start], tree.first_leaf[stop]
    shift = 1 - start  # old row r is new row r + shift
    first, ends, parent = [0], [stop + shift], [-1]
    first += [i - lo for i in tree.first_leaf[start:stop + 1]]  # stop's entry, hi, is the sentinel
    ends += [r + shift for r in tree.subtree_end[start:stop]]
    parent += [r + shift for r in tree.parent[start:stop]]
    for row in run:
        parent[row + shift] = 0
    seed_nodes = [1] if start == 0 else []  # the old root is now a group below the root
    seed_nodes += _seeds_in(tree.seed_nodes, start, stop, shift)
    return SyntaxTree(tree.language, tree.leaves[lo:hi], ["program", *tree.kinds[start:stop]],
                      first, ends, parent, seed_nodes,
                      _seeds_in(tree.seed_leaves, start, stop, shift))


def tree_with_runs_folded(tree: SyntaxTree, runs: list[tuple[int, ...]]) -> SyntaxTree:
    """The tree with each sibling run, given in file order, replaced by one
    fold leaf in the row of its first member. Kept rows are slices shifted
    by the rows and leaves that earlier folds removed, parents map through
    one old -> new row list, and only a fold's ancestors have their subtree
    ends cut. The root has no place to fold into, so a run of the root alone
    leaves the tree whole."""
    n = len(tree.kinds)
    new_row = [-1] * (n + 1)  # the extra last slot maps "no row", -1, to itself
    kinds, leaves, first, ends, parent, seed_nodes, seed_leaves = [[] for _ in range(7)]
    start = leaf = 0  # the first row and leaf of the piece kept next
    for run in [*(run for run in runs if run[0] > 0), (n,)]:
        cut, stop = run[0], min(run[0] + 1, n)
        cut_leaf = tree.first_leaf[cut]
        shift, leaf_shift = len(kinds) - start, len(leaves) - leaf
        new_row[start:stop] = range(start + shift, stop + shift)
        kinds += tree.kinds[start:stop]
        first += [i + leaf_shift for i in tree.first_leaf[start:stop]]
        leaves += tree.leaves[leaf:cut_leaf]
        ends += [r + shift for r in tree.subtree_end[start:stop]]
        parent += map(new_row.__getitem__, tree.parent[start:stop])
        seed_nodes += _seeds_in(tree.seed_nodes, start, cut, shift)
        seed_leaves += _seeds_in(tree.seed_leaves, start, cut, shift)
        if cut == n:
            break
        row = cut + shift
        kinds[row], ends[row] = "fold", row + 1
        leaves.append(make_marker(FOLD_TOKEN, "fold", at=tree.leaves[cut_leaf]))
        start = tree.subtree_end[run[-1]]
        leaf = tree.first_leaf[start]
        seed, up = True, row  # a seed leaf unless it lies in an error subtree
        while (up := parent[up]) >= 0:
            ends[up] -= start - cut - 1
            seed = seed and kinds[up] != "error"
        if seed:
            seed_leaves.append(row)
    first.append(len(leaves))
    return SyntaxTree(tree.language, leaves, kinds, first, ends, parent, seed_nodes, seed_leaves)
