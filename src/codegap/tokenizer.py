"""Lossless lexers: every character of the input ends up in exactly one token.

Concatenating the emitted token texts reproduces the source byte for byte,
which is the property the whole pair-generation pipeline leans on. Token kinds
are deliberately coarse; bracket and operator tokens use their own text as the
kind, mirroring anonymous grammar nodes.

Each grammar compiles to one alternation of named groups, tried in order; the
group name is the token kind. Its group-free twin cuts a file into texts, and
each distinct text gets its kind and its one token once per call. Two rules
depend on context: `#` opens a directive only when blanks alone precede it on
its line, and `/` opens a javascript regex literal only after a token that
cannot end an operand.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_left
from itertools import accumulate, compress
from operator import itemgetter
from typing import Callable, NamedTuple

from .languages import Language

TAB_WIDTH = 4

WHITESPACE_KINDS = frozenset({"whitespace", "newline"})
TRIVIA_KINDS = frozenset({"whitespace", "newline", "comment"})
OPEN_BRACKETS = {"(": "paren_group", "[": "bracket_group", "{": "block"}
MATCHING_BRACKET = {"(": ")", "[": "]", "{": "}"}
BRACKET_TEXTS = frozenset("()[]{}")
# the kinds of the markers that pair generation inserts; no lexed token has one
MARKER_KINDS = frozenset({"cls", "mask", "fold"})

# tokens after which a '/' in javascript is a division, not a regex start
_NO_REGEX_AFTER_KINDS = frozenset({"identifier", "number", "string", "regex", "template_string"})
_NO_REGEX_AFTER_TEXTS = frozenset({")", "]", "}", "++", "--", "this", "super", "true", "false", "null"})

# body, optional character class runs, closing slash, then flags; an escape
# may swallow a line break, an unescaped one means this '/' is not a regex
_JS_REGEX = re.compile(r"/(?:[^\\/\[\n\r]|\\.|\[(?:[^\]\\\n\r]|\\.)*\])+/[A-Za-z_]*", re.DOTALL)
# '#' to the line end; a line whose last non-blank character is a backslash
# continues the directive
_DIRECTIVE = r"#[^\n\r\\]*(?:\\(?:[ \t]*(?:\r\n?|\n))?[^\n\r\\]*)*"


class Token(NamedTuple):
    text: str
    kind: str


def expanded_width(text: str, start: int = 0) -> int:
    """Column width of `text` with tabs advancing to the next TAB_WIDTH stop."""
    col = start
    for ch in text:
        col = (col // TAB_WIDTH + 1) * TAB_WIDTH if ch == "\t" else col + 1
    return col - start


def line_start(text: str, pos: int) -> int:
    """Where the line that holds `pos` starts: past the last line break before it."""
    newline = text.rfind("\n", 0, pos)
    return max(newline, text.rfind("\r", newline + 1, pos)) + 1


def _quoted(quote: str, triple: bool) -> str:
    """A string body with backslash escapes; unclosed, it stops at the line
    end, or runs to the end of input when triple-quoted."""
    q = re.escape(quote)
    if triple:
        return rf"{q * 3}[^{q}\\]*(?:(?:\\.?|{q}(?!{q}{q}))[^{q}\\]*)*(?:{q * 3})?"
    return rf"{q}[^{q}\\\n\r]*(?:\\.?[^{q}\\\n\r]*)*{q}?"


@functools.cache
def _lexer(lang: Language) -> tuple[Callable[[str], str], re.Pattern[str]]:
    """A token text's kind, named by the group of the grammar's alternation
    that matches it, and the group-free twin whose `findall` lists the texts."""
    word_chars = "A-Za-z_$" if lang.dollar_identifiers else "A-Za-z_"
    comments = []
    if lang.block_comment:  # closed at the first closer, else at the end of input
        opener, closer = map(re.escape, lang.block_comment)
        comments.append(f"{opener}.*?{closer}|{opener}.*")
    if lang.line_comment:
        comments.append(re.escape(lang.line_comment) + r"[^\n\r]*")
    triples = [_quoted(q, True) for q in "'\""] if lang.triple_quotes else []
    quotes = "|".join(triples + [_quoted(q, False) for q in "'\""])
    prefixes = "|".join(sorted(lang.string_prefixes, key=len, reverse=True))
    # tried in order; each consumes at least one character, so the texts of
    # one scan tile the input
    groups = [
        ("newline", r"\r\n?|\n"),
        ("whitespace", r"[ \t\f\v]+"),
        ("comment", "|".join(comments)),
        ("preproc", _DIRECTIVE if lang.preprocessor else ""),
        ("string", (f"(?:{prefixes})?" if prefixes else "") + f"(?:{quotes})"),
        ("template_string", r"`[^`\\]*(?:\\.?[^`\\]*)*`?" if lang.template_strings else ""),
        ("number", r"(?:[0-9]|\.[0-9])[0-9A-Za-z_.]*(?:(?<=[eEpP])[+-][0-9A-Za-z_.]*)*"),
        ("word", f"[{word_chars}][0-9{word_chars}]*"),
        ("op", "|".join(map(re.escape, lang.operators))),
        ("char", "."),
    ]
    groups = [(name, body) for name, body in groups if body]
    match = re.compile("|".join(f"(?P<{name}>{body})" for name, body in groups), re.DOTALL).match

    def kind(text: str) -> str:
        group = match(text).lastgroup
        if group == "word":
            return "keyword" if text in lang.keywords else "identifier"
        return text if group in ("op", "char") else group
    return kind, re.compile("|".join(f"(?:{body})" for _, body in groups), re.DOTALL)


def _scan(source: str, pos: int, lang: Language, one: bool = False) -> list[str]:
    """The token texts from `pos` on, or only the first: every scan runs the pattern here."""
    bare = _lexer(lang)[1]
    return [bare.match(source, pos).group()] if one else bare.findall(source, pos)


def _regex_may_start(tokens: list[Token]) -> bool:
    """Whether a javascript '/' after these tokens opens a regex literal."""
    for tok in reversed(tokens):
        if tok.kind not in TRIVIA_KINDS:
            return tok.kind not in _NO_REGEX_AFTER_KINDS and tok.text not in _NO_REGEX_AFTER_TEXTS
    return True


def tokenize(source: str, lang: Language) -> list[Token]:
    """One `findall` over the file, mapped through a table made for the call: text -> token, and
    (text, kind) -> token for what a rule makes. After a rule moves a token's end, the lexer goes
    one token at a time until a token ends where one of the `findall` texts does."""
    kind, new = _lexer(lang)[0], tuple.__new__  # skips the namedtuple's Python-level __new__
    texts = _scan(source, 0, lang)
    table = {text: new(Token, (text, kind(text))) for text in dict.fromkeys(texts)}
    tokens = list(map(table.__getitem__, texts))
    rules = {"preproc"} if lang.preprocessor else set()
    rules |= {"/", "/="} if lang.regex_literals else set()
    if not rules:
        return tokens
    starts = list(accumulate(map(len, texts), initial=0))
    out, kept = [], 0  # the tokens settled so far, and the first of the scan's not yet among them
    for at in compress(range(len(tokens)), map(rules.__contains__, map(itemgetter(1), tokens))):
        if at < kept:
            continue  # lexed one token at a time after a rule
        out += tokens[kept:at]
        pos, tok = starts[at], tokens[at]
        while True:
            if tok.kind == "preproc" and source[line_start(source, pos):pos].strip(" \t"):
                tok = table.setdefault(("#", "#"), Token("#", "#"))  # not first on its line
            elif tok.kind in ("/", "/=") and lang.regex_literals and _regex_may_start(out):
                regex = _JS_REGEX.match(source, pos)
                if regex:
                    tok = table.setdefault((regex.group(), "regex"), Token(regex.group(), "regex"))
            out.append(tok)
            pos += len(tok.text)
            kept = bisect_left(starts, pos, at + 1)
            if starts[kept] == pos:
                break
            text = _scan(source, pos, lang, one=True)[0]
            tok = table.get(text) or table.setdefault(text, Token(text, kind(text)))
    out += tokens[kept:]
    return out
