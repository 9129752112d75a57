"""Lossless lexers: every character of the input ends up in exactly one token.

Concatenating the emitted token texts reproduces the source byte for byte,
which is the property the whole pair-generation pipeline leans on. Token kinds
are deliberately coarse; bracket and operator tokens use their own text as the
kind, mirroring anonymous grammar nodes.

Each grammar compiles to one alternation of named groups, tried in order; the
group name is the token kind. Three rules depend on context and stay in the
loop: a word is a keyword or an identifier, `#` opens a directive only when
blanks alone precede it on its line, and `/` opens a javascript regex literal
only after a token that cannot end an operand.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from .languages import Language

TAB_WIDTH = 4

WHITESPACE_KINDS = frozenset({"whitespace", "newline"})
TRIVIA_KINDS = frozenset({"whitespace", "newline", "comment"})
OPEN_BRACKETS = {"(": "paren_group", "[": "bracket_group", "{": "block"}
MATCHING_BRACKET = {"(": ")", "[": "]", "{": "}"}
BRACKET_TEXTS = frozenset("()[]{}")

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
    line: int
    column_expanded: int
    synthetic: bool = False

    @property
    def is_identifier(self) -> bool:
        return self.kind == "identifier"

    def with_text(self, text: str) -> "Token":
        return self._replace(text=text)


def make_marker(text: str, kind: str, at: Token | None = None) -> Token:
    """Synthetic zero-width marker token (cls/mask/fold), anchored at `at`."""
    if at is None:
        return Token(text, kind, 0, 0, synthetic=True)
    return Token(text, kind, at.line, at.column_expanded, synthetic=True)


def expanded_width(text: str, start: int = 0) -> int:
    """Column width of `text` with tabs advancing to the next TAB_WIDTH stop."""
    col = start
    for ch in text:
        col = (col // TAB_WIDTH + 1) * TAB_WIDTH if ch == "\t" else col + 1
    return col - start


def _quoted(quote: str, triple: bool) -> str:
    """A string body with backslash escapes; unclosed, it stops at the line
    end, or runs to the end of input when triple-quoted."""
    q = re.escape(quote)
    if triple:
        return rf"{q * 3}[^{q}\\]*(?:(?:\\.?|{q}(?!{q}{q}))[^{q}\\]*)*(?:{q * 3})?"
    return rf"{q}[^{q}\\\n\r]*(?:\\.?[^{q}\\\n\r]*)*{q}?"


@functools.cache
def _pattern(lang: Language) -> re.Pattern[str]:
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
    # tried in order; each consumes at least one character, since a
    # zero-width match would never advance the loop in `tokenize`
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
    return re.compile("|".join(f"(?P<{name}>{body})" for name, body in groups if body), re.DOTALL)


def tokenize(source: str, lang: Language) -> list[Token]:
    match = _pattern(lang).match
    keywords = lang.keywords
    tokens: list[Token] = []
    prev: Token | None = None  # last token that is not trivia
    pos = line = line_start = colx = 0
    n = len(source)
    while pos < n:
        m = match(source, pos)
        kind, end = m.lastgroup, m.end()
        text = source[pos:end]
        if kind == "word":
            kind = "keyword" if text in keywords else "identifier"
        elif kind == "preproc" and source[line_start:pos].strip(" \t"):
            kind = text = "#"  # not first on its line: a plain '#'
            end = pos + 1
        elif kind == "op" or kind == "char":
            kind = text
            if (text[0] == "/" and lang.regex_literals
                    and (prev is None or (prev.kind not in _NO_REGEX_AFTER_KINDS
                                          and prev.text not in _NO_REGEX_AFTER_TEXTS))):
                regex = _JS_REGEX.match(source, pos)
                if regex:
                    kind, end = "regex", regex.end()
                    text = source[pos:end]
        tok = Token(text, kind, line, colx)
        tokens.append(tok)
        if kind not in TRIVIA_KINDS:
            prev = tok
        if kind == "newline":
            line, line_start, colx = line + 1, end, 0
        elif "\n" in text or "\r" in text:
            line += text.count("\n") + text.count("\r") - text.count("\r\n")
            line_start = pos + max(text.rfind("\n"), text.rfind("\r")) + 1
            colx = expanded_width(source[line_start:end])
        else:
            colx += expanded_width(text, colx) if "\t" in text else len(text)
        pos = end
    return tokens
