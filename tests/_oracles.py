"""Independent brute-force oracles the implementation is checked against.

Everything here is deliberately written from the metric definitions with
plain loops, not shared with package code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from codegap.languages import Language
from codegap.tokenizer import Token
from codegap.tree import Node, SyntaxTree, _build_tree


# --------------------------------------------------------------------------
# ranking metric oracles over explicit id lists (best first)

def oracle_precision_at_k(ranking: list[str], relevant: set[str], k: int) -> float:
    denom = min(k, len(ranking))
    if denom == 0:
        return 0.0
    hits = 0
    for tid in ranking[:k]:
        if tid in relevant:
            hits += 1
    return hits / denom


def oracle_average_precision(ranking: list[str], relevant: set[str]) -> float:
    hits = 0
    total = 0.0
    found = 0
    for pos, tid in enumerate(ranking, start=1):
        if tid in relevant:
            hits += 1
            total += hits / pos
            found += 1
    return total / found


def oracle_ndcg(ranking: list[str], relevant: set[str]) -> float:
    dcg = 0.0
    found = 0
    for pos, tid in enumerate(ranking, start=1):
        if tid in relevant:
            dcg += 1.0 / math.log2(pos + 1)
            found += 1
    ideal = sum(1.0 / math.log2(pos + 1) for pos in range(1, found + 1))
    return dcg / ideal


def oracle_reciprocal_rank(ranking: list[str], relevant: set[str]) -> float:
    for pos, tid in enumerate(ranking, start=1):
        if tid in relevant:
            return 1.0 / pos
    raise AssertionError("no relevant item in ranking")


def exhaustive_metric_comparison() -> float:
    """Worst absolute deviation from the oracles over every ranking of pools
    with up to six candidates and up to three relevant ones."""
    from codegap.retrieval import Judgments, RankedList, evaluate_rankings

    worst = 0.0
    for n in range(1, 7):
        ids = [chr(ord("a") + i) for i in range(n)]
        relevant_sets = [
            set(combo)
            for r in range(1, min(3, n) + 1)
            for combo in itertools.combinations(ids, r)
        ]
        for perm in itertools.permutations(ids):
            ranking = list(perm)
            scored = tuple((tid, float(n - i)) for i, tid in enumerate(ranking))
            rl = RankedList(query_id="q", ranking=scored)
            for relevant in relevant_sets:
                row = evaluate_rankings([rl], Judgments(relevant={"q": relevant})).per_query[0]
                for k in (1, 3, 10):
                    worst = max(worst, abs(row["p_at"][str(k)]
                                           - oracle_precision_at_k(ranking, relevant, k)))
                worst = max(worst, abs(row["ap"]
                                       - oracle_average_precision(ranking, relevant)))
                worst = max(worst, abs(row["ndcg"]
                                       - oracle_ndcg(ranking, relevant)))
                worst = max(worst, abs(row["rr"]
                                       - oracle_reciprocal_rank(ranking, relevant)))
    return worst


# --------------------------------------------------------------------------
# contrastive batch loss and its gradient, one text and one bucket at a time

def oracle_batch_loss_and_grads(params, ctx_counts: list[dict[int, int]],
                                tgt_counts: list[dict[int, int]], tau: float,
                                include_positive: bool = True) -> tuple[float, dict]:
    """Mean in-batch contrastive loss and its gradient as bucket -> d-vector:
    each text embedded from its own count dict, each pair's loss on its own,
    and every count entry scattered into the gradient one by one."""
    import numpy as np

    def embed(counts_list):
        unit, norms = [], []
        for counts in counts_list:
            raw = sum(mult * params[bucket] for bucket, mult in counts.items())
            norm = float(np.linalg.norm(raw))
            unit.append(raw / norm)
            norms.append(norm)
        return unit, norms

    k = len(ctx_counts)
    eq, norm_q = embed(ctx_counts)
    ek, norm_k = embed(tgt_counts)
    d_eq = [np.zeros_like(e) for e in eq]
    d_ek = [np.zeros_like(e) for e in ek]
    loss = 0.0
    for i in range(k):
        logits = [float(eq[i] @ ek[j]) / tau for j in range(k)]
        pool = [j for j in range(k) if include_positive or j != i]
        top = max(logits[j] for j in pool)
        lse = top + math.log(sum(math.exp(logits[j] - top) for j in pool))
        loss += (lse - logits[i]) / k
        for j in range(k):
            dz = (math.exp(logits[j] - lse) if j in pool else 0.0) - (1.0 if j == i else 0.0)
            d_eq[i] = d_eq[i] + dz / (k * tau) * ek[j]
            d_ek[j] = d_ek[j] + dz / (k * tau) * eq[i]
    grads: dict[int, np.ndarray] = {}
    for units, d_units, norms, counts_list in ((eq, d_eq, norm_q, ctx_counts),
                                                (ek, d_ek, norm_k, tgt_counts)):
        for e, d_e, norm, counts in zip(units, d_units, norms, counts_list):
            d_raw = (d_e - float(d_e @ e) * e) / norm  # through the L2 normalization
            for bucket, mult in counts.items():
                grads[bucket] = grads.get(bucket, 0.0) + mult * d_raw
    return loss, grads


# --------------------------------------------------------------------------
# delimiter balance over token streams

_PAIRS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = {v: k for k, v in _PAIRS.items()}


def tokens_balanced(tokens: list[Token]) -> bool:
    """Bracket tokens (outside strings/comments) must nest and close."""
    stack: list[str] = []
    for tok in tokens:
        if tok.synthetic or tok.kind != tok.text:
            continue
        if tok.text in _PAIRS:
            stack.append(tok.text)
        elif tok.text in _CLOSERS:
            if not stack or stack[-1] != _CLOSERS[tok.text]:
                return False
            stack.pop()
    return not stack


# --------------------------------------------------------------------------
# hand-built trees for span-expansion tests

def make_leaf_tokens(n: int, text: str = "t") -> list[Token]:
    return [
        Token(text=f"{text}{i} ", kind="identifier", line=0, column_expanded=i * 4)
        for i in range(n)
    ]


def make_tree(spec, language: Language) -> SyntaxTree:
    """Build a tree from ("kind", [children]) / int (leaf count) nesting."""
    counter = itertools.count()

    def nodes(node_spec) -> list[Node]:
        if isinstance(node_spec, int):
            leaves = []
            for _ in range(node_spec):
                i = next(counter)
                leaves.append(Node("identifier", token=Token(
                    text=f"x{i} ", kind="identifier", line=0, column_expanded=i * 4)))
            return leaves
        kind, children = node_spec
        return [Node(kind, [node for child in children for node in nodes(child)])]

    top = nodes(spec)
    return _build_tree(top if isinstance(spec, int) else top[0].children, language)


# --------------------------------------------------------------------------
# reference span seeds: the per-tree walk span selection made on every attempt
# before the numbering pass listed the seeds

BRACKET_TEXTS = frozenset("()[]{}")
WHITESPACE_KINDS = frozenset({"whitespace", "newline"})


def _is_delimiter_leaf(node: Node) -> bool:
    return node.is_leaf and node.token.text in BRACKET_TEXTS and node.kind == node.token.text


def oracle_eligible_nodes(tree: SyntaxTree) -> tuple[list[Node], list[Node]]:
    """Preorder (internal, leaf) seed candidates, error subtrees excluded."""
    internal: list[Node] = []
    leaves: list[Node] = []
    stack = list(reversed(tree.root.children))
    while stack:
        node = stack.pop()
        if node.kind == "error":
            continue
        if node.is_leaf:
            if not _is_delimiter_leaf(node) and node.token.kind not in WHITESPACE_KINDS:
                leaves.append(node)
        else:
            internal.append(node)
            stack.extend(reversed(node.children))
    return internal, leaves


# --------------------------------------------------------------------------
# reference lexer: a per-character scanner that shares no code with the
# compiled patterns of codegap.tokenizer; its records also carry UTF-8 byte
# offsets

TAB_WIDTH = 4
TRIVIA_KINDS = frozenset({"whitespace", "newline", "comment"})
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_DIGITS = frozenset("0123456789")
_WS_CHARS = frozenset(" \t\f\v")
_NO_REGEX_AFTER_KINDS = frozenset({"identifier", "number", "string", "regex", "template_string"})
_NO_REGEX_AFTER_TEXTS = frozenset({")", "]", "}", "++", "--", "this", "super", "true", "false", "null"})


@dataclass(frozen=True, slots=True)
class OracleToken:
    text: str
    byte_start: int
    byte_end: int
    kind: str
    is_identifier: bool
    line: int
    column: int
    column_expanded: int


def expanded_width(text: str, start: int = 0) -> int:
    col = start
    for ch in text:
        col = (col // TAB_WIDTH + 1) * TAB_WIDTH if ch == "\t" else col + 1
    return col - start


def oracle_tokenize(source: str, lang: Language) -> list[OracleToken]:
    return _Scanner(source, lang).run()


class _Scanner:
    def __init__(self, source: str, lang: Language):
        self.src = source
        self.n = len(source)
        self.lang = lang
        self.i = 0
        self.line = 0
        self.col = 0
        self.colx = 0
        self.byte = 0
        self.tokens: list[OracleToken] = []
        self.prev_significant: OracleToken | None = None

    def emit(self, end: int, kind: str, is_identifier: bool = False) -> None:
        text = self.src[self.i:end]
        nbytes = len(text.encode("utf-8"))
        tok = OracleToken(text, self.byte, self.byte + nbytes, kind, is_identifier,
                    self.line, self.col, self.colx)
        self.tokens.append(tok)
        if kind not in TRIVIA_KINDS:
            self.prev_significant = tok
        # advance source position counters
        if "\n" not in text and "\r" not in text:
            self.col += len(text)
            self.colx += expanded_width(text, self.colx) if "\t" in text else len(text)
        else:
            for ch in text:
                if ch == "\n" or ch == "\r":
                    self.line += 1
                    self.col = 0
                    self.colx = 0
                elif ch == "\t":
                    self.col += 1
                    self.colx = (self.colx // TAB_WIDTH + 1) * TAB_WIDTH
                else:
                    self.col += 1
                    self.colx += 1
            # \r\n counts as a single line break
            text_pairs = text.count("\r\n")
            self.line -= text_pairs
        self.byte += nbytes
        self.i = end

    # --- branch scanners; each returns the token end index ---------------

    def scan_string(self, start: int, quote: str, triple: bool) -> int:
        closer = quote * 3 if triple else quote
        j = start + len(closer)
        while j < self.n:
            ch = self.src[j]
            if ch == "\\":
                j += 2
                continue
            if self.src.startswith(closer, j):
                return j + len(closer)
            if not triple and ch in "\n\r":
                return j  # unterminated single-line string: stop at newline
            j += 1
        return self.n

    def scan_template(self, start: int) -> int:
        j = start + 1
        while j < self.n:
            ch = self.src[j]
            if ch == "\\":
                j += 2
                continue
            if ch == "`":
                return j + 1
            j += 1
        return self.n

    def scan_line_comment(self, start: int) -> int:
        j = start
        while j < self.n and self.src[j] not in "\n\r":
            j += 1
        return j

    def scan_block_comment(self, start: int) -> int:
        close = self.lang.block_comment[1]
        end = self.src.find(close, start + len(self.lang.block_comment[0]))
        return self.n if end < 0 else end + len(close)

    def scan_preproc(self, start: int) -> int:
        # '#...' to end of line, honouring backslash-newline continuations
        j = start
        while j < self.n:
            if self.src[j] in "\n\r":
                k = j - 1
                while k >= start and self.src[k] in " \t":
                    k -= 1
                if k >= start and self.src[k] == "\\":
                    j += 2 if self.src.startswith("\r\n", j) else 1
                    continue
                return j
            j += 1
        return self.n

    def scan_number(self, start: int) -> int:
        j = start + 1
        while j < self.n:
            ch = self.src[j]
            if ch in "+-" and self.src[j - 1] in "eEpP" and j - 1 > start:
                j += 1
            elif ch == "." or ch == "_" or ch in _DIGITS or (ch.isalpha() and ch.isascii()):
                j += 1
            else:
                break
        return j

    def scan_identifier(self, start: int) -> int:
        j = start + 1
        allow_dollar = self.lang.dollar_identifiers
        while j < self.n:
            ch = self.src[j]
            if ch in _IDENT_START or ch in _DIGITS or (allow_dollar and ch == "$"):
                j += 1
            else:
                break
        return j

    def try_scan_regex(self, start: int) -> int | None:
        prev = self.prev_significant
        if prev is not None:
            if prev.kind in _NO_REGEX_AFTER_KINDS or prev.text in _NO_REGEX_AFTER_TEXTS:
                return None
        j = start + 1
        in_class = False
        saw_body = False
        while j < self.n:
            ch = self.src[j]
            if ch == "\\":
                j += 2
                saw_body = True
                continue
            if ch in "\n\r":
                return None
            if in_class:
                if ch == "]":
                    in_class = False
            elif ch == "[":
                in_class = True
            elif ch == "/":
                if not saw_body:
                    return None
                j += 1
                while j < self.n and (self.src[j] in _IDENT_START):
                    j += 1
                return j
            saw_body = True
            j += 1
        return None

    # --- main loop -------------------------------------------------------

    def run(self) -> list[OracleToken]:
        src, n, lang = self.src, self.n, self.lang
        dollar = lang.dollar_identifiers
        while self.i < n:
            i = self.i
            ch = src[i]
            if ch == "\r":
                self.emit(i + 2 if src.startswith("\r\n", i) else i + 1, "newline")
                continue
            if ch == "\n":
                self.emit(i + 1, "newline")
                continue
            if ch in _WS_CHARS:
                j = i + 1
                while j < n and src[j] in _WS_CHARS:
                    j += 1
                self.emit(j, "whitespace")
                continue
            if lang.block_comment and src.startswith(lang.block_comment[0], i):
                self.emit(self.scan_block_comment(i), "comment")
                continue
            if lang.line_comment and src.startswith(lang.line_comment, i):
                self.emit(self.scan_line_comment(i), "comment")
                continue
            if lang.preprocessor and ch == "#" and src[i - self.col:i].strip(" \t") == "":
                # a directive only when nothing but blanks precede it on the line
                self.emit(self.scan_preproc(i), "preproc")
                continue
            if ch in ("'", '"'):
                triple = lang.triple_quotes and src.startswith(ch * 3, i)
                self.emit(self.scan_string(i, ch, triple), "string")
                continue
            if ch == "`" and lang.template_strings:
                self.emit(self.scan_template(i), "template_string")
                continue
            if ch in _DIGITS or (ch == "." and i + 1 < n and src[i + 1] in _DIGITS):
                self.emit(self.scan_number(i), "number")
                continue
            if ch in _IDENT_START or (dollar and ch == "$"):
                j = self.scan_identifier(i)
                word = src[i:j]
                if (lang.string_prefixes and word in lang.string_prefixes
                        and j < n and src[j] in ("'", '"')):
                    quote = src[j]
                    triple = lang.triple_quotes and src.startswith(quote * 3, j)
                    self.emit(self.scan_string(j, quote, triple) , "string")
                    continue
                if word in lang.keywords:
                    self.emit(j, "keyword")
                else:
                    self.emit(j, "identifier", is_identifier=True)
                continue
            if ch == "/" and lang.regex_literals:
                end = self.try_scan_regex(i)
                if end is not None:
                    self.emit(end, "regex")
                    continue
            matched = False
            for op in lang.operators:
                if src.startswith(op, i):
                    self.emit(i + len(op), op)
                    matched = True
                    break
            if matched:
                continue
            self.emit(i + 1, ch)
        return self.tokens
