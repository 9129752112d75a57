"""Leak removal between context and target.

Two transforms: mutual identifier masking hides identifiers occurring on both
sides behind alias tokens (VAR1, VAR2, ...) on exactly one side, and
dedentation shifts the target left so its minimum line indentation is zero.
Masking operates on identifier tokens only; text inside string or comment
tokens is never rewritten, and masking granularity is the identifier text, so
all occurrences of a name move together.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from dataclasses import dataclass

from .errors import AliasCollision
from .tokenizer import MARKER_KINDS, WHITESPACE_KINDS, Token, expanded_width, line_start

MASK_IN_CONTEXT = "mask_in_context"
MASK_IN_TARGET = "mask_in_target"
UNMASKED = "unmasked"


@dataclass(frozen=True)
class MaskingPlan:
    decisions: dict[str, str]  # one per mutual identifier
    skip_pair: bool
    alias_map: dict[str, str]

    @property
    def mutual_identifiers(self) -> frozenset[str]:
        return frozenset(self.decisions)


def _first_occurrence(tokens: list[Token]) -> dict[str, int]:
    """Each identifier text's rank among the side's first occurrences."""
    names = dict.fromkeys([tok.text for tok in tokens if tok.kind == "identifier"])
    return dict(zip(names, range(len(names))))


def mutual_identifiers(context: list[Token], target: list[Token]) -> set[str]:
    """Identifier texts present on both sides."""
    return _first_occurrence(context).keys() & _first_occurrence(target).keys()


def plan_masking(context: list[Token], target: list[Token], rng: random.Random,
                 mask_prob: float, skip_pair_prob: float) -> MaskingPlan:
    """Decide which mutual identifiers get hidden, on which side, and as what.

    The whole pair is exempted with probability skip_pair_prob; otherwise each
    identifier is hidden with probability mask_prob on a uniformly chosen
    side. Aliases are numbered by first occurrence in the sequence being
    masked (context-side ones first), skipping numbers whose VARk text already
    occurs on either side. Only a word token can spell VARk, so the one
    identifier scan per side that finds the mutuals also finds those texts.
    """
    if not 0 <= mask_prob <= 1 or not 0 <= skip_pair_prob <= 1:
        raise ValueError("probabilities must lie in [0, 1]")
    ctx_order, tgt_order = _first_occurrence(context), _first_occurrence(target)
    mutuals = sorted(ctx_order.keys() & tgt_order.keys())
    if rng.random() < skip_pair_prob:
        return MaskingPlan(dict.fromkeys(mutuals, UNMASKED), skip_pair=True, alias_map={})

    decisions: dict[str, str] = {}
    for name in mutuals:
        if rng.random() < mask_prob:
            decisions[name] = MASK_IN_CONTEXT if rng.random() < 0.5 else MASK_IN_TARGET
        else:
            decisions[name] = UNMASKED

    masked = [n for n, d in decisions.items() if d != UNMASKED]
    masked.sort(key=lambda n: (0, ctx_order[n]) if decisions[n] == MASK_IN_CONTEXT
                else (1, tgt_order[n]))
    alias_map: dict[str, str] = {}
    k = 1
    for name in masked:
        while f"VAR{k}" in ctx_order or f"VAR{k}" in tgt_order:
            k += 1
        alias_map[name] = f"VAR{k}"
        k += 1
    return MaskingPlan(decisions, skip_pair=False, alias_map=alias_map)


def _mask_side(side: str, tokens: list[Token], to_mask: dict[str, str]) -> list[Token]:
    """Substitute aliases, after rejecting an alias already present."""
    if not to_mask:
        return list(tokens)
    aliases = set(to_mask.values())
    texts = [tok.text for tok in tokens]
    if not aliases.isdisjoint(texts):
        clash = next(text for text in texts if text in aliases)
        raise AliasCollision(f"alias {clash!r} already occurs in {side}")
    return [tok.with_text(to_mask[text]) if text in to_mask and tok.kind == "identifier" else tok
            for tok, text in zip(tokens, texts)]


def apply_masking(context: list[Token], target: list[Token],
                  plan: MaskingPlan) -> tuple[list[Token], list[Token]]:
    """Substitute aliases on each identifier's masked side: (context, target)."""
    if plan.skip_pair:
        return list(context), list(target)
    ctx_mask = {n: plan.alias_map[n] for n, d in plan.decisions.items() if d == MASK_IN_CONTEXT}
    tgt_mask = {n: plan.alias_map[n] for n, d in plan.decisions.items() if d == MASK_IN_TARGET}
    return _mask_side("context", context, ctx_mask), _mask_side("target", target, tgt_mask)


# --------------------------------------------------------------------------
# dedentation: `offsets[i]` is where target[i] starts in `text`, the parsed
# text; a marker's entry only has to keep the offsets sorted

_LINE_BREAK = re.compile(r"[\r\n]")


def _line_heads(target: list[Token], offsets: list[int], text: str) -> list[int]:
    """The index of the first token of each source line the target holds,
    markers aside: the first token, and the first past each line break."""
    heads: list[int] = []
    breaks = _LINE_BREAK.finditer(text, offsets[0], offsets[-1]) if target else ()
    for i in [0, *(bisect_right(offsets, m.start()) for m in breaks)]:
        while i < len(target) and target[i].kind in MARKER_KINDS:
            i += 1
        if i < len(target) and (not heads or heads[-1] != i):
            heads.append(i)
    return heads


def _line_indentation(target: list[Token], offsets: list[int], text: str, head: int,
                      end: int) -> int | None:
    """Expanded column of the line's first content token, None when it holds none."""
    for i in range(head, end):
        if target[i].kind not in MARKER_KINDS and target[i].kind not in WHITESPACE_KINDS:
            return expanded_width(text[line_start(text, offsets[i]):offsets[i]])
    return None


def dedent_target(target: list[Token], offsets: list[int], text: str) -> tuple[list[Token], int]:
    """Shift the target left so its minimum line indentation becomes zero.

    The first line's indentation is its starting column in the original
    source, even when the target begins mid-line, so a span cut out of a
    nested block loses the cut position. Leading whitespace is re-emitted as
    spaces; lines that begin inside a multi-line token are left untouched.
    """
    heads = _line_heads(target, offsets, text)
    indents = [_line_indentation(target, offsets, text, head, end)
               for head, end in zip(heads, heads[1:] + [len(target)])]
    dedent_cols = min((ind for ind in indents if ind is not None), default=0)
    if dedent_cols == 0:
        return list(target), 0

    out = list(target)
    for head in heads:
        first = target[head]
        if first.kind != "whitespace" or line_start(text, offsets[head]) != offsets[head]:
            continue  # no leading indentation, or a line that starts mid-line
        old_width = expanded_width(first.text)
        if first.text[:dedent_cols] == " " * dedent_cols and "\t" not in first.text:
            new_text = first.text[dedent_cols:]
        else:
            new_text = " " * max(0, old_width - dedent_cols)
        out[head] = first.with_text(new_text)
    return out, dedent_cols


def reindent_target(target: list[Token], dedent_cols: int, offsets: list[int],
                    text: str) -> list[Token]:
    """Inverse of dedent_target for space-indented sources."""
    if dedent_cols == 0:
        return list(target)
    out = list(target)
    for head in _line_heads(target, offsets, text):
        first = target[head]
        if first.kind == "whitespace" and line_start(text, offsets[head]) == offsets[head]:
            out[head] = first.with_text(" " * dedent_cols + first.text)
    return out


def unalias(tokens: list[Token], alias_map: dict[str, str]) -> list[Token]:
    """Replace alias tokens by the identifiers they stand for."""
    inverse = {alias: name for name, alias in alias_map.items()}
    return [tok.with_text(inverse[tok.text]) if tok.is_identifier and tok.text in inverse
            else tok for tok in tokens]
