"""Leak removal between context and target.

Two transforms: mutual identifier masking hides identifiers occurring on both
sides behind alias tokens (VAR1, VAR2, ...) on exactly one side, and
dedentation shifts the target left so its minimum line indentation is zero.
Masking operates on identifier tokens only; text inside string or comment
tokens is never rewritten, and masking granularity is the identifier text, so
all occurrences of a name move together. Both transforms return edits: leaf
index -> the text that `spans.split` writes in the leaf's place.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count

from .errors import AliasCollision, check_bounds
from .tokenizer import MARKER_KINDS, WHITESPACE_KINDS, expanded_width, line_start
from .tree import SyntaxTree

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


def mutual_identifiers(context: list[str], target: list[str]) -> set[str]:
    """Identifier texts present on both sides, given each side's names."""
    return set(context).intersection(target)


def plan_masking(context: list[str], target: list[str], rng: random.Random,
                 mask_prob: float, skip_pair_prob: float) -> MaskingPlan:
    """Decide which mutual identifiers get hidden, on which side, and as what,
    given each side's identifier names in order.

    The whole pair is exempted with probability skip_pair_prob; otherwise each
    identifier is hidden with probability mask_prob on a uniformly chosen
    side. Aliases are numbered by first occurrence in the sequence being
    masked (context-side ones first), skipping a VARk that either side already
    names: only a word token can spell VARk, and no keyword does.
    """
    check_bounds({"mask_prob": mask_prob, "skip_pair_prob": skip_pair_prob})
    # each name's rank among its side's first occurrences
    ctx_order, tgt_order = (dict(zip(order, range(len(order))))
                            for order in map(dict.fromkeys, (context, target)))
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
    fresh = (alias for alias in map("VAR{}".format, count(1))
             if alias not in ctx_order and alias not in tgt_order)
    return MaskingPlan(decisions, skip_pair=False, alias_map=dict(zip(masked, fresh)))


def _alias_edits(side: str, leaves: list[int], names: list[str],
                 to_mask: dict[str, str]) -> dict[int, str]:
    """{leaf: alias} for the side's masked names, rejecting an alias the side spells."""
    if not to_mask:
        return {}
    aliases = set(to_mask.values())
    if not aliases.isdisjoint(names):
        clash = next(name for name in names if name in aliases)
        raise AliasCollision(f"alias {clash!r} already occurs in {side}")
    hits = list(map(to_mask.__contains__, names))
    return dict(zip(compress(leaves, hits), map(to_mask.__getitem__, compress(names, hits))))


def apply_masking(context: tuple[list[int], list[str]], target: tuple[list[int], list[str]],
                  plan: MaskingPlan) -> tuple[dict[int, str], dict[int, str]]:
    """The alias edits on each identifier's masked side, each side given as
    its identifier leaves and their names: (context edits, target edits)."""
    if plan.skip_pair:
        return {}, {}
    ctx_mask = {n: plan.alias_map[n] for n, d in plan.decisions.items() if d == MASK_IN_CONTEXT}
    tgt_mask = {n: plan.alias_map[n] for n, d in plan.decisions.items() if d == MASK_IN_TARGET}
    return _alias_edits("context", *context, ctx_mask), _alias_edits("target", *target, tgt_mask)


# --------------------------------------------------------------------------
# dedentation

_LINE_BREAK = re.compile(r"[\r\n]")
_BLANK = MARKER_KINDS | WHITESPACE_KINDS


def dedent_target(tree: SyntaxTree, leaf_start: int, leaf_end: int) -> tuple[int, dict[int, str]]:
    """Shift the target, leaves leaf_start:leaf_end, left so its minimum line
    indentation becomes zero: (dedent_cols, {leaf: new indentation}).

    A line starts at the first leaf and at the first leaf past each line
    break, markers skipped. The first line's indentation is its column in the
    source, even when the target begins mid-line, so a span cut out of a
    nested block loses the cut position; blank lines do not count. Leading
    whitespace is re-emitted as spaces; lines that begin inside a multi-line
    token are left untouched.
    """
    leaves, offsets, text = tree.leaves, tree.offsets, tree.text
    breaks = _LINE_BREAK.finditer(text, offsets[leaf_start], offsets[leaf_end - 1])
    heads = list(dict.fromkeys([leaf_start, *(bisect_right(offsets, m.start(), leaf_start, leaf_end)
                                              for m in breaks)]))  # each break's next leaf
    widths, indented = [], []  # indented: the whitespace heads that open their line
    for head, end in zip(heads, heads[1:] + [leaf_end]):
        while head < end and leaves[head].kind in MARKER_KINDS:
            head += 1
        if head == end:  # the line goes on past a marker at its head
            continue
        at, content = offsets[head], head
        opens = at == 0 or text[at - 1] in "\r\n"
        if opens and leaves[head].kind == "whitespace":
            indented.append(head)
        while content < end and leaves[content].kind in _BLANK:
            content += 1
        if content < end:  # else a blank line
            lead = text[at if opens else line_start(text, offsets[content]):offsets[content]]
            widths.append(len(lead) if "\t" not in lead else expanded_width(lead))
            if not widths[-1]:
                return 0, {}
    dedent_cols = min(widths, default=0)
    if not dedent_cols:
        return 0, {}
    pad, edits = " " * dedent_cols, {}
    for head in indented:  # a tab, or less indentation than the shift, turns into spaces
        old = leaves[head].text
        kept = old.startswith(pad) and "\t" not in old
        edits[head] = old[dedent_cols:] if kept else " " * max(0, expanded_width(old) - dedent_cols)
    return dedent_cols, edits
