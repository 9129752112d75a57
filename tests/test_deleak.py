import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    identifier_tokens,
    reference_apply_masking,
    reference_mutual_identifiers,
    reference_plan_masking,
)
from codegap.deleak import (
    MASK_IN_CONTEXT,
    MASK_IN_TARGET,
    UNMASKED,
    MaskingPlan,
    apply_masking,
    dedent_target,
    mutual_identifiers,
    plan_masking,
    reindent_target,
    unalias,
)
from codegap.errors import AliasCollision
from codegap.languages import get_language, supported_languages
from codegap.pipeline import PipelineConfig
from codegap.spans import select_span_with_retry, split
from codegap.tokenizer import tokenize
from codegap.tree import parse


def toks(src, lang="python"):
    return tokenize(src, get_language(lang))


def make_pair(context_src, target_src, lang="python"):
    language = get_language(lang)
    return tokenize(context_src, language), tokenize(target_src, language)


class ScriptedRandom(random.Random):
    """random() pops scripted values; everything else stays seeded."""

    def __new__(cls, values):
        return super().__new__(cls, 0)

    def __init__(self, values):
        super().__init__(0)
        self._values = list(values)

    def random(self):
        if self._values:
            return self._values.pop(0)
        return super().random()


# --------------------------------------------------------------------------
# mutual identifiers

def test_mutual_identifiers_intersection():
    ctx = toks("foo = bar + baz")
    tgt = toks("bar(baz, qux)")
    assert mutual_identifiers(ctx, tgt) == {"bar", "baz"}


def test_mutual_identifiers_disjoint():
    assert mutual_identifiers(toks("a = 1"), toks("b = 2")) == set()


def test_mutual_identifiers_target_without_identifiers():
    assert mutual_identifiers(toks("a = 1"), toks("42 + 7")) == set()


def test_keywords_and_strings_are_not_identifiers():
    assert mutual_identifiers(toks("for x in y: pass"), toks("for z in y: pass")) == {"y"}
    assert mutual_identifiers(toks("s = 'foo'"), toks("t = 'foo'")) == set()


# --------------------------------------------------------------------------
# masking plans

def test_plan_empty_mutuals():
    plan = plan_masking([], [], random.Random(0), 0.9, 0.05)
    assert plan.decisions == {}
    assert plan.alias_map == {}


def test_plan_skip_pair_forces_unmasked():
    names = identifier_tokens({"a", "b"})
    plan = plan_masking(names, names, ScriptedRandom([0.0]), 0.9, 0.05)
    assert plan.skip_pair
    assert set(plan.decisions.values()) == {UNMASKED}
    assert plan.alias_map == {}


def test_plan_schedule_monte_carlo():
    # 10,000 plans with 10 mutuals each under the 0.9 / 0.05 schedule
    rng = random.Random(1234)
    config = PipelineConfig()
    names = identifier_tokens({f"name{i}" for i in range(10)})
    skips = 0
    masked = 0
    decided = 0
    ctx_side = 0
    for _ in range(10_000):
        plan = plan_masking(names, names, rng, config.mask_prob, config.skip_pair_prob)
        if plan.skip_pair:
            skips += 1
            continue
        for decision in plan.decisions.values():
            decided += 1
            if decision != UNMASKED:
                masked += 1
                if decision == MASK_IN_CONTEXT:
                    ctx_side += 1
    assert abs(skips / 10_000 - 0.05) <= 0.01
    assert abs(masked / decided - 0.9) <= 0.02
    assert abs(ctx_side / masked - 0.5) <= 0.03


def test_plan_alias_order_follows_first_occurrence():
    ctx = toks("alpha = beta + gamma")
    tgt = toks("gamma(beta) + alpha")
    # no skip; mask every mutual; sides: alpha->target, beta->target, gamma->target
    rng = ScriptedRandom([0.5, 0.0, 0.9, 0.0, 0.9, 0.0, 0.9])
    plan = plan_masking(ctx, tgt, rng, 0.9, 0.05)
    assert set(plan.decisions.values()) == {MASK_IN_TARGET}
    # target order: gamma (0), beta (2), alpha (6)
    assert plan.alias_map == {"gamma": "VAR1", "beta": "VAR2", "alpha": "VAR3"}


def test_plan_alias_skips_colliding_names():
    ctx = toks("VAR1 = spot + 1")
    tgt = toks("spot + 2")
    rng = ScriptedRandom([0.5, 0.0, 0.0])  # no skip; mask spot in context
    plan = plan_masking(ctx, tgt, rng, 1.0, 0.0)
    assert plan.alias_map["spot"] == "VAR2"


def test_plan_aliases_unique_and_fresh():
    ctx = toks("a = b + c + d")
    tgt = toks("a * b * c * d")
    plan = plan_masking(ctx, tgt, random.Random(5), 1.0, 0.0)
    aliases = list(plan.alias_map.values())
    assert len(aliases) == len(set(aliases)) == 4
    present = {t.text for t in ctx} | {t.text for t in tgt}
    assert not (set(aliases) & present)


# --------------------------------------------------------------------------
# applying masks

def test_apply_masking_substitution_contract():
    ctx, tgt = make_pair("bar = 1\nuse(bar)\n", "bar + bar\n")
    plan = plan_masking(ctx, tgt, ScriptedRandom([0.5, 0.0, 0.9]), 0.9, 0.05)
    assert plan.decisions["bar"] == MASK_IN_TARGET
    masked_ctx, masked_tgt = apply_masking(ctx, tgt, plan)
    tgt_texts = [t.text for t in masked_tgt]
    ctx_texts = [t.text for t in masked_ctx]
    assert "bar" not in tgt_texts
    assert tgt_texts.count("VAR1") == 2
    assert ctx_texts.count("bar") == 2
    assert plan.alias_map == {"bar": "VAR1"}


def test_apply_masking_skip_pair_is_identity():
    ctx, tgt = make_pair("bar = 1\n", "bar + 2\n")
    plan = plan_masking(ctx, tgt, ScriptedRandom([0.0]), 0.9, 1.0)
    assert plan.skip_pair and plan.alias_map == {}
    masked_ctx, masked_tgt = apply_masking(ctx, tgt, plan)
    assert masked_ctx == ctx and masked_ctx is not ctx
    assert masked_tgt == tgt and masked_tgt is not tgt


@pytest.mark.parametrize("side, context_src, target_src, decision", [
    ("context", "VAR1 = bar\n", "bar + 1\n", MASK_IN_CONTEXT),
    ("target", "bar = 1\n", "VAR1 + bar\n", MASK_IN_TARGET),
], ids=["context", "target"])
def test_apply_masking_alias_collision_detected(side, context_src, target_src, decision):
    ctx, tgt = make_pair(context_src, target_src)
    bogus = MaskingPlan({"bar": decision}, skip_pair=False, alias_map={"bar": "VAR1"})
    with pytest.raises(AliasCollision, match=side):
        apply_masking(ctx, tgt, bogus)


def test_occlusion_each_mutual_on_exactly_one_side():
    src = (
        "def f(items, limit):\n"
        "    total = 0\n"
        "    for v in items:\n"
        "        if v < limit:\n"
        "            total += v\n"
        "    return total\n"
    )
    tree = parse(src, "python")
    rng = random.Random(2)
    span = select_span_with_retry(tree, rng, mean=20, stddev=5, min_len=8, max_len=30,
                                  max_attempts=8)
    ctx, tgt = split(tree, span)
    mutuals = mutual_identifiers(ctx, tgt)
    plan = plan_masking(ctx, tgt, rng, 1.0, 0.0)
    masked_ctx, masked_tgt = apply_masking(ctx, tgt, plan)
    ctx_ids = {t.text for t in masked_ctx if t.is_identifier}
    tgt_ids = {t.text for t in masked_tgt if t.is_identifier}
    for name in mutuals:
        assert (name in ctx_ids) != (name in tgt_ids)


def _side_source(language, pieces):
    """One piece per line; VAR1 may also sit inside a string or a comment."""
    spelled = {"string": '"VAR1"', "comment": f"{language.line_comment} VAR1"}
    return "\n".join(spelled.get(piece, piece) for piece in pieces) + "\n"


_PIECES = ["VAR1", "VAR2", "alpha", "beta", "gamma", "delta", "string", "comment",
           "#if VAR1", "call(alpha, beta)"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(supported_languages()),
       st.lists(st.sampled_from(_PIECES + ["ctx_only"]), max_size=16),
       st.lists(st.sampled_from(_PIECES + ["tgt_only"]), max_size=16),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.sampled_from([0.0, 0.05, 0.5]))
# two names masked in the context, met in opposite orders on the two sides
@example("python", ["alpha", "beta"], ["beta", "alpha"], 4, 1.0, 0.0)
def test_plan_and_apply_match_reference(lang, ctx_pieces, tgt_pieces, seed,
                                        mask_prob, skip_pair_prob):
    language = get_language(lang)
    ctx = tokenize(_side_source(language, ctx_pieces), language)
    tgt = tokenize(_side_source(language, tgt_pieces), language)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    plan = plan_masking(ctx, tgt, rng, mask_prob, skip_pair_prob)
    mutuals = reference_mutual_identifiers(ctx, tgt)
    ref = reference_plan_masking(mutuals, ref_rng, mask_prob, skip_pair_prob,
                                 context=ctx, target=tgt)
    assert mutual_identifiers(ctx, tgt) == mutuals
    assert plan.mutual_identifiers == ref.mutual_identifiers
    assert plan.skip_pair == ref.skip_pair
    assert list(plan.decisions.items()) == list(ref.decisions.items())
    assert list(plan.alias_map.items()) == list(ref.alias_map.items())
    assert apply_masking(ctx, tgt, plan) == reference_apply_masking(ctx, tgt, ref)
    assert rng.getstate() == ref_rng.getstate()


# --------------------------------------------------------------------------
# dedentation

def render(tokens):
    return "".join(t.text for t in tokens)


def target_of(src, lang="python"):
    """Whole-file tokens as a target (first line owned from column zero)."""
    return toks(src, lang)


def test_dedent_uniform_shift():
    tokens = target_of("        x = 1\n        y = 2\n")
    out, cols = dedent_target(tokens)
    assert cols == 8
    assert render(out) == "x = 1\ny = 2\n"


def test_dedent_min_indent_rule():
    tokens = target_of("    a\n        b\n")
    out, cols = dedent_target(tokens)
    assert cols == 4
    assert render(out) == "a\n    b\n"


def test_dedent_identity_when_flat():
    tokens = target_of("a = 1\n    b = 2\n")
    out, cols = dedent_target(tokens)
    assert cols == 0
    assert render(out) == "a = 1\n    b = 2\n"


def test_dedent_tabs_count_as_four_columns():
    tokens = target_of("\ta\n\t\tb\n")
    out, cols = dedent_target(tokens)
    assert cols == 4
    assert render(out) == "a\n    b\n"


def test_dedent_mid_line_start_uses_source_column():
    # a target that starts at the statement token of an indented line
    src = "def f():\n    x = 1\n    y = 2\n"
    tree = parse(src, "python")
    start = next(i for i, t in enumerate(tree.leaves) if t.text == "x")
    tokens = tree.leaves[start:]
    out, cols = dedent_target(tokens)
    assert cols == 4
    assert render(out) == "x = 1\ny = 2\n"


def test_dedent_skips_multiline_string_interiors():
    src = '    body = """keep\n      exact\n"""\n    tail = 1\n'
    tokens = target_of(src)
    out, cols = dedent_target(tokens)
    assert cols == 4
    assert render(out) == 'body = """keep\n      exact\n"""\ntail = 1\n'


def test_dedent_blank_lines_do_not_count():
    tokens = target_of("    a = 1\n\n    b = 2\n")
    out, cols = dedent_target(tokens)
    assert cols == 4
    assert render(out) == "a = 1\n\nb = 2\n"


def test_dedent_then_reindent_roundtrip():
    src = "    a = 1\n        b = 2\n    c = 3\n"
    tokens = target_of(src)
    out, cols = dedent_target(tokens)
    assert render(reindent_target(out, cols)) == src


def test_unalias_inverts_masking():
    ctx, tgt = make_pair("bar = baz\n", "bar + baz\n")
    plan = plan_masking(ctx, tgt, random.Random(3), 1.0, 0.0)
    _, masked_tgt = apply_masking(ctx, tgt, plan)
    restored = unalias(masked_tgt, plan.alias_map)
    assert render(restored) == render(tgt)


def test_full_inverse_recovers_pre_transform_target():
    src = (
        "class Box:\n"
        "    def fill(self, items):\n"
        "        count = 0\n"
        "        for item in items:\n"
        "            count += item\n"
        "        return count\n"
    )
    tree = parse(src, "python")
    rng = random.Random(11)
    span = select_span_with_retry(tree, rng, mean=18, stddev=6, min_len=6, max_len=30,
                                  max_attempts=8)
    ctx, tgt = split(tree, span)
    original_target = render(tgt)
    plan = plan_masking(ctx, tgt, rng, 1.0, 0.0)
    _, masked_tgt = apply_masking(ctx, tgt, plan)
    dedented, cols = dedent_target(masked_tgt)
    recovered = render(unalias(reindent_target(dedented, cols), plan.alias_map))
    assert recovered == original_target


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=12),
                          st.sampled_from(["x = 1", "pass", "f(2)"])),
                min_size=1, max_size=6))
def test_dedent_floor_and_relative_property(lines):
    src = "".join(" " * indent + stmt + "\n" for indent, stmt in lines)
    tokens = target_of(src)
    out, cols = dedent_target(tokens)
    before = [len(ln) - len(ln.lstrip(" ")) for ln in src.splitlines() if ln.strip()]
    after = [len(ln) - len(ln.lstrip(" ")) for ln in render(out).splitlines() if ln.strip()]
    assert cols == min(before)
    assert min(after) == 0
    assert after == [b - cols for b in before]
