import random
import sysconfig
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    leaf_positions,
    pair_sides,
    positioned,
    real_sources,
    reference_apply_masking,
    reference_dedent_target,
    reference_mutual_identifiers,
    reference_plan_masking,
    reference_reindent_target,
    side_of,
    token_pair,
    token_reindent_target,
    token_unalias,
    with_edits,
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
)
from codegap.errors import AliasCollision
from codegap.languages import get_language, supported_languages
from codegap.errors import EmptyTree
from codegap.pipeline import PipelineConfig, generate_pairs_for_source, pair_texts, truncate_file
from codegap.spans import _render, select_span, select_span_with_retry
from codegap.tokenizer import tokenize
from codegap.tree import parse


def toks(src, lang="python"):
    return tokenize(src, get_language(lang))


def names(src, lang="python"):
    """A side's identifier names, in order: what masking reads of it."""
    return side_of(toks(src, lang))[1]


def masked(ctx, tgt, plan):
    """Both token lists with the alias edits of `apply_masking` made."""
    ctx_edits, tgt_edits = apply_masking(side_of(ctx), side_of(tgt), plan)
    return with_edits(ctx, ctx_edits), with_edits(tgt, tgt_edits)


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
    ctx = names("foo = bar + baz")
    tgt = names("bar(baz, qux)")
    assert mutual_identifiers(ctx, tgt) == {"bar", "baz"}


def test_mutual_identifiers_disjoint():
    assert mutual_identifiers(names("a = 1"), names("b = 2")) == set()


def test_mutual_identifiers_target_without_identifiers():
    assert mutual_identifiers(names("a = 1"), names("42 + 7")) == set()


def test_keywords_and_strings_are_not_identifiers():
    assert mutual_identifiers(names("for x in y: pass"), names("for z in y: pass")) == {"y"}
    assert mutual_identifiers(names("s = 'foo'"), names("t = 'foo'")) == set()


# --------------------------------------------------------------------------
# masking plans

def test_plan_empty_mutuals():
    plan = plan_masking([], [], random.Random(0), 0.9, 0.05)
    assert plan.decisions == {}
    assert plan.alias_map == {}


def test_plan_skip_pair_forces_unmasked():
    side = sorted({"a", "b"})
    plan = plan_masking(side, side, ScriptedRandom([0.0]), 0.9, 0.05)
    assert plan.skip_pair
    assert set(plan.decisions.values()) == {UNMASKED}
    assert plan.alias_map == {}


def test_plan_schedule_monte_carlo():
    # 10,000 plans with 10 mutuals each under the 0.9 / 0.05 schedule
    rng = random.Random(1234)
    config = PipelineConfig()
    side = sorted({f"name{i}" for i in range(10)})
    skips = 0
    masked = 0
    decided = 0
    ctx_side = 0
    for _ in range(10_000):
        plan = plan_masking(side, side, rng, config.mask_prob, config.skip_pair_prob)
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
    ctx = names("alpha = beta + gamma")
    tgt = names("gamma(beta) + alpha")
    # no skip; mask every mutual; sides: alpha->target, beta->target, gamma->target
    rng = ScriptedRandom([0.5, 0.0, 0.9, 0.0, 0.9, 0.0, 0.9])
    plan = plan_masking(ctx, tgt, rng, 0.9, 0.05)
    assert set(plan.decisions.values()) == {MASK_IN_TARGET}
    # target order: gamma (0), beta (2), alpha (6)
    assert plan.alias_map == {"gamma": "VAR1", "beta": "VAR2", "alpha": "VAR3"}


def test_plan_alias_skips_colliding_names():
    ctx = names("VAR1 = spot + 1")
    tgt = names("spot + 2")
    rng = ScriptedRandom([0.5, 0.0, 0.0])  # no skip; mask spot in context
    plan = plan_masking(ctx, tgt, rng, 1.0, 0.0)
    assert plan.alias_map["spot"] == "VAR2"


def test_plan_aliases_unique_and_fresh():
    ctx = toks("a = b + c + d")
    tgt = toks("a * b * c * d")
    plan = plan_masking(side_of(ctx)[1], side_of(tgt)[1], random.Random(5), 1.0, 0.0)
    aliases = list(plan.alias_map.values())
    assert len(aliases) == len(set(aliases)) == 4
    present = {t.text for t in ctx} | {t.text for t in tgt}
    assert not (set(aliases) & present)


# --------------------------------------------------------------------------
# applying masks

def test_apply_masking_substitution_contract():
    ctx, tgt = make_pair("bar = 1\nuse(bar)\n", "bar + bar\n")
    plan = plan_masking(side_of(ctx)[1], side_of(tgt)[1], ScriptedRandom([0.5, 0.0, 0.9]),
                        0.9, 0.05)
    assert plan.decisions["bar"] == MASK_IN_TARGET
    masked_ctx, masked_tgt = masked(ctx, tgt, plan)
    tgt_texts = [t.text for t in masked_tgt]
    ctx_texts = [t.text for t in masked_ctx]
    assert "bar" not in tgt_texts
    assert tgt_texts.count("VAR1") == 2
    assert ctx_texts.count("bar") == 2
    assert plan.alias_map == {"bar": "VAR1"}


def test_apply_masking_skip_pair_is_identity():
    ctx, tgt = make_pair("bar = 1\n", "bar + 2\n")
    plan = plan_masking(side_of(ctx)[1], side_of(tgt)[1], ScriptedRandom([0.0]), 0.9, 1.0)
    assert plan.skip_pair and plan.alias_map == {}
    assert apply_masking(side_of(ctx), side_of(tgt), plan) == ({}, {})


@pytest.mark.parametrize("side, context_src, target_src, decision", [
    ("context", "VAR1 = bar\n", "bar + 1\n", MASK_IN_CONTEXT),
    ("target", "bar = 1\n", "VAR1 + bar\n", MASK_IN_TARGET),
], ids=["context", "target"])
def test_apply_masking_alias_collision_detected(side, context_src, target_src, decision):
    ctx, tgt = make_pair(context_src, target_src)
    bogus = MaskingPlan({"bar": decision}, skip_pair=False, alias_map={"bar": "VAR1"})
    with pytest.raises(AliasCollision, match=side):
        apply_masking(side_of(ctx), side_of(tgt), bogus)


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
    span = select_span_with_retry(tree, rng, mean=20, stddev=5, min_len=8, max_len=30)
    ctx, tgt = pair_sides(tree, span)
    mutuals = mutual_identifiers(ctx[1], tgt[1])
    plan = plan_masking(ctx[1], tgt[1], rng, 1.0, 0.0)
    ctx_edits, tgt_edits = apply_masking(ctx, tgt, plan)
    ctx_ids = {ctx_edits.get(i, n) for i, n in zip(*ctx)}
    tgt_ids = {tgt_edits.get(i, n) for i, n in zip(*tgt)}
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
    plan = plan_masking(side_of(ctx)[1], side_of(tgt)[1], rng, mask_prob, skip_pair_prob)
    mutuals = reference_mutual_identifiers(ctx, tgt)
    ref = reference_plan_masking(mutuals, ref_rng, mask_prob, skip_pair_prob,
                                 context=ctx, target=tgt)
    assert mutual_identifiers(side_of(ctx)[1], side_of(tgt)[1]) == mutuals
    assert plan.mutual_identifiers == ref.mutual_identifiers
    assert plan.skip_pair == ref.skip_pair
    assert list(plan.decisions.items()) == list(ref.decisions.items())
    assert list(plan.alias_map.items()) == list(ref.alias_map.items())
    assert masked(ctx, tgt, plan) == reference_apply_masking(ctx, tgt, ref)
    assert rng.getstate() == ref_rng.getstate()


# --------------------------------------------------------------------------
# dedentation

def render(tokens):
    return "".join(t.text for t in tokens)


def dedented(tree, lo=0, hi=None):
    """Dedent leaves lo:hi (all by default): (target text, dedent_cols, edits)."""
    hi = tree.leaf_count if hi is None else hi
    cols, edits = dedent_target(tree, lo, hi)
    folds = {i: t.text for i, t in enumerate(tree.leaves[lo:hi], lo) if t.kind == "fold"}
    return _render(tree, lo, hi, {**folds, **edits}, sorted({**folds, **edits})), cols, edits


def test_dedent_uniform_shift():
    out, cols, _ = dedented(parse("        x = 1\n        y = 2\n", "python"))
    assert cols == 8
    assert out == "x = 1\ny = 2\n"


def test_dedent_min_indent_rule():
    out, cols, _ = dedented(parse("    a\n        b\n", "python"))
    assert cols == 4
    assert out == "a\n    b\n"


def test_dedent_identity_when_flat():
    out, cols, edits = dedented(parse("a = 1\n    b = 2\n", "python"))
    assert cols == 0 and edits == {}
    assert out == "a = 1\n    b = 2\n"


def test_dedent_tabs_count_as_four_columns():
    out, cols, _ = dedented(parse("\ta\n\t\tb\n", "python"))
    assert cols == 4
    assert out == "a\n    b\n"


def test_dedent_mid_line_start_uses_source_column():
    # a target that starts at the statement token of an indented line
    src = "def f():\n    x = 1\n    y = 2\n"
    tree = parse(src, "python")
    start = next(i for i, t in enumerate(tree.leaves) if t.text == "x")
    out, cols, _ = dedented(tree, start)
    assert cols == 4
    assert out == "x = 1\ny = 2\n"


def test_dedent_skips_multiline_string_interiors():
    src = '    body = """keep\n      exact\n"""\n    tail = 1\n'
    out, cols, _ = dedented(parse(src, "python"))
    assert cols == 4
    assert out == 'body = """keep\n      exact\n"""\ntail = 1\n'


def test_dedent_blank_lines_do_not_count():
    out, cols, _ = dedented(parse("    a = 1\n\n    b = 2\n", "python"))
    assert cols == 4
    assert out == "a = 1\n\nb = 2\n"


def test_dedent_then_reindent_roundtrip():
    src = "    a = 1\n        b = 2\n    c = 3\n"
    tree = parse(src, "python")
    _, cols, edits = dedented(tree)
    out = with_edits(tree.leaves, edits)
    assert render(token_reindent_target(out, cols, tree.offsets, tree.text)) == src


def _dedent_inputs(lang):
    """Every pair input of real files: each parsed file, its shortened tree
    with folds and its segments, all sharing the parsed file's positions."""
    pattern = (str(Path(sysconfig.get_paths()["stdlib"]) / "*.py") if lang == "python"
               else "/usr/include/*.h")
    sources = real_sources(pattern, 30)
    if len(sources) < 30:
        pytest.skip(f"fewer than 30 {lang} files here")
    cfg = PipelineConfig(truncation_threshold=200, segment_min_len=20, segment_max_len=120)
    rng = random.Random(0)
    for source in sources:
        tree = parse(source, lang)
        position_at = dict(zip(tree.offsets, leaf_positions(tree.text, tree.offsets)))
        result = truncate_file(tree, rng, cfg)
        for input_tree in (tree, result.shortened, *result.segments):
            yield input_tree, position_at


@pytest.mark.parametrize("lang", ["python", "c"])
def test_dedent_matches_reference_on_real_pair_inputs(lang):
    """Dedent on a leaf range gives what the token-list dedent gave when
    tokens carried their positions, on whole inputs and on split targets,
    folds and tab-indented lines included; the token-list reindent takes it
    back as before."""
    rng = random.Random(1)
    seen = {"fold": 0, "tab": 0, "shifted": 0}
    for tree, position_at in _dedent_inputs(lang):
        cases = [(0, tree.leaf_count)]
        for _ in range(4):
            try:
                span = select_span(tree, rng.randint(1, 300), rng)
            except EmptyTree:
                break
            cases.append((span.leaf_start, span.leaf_end))
        for lo, hi in cases:
            target, offsets = tree.leaves[lo:hi], tree.offsets[lo:hi]
            reference = positioned(target, [position_at[offset] for offset in offsets])
            text, cols, edits = dedented(tree, lo, hi)
            out = with_edits(tree.leaves, edits)[lo:hi]
            want, want_cols = reference_dedent_target(reference)
            assert (render(out), cols) == (render(want), want_cols)
            assert [t.text for t in out] == [t.text for t in want]
            assert text == render(out)
            back = token_reindent_target(out, cols, offsets, tree.text)
            assert [t.text for t in back] == [t.text for t in reference_reindent_target(want, cols)]
            seen["fold"] += any(t.kind == "fold" for t in target)
            seen["tab"] += any(t.kind == "whitespace" and "\t" in t.text for t in target)
            seen["shifted"] += cols > 0
    assert seen["fold"] > 20 and seen["shifted"] > 20, seen
    assert seen["tab"] > 20 or lang == "python", seen  # the stdlib indents with spaces


def test_unalias_inverts_masking():
    ctx, tgt = make_pair("bar = baz\n", "bar + baz\n")
    plan = plan_masking(side_of(ctx)[1], side_of(tgt)[1], random.Random(3), 1.0, 0.0)
    _, masked_tgt = masked(ctx, tgt, plan)
    restored = token_unalias(masked_tgt, plan.alias_map)
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
    span = select_span_with_retry(tree, rng, mean=18, stddev=6, min_len=6, max_len=30)
    lo, hi = span.leaf_start, span.leaf_end
    original_target = render(tree.leaves[lo:hi])
    text_rng = random.Random()
    text_rng.setstate(rng.getstate())
    ctx, tgt = pair_sides(tree, span)
    plan = plan_masking(ctx[1], tgt[1], rng, 1.0, 0.0)
    _, alias_edits = apply_masking(ctx, tgt, plan)
    cols, indents = dedent_target(tree, lo, hi)
    target = with_edits(tree.leaves, {**alias_edits, **indents})[lo:hi]
    config = PipelineConfig(mask_prob=1.0, skip_pair_prob=0.0)
    text_target = pair_texts(tree, span, text_rng, config, {})[1]
    assert text_target == tree.language.cls_token + render(target)
    recovered = render(token_unalias(token_reindent_target(target, cols, tree.offsets[lo:hi],
                                                           tree.text), plan.alias_map))
    assert recovered == original_target


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=12),
                          st.sampled_from(["x = 1", "pass", "f(2)"])),
                min_size=1, max_size=6))
def test_dedent_floor_and_relative_property(lines):
    src = "".join(" " * indent + stmt + "\n" for indent, stmt in lines)
    out, cols, _ = dedented(parse(src, "python"))
    before = [len(ln) - len(ln.lstrip(" ")) for ln in src.splitlines() if ln.strip()]
    after = [len(ln) - len(ln.lstrip(" ")) for ln in out.splitlines() if ln.strip()]
    assert cols == min(before)
    assert min(after) == 0
    assert after == [b - cols for b in before]


# --------------------------------------------------------------------------
# pairs as text ranges against the token-list path they replaced

_BRACE_BODIES = ["int alpha = beta;", "if (alpha) {", "}", "f(alpha, beta);", "gamma(VAR1);",
                 "/* alpha\n   beta */ gamma = 1;", "// alpha beta", '"alpha";', "while (gamma) {",
                 "VAR2 = alpha + beta;", "{", "else {"]
_BODIES = {
    "python": ["x = alpha + beta", "def f(alpha, VAR1):", "if beta:", "return gamma",
               's = """doc\n  alpha\n\tbeta"""', '"""alpha\n    gamma"""', "# alpha comment",
               "call(alpha, beta)", "else:", "VAR2 = gamma", "class K:", "(alpha,"],
    "c": _BRACE_BODIES + ["#define VAR1 alpha", "struct beta {"],
    "java": _BRACE_BODIES + ["class K {", "public void alpha(int beta) {"],
    "javascript": _BRACE_BODIES + ["`alpha\n  ${beta}`;", "let re = /alpha/g;",
                                   "function f(alpha) {"],
}
_INDENTS = ["", "", "  ", "    ", "        ", "\t", "\t\t", "\t  ", "  \t"]
_LINE_ENDS = ["\n", "\n", "\r\n", "\r"]


def _check_text_path(source, lang, seed, config, seen, spans=3):
    """Pairs of each input of the file (the tree, or its shortened tree and
    segments) through `pair_texts` and through the token-list path, from one
    random state: the texts, dedent_cols, plans and draws must agree. Then
    the file's records against the same loop on the token-list path."""
    rng = random.Random(seed)
    trunc = truncate_file(parse(source, lang), rng, config)
    for input_tree in [trunc.shortened, *trunc.segments]:
        folds = {i: t.text for i, t in enumerate(input_tree.leaves) if t.kind == "fold"}
        for _ in range(spans):
            try:
                span = select_span(input_tree, rng.randint(1, 80), rng)
            except EmptyTree:
                break
            token_rng = random.Random()
            token_rng.setstate(rng.getstate())
            got = pair_texts(input_tree, span, rng, config, folds)
            assert got == token_pair(input_tree, span, token_rng, config)
            assert rng.getstate() == token_rng.getstate()
            context, target, cols, plan = got
            seen["folds"] += bool(folds)
            seen["folds_with_aliases"] += bool(folds and plan and plan.alias_map)
            seen["shifted"] += cols > 0

    records = generate_pairs_for_source(source, get_language(lang), seed=seed, source_name="f",
                                        pair_id_prefix="p", config=config)
    rng, want = random.Random(seed), []
    tree = parse(source, lang)
    trunc = truncate_file(tree, rng, config) if tree.leaf_count else None
    for input_tree in [trunc.shortened, *trunc.segments] if trunc else []:
        span = select_span_with_retry(input_tree, rng, mean=config.mean_target_len,
                                      stddev=config.stddev_target_len,
                                      min_len=config.min_target_len,
                                      max_len=config.max_target_len)
        if span is not None:
            context, target, cols, plan = token_pair(input_tree, span, rng, config)
            want.append((context, target, cols, plan.alias_map if plan else {}))
    assert [(r.context, r.target, r.meta["dedent_cols"], r.meta["aliases"])
            for r in records] == want


@pytest.mark.parametrize("lang", supported_languages())
@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32 - 1),
       masking=st.booleans(), dedent=st.booleans())
def test_pair_texts_match_token_path(lang, data, seed, masking, dedent):
    lines = data.draw(st.lists(st.tuples(st.sampled_from(_INDENTS), st.sampled_from(_BODIES[lang]),
                                         st.sampled_from(_LINE_ENDS)), min_size=1, max_size=60))
    source = "".join(indent + body + end for indent, body, end in lines)
    config = PipelineConfig(truncation_threshold=40, segment_min_len=8, segment_max_len=40,
                            mask_prob=data.draw(st.sampled_from([0.5, 1.0])),
                            skip_pair_prob=data.draw(st.sampled_from([0.0, 0.05])),
                            masking_enabled=masking, dedent_enabled=dedent)
    _check_text_path(source, lang, seed, config, Counter())


@pytest.mark.parametrize("lang", ["python", "c"])
def test_pair_texts_match_token_path_on_real_files(lang):
    pattern = (str(Path(sysconfig.get_paths()["stdlib"]) / "*.py") if lang == "python"
               else "/usr/include/*.h")
    sources = real_sources(pattern, 30)
    if len(sources) < 30:
        pytest.skip(f"fewer than 30 {lang} files here")
    seen = Counter()
    for k, source in enumerate(sources):
        config = PipelineConfig(truncation_threshold=300, segment_min_len=20, segment_max_len=150,
                                masking_enabled=k % 4 != 1, dedent_enabled=k % 4 != 2)
        _check_text_path(source, lang, k, config, seen)
    assert seen["folds_with_aliases"] > 20 and seen["shifted"] > 20, seen
