"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import dataclasses
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import codegap
from _oracles import (
    exhaustive_metric_comparison,
    grad_check,
    info_nce,
    language_for_path,
    leaf_counts,
    pair_sides,
    preorder_rows,
    splice_tokens,
    splice_truncation,
    target_offsets,
    token_reindent_target,
    token_split,
    token_unalias,
    tokens_balanced,
    with_edits,
)
from codegap.contrastive import ToyEncoder
from codegap.deleak import apply_masking, dedent_target, mutual_identifiers, plan_masking
from codegap.errors import CodegapError
from codegap.experiments import AblationConfig, run_ablation
from codegap.languages import MASK_TOKEN
from codegap.pipeline import PipelineConfig, truncate_file
from codegap.spans import select_span, select_span_with_retry, split
from codegap.tokenizer import Token
from codegap.synth import write_mixed_corpus
from codegap.tokenizer import MARKER_KINDS, tokenize
from codegap.tree import parse

import numpy as np


def _ok(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    paths = write_mixed_corpus(root, seed=42, files_per_lang=30)
    return root, paths


@pytest.fixture(scope="module")
def trees(corpus):
    _, paths = corpus
    out = []
    for path in paths:
        lang = language_for_path(path)
        out.append(parse(path.read_text(encoding="utf-8"), lang))
    return out


@pytest.fixture(scope="module")
def generated_pairs(trees):
    """>= 1000 pairs with full masking, plus their pre-transform targets.
    Each side is listed as tokens, the leaves with the edits of masking and
    dedent made, and its text is the one `split` renders from the edits."""
    rng = random.Random(99)
    rows = []
    while len(rows) < 1000:
        for tree in trees:
            span = select_span_with_retry(tree, rng, mean=60, stddev=40,
                                          min_len=8, max_len=200)
            if span is None:
                continue
            ctx_side, tgt_side = pair_sides(tree, span)
            mutuals = mutual_identifiers(ctx_side[1], tgt_side[1])
            plan = plan_masking(ctx_side[1], tgt_side[1], rng, 1.0, 0.0)
            ctx_edits, tgt_edits = apply_masking(ctx_side, tgt_side, plan)
            cols, indents = dedent_target(tree, span.leaf_start, span.leaf_end)
            edits = {**ctx_edits, **tgt_edits, **indents}
            edited, (i, j) = with_edits(tree.leaves, edits), (span.leaf_start, span.leaf_end)
            cls = Token(tree.language.cls_token, "cls")
            context = [cls, *edited[:i], Token(MASK_TOKEN, "mask"), *edited[j:]]
            target = [cls, *edited[i:j]]
            assert split(tree, span, edits) == tuple("".join(t.text for t in side)
                                                     for side in (context, target))
            rows.append({
                "tree": tree,
                "offsets": target_offsets(tree, span),
                "pre_target": token_split(tree, span)[1],
                "mutuals": mutuals,
                "aliases": plan.alias_map,
                "context": context,
                "target": target,
                "dedent_cols": cols,
            })
            if len(rows) >= 1000:
                break
    return rows


def test_round_trip_suite(corpus):
    root, paths = corpus
    started = time.monotonic()
    grammars = set()
    rng = random.Random(7)
    config = PipelineConfig()
    truncated = 0
    assert len(paths) >= 100
    for path in paths:
        lang = language_for_path(path)
        grammars.add(lang.name)
        source = path.read_text(encoding="utf-8")
        tree = parse(source, lang)
        # parses reconstruct source bytes
        assert "".join(t.text for t in tree.leaves).encode("utf-8") == source.encode("utf-8")
        # span splits splice back to the original token sequence
        for _ in range(3):
            span = select_span(tree, rng.randrange(8, 300), rng)
            context, target = token_split(tree, span)
            spliced = splice_tokens(context, target)
            assert [t.text for t in spliced] == [t.text for t in tree.leaves]
            assert split(tree, span) == ("".join(t.text for t in context),
                                         "".join(t.text for t in target))
        # truncations splice back via fold markers
        if tree.leaf_count > config.truncation_threshold:
            trunc = truncate_file(tree, rng, config)
            if trunc.segments:
                truncated += 1
                assert splice_truncation(trunc) == [
                    t.text for t in tree.leaves]
    elapsed = time.monotonic() - started
    assert len(grammars) >= 3
    assert truncated >= 5
    assert elapsed < 60.0
    _ok(f"round-trip suite ({len(paths)} files, {len(grammars)} grammars, "
        f"{truncated} truncations, {elapsed:.1f}s)")


def test_syntactic_completeness(trees):
    rng = random.Random(1)
    views = list(map(preorder_rows, trees))
    checked = 0
    while checked < 1000:
        tree = trees[checked % len(trees)]
        length = rng.randrange(4, 250)
        span = select_span(tree, length, rng)
        # whole-subtree sibling run
        prev, run, tree = None, span.sibling_run, views[checked % len(trees)]
        for row in tree.rows_of(run):
            if prev is not None:
                assert tree.parent[row] == tree.parent[prev]
                assert tree.subtree_end[prev] == row  # the next sibling
            prev = row
        first, last = tree.rows_of(run)[0], tree.rows_of(run)[-1]
        assert tree.first_leaf[first] == span.leaf_start
        assert tree.first_leaf[last] + leaf_counts(tree)[last] == span.leaf_start + span.leaf_count
        # balanced grammar delimiters over the target tokens
        assert tokens_balanced(tree.leaves[span.leaf_start:span.leaf_end])
        checked += 1
    _ok(f"syntactic completeness ({checked} seeded selections)")


def test_deleak_occlusion(generated_pairs):
    # full masking: every mutual identifier on exactly one side
    pairs_with_mutuals = 0
    for row in generated_pairs:
        lang = row["tree"].language
        ctx_ids = {t.text for t in row["context"] if t.kind == "identifier"}
        tgt_ids = {t.text for t in row["target"] if t.kind == "identifier"}
        if row["mutuals"]:
            pairs_with_mutuals += 1
        for name in row["mutuals"]:
            assert (name in ctx_ids) != (name in tgt_ids), name
        # re-lexing the serialized strings shows the same occlusion
        ctx_text = "".join(t.text for t in row["context"])
        tgt_text = "".join(t.text for t in row["target"])
        ctx_lex = {t.text for t in tokenize(ctx_text, lang) if t.kind == "identifier"}
        tgt_lex = {t.text for t in tokenize(tgt_text, lang) if t.kind == "identifier"}
        for name in row["mutuals"]:
            assert (name in ctx_lex) != (name in tgt_lex), name
    assert pairs_with_mutuals >= 500

    # Monte-Carlo schedule at paper defaults over 10,000 draws
    rng = random.Random(2024)
    config = PipelineConfig()
    name_sides = [sorted(row["mutuals"]) for row in generated_pairs if row["mutuals"]]
    skips = masked = decided = 0
    for i in range(10_000):
        names = name_sides[i % len(name_sides)]
        plan = plan_masking(names, names, rng, config.mask_prob, config.skip_pair_prob)
        if plan.skip_pair:
            skips += 1
            continue
        for decision in plan.decisions.values():
            decided += 1
            masked += decision != "unmasked"
    skip_rate = skips / 10_000
    mask_rate = masked / decided
    assert abs(mask_rate - 0.9) <= 0.02
    assert abs(skip_rate - 0.05) <= 0.01
    _ok(f"de-leak occlusion ({len(generated_pairs)} pairs; mask rate "
        f"{mask_rate:.4f}, skip rate {skip_rate:.4f})")


def test_dedent(generated_pairs):
    checked_multiline = 0
    for row in generated_pairs:
        target = row["target"]
        cols = row["dedent_cols"]
        body = "".join(t.text for t in target if t.kind not in MARKER_KINDS)
        lines = [ln for ln in body.splitlines() if ln.strip()]
        if not lines:
            continue

        def width(ln):
            w = 0
            for ch in ln[: len(ln) - len(ln.lstrip(" \t"))]:
                w = (w // 4 + 1) * 4 if ch == "\t" else w + 1
            return w

        # minimum indentation of the rendered target is zero
        assert min(width(ln) for ln in lines) == 0
        # relative indentation is preserved: rendered pre-transform lines
        # shift uniformly by dedent_cols (first line owns no leading blanks)
        pre_tokens = [t for t in row["pre_target"] if t.kind not in MARKER_KINDS]
        text, start = row["tree"].text, row["offsets"][0]
        first_owned = bool(pre_tokens) and (start == 0 or text[start - 1] in "\r\n")
        pre_body = "".join(t.text for t in pre_tokens)
        pre_lines = pre_body.splitlines()
        post_lines = body.splitlines()
        assert len(pre_lines) == len(post_lines)
        for idx, (pre_ln, post_ln) in enumerate(zip(pre_lines, post_lines)):
            if not pre_ln.strip():
                continue
            if idx == 0 and not first_owned:
                assert width(post_ln) == width(pre_ln)
            else:
                assert width(post_ln) == width(pre_ln) - cols
        if len(lines) > 1:
            checked_multiline += 1

        # alias-inverse plus re-indent recovers the pre-transform target
        recovered = token_unalias(token_reindent_target(target, cols, row["offsets"],
                                                        row["tree"].text), row["aliases"])
        assert "".join(t.text for t in recovered) == "".join(
            t.text for t in row["pre_target"])
    assert checked_multiline >= 200
    _ok(f"dedent ({len(generated_pairs)} targets, {checked_multiline} multi-line)")


def test_metric_oracle_equivalence():
    worst = exhaustive_metric_comparison()
    assert worst <= 1e-12
    _ok(f"metric oracle equivalence (worst deviation {worst:.2e})")


def test_info_nce_correctness():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    closed = info_nce(e1, e1, [e2], tau=0.1)
    assert abs(closed - math.log1p(math.exp(-10))) < 1e-9
    literal = info_nce(e1, e1, [e2], tau=0.1, include_positive=False)
    assert abs(literal - (-10.0)) < 1e-9
    for k in (2, 4, 8):
        sym = info_nce(e1, e1, [e1] * (k - 1), tau=0.1)
        assert abs(sym - math.log(k)) < 1e-9

    rng = random.Random(12)
    words = "ab cd ef gh ij kl mn op qr st uv wx".split()
    worst = 0.0
    encoder = ToyEncoder.create(seed=5, dim=12, buckets=1024)
    for batch in range(20):
        k = rng.randrange(3, 7)
        ctxs = [" ".join(rng.choice(words) for _ in range(rng.randrange(5, 12)))
                for _ in range(k)]
        tgts = [" ".join(rng.choice(words) for _ in range(rng.randrange(4, 9)))
                for _ in range(k)]
        report = grad_check(encoder, ctxs, tgts, eps=1e-5, samples=60,
                            rng=random.Random(batch),
                            include_positive=batch % 2 == 0)
        worst = max(worst, report.max_rel_error)
        assert report.max_rel_error < 1e-3
    _ok(f"info-nce correctness (closed forms exact; worst grad rel err {worst:.2e})")


def test_end_to_end_directional(tmp_path):
    started = time.monotonic()
    config = AblationConfig(workdir=tmp_path / "ablation", seed=9, steps=1200)
    result = run_ablation(config)
    elapsed = time.monotonic() - started
    # (a) trained MRR beats the 1/N random baseline by at least 5x
    assert result.trained_mrr >= 5.0 * result.random_baseline
    # (b) masking+dedent reduce lexical leakage on the training pairs...
    assert result.lexical_train_map_deleak < result.lexical_train_map_plain
    # ...while held-out retrieval does not get worse
    assert result.deleak_report.map >= result.plain_report.map
    assert elapsed < 600.0
    _ok("end-to-end directional "
        f"(mrr {result.trained_mrr:.3f} vs baseline {result.random_baseline:.4f}; "
        f"lexical {result.lexical_train_map_deleak:.4f} < {result.lexical_train_map_plain:.4f}; "
        f"map {result.deleak_report.map:.4f} >= {result.plain_report.map:.4f}; "
        f"{elapsed:.0f}s)")


def _run_python(args, cwd, code=0):
    # The child runs in another cwd, where a relative PYTHONPATH (``src``) no
    # longer reaches the package: put the directory of the imported one first.
    package_root = str(Path(codegap.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, encoding="utf-8", cwd=cwd,
                          env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == code, proc.stderr
    return proc


def _run_cli(args, cwd):
    return _run_python(["-m", "codegap", *args], cwd)


_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_synthetic_corpus_script(tmp_path):
    out = tmp_path / "corpora"
    proc = _run_python([str(_SCRIPTS / "make_synthetic_corpus.py"), "--out", str(out), "--clone",
                        "--files-per-lang", "2", "--variants", "14"], cwd=tmp_path)
    heads = [line.split(":")[0] for line in proc.stdout.splitlines()]
    assert heads == ["mixed corpus", "clone corpus", "eval files", "validation repos"]
    assert proc.stdout.startswith(f"mixed corpus: 8 files -> {out / 'mixed'}")
    assert (out / "clone" / "eval").is_dir()
    _ok("synthetic corpus script (mixed and clone corpora at a small size)")


@pytest.mark.parametrize("flags,corpus", [
    (["--files-per-lang", "-1"], "mixed"),
    (["--clone", "--variants", "1"], "clone"),
    (["--clone", "--variants", "13"], "clone"),  # one held-out variant: no relevant candidate
    (["--clone", "--functionalities", "0"], "clone"),
    (["--clone", "--functionalities", "25"], "clone"),
])
def test_synthetic_corpus_script_refuses_a_corpus_that_cannot_be_used(tmp_path, flags, corpus):
    out = tmp_path / "corpora"
    proc = _run_python([str(_SCRIPTS / "make_synthetic_corpus.py"), "--out", str(out),
                        "--files-per-lang", "1", *flags], cwd=tmp_path, code=2)
    name = flags[-2][2:].replace("-", "_")
    assert proc.stderr.startswith(f"error: {name!r} must be ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not (out / corpus).exists() or not any(p.is_file() for p in (out / corpus).rglob("*"))


def test_ablation_script(tmp_path):
    out = tmp_path / "summary.json"
    proc = _run_python([str(_SCRIPTS / "run_ablation.py"), "--workdir", str(tmp_path / "ablation"),
                        "--steps", "20", "--out", str(out)], cwd=tmp_path)
    assert "held-out metric tables" in proc.stdout and f"summary -> {out}" in proc.stdout
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert list(payload) == ["seed", "steps", "pool_size", "random_baseline", "lexical_train_map",
                             "heldout", "checks", "seconds"]
    assert payload["steps"] == 20 and all(payload["checks"].values())
    assert payload["heldout"].keys() == payload["lexical_train_map"].keys() == {"deleak", "plain"}
    _ok("ablation script (20 steps, JSON summary)")


def test_ablation_script_defaults_are_the_config_defaults(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("run_ablation", _SCRIPTS / "run_ablation.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    made = []

    def stop(config):
        made.append(config)
        raise CodegapError("stopped before the run")

    monkeypatch.setattr(script, "run_ablation", stop)
    monkeypatch.setattr(sys, "argv", ["run_ablation.py", "--workdir", str(tmp_path)])
    assert script.main() == 2
    assert dataclasses.asdict(made[0]) == dataclasses.asdict(AblationConfig(workdir=tmp_path))
    assert made[0].seed == 9  # the seed the directional test and README use
    _ok("ablation script defaults (the six AblationConfig field defaults)")


@pytest.mark.parametrize("flag,value", [("--steps", "-1"), ("--seed", "-1")])
def test_ablation_script_refuses_a_value_out_of_range(tmp_path, flag, value):
    """A flag value out of its bound exits 2 with one error line, before any file is written;
    exit 1 stays the sign of a failed directional check."""
    workdir = tmp_path / "ablation"
    workdir.mkdir()
    proc = _run_python([str(_SCRIPTS / "run_ablation.py"), "--workdir", str(workdir),
                        flag, value], cwd=tmp_path, code=2)
    key = flag[2:]
    assert proc.stderr.startswith(f"error: config key {key!r} must be ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not any(workdir.iterdir()) and not proc.stdout


def test_determinism(tmp_path):
    corpus_dir = tmp_path / "corpus"
    write_mixed_corpus(corpus_dir, seed=21, files_per_lang=8, long_every=4)

    def shard_bytes(out):
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(Path(out).rglob("*.jsonl"))}

    outputs = []
    for name, jobs in (("run_a", "1"), ("run_b", "1"), ("run_c", "8")):
        out = tmp_path / name
        _run_cli(["pairs", "--roots", str(corpus_dir), "--out", str(out),
                  "--seed", "17", "--jobs", jobs], cwd=tmp_path)
        outputs.append(shard_bytes(out))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0]

    checkpoints = []
    for name in ("toy_a.ckpt", "toy_b.ckpt"):
        ckpt = tmp_path / name
        _run_cli(["train-toy", "--shards", str(tmp_path / "run_a"),
                  "--out", str(ckpt), "--steps", "25", "--lr", "0.5",
                  "--seed", "3", "--d", "16", "--buckets", "512",
                  "--budget", "2000"], cwd=tmp_path)
        checkpoints.append(ckpt.read_bytes())
    assert checkpoints[0] == checkpoints[1]
    _ok("determinism (pairs x2 + jobs 1 vs 8; train-toy x2)")
