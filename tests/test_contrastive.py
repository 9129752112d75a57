import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codegap import contrastive
from codegap.contrastive import (
    EMBED_ROWS,
    ToyEncoder,
    TrainConfig,
    batch_loss_and_grads,
    learning_rate,
    pack_validation,
    stable_bucket,
    train_toy,
    validation_mrr,
)
from codegap.errors import (
    BatchTooSmall,
    DimensionMismatch,
    Diverged,
    EmptyInput,
    ZeroVector,
)
from codegap.pipeline import PairRecord

from _oracles import (
    InvalidTemperature,
    batch_loss,
    cosine,
    grad_check,
    info_nce,
    oracle_batch_loss_and_grads,
    reference_bucket_counts,
    reference_encode,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def small_encoder(**kw):
    kw.setdefault("seed", 0)
    kw.setdefault("dim", 16)
    kw.setdefault("buckets", 512)
    return ToyEncoder.create(**kw)


def row_counts(packed):
    """Each row of packed bucket counts as a dict: bucket -> count."""
    return [dict(zip(keys.tolist(), mult.tolist())) for keys, mult in packed.row_entries()]


def records(texts, language="python"):
    return [PairRecord(pair_id=f"p{i}", language=language, context=c, target=t, meta={})
            for i, (c, t) in enumerate(texts)]


# --------------------------------------------------------------------------
# cosine

def test_cosine_basics():
    v = np.array([2.0, -1.0, 0.5])
    assert cosine(v, v) == pytest.approx(1.0)
    assert cosine(v, -v) == pytest.approx(-1.0)
    assert cosine(E1, E2) == pytest.approx(0.0)


def test_cosine_errors():
    with pytest.raises(ZeroVector):
        cosine(np.zeros(3), E1)
    with pytest.raises(DimensionMismatch):
        cosine(np.ones(3), np.ones(4))


# --------------------------------------------------------------------------
# the loss itself

def test_info_nce_closed_form_single_negative():
    loss = info_nce(E1, E1, [E2], tau=0.1)
    assert loss == pytest.approx(math.log1p(math.exp(-10)), abs=1e-9)


def test_info_nce_negatives_only_denominator():
    loss = info_nce(E1, E1, [E2], tau=0.1, include_positive=False)
    assert loss == pytest.approx(-10.0, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_info_nce_symmetric_case(n):
    loss = info_nce(E1, E1, [E1] * n, tau=0.1)
    assert loss == pytest.approx(math.log(n + 1), abs=1e-9)


def test_info_nce_standard_form_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(50):
        q = rng.normal(size=6)
        pos = rng.normal(size=6)
        negs = [rng.normal(size=6) for _ in range(4)]
        assert info_nce(q, pos, negs, tau=0.3) >= 0.0


def test_info_nce_errors():
    with pytest.raises(InvalidTemperature):
        info_nce(E1, E1, [E2], tau=0.0)
    with pytest.raises(ValueError):
        info_nce(E1, E1, [], tau=0.1)


def _loss_from_sims(pos_sim, neg_sims, tau=0.1):
    q = np.array([1.0, 0.0])
    pos = np.array([pos_sim, math.sqrt(max(0.0, 1 - pos_sim ** 2))])
    negs = [np.array([s, math.sqrt(max(0.0, 1 - s ** 2))]) for s in neg_sims]
    return info_nce(q, pos, negs, tau=tau)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-0.9, max_value=0.8), st.floats(min_value=0.01, max_value=0.15))
def test_loss_decreases_as_positive_improves(pos_sim, bump):
    neg_sims = [0.1, -0.4]
    assert _loss_from_sims(pos_sim + bump, neg_sims) < _loss_from_sims(pos_sim, neg_sims)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-0.9, max_value=0.8), st.floats(min_value=0.01, max_value=0.15))
def test_loss_increases_as_negative_improves(neg_sim, bump):
    assert (_loss_from_sims(0.5, [neg_sim + bump, -0.2])
            > _loss_from_sims(0.5, [neg_sim, -0.2]))


# --------------------------------------------------------------------------
# hashed encoder

def test_stable_bucket_is_deterministic():
    assert stable_bucket("token", 1024) == stable_bucket("token", 1024)
    counts = row_counts(small_encoder(buckets=4096).bucket_counts(["a b a"]))[0]
    assert sum(counts.values()) == 3 + 2  # three unigrams, two bigrams


_GRAM_TOKENS = st.lists(st.one_of(st.sampled_from(["a", "b", "\x1f", "a\x1fb", "é", "名前", ""]),
                                  st.text(max_size=4)), max_size=12)


@settings(max_examples=100, deadline=None)
@given(st.lists(_GRAM_TOKENS, min_size=1, max_size=8))
@example([[], ["solo"], ["\x1f", "\x1f"], ["solo", "\x1f"]])
def test_bucket_counts_through_a_warm_table_match_reference(token_lists):
    # one table per encoder, shared by every list: later lists hash some grams
    # an earlier one left in the table and some they meet first. Each "text"
    # is a tuple of tokens, so grams may hold what text_tokens never yields;
    # an empty one is refused (test_encode_empty_input)
    texts = [tuple(tokens) for tokens in token_lists if tokens]
    with mock.patch.object(contrastive, "text_tokens", list):
        for enc in (small_encoder(buckets=64), small_encoder(buckets=4096)):
            enc.bucket_counts([("alpha", "beta", "\x1f", "é", "alpha")])
            for tokens, counts in zip(texts, row_counts(enc.bucket_counts(texts))):
                want = reference_bucket_counts(list(tokens), enc.buckets)
                assert counts == want
                assert row_counts(ToyEncoder(enc.params).bucket_counts([tokens]))[0] == want
            assert all(bucket == stable_bucket(gram, enc.buckets)
                       for gram, bucket in enc.table.items())


def test_encode_fills_its_own_table():
    for enc in (small_encoder(buckets=64), small_encoder(buckets=4096)):
        enc.encode(["alpha beta"])
        assert enc.table == {gram: stable_bucket(gram, enc.buckets)
                             for gram in ("alpha", "beta", "alpha\x1fbeta")}


def test_encode_deterministic_unit_norm():
    enc = small_encoder()
    one = enc.encode(["alpha beta gamma"])[0]
    two = enc.encode(["alpha beta gamma"])[0]
    assert np.array_equal(one, two)
    assert np.linalg.norm(one) == pytest.approx(1.0)


def test_encode_single_token_is_normalized_row():
    enc = small_encoder()
    bucket = stable_bucket("solo", enc.buckets)
    row = enc.params[bucket]
    expected = row / np.linalg.norm(row)
    assert np.allclose(enc.encode(["solo"])[0], expected)


def test_encode_empty_input():
    with pytest.raises(EmptyInput):
        small_encoder().encode(["   "])
    with pytest.raises(EmptyInput):
        small_encoder().encode(["alpha", "   "])


_ENCODE_WORDS = ["alpha", "beta", "gamma", "_", "é", "<mask>", "(", "x1"]


@settings(max_examples=150, deadline=None)
@example([["alpha", "alpha", "alpha"], ["alpha", "beta", "alpha", "beta", "alpha"], ["solo"]])
# three encode blocks, the last one short, sharing grams across blocks
@example([_ENCODE_WORDS[i % 8:i % 8 + 1 + i % 5] for i in range(2 * EMBED_ROWS + 3)])
@given(st.lists(st.lists(st.sampled_from(_ENCODE_WORDS), min_size=1, max_size=12),
                max_size=6))
def test_batched_encode_matches_one_text_reference(word_lists):
    # repeated words repeat unigrams and bigrams within a text and across texts
    texts = [" ".join(words) for words in word_lists]
    for enc in (small_encoder(buckets=64), small_encoder(buckets=4096)):
        rows = enc.encode(texts)
        assert rows.shape == (len(texts), enc.dim)
        for text, row in zip(texts, rows):
            assert row.tobytes() == reference_encode(enc, text).tobytes()
            assert row.tobytes() == enc.encode([text])[0].tobytes()


def test_orthogonal_unit_rows_reproduce_closed_form():
    enc = small_encoder()
    ba = stable_bucket("qq", enc.buckets)
    bb = stable_bucket("kk", enc.buckets)
    enc.params[ba] = 0.0
    enc.params[bb] = 0.0
    enc.params[ba, 0] = 1.0
    enc.params[bb, 1] = 1.0
    loss = batch_loss(enc, ["qq", "kk"], ["qq", "kk"])
    assert loss == pytest.approx(math.log1p(math.exp(-10)), abs=1e-9)


def test_batch_loss_identical_embeddings_log_k():
    enc = small_encoder()
    for k in (2, 3, 6):
        texts = ["same tokens here"] * k
        assert batch_loss(enc, texts, texts) == pytest.approx(math.log(k), abs=1e-9)


def test_batch_loss_requires_two_pairs():
    enc = small_encoder()
    with pytest.raises(BatchTooSmall):
        batch_loss(enc, ["one"], ["one"])


def test_batch_loss_permutation_invariant():
    enc = small_encoder()
    ctxs = ["a b c", "d e f", "g h i"]
    tgts = ["c b", "f e", "i h"]
    base = batch_loss(enc, ctxs, tgts)
    permuted = batch_loss(enc, ctxs[::-1], tgts[::-1])
    assert permuted == pytest.approx(base, abs=1e-12)


# --------------------------------------------------------------------------
# gradients

def _random_batch(rng, k=5):
    words = "alpha beta gamma delta epsi zeta eta theta iota kappa lam mu".split()
    ctxs = [" ".join(rng.choice(words) for _ in range(rng.randrange(6, 14))) for _ in range(k)]
    tgts = [" ".join(rng.choice(words) for _ in range(rng.randrange(4, 10))) for _ in range(k)]
    return ctxs, tgts


@pytest.mark.parametrize("include_positive", [True, False])
def test_grad_check_random_batches(include_positive):
    rng = random.Random(9)
    enc = small_encoder()
    for trial in range(4):
        ctxs, tgts = _random_batch(rng)
        report = grad_check(enc, ctxs, tgts, eps=1e-5, samples=80,
                            rng=random.Random(trial), include_positive=include_positive)
        assert report.max_rel_error < 1e-3
        assert report.zero_grad_checked > 0


def test_untouched_rows_have_zero_gradient():
    enc = small_encoder()
    ctxs, tgts = _random_batch(random.Random(1))
    ctx_counts = row_counts(enc.bucket_counts(ctxs))
    tgt_counts = row_counts(enc.bucket_counts(tgts))
    _, buckets, grads = batch_loss_and_grads(enc.params, enc.bucket_counts(ctxs + tgts), enc.tau)
    touched = set().union(*ctx_counts, *tgt_counts)
    # the gradient has one row per touched bucket and none for any other
    assert buckets.tolist() == sorted(touched)
    assert grads.shape == (len(touched), enc.dim)


def test_smaller_tau_amplifies_gradients():
    enc = small_encoder()
    ctxs, tgts = _random_batch(random.Random(2))
    packed = enc.bucket_counts(ctxs + tgts)
    _, _, g_warm = batch_loss_and_grads(enc.params, packed, 0.1)
    _, _, g_cold = batch_loss_and_grads(enc.params, packed, 0.05)
    assert float(np.abs(g_cold).sum()) > float(np.abs(g_warm).sum())


@pytest.mark.parametrize("include_positive", [True, False])
def test_batch_kernel_matches_per_pair_oracle(include_positive):
    rng = random.Random(11)
    for trial in range(6):
        enc = small_encoder(seed=trial, buckets=64 if trial % 2 else 512)
        ctxs, tgts = _random_batch(rng, k=rng.randrange(2, 8))
        # repeated texts: a duplicated context, a duplicated target and a
        # context that is also a target
        ctxs[-1] = ctxs[0]
        tgts[-1] = tgts[0]
        ctxs[0] = tgts[1]
        ctx_counts = row_counts(enc.bucket_counts(ctxs))
        tgt_counts = row_counts(enc.bucket_counts(tgts))
        loss, buckets, grads = batch_loss_and_grads(
            enc.params, enc.bucket_counts(ctxs + tgts), enc.tau, include_positive)
        want_loss, want_grads = oracle_batch_loss_and_grads(
            enc.params, ctx_counts, tgt_counts, enc.tau, include_positive)
        assert loss == pytest.approx(want_loss, abs=1e-12)
        assert buckets.tolist() == sorted(want_grads)
        for bucket, row in zip(buckets.tolist(), grads):
            assert np.abs(row - want_grads[bucket]).max() <= 1e-12


def test_grad_check_rejects_bad_eps():
    enc = small_encoder()
    with pytest.raises(ValueError):
        grad_check(enc, ["a b", "c d"], ["b", "d"], eps=1e-2)


# --------------------------------------------------------------------------
# training loop

def _toy_records(n=24):
    rng = random.Random(0)
    words = "red green blue cyan teal pink gold gray".split()
    out = []
    for i in range(n):
        w = words[i % len(words)]
        noise = rng.choice(words)
        out.append(PairRecord(pair_id=f"p{i}", language="python",
                              context=f"<cls_python>{w} {noise} <mask> {w}",
                              target=f"<cls_python>{w} {w} body", meta={}))
    return out


def test_zero_steps_returns_initialization():
    cfg = TrainConfig(steps=0, dim=8, buckets=128, seed=3)
    init = ToyEncoder.create(seed=3, dim=8, buckets=128)
    encoder, report = train_toy(_toy_records(), [], cfg)
    assert np.array_equal(encoder.params, init.params)
    assert report.steps == 0


def test_training_is_seed_deterministic():
    cfg = TrainConfig(steps=30, dim=8, buckets=256, seed=5, lr=0.5, token_budget=200)
    recs = _toy_records()
    enc_a, _ = train_toy(recs, recs[:6], cfg)
    enc_b, _ = train_toy(recs, recs[:6], cfg)
    assert np.array_equal(enc_a.params, enc_b.params)


def test_training_reduces_loss_and_tracks_best_mrr():
    cfg = TrainConfig(steps=80, dim=16, buckets=512, seed=1, lr=0.8,
                      token_budget=120, eval_every=20)
    recs = _toy_records()
    encoder, report = train_toy(recs, recs, cfg)
    assert report.best_mrr > 0
    assert report.best_step > 0
    assert len(report.mrr_history) >= 3


def test_training_diverges_loudly():
    # normalization makes natural overflow nearly impossible; poison the
    # parameters to prove the non-finite guard actually fires
    cfg = TrainConfig(steps=40, dim=8, buckets=128, seed=1, token_budget=120)
    encoder = ToyEncoder.create(seed=1, dim=8, buckets=128)
    encoder.params[:, 0] = np.nan
    with pytest.raises(Diverged):
        train_toy(_toy_records(), [], cfg, encoder=encoder)


def test_training_requires_a_batch():
    cfg = TrainConfig(steps=5, dim=8, buckets=128)
    with pytest.raises(BatchTooSmall):
        train_toy([_toy_records()[0]], [], cfg)


def test_learning_rate_schedule_shape():
    cfg = TrainConfig(steps=100, lr=1.0, warmup_frac=0.1, decay_power=1.0)
    warm = [learning_rate(t, cfg) for t in range(10)]
    assert warm == sorted(warm)
    assert learning_rate(9, cfg) == pytest.approx(1.0)
    decay = [learning_rate(t, cfg) for t in range(10, 100)]
    assert decay == sorted(decay, reverse=True)
    assert learning_rate(99, cfg) == pytest.approx(1.0 / 90, abs=1e-9)


def test_validation_mrr_perfect_and_chance():
    enc = small_encoder()
    ctx = ["aa bb", "cc dd"]
    assert validation_mrr(enc.params, *pack_validation(enc, ctx, ctx)) == pytest.approx(1.0)


def _brute_force_mrr(enc, contexts, targets, tie_key=lambda j: j) -> float:
    """Mean reciprocal rank from one dot product per (context, target) pair;
    identical target texts give identical vectors and so equal scores."""
    queries = enc.encode(list(contexts))
    keys = enc.encode(list(targets))
    total = 0.0
    for i, q in enumerate(queries):
        row = [float(np.dot(q, k)) for k in keys]
        order = sorted(range(len(keys)), key=lambda j: (-row[j], tie_key(j)))
        total += 1.0 / (order.index(i) + 1)
    return total / len(queries)


def test_validation_mrr_ties_match_brute_force_rank():
    # three copies of one target score exactly equal; ties break by
    # ascending index, which here changes the mean (reversed ties would not)
    enc = small_encoder()
    contexts = ("aa bb", "cc", "aa", "ee ff", "gg", "cc dd bb")
    targets = ("aa bb", "cc dd", "aa bb", "ee", "ff gg hh", "aa bb")
    want = _brute_force_mrr(enc, contexts, targets)
    assert _brute_force_mrr(enc, contexts, targets, tie_key=lambda j: -j) != pytest.approx(want)
    valid = pack_validation(enc, list(contexts), list(targets))
    assert valid[1][0] == valid[1][2] == valid[1][5]  # the copies share one target row
    # block 5 leaves one row in the last block, apart from two of the copies
    for block in (512, 5, 1):
        assert validation_mrr(enc.params, *valid, block=block) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("seed", [1, 3])
def test_validation_mrr_duplicate_targets_tie_by_index_in_any_block(seed):
    # 37 copies of one target among 41: scoring them as separate columns of
    # a matrix product rounds some copies differently (seen with a one-row
    # block and with 8-row blocks), so ties would fall to rounding
    enc = small_encoder(seed=seed, dim=64)
    rng = np.random.default_rng(seed)
    words = "alpha beta gamma delta epsi zeta eta theta iota kappa lam mu".split()
    contexts = [" ".join(rng.choice(words, 6)) for _ in range(41)]
    targets = [" ".join(rng.choice(words, 4)) if i < 4 else "alpha beta gamma" for i in range(41)]
    want = _brute_force_mrr(enc, contexts, targets)
    valid = pack_validation(enc, list(contexts), list(targets))
    assert len(valid[1]) == 41 and valid[1].max() == 4
    for block in (512, 8, 1):  # 41 % 8 == 1: the last block holds one row
        assert validation_mrr(enc.params, *valid, block=block) == pytest.approx(want, abs=1e-12)


def test_checkpoint_roundtrip(tmp_path):
    enc = small_encoder()
    path = tmp_path / "model.ckpt"
    enc.save(path)
    sidecar = (tmp_path / "model.ckpt.json").read_text(encoding="utf-8")
    assert '"format_version"' in sidecar
    loaded = ToyEncoder.load(path)
    assert np.array_equal(loaded.params, enc.params)
    assert loaded.tau == enc.tau
