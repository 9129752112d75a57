import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codegap.contrastive import (
    _embed_counts,
    ToyEncoder,
    TrainConfig,
    batch_loss,
    batch_loss_and_grads,
    cosine,
    grad_check,
    info_nce,
    learning_rate,
    ngram_bucket_counts,
    stable_bucket,
    train_toy,
    validation_mrr,
)
from codegap.errors import (
    BatchTooSmall,
    DimensionMismatch,
    Diverged,
    EmptyInput,
    InvalidTemperature,
    ZeroVector,
)
from codegap.pipeline import PairRecord

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def small_encoder(**kw):
    kw.setdefault("seed", 0)
    kw.setdefault("dim", 16)
    kw.setdefault("buckets", 512)
    return ToyEncoder.create(**kw)


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
    counts = ngram_bucket_counts(["a", "b", "a"], 4096)
    assert sum(counts.values()) == 3 + 2  # three unigrams, two bigrams


def test_encode_deterministic_unit_norm():
    enc = small_encoder()
    one = enc.encode("alpha beta gamma")
    two = enc.encode("alpha beta gamma")
    assert np.array_equal(one, two)
    assert np.linalg.norm(one) == pytest.approx(1.0)


def test_encode_single_token_is_normalized_row():
    enc = small_encoder()
    bucket = stable_bucket("solo", enc.buckets)
    row = enc.params[bucket]
    expected = row / np.linalg.norm(row)
    assert np.allclose(enc.encode("solo"), expected)


def test_encode_empty_input():
    with pytest.raises(EmptyInput):
        small_encoder().encode("   ")


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
    ctx_counts = [enc.bucket_counts(t) for t in ctxs]
    tgt_counts = [enc.bucket_counts(t) for t in tgts]
    _, grads = batch_loss_and_grads(enc.params, ctx_counts, tgt_counts, enc.tau)
    touched = set().union(*ctx_counts, *tgt_counts)
    assert set(grads) <= touched


def test_smaller_tau_amplifies_gradients():
    enc = small_encoder()
    ctxs, tgts = _random_batch(random.Random(2))
    ctx_counts = [enc.bucket_counts(t) for t in ctxs]
    tgt_counts = [enc.bucket_counts(t) for t in tgts]
    _, g_warm = batch_loss_and_grads(enc.params, ctx_counts, tgt_counts, 0.1)
    _, g_cold = batch_loss_and_grads(enc.params, ctx_counts, tgt_counts, 0.05)
    norm = lambda g: sum(float(np.abs(v).sum()) for v in g.values())
    assert norm(g_cold) > norm(g_warm)


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
    ctx_counts = [enc.bucket_counts(t) for t in ("aa bb", "cc dd")]
    assert validation_mrr(enc.params, ctx_counts, ctx_counts) == pytest.approx(1.0)


def test_validation_mrr_ties_match_brute_force_rank():
    # three copies of one target score exactly equal; ties break by
    # ascending index, which here changes the mean (reversed ties would not)
    enc = small_encoder()
    ctx = [enc.bucket_counts(t) for t in ("aa bb", "cc", "aa", "ee ff", "gg", "cc dd bb")]
    tgt = [enc.bucket_counts(t) for t in ("aa bb", "cc dd", "aa bb", "ee", "ff gg hh", "aa bb")]
    eq, _, _ = _embed_counts(enc.params, ctx)
    ek, _, _ = _embed_counts(enc.params, tgt)
    scores = (eq @ ek.T).tolist()
    assert all(row[0] == row[2] == row[5] for row in scores)

    def mean_rr(tie_key) -> float:
        ranks = [sorted(range(len(tgt)), key=lambda j: (-row[j], tie_key(j))).index(i) + 1
                 for i, row in enumerate(scores)]
        return sum(1.0 / r for r in ranks) / len(ranks)

    assert mean_rr(lambda j: -j) != pytest.approx(mean_rr(lambda j: j))
    assert validation_mrr(enc.params, ctx, tgt) == pytest.approx(mean_rr(lambda j: j), rel=1e-12)


def test_checkpoint_roundtrip(tmp_path):
    enc = small_encoder()
    path = tmp_path / "model.ckpt"
    enc.save(path)
    sidecar = (tmp_path / "model.ckpt.json").read_text(encoding="utf-8")
    assert '"format_version"' in sidecar
    loaded = ToyEncoder.load(path)
    assert np.array_equal(loaded.params, enc.params)
    assert loaded.tau == enc.tau
