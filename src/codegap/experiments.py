"""End-to-end directional experiment on the synthetic clone corpus.

Trains the toy encoder twice on the same corpus — once on leak-reduced pairs
(identifier masking + dedentation) and once on raw splits — then compares:

* a token-overlap retriever's ability to find each training pair's own target
  (a direct leakage probe: masking should make this harder), and
* both trained encoders on held-out clone retrieval, where the leak-reduced
  one should generalize at least as well,
* plus the leak-reduced encoder's MRR against the 1/N random baseline.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .contrastive import ToyEncoder, TrainConfig, train_toy
from .pipeline import PipelineConfig, PairRecord, ingest, make_pairs
from .retrieval import (
    EvalReport,
    Judgments,
    evaluate,
    evaluate_rankings,
    lexical_pool,
    load_candidates,
    load_qrels,
    load_queries,
    overlap_coefficient,
    rank_lexical,
    token_set,
)
from .synth import CloneCorpus, write_clone_corpus

log = logging.getLogger(__name__)

LEXICAL_QUERY_CAP = 300  # training pairs probed by the token-overlap retriever


@dataclass
class AblationConfig:
    workdir: Path
    seed: int = 7
    pairs_per_input: int = 2
    steps: int = 1200
    lr: float = 1.0
    dim: int = 64
    buckets: int = 4096


@dataclass
class AblationResult:
    corpus: CloneCorpus
    pool_size: int
    random_baseline: float
    lexical_train_map_deleak: float
    lexical_train_map_plain: float
    deleak_report: EvalReport
    plain_report: EvalReport
    seconds: float

    @property
    def trained_mrr(self) -> float:
        return self.deleak_report.mrr

    @property
    def leakage_reduced(self) -> bool:
        return self.lexical_train_map_deleak < self.lexical_train_map_plain

    @property
    def deleak_generalizes(self) -> bool:
        return self.deleak_report.map >= self.plain_report.map

    @property
    def beats_random(self) -> bool:
        return self.trained_mrr >= 5.0 * self.random_baseline

    def summary(self) -> str:
        lines = [
            f"pool size N={self.pool_size}, random baseline 1/N={self.random_baseline:.4f}",
            f"lexical-overlap MAP on training pairs: deleaked {self.lexical_train_map_deleak:.4f}"
            f" vs raw {self.lexical_train_map_plain:.4f} (reduced: {self.leakage_reduced})",
            f"held-out retrieval, deleaked encoder:  MAP {self.deleak_report.map:.4f}"
            f" MRR {self.deleak_report.mrr:.4f}",
            f"held-out retrieval, raw-split encoder: MAP {self.plain_report.map:.4f}"
            f" MRR {self.plain_report.mrr:.4f}",
            f"MRR >= 5/N: {self.beats_random}; deleak MAP >= raw MAP: {self.deleak_generalizes}",
            f"wall time: {self.seconds:.1f}s",
        ]
        return "\n".join(lines)


def _own_target_judgments(records: list[PairRecord]) -> Judgments:
    return Judgments(relevant={f"q:{r.pair_id}": {f"t:{r.pair_id}"} for r in records})


def lexical_training_map(records: list[PairRecord], cap: int) -> float:
    """MAP of a token-overlap retriever finding each pair's own target.

    Uses the overlap coefficient so short targets are not drowned out; with
    raw splits the own target shares all its identifiers with the context and
    should stand out, with masking it should not.
    """
    sample = records[:cap]
    pool = lexical_pool({f"t:{r.pair_id}": r.target for r in sample})
    judgments = _own_target_judgments(sample)
    lists = [rank_lexical(token_set(r.context), pool, query_id=f"q:{r.pair_id}",
                          scorer=overlap_coefficient) for r in sample]
    return evaluate_rankings(lists, judgments).map


def _evaluate_encoder(encoder: ToyEncoder, corpus: CloneCorpus) -> EvalReport:
    queries = load_queries(corpus.queries_path)
    candidates = load_candidates(corpus.candidates_path)
    judgments = load_qrels(corpus.qrels_path)
    qvecs = {qid: encoder.encode(q["context"]) for qid, q in queries.items()}
    cvecs = {tid: encoder.encode(c["text"]) for tid, c in candidates.items()}
    return evaluate(qvecs, cvecs, judgments)


def run_ablation(config: AblationConfig) -> AblationResult:
    started = time.monotonic()
    workdir = Path(config.workdir)
    corpus = write_clone_corpus(workdir / "clone", seed=config.seed)

    base = PipelineConfig(seed=config.seed, pairs_per_input=config.pairs_per_input,
                          valid_repos=frozenset(corpus.valid_repos))
    files = ingest([corpus.corpus_dir], base)
    log.info("clone corpus: %d files (%d for validation repos)",
             len(files), sum(1 for f in files if f.split == "valid"))

    deleak_cfg = base
    plain_cfg = replace(base, masking_enabled=False, dedent_enabled=False)
    deleak_all = list(make_pairs(files, deleak_cfg))
    plain_all = list(make_pairs(files, plain_cfg))
    deleak_train = [r for r in deleak_all if r.split == "train"]
    deleak_valid = [r for r in deleak_all if r.split == "valid"]
    plain_train = [r for r in plain_all if r.split == "train"]
    plain_valid = [r for r in plain_all if r.split == "valid"]

    lex_deleak = lexical_training_map(deleak_train, LEXICAL_QUERY_CAP)
    lex_plain = lexical_training_map(plain_train, LEXICAL_QUERY_CAP)

    tcfg = TrainConfig(steps=config.steps, lr=config.lr, seed=config.seed,
                       dim=config.dim, buckets=config.buckets)
    enc_deleak, rep_deleak = train_toy(deleak_train, deleak_valid, tcfg)
    enc_plain, rep_plain = train_toy(plain_train, plain_valid, tcfg)
    log.info("trained: deleak best-mrr %.4f @ %d; plain best-mrr %.4f @ %d",
             rep_deleak.best_mrr, rep_deleak.best_step,
             rep_plain.best_mrr, rep_plain.best_step)

    report_deleak = _evaluate_encoder(enc_deleak, corpus)
    report_plain = _evaluate_encoder(enc_plain, corpus)

    return AblationResult(
        corpus=corpus,
        pool_size=corpus.pool_size,
        random_baseline=1.0 / corpus.pool_size,
        lexical_train_map_deleak=lex_deleak,
        lexical_train_map_plain=lex_plain,
        deleak_report=report_deleak,
        plain_report=report_plain,
        seconds=time.monotonic() - started,
    )
