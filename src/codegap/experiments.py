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
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .cli import eval_files, eval_overlap
from .contrastive import TrainConfig, train_toy
from .errors import BoundedConfig
from .pipeline import PairRecord, PipelineConfig, ingest, make_pairs, read_shard_dir, write_shards
from .retrieval import EvalReport, Judgments
from .synth import CloneCorpus, write_clone_corpus

log = logging.getLogger(__name__)

LEXICAL_QUERY_CAP = 300  # training pairs probed by the token-overlap retriever


@dataclass(frozen=True)
class AblationConfig(BoundedConfig):
    workdir: Path
    seed: int = 9
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


def lexical_training_map(records: list[PairRecord], cap: int) -> float:
    """MAP of a token-overlap retriever finding each pair's own target.

    Uses the overlap coefficient so short targets are not drowned out; with
    raw splits the own target shares all its identifiers with the context and
    should stand out, with masking it should not.
    """
    sample = records[:cap]
    own = Judgments(relevant={f"q:{r.pair_id}": {f"t:{r.pair_id}"} for r in sample})
    return eval_overlap(((f"q:{r.pair_id}", r.context) for r in sample),
                        {f"t:{r.pair_id}": r.target for r in sample}, own, coefficient=True).map


def run_ablation(config: AblationConfig) -> AblationResult:
    started = time.monotonic()
    workdir = Path(config.workdir)
    corpus = write_clone_corpus(workdir / "clone", seed=config.seed)

    base = PipelineConfig(seed=config.seed, pairs_per_input=config.pairs_per_input,
                          valid_repos=frozenset(corpus.valid_repos))
    files = ingest([corpus.corpus_dir], base)
    log.info("clone corpus: %d files (%d for validation repos)",
             len(files), sum(1 for f in files if f.split == "valid"))

    tcfg = TrainConfig(steps=config.steps, lr=config.lr, seed=config.seed,
                       dim=config.dim, buckets=config.buckets)
    eval_paths = (corpus.queries_path, corpus.candidates_path, corpus.qrels_path)
    lexical, reports = {}, {}
    for name, cfg in (("deleak", base),
                      ("plain", replace(base, masking_enabled=False, dedent_enabled=False))):
        shards = workdir / f"shards-{name}"
        shutil.rmtree(shards, ignore_errors=True)  # an earlier run's shards would mix in
        write_shards(make_pairs(files, cfg), shards, cfg.shard_size)
        train, valid = read_shard_dir(shards)  # read back as train-toy reads them
        lexical[name] = lexical_training_map(train, LEXICAL_QUERY_CAP)
        encoder, trained = train_toy(train, valid, tcfg)
        log.info("trained %s: best-mrr %.4f @ %d", name, trained.best_mrr, trained.best_step)
        reports[name] = eval_files(*eval_paths, encoder=encoder)

    return AblationResult(
        corpus=corpus,
        pool_size=corpus.pool_size,
        random_baseline=1.0 / corpus.pool_size,
        lexical_train_map_deleak=lexical["deleak"],
        lexical_train_map_plain=lexical["plain"],
        deleak_report=reports["deleak"],
        plain_report=reports["plain"],
        seconds=time.monotonic() - started,
    )
