#!/usr/bin/env python3
"""Generate the synthetic corpora used by the tests and experiments.

Emits a mixed-language corpus (python/java/c/javascript) for round-trip and
pipeline runs, and optionally the clone corpus with its retrieval evaluation
files (queries/candidates/qrels).

Example:
  python scripts/make_synthetic_corpus.py --out /tmp/corpus --seed 42 --clone

Exit codes: 0 success, 2 for a flag value out of its bound, such as fewer
variants than the training and validation ones plus two held out.
"""

import argparse
import sys
from pathlib import Path

from codegap.errors import CodegapError
from codegap.synth import write_clone_corpus, write_mixed_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--files-per-lang", type=int, default=30)
    parser.add_argument("--clone", action="store_true",
                        help="also emit the clone corpus + eval files")
    parser.add_argument("--functionalities", type=int, default=20)
    parser.add_argument("--variants", type=int, default=15)
    args = parser.parse_args()

    try:  # a value out of its bound is refused before that corpus is written
        paths = write_mixed_corpus(args.out / "mixed", seed=args.seed,
                                   files_per_lang=args.files_per_lang)
        print(f"mixed corpus: {len(paths)} files -> {args.out / 'mixed'}")
        if args.clone:
            corpus = write_clone_corpus(args.out / "clone", seed=args.seed,
                                        functionalities=args.functionalities,
                                        variants=args.variants)
            print(f"clone corpus: {corpus.train_files} files -> {corpus.corpus_dir}")
            print(f"eval files: {corpus.eval_queries} queries, "
                  f"{corpus.pool_size} candidates -> {corpus.queries_path.parent}")
            print(f"validation repos: {', '.join(corpus.valid_repos)}")
    except CodegapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
