#!/usr/bin/env python3
"""Run the leakage ablation end to end and print the comparison table.

Builds the synthetic clone corpus, generates pairs with and without the
de-leaking transforms, trains one toy encoder on each, and evaluates both on
held-out clone retrieval next to a token-overlap baseline.

Example:
  python scripts/run_ablation.py --workdir /tmp/ablation --seed 9 --steps 1200

Exit codes: 0 when all three directional checks hold, 1 when one fails, 2 for
a bad flag or a data error, such as a flag value out of its bound.
"""

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from codegap.errors import CodegapError
from codegap.experiments import AblationConfig, run_ablation


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, required=True)
    fields = [f for f in dataclasses.fields(AblationConfig) if f.name != "workdir"]
    for field in fields:  # AblationConfig declares each default
        parser.add_argument(f"--{field.name.replace('_', '-')}", type=type(field.default),
                            default=field.default)
    parser.add_argument("--out", type=Path, default=None, help="write a JSON summary here")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    try:  # a value out of its bound is refused here, before anything is written
        config = AblationConfig(workdir=args.workdir,
                                **{field.name: getattr(args, field.name) for field in fields})
        result = run_ablation(config)
    except CodegapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.summary())
    print()
    print("held-out metric tables")
    print("  with masking + dedent:")
    for line in result.deleak_report.to_table().splitlines():
        print(f"    {line}")
    print("  raw splits:")
    for line in result.plain_report.to_table().splitlines():
        print(f"    {line}")

    if args.out:
        payload = {
            "seed": config.seed,
            "steps": config.steps,
            "pool_size": result.pool_size,
            "random_baseline": result.random_baseline,
            "lexical_train_map": {
                "deleak": result.lexical_train_map_deleak,
                "plain": result.lexical_train_map_plain,
            },
            "heldout": {
                "deleak": result.deleak_report.to_dict() | {"per_query": []},
                "plain": result.plain_report.to_dict() | {"per_query": []},
            },
            "checks": {
                "mrr_beats_5x_random": result.beats_random,
                "leakage_reduced": result.leakage_reduced,
                "deleak_generalizes": result.deleak_generalizes,
            },
            "seconds": result.seconds,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"\nsummary -> {args.out}")
    return 0 if (result.beats_random and result.leakage_reduced
                 and result.deleak_generalizes) else 1


if __name__ == "__main__":
    raise SystemExit(main())
