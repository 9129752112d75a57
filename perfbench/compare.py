"""Compare two sets of benchmark result records; refuse incomparable ones.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds records that run.py wrote to `.perfbench/results/`.
Two records of one workload are comparable only when they ran on the same
inputs (the same corpus digest for the same seed), the same Python and numpy
versions and the same CPU count. Anything else is refused with exit code 2,
because a different installed Python changes the pairs_real corpus. For each
workload and metric the table shows the median over runs on both sides,
their quartile spread as a share of the median, and the change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: str) -> list[dict]:
    records = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(Path(directory).glob("*.json"))]
    return [r for r in records if r.get("correct")]


def environment(record: dict) -> tuple:
    p = record["provenance"]
    return p["python"], p["numpy"], p["nproc"]


def incomparable(before: list[dict], after: list[dict]) -> list[str]:
    problems = []
    envs = {environment(r) for r in before + after}
    if len(envs) > 1:
        problems.append(f"runs come from different environments: {sorted(envs)}")
    digests: dict[tuple, set] = {}
    for r in before + after:
        digests.setdefault((r["workload"], r["seed"]), set()).add(
            r["provenance"]["inputs"]["digest"])
    problems += [f"{w} seed {s}: inputs differ between runs ({len(d)} corpus digests)"
                 for (w, s), d in sorted(digests.items()) if len(d) > 1]
    return problems


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    before, after = load(argv[0]), load(argv[1])
    problems = incomparable(before, after)
    if problems:
        for problem in problems:
            print(f"compare: refused: {problem}", file=sys.stderr)
        return 2
    print(f"{'workload':<12} {'metric':<32} {'before':>12} {'spread':>7} "
          f"{'after':>12} {'spread':>7} {'change':>8}")
    for workload in sorted({r["workload"] for r in before} & {r["workload"] for r in after}):
        for trace in (False, True):
            side = [[r for r in rs if r["workload"] == workload and r["trace"] == trace]
                    for rs in (before, after)]
            if not all(side):
                continue
            for metric, info in side[0][0]["metrics"].items():
                vals = [[r["metrics"][metric]["value"] for r in rs] for rs in side]
                b, a = statistics.median(vals[0]), statistics.median(vals[1])
                change = f"{(a - b) / b:+.1%}" if b else "n/a"
                print(f"{workload:<12} {metric:<32} {b:12.6g} {spread(vals[0]):7.1%} "
                      f"{a:12.6g} {spread(vals[1]):7.1%} {change:>8}  {info['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
