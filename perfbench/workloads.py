"""The four workloads: set-up, one measured iteration, and output checks.

Every iteration runs `codegap.cli.main` subcommands in this process, the
same entry point the `codegap` console script calls. The workload seed
generates the inputs (and is passed on as the program's own `--seed`); the
program only ever sees the files written at set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import statistics
import sysconfig
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracle
import pace

# pairs_real: stdlib modules and C headers of mid size, every STRIDE-th in
# sorted order; long enough that most files are truncated. Truncation work
# on so few files swings by a quarter with the program's seed, so that seed
# is fixed and every workload seed does the same work on the same corpus.
REAL_MIN_BYTES = 10_000
REAL_MAX_BYTES = 40_000
REAL_STRIDE = 8
REAL_HEADERS = Path("/usr/include")
REAL_PROGRAM_SEED = 0
# pairs_short: every file stays under the 1,024-token truncation threshold
SHORT_FILES_PER_LANGUAGE = 150
# train_clone: the ablation's toy model settings, fewer steps per iteration
TRAIN_STEPS = 60
TRAIN_ARGS = ["--lr", "1.0", "--d", "64", "--buckets", "4096"]
# rank_pool: 20 functionalities x POOL_HELD held-out variants per side
POOL_HELD = 20
POOL_LEXICAL_EVERY = 20


class CheckFailed(Exception):
    """A subcommand failed or an output differs from its reference."""


@dataclass
class Iteration:
    stages: dict[str, float]       # subcommand -> wall seconds
    fingerprint: str               # SHA-256 over every output file
    info: dict = field(default_factory=dict)
    cpu_s: float = 0.0
    scale: float = 1.0             # wall seconds -> reference seconds (pace.py)

    @property
    def wall(self) -> float:
        return sum(self.stages.values())


def stage_median(its: list[Iteration], name: str) -> float:
    return statistics.median(it.stages[name] for it in its)


def run_cli(argv: list[str]) -> float:
    """Wall seconds of one `codegap` subcommand, without the host-speed
    probes that ran inside it; non-zero exit raises."""
    from codegap import cli

    sink = io.StringIO()
    probed = pace.spent()
    start = perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(["--log-level", "WARNING", *argv])
    wall = perf_counter() - start - (pace.spent() - probed)
    if code != 0:
        raise CheckFailed(f"codegap {argv[0]} exited with {code}")
    return wall


@contextlib.contextmanager
def capture_returns(module, name: str):
    """Collect what module.name returns while the block runs."""
    original = getattr(module, name)
    seen: list = []

    def capturing(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    setattr(module, name, capturing)
    try:
        yield seen
    finally:
        setattr(module, name, original)


def files_under(paths: list[Path]) -> list[tuple[str, Path]]:
    """(relative name, path) of every file under the given files and dirs."""
    out = []
    for base in paths:
        if base.is_file():
            out.append((base.name, base))
        else:
            out.extend((f"{base.name}/{p.relative_to(base).as_posix()}", p)
                       for p in base.rglob("*") if p.is_file())
    return sorted(out)


def digest_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for name, path in files_under(paths):
        data = path.read_bytes()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def describe_inputs(paths: list[Path]) -> dict:
    """Provenance of the inputs: digest, file count, bytes, and the text
    tokens of the files that are UTF-8 text."""
    data = [p.read_bytes() for _, p in files_under(paths)]
    tokens = 0
    for d in data:
        try:
            tokens += len(oracle.TOKEN_RE.findall(d.decode("utf-8")))
        except UnicodeDecodeError:
            pass
    return {"digest": digest_files(paths), "files": len(data),
            "bytes": sum(len(d) for d in data), "text_tokens": tokens}


def count_lines(root: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for _, p in files_under([root]))


class Workload:
    name = ""
    jobs = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs: list[Path] = []

    def setup(self, dest: Path) -> None:
        """Write this seed's inputs under dest and point self.inputs at them."""
        raise NotImplementedError

    def ops(self) -> int:
        """Operations in one iteration: files, training steps or queries."""
        raise NotImplementedError

    def iterate(self, out: Path, jobs: int) -> Iteration:
        raise NotImplementedError

    def check(self, first: Path, jobs: int) -> list[str]:
        """Problems found in the first iteration's outputs under `first`."""
        return []

    def stage_metrics(self, its: list[Iteration]) -> dict[str, tuple[float, str]]:
        """Per-workload throughputs (over the median stage time) and quality,
        printed beside the end-to-end metrics."""
        return {}


# --------------------------------------------------------------------------
# pair generation

class _Pairs(Workload):
    def program_seed(self) -> int:
        return self.seed

    def iterate(self, out: Path, jobs: int) -> Iteration:
        shards = out / "shards"
        wall = run_cli(["pairs", "--roots", str(self.inputs[0]), "--out", str(shards),
                        "--seed", str(self.program_seed()), "--jobs", str(jobs)])
        return Iteration({"pairs": wall}, digest_files([shards]),
                         {"pairs": count_lines(shards)})

    def ops(self) -> int:
        return self.files

    def check(self, first: Path, jobs: int) -> list[str]:
        # the other worker count must give the same bytes; whichever of the
        # two is serial is the reference for (corpus, config, seed)
        other = 2 if jobs == 1 else 1
        ref_dir = first.parent / "reference"
        expected = self.iterate(ref_dir, other).fingerprint
        got = digest_files([first / "shards"])
        if got != expected:
            return [f"shards with --jobs {jobs} differ from --jobs {other}"]
        return []

    def stage_metrics(self, its):
        return {"pairs_per_s": (its[0].info["pairs"] / stage_median(its, "pairs"), "1/s")}


class PairsReal(_Pairs):
    name = "pairs_real"

    def program_seed(self) -> int:
        return REAL_PROGRAM_SEED

    @staticmethod
    def sources() -> list[Path]:
        stdlib = Path(sysconfig.get_paths()["stdlib"])
        found = sorted(stdlib.glob("*.py")) + sorted(REAL_HEADERS.glob("*.h"))
        picked = []
        for path in found:
            if REAL_MIN_BYTES <= path.stat().st_size <= REAL_MAX_BYTES:
                try:
                    path.read_bytes().decode("utf-8")
                except UnicodeDecodeError:
                    continue
                picked.append(path)
        return picked[::REAL_STRIDE]

    def setup(self, dest: Path) -> None:
        corpus = dest / "corpus"
        sources = self.sources()
        if not sources:
            raise CheckFailed("no stdlib or header sources found for pairs_real")
        for src in sources:
            sub = corpus / ("python" if src.suffix == ".py" else "c")
            sub.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(src, sub / src.name)
        self.inputs = [corpus]
        self.files = len(sources)


class PairsShort(_Pairs):
    name = "pairs_short"
    jobs = 2

    def setup(self, dest: Path) -> None:
        from codegap.synth import write_mixed_corpus

        corpus = dest / "corpus"
        self.files = len(write_mixed_corpus(corpus, seed=self.seed,
                                            files_per_lang=SHORT_FILES_PER_LANGUAGE,
                                            long_every=0))
        self.inputs = [corpus]


# --------------------------------------------------------------------------
# training on the clone corpus

class TrainClone(Workload):
    name = "train_clone"

    def setup(self, dest: Path) -> None:
        from codegap.synth import write_clone_corpus

        self.corpus = write_clone_corpus(dest / "clone", seed=self.seed)
        self.valid = dest / "valid_repos.txt"
        self.valid.write_text("\n".join(self.corpus.valid_repos) + "\n", encoding="utf-8")
        self.inputs = [dest / "clone", self.valid]

    def ops(self) -> int:
        return TRAIN_STEPS

    def iterate(self, out: Path, jobs: int) -> Iteration:
        from codegap import cli

        c = self.corpus
        shards, ckpt, report = out / "shards", out / "toy.ckpt", out / "report.json"
        out.mkdir(parents=True, exist_ok=True)
        stages = {"pairs": run_cli(["pairs", "--roots", str(c.corpus_dir), "--out", str(shards),
                                    "--seed", str(self.seed), "--valid-repos", str(self.valid),
                                    "--jobs", str(jobs)])}
        with capture_returns(cli, "train_toy") as trained:
            stages["train-toy"] = run_cli(["train-toy", "--shards", str(shards), "--out", str(ckpt),
                                           "--steps", str(TRAIN_STEPS), "--seed", str(self.seed),
                                           *TRAIN_ARGS])
        stages["eval"] = run_cli(["eval", "--queries", str(c.queries_path),
                                  "--candidates", str(c.candidates_path),
                                  "--qrels", str(c.qrels_path), "--model", "toy",
                                  "--checkpoint", str(ckpt), "--out", str(report)])
        train_report = trained[0][1]
        (out / "loss.json").write_text(json.dumps({"final_loss": train_report.final_loss,
                                                   "best_mrr": train_report.best_mrr}))
        return Iteration(stages, digest_files(sorted(out.iterdir())), {
            "pairs": count_lines(shards),
            "heldout_map": json.loads(report.read_text(encoding="utf-8"))["map"],
        })

    def check(self, first: Path, jobs: int) -> list[str]:
        c = self.corpus
        expected = oracle.expected_report(c.queries_path, c.candidates_path, c.qrels_path,
                                          first / "toy.ckpt")
        actual = json.loads((first / "report.json").read_text(encoding="utf-8"))
        return oracle.differences(actual, expected, "held-out report")

    def stage_metrics(self, its):
        return {
            "pairs_per_s": (its[0].info["pairs"] / stage_median(its, "pairs"), "1/s"),
            "train_steps_per_s": (TRAIN_STEPS / stage_median(its, "train-toy"), "1/s"),
            "eval_queries_per_s": (self.corpus.eval_queries / stage_median(its, "eval"),
                                   "1/s"),
            "heldout_map": (its[0].info["heldout_map"], "MAP"),
        }


# --------------------------------------------------------------------------
# ranking a large eval pool

class RankPool(Workload):
    name = "rank_pool"

    def setup(self, dest: Path) -> None:
        from codegap.contrastive import ToyEncoder
        from codegap.synth import write_clone_corpus

        corpus = write_clone_corpus(dest / "clone", seed=self.seed, variants=12 + POOL_HELD)
        self.corpus = corpus
        self.checkpoint = dest / "toy.ckpt"
        ToyEncoder.create(seed=self.seed, dim=64, buckets=4096).save(self.checkpoint)
        rows = corpus.queries_path.read_text(encoding="utf-8").splitlines()
        self.lexical_queries = dest / "lexical_queries.jsonl"
        self.lexical_queries.write_text("\n".join(rows[::POOL_LEXICAL_EVERY]) + "\n",
                                        encoding="utf-8")
        self.lexical_count = len(rows[::POOL_LEXICAL_EVERY])
        self.inputs = [corpus.queries_path.parent, self.checkpoint,
                       Path(str(self.checkpoint) + ".json"), self.lexical_queries]

    def ops(self) -> int:
        return self.corpus.eval_queries + self.lexical_count

    def _eval_args(self, queries: Path) -> list[str]:
        c = self.corpus
        return ["eval", "--queries", str(queries), "--candidates", str(c.candidates_path),
                "--qrels", str(c.qrels_path)]

    def iterate(self, out: Path, jobs: int) -> Iteration:
        out.mkdir(parents=True, exist_ok=True)
        stages = {
            "eval": run_cli([*self._eval_args(self.corpus.queries_path), "--model", "toy",
                             "--checkpoint", str(self.checkpoint),
                             "--out", str(out / "toy.json")]),
            "eval-lexical": run_cli([*self._eval_args(self.lexical_queries), "--lexical",
                                     "--out", str(out / "lexical.json")]),
        }
        report = json.loads((out / "toy.json").read_text(encoding="utf-8"))
        return Iteration(stages, digest_files(sorted(out.iterdir())), {"map": report["map"]})

    def check(self, first: Path, jobs: int) -> list[str]:
        c = self.corpus
        problems = []
        for name, queries, ckpt in (("toy", c.queries_path, self.checkpoint),
                                    ("lexical", self.lexical_queries, None)):
            expected = oracle.expected_report(queries, c.candidates_path, c.qrels_path, ckpt)
            actual = json.loads((first / f"{name}.json").read_text(encoding="utf-8"))
            problems += oracle.differences(actual, expected, f"{name} report")
        return problems

    def stage_metrics(self, its):
        return {
            "eval_queries_per_s": (self.corpus.eval_queries / stage_median(its, "eval"),
                                   "1/s"),
            "lexical_queries_per_s": (self.lexical_count
                                      / stage_median(its, "eval-lexical"), "1/s"),
            "pool_map": (its[0].info["map"], "MAP"),
        }


WORKLOADS = {w.name: w for w in (PairsReal, PairsShort, TrainClone, RankPool)}
