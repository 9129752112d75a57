"""Run one codegap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pairs_real --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from anywhere; codegap is imported from the `src/` directory beside this
one, never from an installed copy. Set-up writes the workload's inputs under
`.perfbench/` at the repository root, SETUP_REPEATS times. The measured run
then repeats the workload's iteration for `--seconds` (at least
MIN_ITERATIONS times, after one warm-up) and reports the set-up time (the
median time to write the inputs, plus the warm-up: the first, cold pass
over them) and the lower quartile of the iteration times, both rescaled to
a fixed host speed (pace.py). Every iteration must produce the same output
bytes, and the workload's own check compares the warm-up's outputs with an
independent reference. A failed check prints the problems, marks every
operation failed and exits 1.

`--trace 1` instead runs untraced passes, then passes with a wrapper on every
layer call (one job), and prints the per-layer metrics. The last line of
stdout is always one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pace
from workloads import WORKLOADS, CheckFailed, describe_inputs, digest_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
MIN_ITERATIONS = 3
MIN_TRACED = 2
# timed set-ups in a plain run: the first creates the inputs, the rest
# write the same files again over one second copy
SETUP_REPEATS = 7

# every workload reports every one of these (name, unit)
END_TO_END = [("setup_s", "s"), ("run_ref_s", "s"), ("input_mb_per_ref_s", "MB/s"),
              ("peak_rss_mb", "MB")]


def load_codegap():
    """Import codegap from this checkout's src/, or stop with exit code 1."""
    src = ROOT / "src"
    if not (src / "codegap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no codegap sources under {src}")
    sys.path.insert(0, str(src))
    import codegap

    if Path(codegap.__file__).resolve().parent != (src / "codegap").resolve():
        sys.exit(f"perfbench: imported codegap from {codegap.__file__}, not {src}")
    return codegap


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb(jobs: int) -> float:
    """Parent peak plus `jobs` times the largest child's peak: an upper bound,
    since forked pool workers share pages with the parent."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + jobs * child) / 1024.0


def timed_setup(workload, dest: Path) -> tuple[float, float, str]:
    """Wall seconds of one set-up, the same rescaled to the reference host
    speed (pace.py), and the digest of the inputs it wrote."""
    with pace.sampling(during=False) as sample:
        start = perf_counter()
        workload.setup(dest)
        wall = perf_counter() - start
    return wall, wall * sample.scale(), digest_files(workload.inputs)


class Run:
    """Set-ups of one workload, then its iterations.

    The set-ups run back to back before the first iteration. Every repeat
    writes over the previous repeat's copy: creating fresh files on this
    host's file system cost from 3x to 10x more at some times than at others
    (more so for seconds after a large delete), rewriting them less. Nothing
    is deleted until the run ends, so file-system clean-up never lands
    inside a timed region.
    """

    def __init__(self, workload, work: Path, repeat_setup: bool):
        self.workload = workload
        self.work = work
        wall, ref, self.digest = timed_setup(workload, work / "inputs")
        self.setup_walls, self.setup_times = [wall], [ref]
        self.problems: list[str] = []
        while repeat_setup and len(self.setup_times) < SETUP_REPEATS:
            wall, ref, digest = timed_setup(type(workload)(workload.seed), work / "setup_again")
            self.setup_walls.append(wall)
            self.setup_times.append(ref)
            if digest != self.digest and not self.problems:
                self.problems.append("set-up wrote different inputs on a repeat")

    def measure(self, name: str, seconds: float, jobs: int, minimum: int):
        """One warm-up iteration, whose outputs are kept for the checks, then
        iterations for `seconds`; returns (warm-up, timed, warm-up dir)."""
        first = self.work / name / "warmup"
        with pace.sampling(during=jobs == 1) as sample:
            warmup = self.workload.iterate(first, jobs)
        warmup.scale = sample.scale()
        its = []
        start = perf_counter()
        while len(its) < minimum or perf_counter() - start < seconds:
            out = self.work / name / f"it{len(its)}"
            cpu = cpu_seconds()
            with pace.sampling(during=jobs == 1) as sample:
                it = self.workload.iterate(out, jobs)
            it.cpu_s = cpu_seconds() - cpu
            it.scale = sample.scale()
            its.append(it)
        return warmup, its, first


def same_output(its, label: str) -> list[str]:
    prints = {it.fingerprint for it in its}
    return [] if len(prints) == 1 else [f"{label}: {len(prints)} different outputs "
                                        f"across {len(its)} identical iterations"]


def plain_run(run: Run, seconds: float, input_bytes: int):
    workload = run.workload
    warmup, its, first = run.measure("runs", seconds, workload.jobs, MIN_ITERATIONS)
    peak = peak_rss_mb(workload.jobs)
    problems = same_output([warmup, *its], "measured iterations")
    problems += workload.check(first, workload.jobs)
    walls = [it.wall for it in its]
    # host interference only ever slows an iteration down, so the lower
    # quartile of the rescaled times is the steadier figure
    rescaled = [it.wall * it.scale for it in its]
    run_ref_s = statistics.quantiles(rescaled, n=4)[0]
    metrics = {
        # writing the inputs, then the first (cold) pass over them
        "setup_s": statistics.median(run.setup_times) + warmup.wall * warmup.scale,
        "run_ref_s": run_ref_s,
        "input_mb_per_ref_s": input_bytes / 1e6 / run_ref_s,
        "peak_rss_mb": peak,
    }
    detail = {"walls": walls, "scales": [it.scale for it in its], "setups": run.setup_times,
              "setup_walls": run.setup_walls,
              "warmup_wall_s": warmup.wall, "warmup_ref_s": warmup.wall * warmup.scale,
              "wall_s": statistics.median(walls), "run_ref_median_s": statistics.median(rescaled),
              "cpu_s": statistics.median(it.cpu_s for it in its),
              "stages": workload.stage_metrics(its)}
    return metrics, len(its) + 1, problems, detail


def traced_run(run: Run, seconds: float, spans_path: Path):
    """Untraced passes at the workload's job count (and serially when that
    is more than one), then traced serial passes; per-layer metrics."""
    import layers

    workload = run.workload
    share = seconds / (3 if workload.jobs > 1 else 2)
    warmup, base, first = run.measure("base", share, workload.jobs, MIN_TRACED)
    untraced = [warmup, *base]
    serial = base
    if workload.jobs > 1:
        serial_warmup, serial, _ = run.measure("serial", share, 1, MIN_TRACED)
        untraced += [serial_warmup, *serial]
    problems = workload.check(first, workload.jobs)

    passes, traced = [], []
    start = perf_counter()
    while len(passes) < MIN_TRACED or perf_counter() - start < share:
        tracer = layers.Tracer()
        restore = layers.install(tracer)
        out = run.work / f"traced{len(passes)}"
        try:
            it = workload.iterate(out, 1)
        finally:
            restore()
        traced.append(it)
        passes.append(layers.pass_metrics(tracer, it.wall))
        if len(passes) == 1:
            problems += layers.silent_zeros(workload.name, tracer)
    tracer.dump(spans_path)
    problems += same_output(untraced + traced, "untraced and traced passes")

    metrics, count_problems = layers.combine(passes)
    problems += count_problems
    busy = metrics.pop("busy_s")
    pairs_walls = [it.stages["pairs"] for it in base if "pairs" in it.stages]
    metrics["pipeline.pool_busy_share"] = (
        busy / (workload.jobs * statistics.median(pairs_walls)) if pairs_walls else 0.0)
    metrics["trace.overhead_share"] = (statistics.median([it.wall for it in traced])
                                       / statistics.median([it.wall for it in serial]))
    metrics = {name: metrics[name] for name, _, _ in layers.METRICS}
    units = {name: unit for name, unit, _ in layers.METRICS}
    detail = {"untraced": [it.wall for it in base], "serial": [it.wall for it in serial],
              "traced": [it.wall for it in traced]}
    return metrics, units, len(untraced) + len(passes), problems, detail


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    load_codegap()
    import numpy

    workload = WORKLOADS[name](seed)
    tag = f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work = STATE / "work" / tag
    results = STATE / "results" / f"{tag}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    provenance = {"python": platform.python_version(), "numpy": numpy.__version__,
                  "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    metrics, units, iterations, problems, detail = {}, {}, 1, [], {}
    try:
        run = Run(workload, work, repeat_setup=not trace)
        inputs = provenance["inputs"] = describe_inputs(workload.inputs)
        print(f"{name} seed {seed}: {inputs['files']} input files, {inputs['bytes']} bytes, "
              f"{inputs['text_tokens']} text tokens, digest {inputs['digest'][:16]}")
        if trace:
            metrics, units, iterations, problems, detail = traced_run(
                run, seconds, results.with_suffix(".spans.jsonl"))
        else:
            metrics, iterations, problems, detail = plain_run(run, seconds, inputs["bytes"])
            units = dict(END_TO_END)
            for key, (value, unit) in detail["stages"].items():
                print(f"  {key:<32} {value:14.6g} {unit}")
            print(f"  {'cpu_s per iteration':<32} {detail['cpu_s']:14.6g} s "
                  f"(pool workers included)")
            print(f"  {'wall_s per iteration':<32} {detail['wall_s']:14.6g} s "
                  f"(median, not rescaled)")
            print(f"  {'run_ref_s median':<32} {detail['run_ref_median_s']:14.6g} s "
                  f"(over {len(detail['walls'])} iterations)")
            print(f"  {'input set-up wall_s':<32} {statistics.median(detail['setup_walls']):14.6g} s "
                  f"(median, not rescaled)")
            print(f"  {'warm-up wall_s':<32} {detail['warmup_wall_s']:14.6g} s (not rescaled)")
        problems = run.problems + problems
    except (CheckFailed, LookupError) as exc:
        problems = [str(exc)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = workload.ops() * iterations if metrics else 1
    failed = attempted if problems else 0
    for key, value in metrics.items():
        print(f"  {key:<32} {value:14.6g} {units[key]}")
    for problem in problems:
        print(f"perfbench: {name}: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "provenance": provenance, "detail": detail, "problems": problems, **result}
    results.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 1 if problems else 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    status, combined = 0, {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        combined[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
