"""The repository benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload discovery-cube --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload hybrid-websearch --seed 3 --seconds 20 --trace 1 \\
        --out results.jsonl

Workloads are defined in ``perfbench/suite.py``; metric names, units,
bounds and the run length in ``BENCHMARK.json`` at the repository root.

A run derives one input per iteration from ``--seed`` (the first input
uses the seed itself), makes ``--seconds / budget`` iterations of the
measured phase, and checks every output.  ``--trace 0`` reports the
end-to-end metrics: the mean measured-phase wall time rescaled to a
fixed host speed (``host_ref_s``, see ``perfbench/speed.py``), median
set-up time rescaled the same way (a fresh interpreter importing the
workload's modules plus building the program's state, several times),
peak RSS; the human table also shows ``host_s``, the plain median wall
time.  ``--trace 1`` splits the time in three: the same inputs are run
untraced, then again with every layer wrapped (``perfbench/layers.py``),
and it reports the per-layer metrics plus the tracing overhead; the
simulated outputs of the two passes must be identical.

Human-readable lines come first, each metric with its unit and sample
count ``n``; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--out FILE``
appends the full record (provenance, every metric with ``n``, the
simulated digest) as one JSON line for ``perfbench/compare.py``.

Exit status: 0 when every check passed, 1 when one failed (the result
line is still printed), 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from layers import LayerTrace, layer_metrics
from speed import SpeedSampler
from suite import WORKLOADS, digest_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per run that the ``setup_s`` median is taken over.
SETUPS = 9
#: In a traced run the untraced pass gets 1/3 of the time, the traced
#: pass (about twice as slow) the other 2/3.
TRACE_SHARE = 3
#: Sub-seed stride: iteration i runs input ``seed + SEED_STRIDE * i``.
SEED_STRIDE = 7919


def sub_seeds(seed: int, count: int) -> List[int]:
    return [seed + SEED_STRIDE * i for i in range(count)]


def iteration_count(seconds: float, budget_s: float, share: int = 1) -> int:
    """Iterations that a run of ``seconds`` makes.

    Fixed by the arguments, not by how fast this host runs, so two
    commits measured with the same arguments run the same inputs.
    """
    return max(1, round(seconds / (share * budget_s)))


def import_seconds(modules) -> float:
    """Time for a fresh interpreter to start and import ``modules``.

    The import itself is timed in the child and rescaled to the
    reference speed like the measured phase; start-up and exit count as
    raw wall time.
    """
    code = (
        f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]\n"
        "from speed import SpeedSampler\n"
        "with SpeedSampler() as sampler:\n"
        f"    import {', '.join(modules)}\n"
        "print(sampler.end, sampler.reference_seconds())\n"
    )
    # No timeout: with one, the wait polls and rounds up to 50 ms steps.
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, stdout=subprocess.PIPE, text=True
    ).stdout
    wall = time.perf_counter() - start
    window, reference = map(float, out.split())
    return wall - window + reference


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return (rev or "unknown") + ("-dirty" if dirty else "")


def provenance(args) -> Dict[str, Any]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": "traced" if args.trace else "untraced",
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


class Iteration:
    """One measured phase: its timings, checks and simulated outputs."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.build_s = 0.0
        self.host_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.sim: Dict[str, Any] = {}
        self.digest = ""
        self.layers: Dict[str, float] = {}
        self.host_ref_s = 0.0


def build(workload, seed: int, sample: bool):
    """The workload's state for ``seed`` and the time it took to build."""
    if not sample:
        start = time.perf_counter()
        return workload.setup(seed), time.perf_counter() - start
    with SpeedSampler() as sampler:
        state = workload.setup(seed)
    return state, sampler.reference_seconds()


def run_iteration(workload, seed: int, trace=None, sample: bool = False) -> Iteration:
    it = Iteration(seed)
    gc.collect()
    state, it.build_s = build(workload, seed, sample)
    gc.collect()
    if trace is not None:
        trace.reset()
    sampler = SpeedSampler() if sample else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with sampler:
            outcome = workload.measure(state)
    except Exception:  # the run raising is a failed operation, not a crash
        it.host_s = time.perf_counter() - start
        it.attempted = it.failed = 1
        it.problems.append(f"seed {seed}: measured phase raised\n{traceback.format_exc()}")
        return it
    it.host_s = time.perf_counter() - start
    if sample:
        it.host_s = sampler.program_seconds()
        it.host_ref_s = sampler.reference_seconds()
    check = workload.check(state, outcome)
    it.attempted, it.failed = check.attempted, check.failed
    it.problems = [f"seed {seed}: {p}" for p in check.problems]
    it.sim = workload.sim_metrics(state, outcome)
    it.digest = digest_of(workload.sim_record(state, outcome))
    if trace is not None:
        it.layers = layer_metrics(trace, workload.layer_counts(state, outcome))
    return it


def median_metric(values: List[float], unit: str) -> Dict[str, Any]:
    return {"value": statistics.median(values), "unit": unit, "n": len(values)}


def untraced_run(workload, args) -> Dict[str, Any]:
    count = iteration_count(args.seconds, workload.budget_s)
    seeds = sub_seeds(args.seed, max(count, SETUPS))
    # Set-ups are spread over the run rather than bunched at its start, so
    # their median does not hang on the host's speed at one moment.
    imports, iterations = [], []
    for seed in seeds[:count]:
        for _ in range(min(-(-SETUPS // count), SETUPS - len(imports))):
            imports.append(import_seconds(workload.modules))
        iterations.append(run_iteration(workload, seed, sample=True))
        if iterations[-1].problems:
            break
    builds = [it.build_s for it in iterations]
    for seed in seeds[len(builds):SETUPS]:
        if len(imports) < SETUPS:
            imports.append(import_seconds(workload.modules))
        builds.append(build(workload, seed, True)[1])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        # A mean, not a median: the iterations run different inputs, whose
        # times differ by 8-16% on the websearch and chaos workloads.
        "host_ref_s": {
            "value": statistics.fmean(it.host_ref_s for it in iterations),
            "unit": "s",
            "n": len(iterations),
        },
        "host_s": median_metric([it.host_s for it in iterations], "s"),
        "setup_s": median_metric([a + b for a, b in zip(imports, builds)], "s"),
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "n": 1},
    }
    samples = {"host_s": [it.host_s for it in iterations],
               "host_ref_s": [it.host_ref_s for it in iterations],
               "imports_s": imports, "builds_s": builds}
    return {"iterations": iterations, "metrics": metrics, "problems": [],
            "samples": samples}


def traced_run(workload, args) -> Dict[str, Any]:
    count = iteration_count(args.seconds, workload.budget_s, TRACE_SHARE)
    seeds = sub_seeds(args.seed, count)
    plain = [run_iteration(workload, seed) for seed in seeds]
    trace = LayerTrace()
    with trace:
        traced = [run_iteration(workload, seed, trace) for seed in seeds]
    problems = [
        f"seed {a.seed}: simulated digest differs when traced "
        f"({a.digest[:16]} untraced, {b.digest[:16]} traced)"
        for a, b in zip(plain, traced)
        if a.digest != b.digest
    ]
    layered = [it.layers for it in traced if it.layers]
    metrics = {
        name: median_metric([layers[name] for layers in layered], "")
        for name in (layered[0] if layered else ())
    }
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(it.host_s for it in traced)
        / statistics.median(it.host_s for it in plain),
        "unit": "ratio",
        "n": len(traced),
    }
    if args.spans:
        Path(args.spans).write_text(json.dumps(trace.spans))
    samples = {"host_s": [it.host_s for it in plain],
               "traced_host_s": [it.host_s for it in traced]}
    return {"iterations": plain + traced, "metrics": metrics, "problems": problems,
            "samples": samples}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record to this JSONL file")
    parser.add_argument("--spans", help="traced runs: write the coarse spans as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")

    for module in workload.modules:  # imported once up front, not inside set-up 0
        importlib.import_module(module)
    run = (traced_run if args.trace else untraced_run)(workload, args)
    iterations: List[Iteration] = run["iterations"]
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    problems = [p for it in iterations for p in it.problems] + run["problems"]
    metrics: Dict[str, Dict[str, Any]] = dict(run["metrics"])
    metrics["failed_share"] = {
        "value": failed / attempted if attempted else 1.0, "unit": "ratio", "n": attempted,
    }
    first = iterations[0]
    for name, (value, unit, n) in first.sim.items():
        metrics[name] = {"value": value, "unit": unit, "n": n}
    correct = not problems and failed == 0

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    for entry in declared:
        if entry["name"] in metrics:
            metrics[entry["name"]]["unit"] = entry["unit"]
        elif correct:
            raise KeyError(f"BENCHMARK.json metric {entry['name']!r} was not measured")

    record = {
        "provenance": provenance(args),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "sim_digest": first.digest,
        "metrics": metrics,
        "samples": run["samples"],
        "problems": problems,
    }
    info = record["provenance"]
    print(f"perfbench {info['workload']} seed={info['seed']} mode={info['mode']} "
          f"rev={info['git_rev']} nproc={info['nproc']} python={info['python']}")
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:>14.6g} {metric['unit']:<8} "
              f"n={metric['n']}")
    print(f"  sim digest (seed {first.seed}): {first.digest}")
    for problem in problems:
        print(f"  FAILED {problem}")
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps(record) + "\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {
                "value": metrics[entry["name"]]["value"], "unit": entry["unit"],
            }
            for entry in declared
            if entry["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
