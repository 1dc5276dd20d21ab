"""Compare two sets of benchmark results.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are JSONL files, or directories of ``*.jsonl``
files, holding records that ``perfbench/run.py --out`` appended.  For
every workload, run mode and metric it prints each side's median, first
and third quartile (``statistics.quantiles(values, n=4)``) and run
count, the move of the median relative to BASE, and a verdict:

* ``WORSE``: a bounded metric moved the wrong way by more than its
  ``bound`` in ``BENCHMARK.json``;
* ``unresolved``: a bounded metric whose spread (quartile distance over
  median) on either side exceeds its bound, unless every NEW run reads
  better than every BASE run;
* ``ok``: within the bound; ``-``: an unbounded metric.

It also reports records that failed their checks, simulated digests that
differ between two records of one workload and seed within one set (a
determinism defect), digests that differ between the sets (the model's
outputs changed), and host fingerprints that differ between the sets.

Exit status: 1 when some metric is WORSE, a record failed its checks,
or a set contradicts its own digests; 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> List[dict]:
    target = Path(path)
    files = sorted(target.glob("*.jsonl")) if target.is_dir() else [target]
    records = []
    for file in files:
        for line in file.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    if not records:
        raise SystemExit(f"compare: no records in {path}")
    return records


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def grouped(records: List[dict]) -> Dict[Tuple[str, str, str], List[float]]:
    groups: Dict[Tuple[str, str, str], List[float]] = {}
    for record in records:
        info = record["provenance"]
        for name, metric in record["metrics"].items():
            key = (info["workload"], info["mode"], name)
            groups.setdefault(key, []).append(metric["value"])
    return groups


def digests(records: List[dict]) -> Dict[Tuple[str, int], set]:
    found: Dict[Tuple[str, int], set] = {}
    for record in records:
        info = record["provenance"]
        found.setdefault((info["workload"], info["seed"]), set()).add(record["sim_digest"])
    return found


def fingerprints(records: List[dict]) -> set:
    keys = ("nproc", "python", "implementation", "machine")
    return {tuple(record["provenance"][k] for k in keys) for record in records}


def verdict(base: List[float], new: List[float], spec: dict) -> str:
    bound = spec.get("bound")
    if bound is None:
        return "-"
    sign = 1.0 if spec["better"] == "lower" else -1.0
    base_med, new_med = statistics.median(base), statistics.median(new)
    worse_by = sign * (new_med - base_med) / abs(base_med) if base_med else 0.0
    if worse_by > bound:
        return "WORSE"
    if max(spread(base), spread(new)) > bound:
        all_better = (max(new) < min(base)) if sign > 0 else (min(new) > max(base))
        return "better" if all_better else "unresolved"
    return "ok"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base_records, new_records = load(argv[0]), load(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = grouped(base_records), grouped(new_records)
    failed = False

    print(f"{'workload':<17} {'mode':<8} {'metric':<38} "
          f"{'base median [q1, q3] n':>36} {'new median [q1, q3] n':>36} "
          f"{'move':>8}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, mode, name = key
        row = []
        for values in (base[key], new[key]):
            q1, q2, q3 = quartiles(values)
            row.append(f"{q2:.5g} [{q1:.4g}, {q3:.4g}] {len(values)}")
        base_med = statistics.median(base[key])
        move = (statistics.median(new[key]) - base_med) / abs(base_med) if base_med else 0.0
        result = verdict(base[key], new[key], specs.get(name, {}))
        failed |= result == "WORSE"
        print(f"{workload:<17} {mode:<8} {name:<38} {row[0]:>36} {row[1]:>36} "
              f"{move:>+8.2%}  {result}")
    for side, own, other in (("BASE", base, new), ("NEW", new, base)):
        missing = sorted({key[:2] for key in own} - {key[:2] for key in other})
        for workload, mode in missing:
            print(f"only in {side}: {workload} {mode}")

    for label, records in (("BASE", base_records), ("NEW", new_records)):
        for record in records:
            if not record["correct"]:
                failed = True
                info = record["provenance"]
                print(f"{label}: {info['workload']} seed {info['seed']} failed its checks: "
                      f"{record['problems'][:3]}")
        for (workload, seed), found in sorted(digests(records).items()):
            if len(found) > 1:
                failed = True
                print(f"{label}: {workload} seed {seed} has {len(found)} different "
                      f"simulated digests (determinism defect)")
    base_digests, new_digests = digests(base_records), digests(new_records)
    changed = [
        key for key in sorted(set(base_digests) & set(new_digests))
        if base_digests[key] != new_digests[key]
    ]
    if changed:
        print(f"simulated outputs differ between the sets for {len(changed)} "
              f"(workload, seed) pairs: {changed[:5]}")
    if fingerprints(base_records) != fingerprints(new_records):
        print(f"host fingerprints differ: BASE {sorted(fingerprints(base_records))} "
              f"NEW {sorted(fingerprints(new_records))}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
