"""Summarise benchmark records: medians, spreads and answer digests.

Usage, from the root of a checkout:

    python3 perfbench/compare.py [--workload W] [--trace 0|1] [--last N] [RECORD ...]

Reads the JSON records that run.py writes under ``.perfbench_runs/`` (or
the files named).  For each workload and metric it prints the number of
runs, the median, the quartiles and the spread, (q3 - q1) / median, with
quartiles as ``statistics.quantiles(values, n=4)`` gives them.  It then
reports, per workload and seed, whether every run gave the same answer
digest for each query kind.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from common import RUNS


def load(paths, workload, trace, last):
    records = [json.loads(Path(p).read_text()) for p in paths]
    records = [r for r in records
               if (workload is None or r["workload"] == workload) and r["trace"] == trace]
    records.sort(key=lambda r: r["time"])
    if last:
        by_workload = {}
        for r in records:
            by_workload.setdefault(r["workload"], []).append(r)
        records = [r for rs in by_workload.values() for r in rs[-last:]]
    return records


def summarise(records) -> list[str]:
    lines = []
    by_workload = {}
    for r in records:
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, runs in sorted(by_workload.items()):
        failed = sum(r["failed"] for r in runs)
        lines.append(f"{workload}: {len(runs)} runs, seeds "
                     f"{sorted({r['seed'] for r in runs})}, {failed} failed queries")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                lines.append(f"  {name:45s} median {med:12.6g}  q1 {q1:12.6g}  "
                             f"q3 {q3:12.6g}  spread {spread:7.2%}")
            else:
                lines.append(f"  {name:45s} value {med:12.6g}")
        by_seed = {}
        for r in runs:
            by_seed.setdefault(r["seed"], []).append(r["digests"])
        for seed, digest_sets in sorted(by_seed.items()):
            if len(digest_sets) > 1:
                same = all(d == digest_sets[0] for d in digest_sets)
                lines.append(f"  seed {seed}: {len(digest_sets)} runs, digests "
                             f"{'identical' if same else 'DIFFER'}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("records", nargs="*")
    p.add_argument("--workload")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--last", type=int, help="only the last N runs of each workload")
    args = p.parse_args(argv)
    paths = args.records or sorted(RUNS.glob("*.json"))
    records = load(paths, args.workload, args.trace, args.last)
    if not records:
        print("no records", file=sys.stderr)
        return 1
    print("\n".join(summarise(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
