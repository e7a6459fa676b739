"""Time the subset recurrences of two source trees side by side.

Usage, from the root of a checkout:

    python tools/bench_subsetdp.py [--baseline DIR] [--runs N] [--output FILE]

Each source tree, this checkout's ``src/`` and, with ``--baseline``, the
``src/`` of another checkout, gets one worker process that imports
drawfix from it.  The workers take turns, and the side that goes first
alternates from run to run, so both see the same machine load.  Every run
times, at n = 16 on a seeded probability matrix and its 0/1 relation:

* ``plan_cold``: ``plan(16)`` after clearing its cache;
* ``sweep``, ``winner_masks``, ``choice_points``: one warm call each.

After the timed runs each worker reports every case's tracemalloc peak.
The output is one JSON document with each tree's median and quartiles per
case, the traced peaks, the ratio of medians against the baseline, and
the environment.  Only numpy and the standard library are used; the
alternation and quartiles come from ``benchutil``.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from benchutil import alternate, describe, environment, summary

ROOT = Path(__file__).resolve().parent.parent
CASES = ("plan_cold", "sweep", "winner_masks", "choice_points")
SEED = 44

# Runs inside each worker; reads "time CASE" or "peak CASE" lines and
# answers each with one JSON line.
WORKER = r"""
import json, sys, time, tracemalloc
import drawfix  # sets one BLAS thread before numpy loads
import numpy as np
from drawfix import _subsetdp as s

n, seed = 16, int(sys.argv[1])
rng = np.random.default_rng(seed)
probs = np.full((n, n), 0.5)
iu = np.triu_indices(n, k=1)
probs[iu] = rng.random((n, n))[iu]
probs.T[iu] = 1.0 - probs[iu]
beats = probs > 0.5
cases = {
    "plan_cold": lambda: (s.plan.cache_clear(), s.plan(n)),
    "sweep": lambda: s.sweep(n, probs),
    "winner_masks": lambda: s.winner_masks(n, beats),
    "choice_points": lambda: s.choice_points(n, beats),
}
for fn in cases.values():
    fn()
print(json.dumps({"drawfix": drawfix.__file__, "numpy": np.__version__}), flush=True)
for line in sys.stdin:
    what, name = line.split()
    fn = cases[name]
    if what == "time":
        t0 = time.perf_counter()
        fn()
        value = time.perf_counter() - t0
    else:
        tracemalloc.start()
        fn()
        value = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    print(json.dumps(value), flush=True)
"""


class Worker:
    def __init__(self, src: Path, seed: int):
        env = dict(os.environ, PYTHONPATH=str(src))
        self.proc = subprocess.Popen([sys.executable, "-c", WORKER, str(seed)], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.info = json.loads(self.proc.stdout.readline())
        if not Path(self.info["drawfix"]).resolve().is_relative_to(src.resolve()):
            self.close()
            raise SystemExit(f"error: {src} did not provide drawfix ({self.info['drawfix']})")

    def ask(self, what: str, case: str):
        self.proc.stdin.write(f"{what} {case}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--baseline", type=Path, help="another checkout to compare against")
    p.add_argument("--runs", type=int, default=15, help="timed runs per case (default 15)")
    p.add_argument("--output", type=Path, help="write the JSON here instead of stdout")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    checkouts = {"current": ROOT}
    if args.baseline:
        checkouts = {"baseline": args.baseline.resolve(), "current": ROOT}
    workers = {}
    try:
        for label, checkout in checkouts.items():
            workers[label] = Worker(checkout / "src", SEED)
        times = alternate(list(workers), CASES, args.runs,
                          lambda label, case: workers[label].ask("time", case))
        peaks = {label: {case: w.ask("peak", case) / 2**20 for case in CASES}
                 for label, w in workers.items()}
        numpy_version = workers["current"].info["numpy"]
    finally:
        for w in workers.values():
            w.close()

    trees = {}
    for label, checkout in checkouts.items():
        trees[label] = describe(checkout, ["src/drawfix/_subsetdp.py"])
        trees[label]["time_ms"] = {case: summary(times[label][case], 1e3) for case in CASES}
        trees[label]["traced_peak_mib"] = peaks[label]
    doc = {
        "what": "n = 16, seeded probability matrix and its 0/1 relation; "
                "alternating runs, warm except plan_cold",
        "seed": SEED,
        "runs": args.runs,
        "environment": environment(numpy_version),
        "trees": trees,
    }
    if "baseline" in trees:
        base, cur = trees["baseline"], trees["current"]
        doc["current_over_baseline"] = {
            "time_median": {case: cur["time_ms"][case]["median"] / base["time_ms"][case]["median"]
                            for case in CASES},
            "traced_peak": {case: cur["traced_peak_mib"][case] / base["traced_peak_mib"][case]
                            for case in CASES},
        }
    text = json.dumps(doc, indent=2) + "\n"
    if args.output:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
