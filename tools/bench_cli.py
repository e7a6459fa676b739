"""Time cold ``drawfix`` processes of two source trees side by side.

Usage, from the root of a checkout:

    python tools/bench_cli.py [--baseline DIR] [--runs N] [--output FILE]

Every case is one command of the benchmark's ``cli`` workload on the
bundled fixtures, ``count`` on the soccer season with each ``--stats``
value, or ``scan`` on the soccer season at steps 0.01 (the default) and
0.001.  Each run starts one fresh process per case and tree, from that
checkout's root with its ``src/`` on PYTHONPATH and with
``PYTHONDONTWRITEBYTECODE=1``, so every process compiles drawfix's
source, as one does on a fresh checkout that writes no bytecode.  The
tool refuses a tree that has a ``src/drawfix/__pycache__``: its cached
bytecode would skip that compile on one side only.  The trees take
turns, and the side that goes first alternates from run to run.  A run
records the process's wall time, seen from outside, and its own peak
resident set (``VmHWM``), which a wrapper reads in an ``atexit`` hook
after the command has finished.  Before timing, every case runs once
plain and once wrapped, and the tool stops unless both give the same
exit code, machine output, stderr and stdout (timing lines aside).

The output is one JSON document with each tree's median and quartiles
per case, the ratio of medians against the baseline, and the
environment.  Only numpy and the standard library are used.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from benchutil import alternate, describe, environment, summary

ROOT = Path(__file__).resolve().parent.parent
SOCCER = ["--input", "data/soccer_matches.csv", "--ranks", "data/soccer_ranks.csv"]
TENNIS = ["--input", "data/tennis_h2h.csv", "--ranks", "data/tennis_ranks.csv"]
FIELD = "field.json"  # a seeded 16-player upset-model matrix, written by gen-cr
SAMPLED = ["--seed", "7", "--input", FIELD]
CASES = {
    "version": ["--version"],
    "kings": ["kings", *TENNIS],
    "gen-cr": ["gen-cr", "--players", "16", "--upset-prob", "0.3"],
    "count": ["count", "--stats", "none", *SOCCER],
    "count-first": ["count", "--stats", "first", *SOCCER],
    "count-all": ["count", "--stats", "all", *SOCCER],
    "fix": ["fix", *SOCCER, "--target", "Alderton Athletic"],
    "fix-none": ["fix", *SOCCER, "--target", "Oakhurst Rangers"],
    "winprob-exact": ["winprob", "--mode", "exact", *SOCCER],
    "winprob-sampled": ["winprob", "--mode", "per-draw-exact", *SAMPLED],
    "winprob-workers": ["winprob", "--mode", "per-draw-exact", "--workers", "2", *SAMPLED],
    "winprob-simulated": ["winprob", "--mode", "full-simulation", *SAMPLED],
    "scan": ["scan", *SOCCER],
    "scan-step-0.001": ["scan", *SOCCER, "--step", "0.001"],
    "fit": ["fit", "--input", FIELD],
}

# Runs a drawfix command as ``python -m drawfix`` would, then writes the
# process's own VmHWM (kB) to the file named by its first argument.
WRAPPER = r"""
import atexit, runpy, sys

peak_file = sys.argv[1]
sys.argv = ["drawfix", *sys.argv[2:]]


def record_peak():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(peak_file, "w") as out:
        out.write(kb)


atexit.register(record_peak)
runpy.run_module("drawfix", run_name="__main__", alter_sys=True)
"""


class Tree:
    """One checkout, its scratch directory and how to run its CLI."""

    def __init__(self, checkout: Path, work: Path):
        cache = checkout / "src" / "drawfix" / "__pycache__"
        if cache.exists():
            raise SystemExit(f"error: {cache} exists; its cached bytecode would skip the "
                             "compile that every other run pays, so remove it first")
        self.checkout = checkout
        self.work = work
        self.work.mkdir()
        self.env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
                        PYTHONDONTWRITEBYTECODE="1")

    def argv(self, case: str) -> list[str]:
        args = [str(self.work / a) if a == FIELD else a for a in CASES[case]]
        if case not in ("version", "gen-cr"):
            args += ["--output", str(self.work / "out")]
        elif case == "gen-cr":
            args += ["--output", str(self.work / "gen-cr.json")]
        return args

    def run(self, case: str, wrapped: bool):
        """Wall time (s), own peak (MB, wrapped runs only) and the process."""
        peak = self.work / "peak"
        peak.unlink(missing_ok=True)
        if wrapped:
            cmd = [sys.executable, "-c", WRAPPER, str(peak), *self.argv(case)]
        else:
            cmd = [sys.executable, "-m", "drawfix", *self.argv(case)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.checkout, env=self.env, capture_output=True,
                              timeout=300)
        wall = time.perf_counter() - t0
        return wall, float(peak.read_text()) / 1024 if wrapped else None, proc

    def check_wrapper(self) -> None:
        """The wrapper must change no exit code and no output byte, apart
        from the printed timings."""
        outputs = (self.work / "out", self.work / "gen-cr.json")
        for case in CASES:
            seen = []
            for wrapped in (False, True):
                for path in outputs:
                    path.unlink(missing_ok=True)
                proc = self.run(case, wrapped)[2]
                text = [line for line in proc.stdout.splitlines() if b"elapsed:" not in line]
                seen.append((proc.returncode, text, proc.stderr,
                             [path.read_bytes() for path in outputs if path.exists()]))
            if seen[0] != seen[1]:
                raise SystemExit(f"error: the peak wrapper changed the output of {case} "
                                 f"in {self.checkout}")
            if seen[0][0] not in (0, 3):  # fix-none exits 3: no winning draw
                raise SystemExit(f"error: {case} exited {seen[0][0]} in {self.checkout}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--baseline", type=Path, help="another checkout to compare against")
    p.add_argument("--runs", type=int, default=11, help="timed runs per case (default 11)")
    p.add_argument("--output", type=Path, help="write the JSON here instead of stdout")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    checkouts = {"current": ROOT}
    if args.baseline:
        checkouts = {"baseline": args.baseline.resolve(), "current": ROOT}
    with tempfile.TemporaryDirectory(prefix="bench_cli_") as tmp:
        trees = {label: Tree(checkout, Path(tmp) / label)
                 for label, checkout in checkouts.items()}
        for tree in trees.values():
            # The sampled and fit cases read the matrix gen-cr writes.
            tree.run("gen-cr", wrapped=False)
            (tree.work / "gen-cr.json").replace(tree.work / FIELD)
            tree.check_wrapper()
        runs = alternate(list(trees), list(CASES), args.runs,
                         lambda label, case: trees[label].run(case, wrapped=True)[:2])

    report = {}
    for label, checkout in checkouts.items():
        sources = sorted(str(f.relative_to(checkout))
                         for f in (checkout / "src" / "drawfix").glob("*.py"))
        report[label] = describe(checkout, sources)
        report[label]["wall_s"] = {case: summary([w for w, _ in runs[label][case]])
                                   for case in CASES}
        report[label]["own_peak_mb"] = {case: summary([m for _, m in runs[label][case]])
                                        for case in CASES}
    doc = {
        "what": "cold drawfix processes on the bundled fixtures; wall time from outside, "
                "own peak as VmHWM kB / 1024; alternating runs",
        "runs": args.runs,
        "commands": {case: " ".join(argv) for case, argv in CASES.items()},
        "wrapper_output_identical": True,
        "environment": {**environment(np.__version__), "pythondontwritebytecode": "1"},
        "trees": report,
    }
    if "baseline" in report:
        base, cur = report["baseline"], report["current"]
        doc["current_over_baseline"] = {
            metric: {case: cur[metric][case]["median"] / base[metric][case]["median"]
                     for case in CASES}
            for metric in ("wall_s", "own_peak_mb")
        }
    text = json.dumps(doc, indent=2) + "\n"
    if args.output:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
