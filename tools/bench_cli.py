"""Time cold ``drawfix`` processes of two source trees side by side.

Usage, from the root of a checkout:

    python tools/bench_cli.py [--baseline DIR] [--runs N] [--output FILE]

Every case is one command of the benchmark's ``cli`` workload on the
bundled fixtures, ``count`` on the soccer season with each ``--stats``
value, or ``scan`` on the soccer season at steps 0.01 (the default) and
0.001.  A run records the process's wall time, seen from outside, and
its own peak resident set (``VmHWM``), which a wrapper reads in an
``atexit`` hook after the command has finished.  Before timing, every
case runs once plain and once wrapped, and the tool stops unless both
give the same exit code, machine output, stderr and stdout (timing
lines aside).  ``benchutil`` starts the processes, alternates the trees
and writes the JSON; its docstring gives the process model and schema.
"""
from __future__ import annotations

import sys

from benchutil import compare

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
# package's path and the process's own VmHWM as one JSON line to the file
# named by its first argument.
WRAPPER = r"""
import atexit, json, runpy, sys

result = sys.argv[1]
sys.argv = ["drawfix", *sys.argv[2:]]


def record_peak():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(result, "w") as out:
        json.dump({"drawfix": sys.modules["drawfix"].__file__,
                   "own_peak_mb": int(kb) / 1024}, out)


atexit.register(record_peak)
runpy.run_module("drawfix", run_name="__main__", alter_sys=True)
"""


def argv(tree, case: str) -> list[str]:
    args = [str(tree.work / a) if a == FIELD else a for a in CASES[case]]
    if case not in ("version", "gen-cr"):
        args += ["--output", str(tree.work / "out")]
    elif case == "gen-cr":
        args += ["--output", str(tree.work / "gen-cr.json")]
    return args


def measure(tree, case: str) -> dict:
    wall, result, _ = tree.child(WRAPPER, *argv(tree, case))
    return {"wall_s": wall, **result}


def prepare(tree) -> None:
    """Write the matrix that the sampled and fit cases read, then check
    that the wrapper changes no exit code and no output byte, apart from
    the printed timings."""
    tree.run("-m", "drawfix", *argv(tree, "gen-cr"))
    (tree.work / "gen-cr.json").replace(tree.work / FIELD)
    outputs = (tree.work / "out", tree.work / "gen-cr.json")
    for case in CASES:
        seen = []
        for wrapped in (False, True):
            for path in outputs:
                path.unlink(missing_ok=True)
            if wrapped:
                proc = tree.child(WRAPPER, *argv(tree, case))[2]
            else:
                proc = tree.run("-m", "drawfix", *argv(tree, case))[1]
            text = [line for line in proc.stdout.splitlines() if b"elapsed:" not in line]
            seen.append((proc.returncode, text, proc.stderr,
                         [path.read_bytes() for path in outputs if path.exists()]))
        if seen[0] != seen[1]:
            raise SystemExit(f"error: the peak wrapper changed the output of {case} "
                             f"in {tree.checkout}")
        if seen[0][0] not in (0, 3):  # fix-none exits 3: no winning draw
            raise SystemExit(f"error: {case} exited {seen[0][0]} in {tree.checkout}")


if __name__ == "__main__":
    sys.exit(compare(
        __doc__, {case: " ".join(args) for case, args in CASES.items()}, measure,
        "cold drawfix processes on the bundled fixtures; wall time from outside, own peak "
        "as VmHWM kB / 1024; the peak wrapper left every output byte as it was",
        prepare))
