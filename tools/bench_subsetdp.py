"""Time the subset recurrences of two source trees side by side.

Usage, from the root of a checkout:

    python tools/bench_subsetdp.py [--baseline DIR] [--runs N] [--output FILE]

Every case runs at n = 16 on a seeded probability matrix and its 0/1
relation:

* ``plan_cold``: ``plan(16)`` after clearing its cache;
* ``sweep``, ``winner_masks``, ``choice_points``: one warm call each.

In each run, one child per tree and case builds the matrix, calls the
case once to warm it, times one call and reports the tracemalloc peak
of a third.  ``benchutil`` starts the children, alternates the trees
and writes the JSON; its docstring gives the process model and schema.
"""
from __future__ import annotations

import sys

from benchutil import compare

SEED = 44
CASES = {
    "plan_cold": "plan(16) after plan.cache_clear()",
    "sweep": "sweep(16, probs)",
    "winner_masks": "winner_masks(16, probs > 0.5)",
    "choice_points": "choice_points(16, probs > 0.5)",
}

# Writes the package's path, the case's time and its traced peak as one
# JSON line to the file named by its first argument.
CHILD = r"""
import json, sys, time, tracemalloc
import drawfix  # sets one BLAS thread before numpy loads
import numpy as np
from drawfix import _subsetdp as s

result, case, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
n = 16
rng = np.random.default_rng(seed)
probs = np.full((n, n), 0.5)
iu = np.triu_indices(n, k=1)
probs[iu] = rng.random((n, n))[iu]
probs.T[iu] = 1.0 - probs[iu]
beats = probs > 0.5
fn = {
    "plan_cold": lambda: (s.plan.cache_clear(), s.plan(n)),
    "sweep": lambda: s.sweep(n, probs),
    "winner_masks": lambda: s.winner_masks(n, beats),
    "choice_points": lambda: s.choice_points(n, beats),
}[case]
fn()
t0 = time.perf_counter()
fn()
ms = (time.perf_counter() - t0) * 1e3
tracemalloc.start()
fn()
peak = tracemalloc.get_traced_memory()[1] / 2**20
with open(result, "w") as out:
    json.dump({"drawfix": drawfix.__file__, "time_ms": ms, "traced_peak_mib": peak}, out)
"""


def measure(tree, case: str) -> dict:
    return tree.child(CHILD, case, str(SEED))[1]


if __name__ == "__main__":
    sys.exit(compare(
        __doc__, CASES, measure,
        f"n = 16, seed-{SEED} probability matrix and its 0/1 relation; one child per run, "
        "tree and case; time_ms of one call after a warm-up call (plan_cold clears plan's "
        "cache first) and traced_peak_mib of a third call"))
