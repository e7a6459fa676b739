"""The side-by-side driver of the bench tools.

``bench_cli.py`` and ``bench_subsetdp.py`` each give ``compare`` their
cases and a ``measure(tree, case)`` that starts one child process and
returns that run's metrics.  ``compare`` reads the command line
(``--baseline DIR``, ``--runs N``, ``--output FILE``), measures this
checkout and, with ``--baseline``, the other checkout, and writes one
JSON document.

Process model: every run starts one fresh child per tree and case
(``Tree.run``).  Each tree first copies its checkout's ``src/``, without
any ``__pycache__``, into a work directory of its own.  A child runs
from its checkout's root with only that copy on PYTHONPATH and with
``PYTHONDONTWRITEBYTECODE=1``, so it compiles drawfix from source, as on
a fresh checkout, even when the checkout has a
``src/drawfix/__pycache__``, while the standard library and numpy load
from their installed bytecode.  The trees take turns on every case, and
the side that goes first alternates from run to run, so both see the
same machine load.

Schema: ``trees`` holds, per tree, ``commit``, ``src_modified`` and
``sources_sha256`` (over the copy's ``src/drawfix/*.py``), then per
metric and per case the ``median``, ``q1`` and ``q3`` over the runs.
``current_over_baseline`` holds per metric and per case the median
(``ratio``), ``q1`` and ``q3`` of the per-run ratios: run i of the
current tree over run i of the baseline, the two measured in turn within
run i, so that machine load moves both sides of a per-run ratio alike
and its spread shows how far load alone moves the ratio.  A ratio of two
medians, taken over different runs, could fall outside that spread.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def alternate(labels: list[str], cases, runs: int, measure) -> dict:
    """``measure(label, case)`` for every label and case, ``runs`` times.

    Within a run every case is measured for each label in turn; the
    label that goes first alternates from run to run.  Returns
    ``{label: {case: [value per run]}}``.
    """
    values = {label: {case: [] for case in cases} for label in labels}
    for run in range(runs):
        order = labels if run % 2 == 0 else labels[::-1]
        for case in cases:
            for label in order:
                values[label][case].append(measure(label, case))
    return values


def summary(values: list[float]) -> dict:
    """Median and quartiles of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict) -> dict:
    """``{metric: {case: summary}}`` of one tree's ``{case: [{metric: value}]}``."""
    metrics = next(iter(runs.values()))[0]
    return {metric: {case: summary([run[metric] for run in values])
                     for case, values in runs.items()}
            for metric in metrics}


def ratios(baseline: dict, current: dict) -> dict:
    """``{metric: {case: {"ratio", "q1", "q3"}}}`` of two trees'
    ``{case: [{metric: value}]}``: the median and quartiles of the per-run
    ratios, run i of the current tree over run i of the baseline."""
    def ratio(metric, case):
        pairs = zip(current[case], baseline[case])
        spread = summary([cur[metric] / base[metric] for cur, base in pairs])
        return {"ratio": spread["median"], "q1": spread["q1"], "q3": spread["q3"]}

    metrics = next(iter(baseline.values()))[0]
    return {metric: {case: ratio(metric, case) for case in baseline} for metric in metrics}


def describe(tree: Tree) -> dict:
    """The commit of a tree's checkout, whether its src/ differs from it,
    and a digest of the copy's ``src/drawfix/*.py``, the source that ran."""
    def git(*args):
        out = subprocess.run(["git", "-C", str(tree.checkout), *args], capture_output=True,
                             text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    digest = hashlib.sha256()
    for module in sorted((tree.src / "drawfix").glob("*.py")):
        digest.update(module.read_bytes())
    status = git("status", "--porcelain", "--", "src")
    return {
        "commit": git("rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),
        "sources_sha256": digest.hexdigest(),
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1"),
        "pythondontwritebytecode": "1",
    }


class Tree:
    """One checkout, a clean copy of its source and how its children start."""

    def __init__(self, checkout: Path, work: Path):
        self.checkout = checkout
        self.work = work
        self.result = work / "result.json"
        self.src = work / "src"
        shutil.copytree(checkout / "src", self.src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        self.env = dict(os.environ, PYTHONPATH=str(self.src), PYTHONDONTWRITEBYTECODE="1")

    def run(self, *args: str):
        """Run ``python *args`` from the checkout's root.  Returns the wall
        time (s), seen from outside, and the finished process."""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=self.checkout, env=self.env,
                              capture_output=True, timeout=300)
        return time.perf_counter() - t0, proc

    def child(self, code: str, *args: str):
        """Run ``python -c code RESULT *args``, a child that writes one JSON
        line, with a "drawfix" key giving the package's path, to the file
        RESULT.  Returns the wall time (s), the line without that key and
        the finished process."""
        self.result.unlink(missing_ok=True)
        wall, proc = self.run("-c", code, str(self.result), *args)
        if not self.result.exists():
            raise SystemExit(f"error: a child wrote no result in {self.checkout}:\n"
                             + proc.stderr.decode())
        result = json.loads(self.result.read_text())
        origin = Path(result.pop("drawfix")).resolve()
        if not origin.is_relative_to(self.src.resolve()):
            raise SystemExit(f"error: the copy of {self.checkout}/src did not provide "
                             f"drawfix ({origin})")
        return wall, result, proc


def compare(doc: str, cases: dict[str, str], measure, what: str, prepare=None,
            argv=None) -> int:
    """Measure this checkout, and with ``--baseline`` another one, on every
    case, and write the JSON document.

    ``cases`` maps each case to the text that names it in the output.
    ``measure(tree, case)`` returns one run's ``{metric: value}``;
    ``prepare(tree)``, if given, runs once per tree before any case.
    """
    p = argparse.ArgumentParser(description=doc.splitlines()[0])
    p.add_argument("--baseline", type=Path, help="another checkout to compare against")
    p.add_argument("--runs", type=int, default=11, help="timed runs per case (default 11)")
    p.add_argument("--output", type=Path, help="write the JSON here instead of stdout")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    checkouts = {"current": ROOT}
    if args.baseline:
        checkouts = {"baseline": args.baseline.resolve(), "current": ROOT}
    with tempfile.TemporaryDirectory(prefix="bench_") as tmp:
        # One-letter work directories give both copies paths of one
        # length; a path's length alone can move timings.
        trees = {label: Tree(checkout, Path(tmp) / label[0])
                 for label, checkout in checkouts.items()}
        if prepare:
            for tree in trees.values():
                prepare(tree)
        runs = alternate(list(trees), list(cases), args.runs,
                         lambda label, case: measure(trees[label], case))
        described = {label: describe(tree) for label, tree in trees.items()}

    summaries = {label: summarize(runs[label]) for label in checkouts}
    out = {
        "what": what,
        "runs": args.runs,
        "cases": cases,
        "environment": environment(),
        "trees": {label: {**described[label], **summaries[label]} for label in checkouts},
    }
    if "baseline" in summaries:
        out["current_over_baseline"] = ratios(runs["baseline"], runs["current"])
    text = json.dumps(out, indent=2) + "\n"
    if args.output:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)
    return 0
