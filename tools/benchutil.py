"""Shared pieces of the side-by-side benchmark tools.

``bench_subsetdp.py`` and ``bench_cli.py`` both compare this checkout
with a baseline checkout.  They take turns on every case, with the side
that goes first alternating from run to run so both see the same machine
load, and they report each side's median and quartiles.
"""
from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
from pathlib import Path


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


def summary(values: list[float], scale: float = 1.0) -> dict:
    """Median and quartiles of ``values``, each times ``scale``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median * scale, "q1": q1 * scale, "q3": q3 * scale}


def describe(checkout: Path, modules: list[str]) -> dict:
    """The commit of a checkout, whether its src/ differs from it, and a
    digest of the measured modules (paths relative to the checkout)."""
    def git(*args):
        out = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                             text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    digest = hashlib.sha256()
    for module in modules:
        digest.update((checkout / module).read_bytes())
    status = git("status", "--porcelain", "--", "src")
    return {
        "commit": git("rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),
        "sources_sha256": digest.hexdigest(),
    }


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1"),
    }
