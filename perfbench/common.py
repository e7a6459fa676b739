"""The closed loop shared by the workloads, and result helpers.

Standard library only at import time, so a process can start its
set-up clock before numpy and drawfix load.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from tracing import QUERY

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
RUNS = ROOT / ".perfbench_runs"

FIXTURES = [
    "soccer_matches.csv", "soccer_ranks.csv", "tennis_h2h.csv", "tennis_ranks.csv",
    "expected/soccer_counts.json", "expected/soccer_winprobs.json",
    "expected/soccer_scan.json", "expected/tennis_counts.json",
]


class SetupError(RuntimeError):
    pass


def bootstrap() -> None:
    """Make this checkout's ``src/drawfix`` the one that is imported."""
    missing = [str(p.relative_to(ROOT)) for p in [SRC / "drawfix" / "__init__.py"]
               + [DATA / f for f in FIXTURES] if not p.is_file()]
    if missing:
        raise SetupError(f"checkout is missing {', '.join(missing)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_fixtures(df):
    """(deterministic, probabilistic) readings of the soccer and tennis fixtures."""
    soccer = df.soccer_to_tournaments(df.read_matches(DATA / "soccer_matches.csv"),
                                      df.read_ranks(DATA / "soccer_ranks.csv"))
    tennis = df.tennis_to_tournaments(df.read_h2h(DATA / "tennis_h2h.csv"),
                                      df.read_ranks(DATA / "tennis_ranks.csv"))
    return soccer, tennis


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def sampler_workers() -> int:
    """Never more sampler threads than the cores this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass
class Query:
    """One public library call or one CLI command.

    ``run`` is the only part timed.  ``check`` raises on a wrong answer,
    ``answer`` gives the machine-readable answer for the digest, and
    ``units`` the draws or samples a call produced.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None] = lambda result: None
    answer: Callable[[Any], Any] = lambda result: None
    units: Callable[[Any], int] = lambda result: 0


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)   # (kind, seconds, units)
    answers: dict = field(default_factory=dict)      # kind -> list, first fields only
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    field_sizes: list = field(default_factory=list)  # queries per completed field

    @property
    def timed_s(self) -> float:
        return sum(dt for _, dt, _ in self.latencies)


def closed_loop(workload, seconds: float, rec=None,
                max_queries: int | None = None) -> LoopResult:
    """One caller, no think time: run whole fields in order until the
    timed wall time reaches ``seconds`` (or ``max_queries`` queries have
    run), and at least the first ``workload.min_fields`` fields.
    Stopping only between fields keeps the query mix the same in every
    run.

    Each field is a generator of :class:`Query` that receives the
    previous query's result (None if it failed).  Only ``Query.run`` is
    timed; answer checks and digests happen between queries.
    """
    out = LoopResult()
    for fi, field_ in enumerate(workload.fields()):
        if max_queries is None and fi >= workload.min_fields and out.timed_s >= seconds:
            return out
        gen = workload.queries(field_)
        result = None
        start = out.attempted
        while True:
            if max_queries is not None and out.attempted >= max_queries:
                return out
            try:
                q = gen.send(result)
            except StopIteration:
                out.field_sizes.append(out.attempted - start)
                break
            out.attempted += 1
            ok = True
            t0 = time.perf_counter()
            idx = rec.begin(QUERY) if rec else None
            try:
                result = q.run()
            except Exception as exc:  # a failed query is counted, not fatal
                ok, result = False, None
                out.errors.append(f"{q.kind}: {type(exc).__name__}: {exc}")
            if rec:
                rec.end(idx, kind=q.kind)
            dt = time.perf_counter() - t0
            if rec and hasattr(workload, "graft"):
                workload.graft(rec, idx)
            if ok:
                try:
                    q.check(result)
                except Exception as exc:
                    ok = False
                    out.errors.append(f"{q.kind} check: {exc}")
            units = q.units(result) if ok else 0
            out.latencies.append((q.kind, dt, units))
            if not ok:
                out.failed += 1
                result = None
            if fi < workload.min_fields:
                out.answers.setdefault(q.kind, []).append(q.answer(result) if ok else None)
    return out


# ---------------------------------------------------------------------------
# statistics


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(loop: LoopResult, setup_samples: list, peak_rss_mb: float,
               tail_pct: float) -> dict:
    lat = [dt for _, dt, _ in loop.latencies]
    return {
        "setup_s": statistics.median(setup_samples),
        "queries_per_s": len(lat) / loop.timed_s,
        "query_p50_ms": percentile(lat, 50) * 1e3,
        "query_tail_ms": percentile(lat, tail_pct) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def kind_p50_ms(loop: LoopResult, kind: str) -> float:
    return percentile([dt for k, dt, _ in loop.latencies if k == kind], 50) * 1e3


def kind_rate(loop: LoopResult, kind: str) -> float:
    picked = [(dt, u) for k, dt, u in loop.latencies if k == kind]
    return sum(u for _, u in picked) / sum(dt for dt, _ in picked)


def digests(answers: dict) -> dict:
    """sha256 of each kind's answers, serialised with exact float reprs."""
    return {kind: hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()
            for kind, values in sorted(answers.items())}


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except Exception as exc:  # older numpy has no dict mode
        blas = {"error": str(exc)}
    thread_vars = {k: v for k, v in os.environ.items()
                   if k.endswith("_NUM_THREADS") or k in ("OPENBLAS_CORETYPE",)}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": thread_vars,
        "machine": platform.machine(),
    }
