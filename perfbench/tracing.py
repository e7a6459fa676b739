"""Spans around drawfix's public functions, installed from outside the package.

A :class:`Recorder` keeps spans in memory: name, parent span, start and
end on the monotonic ``time.perf_counter`` clock (system-wide on Linux,
so spans recorded in a child process line up with the parent's), plus a
small dict of counters.  :func:`install` replaces each public function
listed in ``TARGETS`` with a timing wrapper at every ``drawfix`` module
attribute that refers to it, so calls between layers nest as child
spans.  A layer's self time is its span minus the part its children
cover (:func:`self_times`).

This module uses the standard library only, so the CLI launcher can
import it before timing the import of ``drawfix``.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

# (module, function, span name).  Span names start with the layer.
# Helpers called once per search node (``halvings``, ``bit_indices``)
# are left unwrapped: a wrapper there would cost more than the helper.
# ``crmodel`` and ``core`` are not wrapped either; their time counts
# towards whichever layer calls them.
TARGETS = [
    ("drawfix._subsetdp", "plan", "subsetdp.plan"),
    ("drawfix._subsetdp", "sweep", "subsetdp.sweep"),
    ("drawfix._subsetdp", "combine_count", "subsetdp.combine_count"),
    ("drawfix.solver", "count_winning_draws", "solver.count"),
    ("drawfix.solver", "find_winning_draw", "solver.find"),
    ("drawfix.solver", "enumerate_winning_draws", "solver.enumerate"),
    ("drawfix.solver", "kings", "solver.kings"),
    ("drawfix.solver", "condorcet_winner", "solver.condorcet"),
    ("drawfix.winprob", "exact_uniform_win_probs", "winprob.exact"),
    ("drawfix.winprob", "sample_uniform_win_probs", "winprob.sample"),
    ("drawfix.stats", "ks_two_sample", "stats.ks"),
    ("drawfix.stats", "scan_cr", "stats.scan"),
    ("drawfix.stats", "fit_power_law", "stats.fit"),
    ("drawfix.stats", "fit_lognormal", "stats.fit"),
    ("drawfix.stats", "likelihood_ratio_test", "stats.fit"),
    ("drawfix.stats", "ecdf_points", "stats.fit"),
    ("drawfix.stats", "ccdf_points", "stats.fit"),
    ("drawfix.ingest", "read_matches", "ingest.read"),
    ("drawfix.ingest", "read_h2h", "ingest.read"),
    ("drawfix.ingest", "read_ranks", "ingest.read"),
    ("drawfix.ingest", "read_prob_matrix", "ingest.read"),
    ("drawfix.ingest", "write_prob_matrix", "ingest.write"),
    ("drawfix.ingest", "soccer_to_tournaments", "ingest.build"),
    ("drawfix.ingest", "tennis_to_tournaments", "ingest.build"),
    ("drawfix.ingest", "drop_player", "ingest.build"),
]

# Root spans opened by the benchmark itself.
SETUP = "harness.setup"
QUERY = "harness.query"
IMPORT = "import"
CLI_MAIN = "cli.main"


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span stack for the main thread.

    Set ``track_memory`` to run the next warm sweep under tracemalloc and
    record its peak; the recorder then turns tracking off.  The first
    ``plan(n)`` call for each ``n`` in a process counts as cold.
    """

    def __init__(self, track_memory: bool = False):
        self.spans: list[Span] = []
        self.track_memory = track_memory
        self.built_plans: set = set()
        self._stack: list[int] = []

    def begin(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        now = time.perf_counter() if start is None else start
        self.spans.append(Span(name, parent, now))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int, **info) -> None:
        self.spans[idx].end = time.perf_counter()
        self.spans[idx].info.update(info)
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def graft(self, spans: list[Span], parent: int) -> None:
        """Append spans recorded elsewhere (a child process) under ``parent``."""
        base = len(self.spans)
        for s in spans:
            self.spans.append(Span(
                s.name, parent if s.parent is None else base + s.parent,
                s.start, s.end, dict(s.info)))

    def to_json(self) -> list:
        return [[s.name, s.parent, s.start, s.end, s.info] for s in self.spans]

    @staticmethod
    def spans_from_json(rows) -> list[Span]:
        return [Span(name, parent, start, end, info)
                for name, parent, start, end, info in rows]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping
    children are merged, so time is never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.duration - covered)
    return out


def root_of(spans: list[Span]) -> list[int]:
    """Index of each span's outermost ancestor (itself for a root)."""
    roots = []
    for s in spans:
        roots.append(len(roots) if s.parent is None else roots[s.parent])
    return roots


# ---------------------------------------------------------------------------
# wrappers


def _result_info(name: str, result, args, kwargs) -> dict:
    if name == "solver.find":
        return {"none": result.draw is None,
                "choice_points": result.stats.choice_points}
    if name == "winprob.sample":
        return {"samples": result.samples,
                "mode": kwargs.get("mode", args[3] if len(args) > 3 else "per-draw-exact"),
                "workers": kwargs.get("workers", args[4] if len(args) > 4 else 1)}
    if name == "stats.ks":
        return {"monte_carlo": result.resamples is not None}
    if name == "stats.scan":
        return {"grid_points": len(result.steps)}
    return {}


class _TracedStream:
    """Times each step of a lazy draw stream as its own span."""

    def __init__(self, rec: Recorder, name: str, stream, called: float):
        self._rec = rec
        self._name = name
        self._stream = stream
        self._called = called
        self._first = True

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._rec.begin(self._name)
        try:
            item = next(self._stream)
        except StopIteration:
            self._rec.end(idx, exhausted=True,
                          choice_points=self._stream.stats.choice_points)
            raise
        self._rec.end(idx, draws=1)
        if self._first:
            self._rec.spans[idx].info["first_draw_s"] = time.perf_counter() - self._called
            self._first = False
        return item

    @property
    def stats(self):
        return self._stream.stats


def _wrap(rec: Recorder, name: str, orig):
    main = threading.main_thread()

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if threading.current_thread() is not main:
            return orig(*args, **kwargs)
        measure = False
        if name == "subsetdp.plan":
            cold = args[0] not in rec.built_plans
        elif name == "subsetdp.sweep" and rec.track_memory:
            # One warm sweep only: tracemalloc slows every sweep it watches
            # by most of its own time, and the cold plan build even more.
            measure = args[0] in rec.built_plans and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
        idx = rec.begin(name)
        try:
            result = orig(*args, **kwargs)
        except BaseException:
            rec.end(idx, raised=True)
            if measure:
                tracemalloc.stop()
            raise
        info = {}
        if measure:
            info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            rec.track_memory = False
        if name == "subsetdp.plan":
            info["cold"] = cold
            rec.built_plans.add(args[0])
        info.update(_result_info(name, result, args, kwargs))
        rec.end(idx, **info)
        if name == "solver.enumerate":
            return _TracedStream(rec, name, result, rec.spans[idx].start)
        return result

    return wrapper


def install(rec: Recorder) -> list:
    """Wrap every target at every loaded drawfix module attribute naming it.

    Returns the patches; pass them to :func:`uninstall` to undo.  Targets
    that the installed drawfix does not define are skipped.
    """
    patches = []
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "drawfix" or k.startswith("drawfix."))]
    for mod_name, fn_name, span_name in TARGETS:
        try:
            orig = getattr(importlib.import_module(mod_name), fn_name)
        except (ImportError, AttributeError):
            continue
        wrapper = _wrap(rec, span_name, orig)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    patches.append((mod, attr, orig))
    return patches


def uninstall(patches: list) -> None:
    for mod, attr, orig in reversed(patches):
        setattr(mod, attr, orig)


# ---------------------------------------------------------------------------
# per-layer metrics

LAYER_METRICS = {
    # name: unit
    "import_ms": "ms",
    "ingest.busy_ms": "ms",
    "subsetdp.plan.cold_ms": "ms",
    "subsetdp.sweep.calls": "count",
    "subsetdp.sweep.p50_ms": "ms",
    "subsetdp.sweep.busy_share": "ratio",
    "subsetdp.sweep.peak_mb": "MB",
    "subsetdp.sweep.combines": "count",
    "solver.count.busy_share": "ratio",
    "solver.find.calls": "count",
    "solver.find.busy_share": "ratio",
    "solver.find.choice_points": "count",
    "solver.find.none_share": "ratio",
    "solver.enumerate.draws": "count",
    "solver.enumerate.busy_share": "ratio",
    "solver.enumerate.choice_points_per_draw": "ratio",
    "winprob.exact.busy_share": "ratio",
    "winprob.sample.draws": "count",
    "winprob.sample.busy_share": "ratio",
    "winprob.sample.per_draw_exact.draws_per_s": "1/s",
    "winprob.sample.full_simulation.draws_per_s": "1/s",
    "winprob.sample.workers2_speedup": "ratio",
    "stats.scan.busy_share": "ratio",
    "stats.scan.sweeps_per_grid_point": "ratio",
    "stats.ks.calls": "count",
    "stats.ks.monte_carlo_share": "ratio",
    "stats.fit.busy_share": "ratio",
    "cli.self_share": "ratio",
    "harness.self_share": "ratio",
    "trace.overhead_share": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(rec: Recorder, timed_wall_s: float, overhead_share: float,
                  combine_count=None) -> tuple[dict, dict]:
    """Per-layer metrics from a traced run, plus a per-span-name summary.

    Spans under a ``harness.query`` root are the timed region; setup
    spans give only the import, ingest and cold-plan figures.
    ``timed_wall_s`` is the timed wall time measured by the harness's
    own clock, not by the recorder.
    """
    spans = rec.spans
    selfs = self_times(spans)
    roots = root_of(spans)
    timed = [i for i, r in enumerate(roots) if spans[r].name == QUERY]

    def timed_of(name):
        return [i for i in timed if spans[i].name == name]

    def busy(name_or_prefix):
        return sum(selfs[i] for i in timed
                   if spans[i].name == name_or_prefix
                   or spans[i].name.startswith(name_or_prefix + "."))

    def share(name):
        return _ratio(busy(name), timed_wall_s)

    # Figures per process: in-process runs have one setup root, CLI runs
    # one query root per child.
    per_root_ingest: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s.name.startswith("ingest."):
            per_root_ingest[roots[i]] = per_root_ingest.get(roots[i], 0.0) + selfs[i]
    imports = [s.duration for s in spans if s.name == IMPORT]
    cold_plans = [s.duration for s in spans
                  if s.name == "subsetdp.plan" and s.info.get("cold")]

    sweeps = timed_of("subsetdp.sweep")
    finds = timed_of("solver.find")
    enum_steps = timed_of("solver.enumerate")
    draws = sum(spans[i].info.get("draws", 0) for i in enum_steps)
    enum_cp = sum(spans[i].info.get("choice_points", 0) for i in enum_steps)
    samples = timed_of("winprob.sample")
    ks = timed_of("stats.ks")
    scans = timed_of("stats.scan")

    def rate(mode, workers=None):
        picked = [i for i in samples if spans[i].info.get("mode") == mode
                  and (workers is None or spans[i].info.get("workers") == workers)]
        return _ratio(sum(spans[i].info["samples"] for i in picked),
                      sum(spans[i].duration for i in picked))

    # Exact-probability calls nested anywhere inside a scan span.
    inside_scan = 0
    for i in timed:
        if spans[i].name != "winprob.exact":
            continue
        p = spans[i].parent
        while p is not None and spans[p].name != "stats.scan":
            p = spans[p].parent
        inside_scan += p is not None

    peaks = [spans[i].info["peak_bytes"] for i in sweeps if "peak_bytes" in spans[i].info]
    most_workers = max((spans[i].info.get("workers", 1) for i in samples), default=1)
    n_sweeps = len(sweeps)
    metrics = {
        "import_ms": _median(imports) * 1e3,
        "ingest.busy_ms": _median(per_root_ingest.values()) * 1e3,
        "subsetdp.plan.cold_ms": _median(cold_plans) * 1e3,
        "subsetdp.sweep.calls": n_sweeps,
        "subsetdp.sweep.p50_ms": _median(spans[i].duration for i in sweeps) * 1e3,
        "subsetdp.sweep.busy_share": share("subsetdp.sweep"),
        "subsetdp.sweep.peak_mb": max(peaks, default=0) / 2**20,
        "subsetdp.sweep.combines": (combine_count or 0) * n_sweeps,
        "solver.count.busy_share": share("solver.count"),
        "solver.find.calls": len(finds),
        "solver.find.busy_share": share("solver.find"),
        "solver.find.choice_points": sum(spans[i].info.get("choice_points", 0) for i in finds),
        "solver.find.none_share": _ratio(sum(bool(spans[i].info.get("none")) for i in finds),
                                         len(finds)),
        "solver.enumerate.draws": draws,
        "solver.enumerate.busy_share": share("solver.enumerate"),
        "solver.enumerate.choice_points_per_draw": _ratio(enum_cp, draws),
        "winprob.exact.busy_share": share("winprob.exact"),
        "winprob.sample.draws": sum(spans[i].info.get("samples", 0) for i in samples),
        "winprob.sample.busy_share": share("winprob.sample"),
        "winprob.sample.per_draw_exact.draws_per_s": rate("per-draw-exact", 1),
        "winprob.sample.full_simulation.draws_per_s": rate("full-simulation"),
        "winprob.sample.workers2_speedup": _ratio(rate("per-draw-exact", most_workers),
                                                  rate("per-draw-exact", 1)),
        "stats.scan.busy_share": share("stats.scan"),
        "stats.scan.sweeps_per_grid_point": _ratio(
            inside_scan, sum(spans[i].info.get("grid_points", 0) for i in scans)),
        "stats.ks.calls": len(ks),
        "stats.ks.monte_carlo_share": _ratio(
            sum(bool(spans[i].info.get("monte_carlo")) for i in ks), len(ks)),
        "stats.fit.busy_share": share("stats.fit"),
        "cli.self_share": share(CLI_MAIN),
        "harness.self_share": share(QUERY),
        "trace.overhead_share": overhead_share,
    }

    # Every span name in the timed region, for the results file.
    detail: dict[str, dict] = {}
    for i in timed:
        d = detail.setdefault(spans[i].name, {"calls": 0, "self_s": 0.0, "wall": []})
        d["calls"] += 1
        d["self_s"] += selfs[i]
        d["wall"].append(spans[i].duration)
    for d in detail.values():
        d["p50_ms"] = _median(d.pop("wall")) * 1e3
    first = [spans[i].info["first_draw_s"] for i in enum_steps if "first_draw_s" in spans[i].info]
    detail.setdefault("solver.enumerate", {})["first_draw_p50_ms"] = _median(first) * 1e3
    return metrics, detail
