"""The in-process workload, ``fixing``.

It calls drawfix through module attributes (``df.count_winning_draws``
and so on) at call time, so the timing wrappers of a traced run see
every call.
"""
from __future__ import annotations

import itertools
import json
import resource
import subprocess
import sys
from pathlib import Path

import checks
import inputs
import tracing
from common import DATA, ROOT, Query, kind_p50_ms, kind_rate, load_fixtures

ENUMERATE_LIMIT = 1000
# Fresh processes that repeat the set-up, besides the run's own.
SETUP_PROBES = 4
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


class Fixing:
    """Who can be made champion, and by how many draws.

    Per field: one count, a find for each of the 16 players, and two
    enumerations capped at ENUMERATE_LIMIT draws, for the player with
    the most winning draws and for the one with the fewest nonzero.
    """

    name = "fixing"
    min_fields = 3
    tail_pct = 80
    # A query's own code is one lambda around a wrapped library call, so
    # query time outside every library span above this share of the
    # timed wall means a public function escaped the wrappers.
    harness_share_limit = 0.01

    def __init__(self, seed: int):
        self.seed = seed
        self.patches = []

    def start_tracing(self, rec) -> None:
        self.patches = tracing.install(rec)

    def stop_tracing(self) -> None:
        tracing.uninstall(self.patches)

    def cleanup(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def setup_samples(self, own_setup_s: float) -> list:
        samples = [own_setup_s]
        for _ in range(SETUP_PROBES):
            proc = subprocess.run([sys.executable, str(PROBE), str(self.seed)],
                                  cwd=ROOT, capture_output=True, timeout=170)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
            samples.append(json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"])
        return samples

    def setup(self) -> None:
        import drawfix as df

        self.df = df
        (soccer, _), (tennis, _) = load_fixtures(df)
        self.soccer = soccer
        self.tennis = df.drop_player(tennis, tennis.players.by_rank()[0])
        # Committed counts of the two fixture fields, for the count check.
        self.expected = {
            field_name: json.loads((DATA / "expected" / f"{name}_counts.json").read_text())
            for field_name, name in (("soccer", "soccer"),
                                     ("tennis-top-seed-dropped", "tennis"))}
        # First call of each query kind.
        report = df.count_winning_draws(soccer)
        checks.counts(list(report.counts), soccer.n)
        df.find_winning_draw(soccer, 0)
        list(df.enumerate_winning_draws(soccer, 0, limit=ENUMERATE_LIMIT))

    def fields(self):
        yield "soccer", self.soccer
        yield "tennis-top-seed-dropped", self.tennis
        for k in itertools.count():
            beats, upset = inputs.relation(self.seed, k)
            players = self.df.PlayerTable.default(inputs.N)
            yield f"relation-{k}-u{upset:.3f}", self.df.DeterministicTournament(players, beats)

    def queries(self, field_):
        df = self.df
        name, t = field_
        report = yield Query(
            "count", lambda: df.count_winning_draws(t),
            check=lambda r: self._check_count(name, t, r),
            answer=lambda r: list(r.counts))
        if report is None:
            return
        counts = report.counts
        for target in range(t.n):
            yield Query(
                "find", lambda target=target: df.find_winning_draw(t, target),
                check=lambda r, target=target: checks.found(r.draw, t, target, counts[target]),
                answer=lambda r: None if r.draw is None else list(r.draw.leaves))
        nonzero = [i for i in range(t.n) if counts[i]]
        most = max(nonzero, key=lambda i: (counts[i], -i))
        fewest = min(nonzero, key=lambda i: (counts[i], i))
        for target in (most, fewest):
            yield Query(
                "enumerate",
                lambda target=target: list(
                    df.enumerate_winning_draws(t, target, limit=ENUMERATE_LIMIT)),
                check=lambda r, target=target: checks.enumerated(
                    r, t, target, counts[target], ENUMERATE_LIMIT),
                answer=lambda r: [list(d.leaves) for d in r],
                units=len)

    def _check_count(self, name, t, report) -> None:
        checks.counts(list(report.counts), t.n)
        if name in self.expected:
            checks.expected_counts(report.counts, t.players.names, self.expected[name])
        exact = self.df.exact_uniform_win_probs(t.to_probabilistic())
        checks.exact_matches_counts(exact.entries, report.counts)

    def workload_metrics(self, loop) -> dict:
        return {
            "count_p50_ms": (kind_p50_ms(loop, "count"), "ms"),
            "fix_p50_ms": (kind_p50_ms(loop, "find"), "ms"),
            "enumerate_draws_per_s": (kind_rate(loop, "enumerate"), "1/s"),
        }
