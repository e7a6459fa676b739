"""The ``cli`` workload: one ``python -m drawfix`` process at a time.

Each round runs the same eleven commands a terminal user would, on the
committed fixtures and on matrix files the benchmark writes itself.
Every process pays for the import, the cold ``plan(16)`` build and a
cold scan grid.
"""
from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import tracing
from common import (DATA, ROOT, RUNS, Query, child_env, kind_p50_ms, load_fixtures,
                    sampler_workers)

WORK = RUNS / "cli-work"
SOCCER = ["--input", "data/soccer_matches.csv", "--ranks", "data/soccer_ranks.csv"]
TENNIS = ["--input", "data/tennis_h2h.csv", "--ranks", "data/tennis_ranks.csv"]
LAUNCHER = Path(__file__).resolve().parent / "cli_launcher.py"
VERSION_PROBES = 9
COMMAND_TIMEOUT_S = 120


def _rel(path: Path) -> str:
    # Relative paths keep the machine outputs, which echo the input path,
    # identical between checkouts.
    return str(path.relative_to(ROOT))


class Cli:
    name = "cli"
    min_fields = 2
    tail_pct = 50
    # Process and interpreter start-up fall outside every library span.
    harness_share_limit = None

    def __init__(self, seed: int):
        self.seed = seed
        self.traced = False
        self.workers = sampler_workers()
        self.span_file = WORK / "spans.json"

    def start_tracing(self, rec) -> None:
        self.traced = True

    def stop_tracing(self) -> None:
        self.traced = False

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def setup_samples(self, own_setup_s: float) -> list:
        """Wall time of a bare ``python -m drawfix --version``, the import
        floor; this process's own set-up only loads check references."""
        samples = []
        for _ in range(VERSION_PROBES):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "drawfix", "--version"], cwd=ROOT,
                                  env=child_env(), capture_output=True,
                                  timeout=COMMAND_TIMEOUT_S)
            samples.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"drawfix --version failed: {proc.stderr.decode()}")
        return samples

    def setup(self) -> None:
        """Load references for the answer checks; nothing here is timed."""
        import drawfix as df

        self.df = df
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        self.expected = {kind: json.loads((DATA / "expected" / f"soccer_{kind}.json").read_text())
                         for kind in ("counts", "winprobs", "scan")}
        counts = self.expected["counts"]["counts"]
        self.feasible = sorted(name for name, c in counts.items() if c)
        self.infeasible = sorted(name for name, c in counts.items() if not c)
        (self.soccer, _), (self.tennis, _) = load_fixtures(df)
        self._exact = {}

    def cleanup(self) -> None:
        shutil.rmtree(WORK, ignore_errors=True)

    def fields(self):
        k = 0
        while True:
            yield k, inputs.cli_round(self.seed, k, self.feasible, self.infeasible)
            k += 1

    def _field_exact(self, k: int, probs):
        # Reference for the sampled and fit checks, computed untimed.
        if k not in self._exact:
            t = self.df.ProbabilisticTournament(self.df.PlayerTable.default(inputs.N), probs)
            self._exact[k] = self.df.exact_uniform_win_probs(t).entries
        return self._exact[k]

    def _command(self, kind: str, argv: list, expect: int, check=None):
        out_path = WORK / f"{kind}.json"
        full = [*argv, "--output", _rel(out_path)]

        def run():
            out_path.unlink(missing_ok=True)
            if self.traced:
                cmd = [sys.executable, str(LAUNCHER), _rel(self.span_file), *full]
            else:
                cmd = [sys.executable, "-m", "drawfix", *full]
            return subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  timeout=COMMAND_TIMEOUT_S)

        def verify(proc):
            checks.require(proc.returncode == expect,
                           f"{kind} exited {proc.returncode}, expected {expect}: "
                           f"{proc.stderr.decode()[-300:]}")
            if check is not None:
                check(json.loads(out_path.read_bytes()))

        return Query(kind, run, check=verify, answer=lambda proc: out_path.read_text())

    def queries(self, field_):
        k, choice = field_
        probs = inputs.prob_matrix(self.seed, k)
        matrix = WORK / "field.json"
        matrix.write_text(json.dumps(inputs.matrix_doc(probs), indent=2))
        field_input = ["--input", _rel(matrix)]
        soccer_names = self.soccer.players.names
        exp = self.expected

        yield self._command(
            "kings", ["kings", *TENNIS], 0,
            lambda d: checks.cli_kings(d, self.tennis.players.names, self.tennis.beats))
        u = choice["upset_prob"]
        yield self._command(
            "gen-cr", ["gen-cr", "--players", str(inputs.N), "--upset-prob", str(u)], 0,
            lambda d: checks.cli_matrix(d, inputs.cr_matrix(u)))
        yield self._command("count", ["count", "--stats", "none", *SOCCER], 0,
                            lambda d: checks.cli_counts(d, exp["counts"]))
        for kind, target, code in (("fix", choice["fix_target"], 0),
                                   ("fix-none", choice["fix_none_target"], 3)):
            tid = soccer_names.index(target)
            count = exp["counts"]["counts"][target]

            def check_fix(d, tid=tid, count=count):
                draw = d["data"]["draw"]
                checks.require(d["data"]["found"] == (count > 0), "fix found flag is wrong")
                if draw is not None:
                    checks.found(self.df.Draw(tuple(draw)), self.soccer, tid, count)

            yield self._command(kind, ["fix", *SOCCER, "--target", target], code, check_fix)
        yield self._command("winprob-exact", ["winprob", "--mode", "exact", *SOCCER], 0,
                            lambda d: checks.cli_winprobs(d, exp["winprobs"]))

        def check_sampled(d):
            entries = [row["win_prob"] for row in d["data"]["players"]]
            checks.sampled(entries, self._field_exact(k, probs), d["data"]["samples"])

        # The sampler in both modes, and on more than one worker, on the
        # same input and seed.
        sampled = ["--seed", str(choice["sample_seed"]), *field_input]
        yield self._command("winprob-sampled",
                            ["winprob", "--mode", "per-draw-exact", *sampled], 0, check_sampled)
        yield self._command("winprob-workers",
                            ["winprob", "--mode", "per-draw-exact",
                             "--workers", str(self.workers), *sampled], 0, check_sampled)
        yield self._command("winprob-simulated",
                            ["winprob", "--mode", "full-simulation", *sampled], 0, check_sampled)
        yield self._command("scan", ["scan", *SOCCER], 0,
                            lambda d: checks.cli_scan(d, exp["scan"]))

        def check_fit(d):
            exact = self._field_exact(k, probs)
            lognormal = d["data"]["lognormal"]
            checks.lognormal_fit(lognormal["mu"], lognormal["sigma"], exact)
            power = d["data"]["powerlaw"]
            checks.power_law_fit(power["alpha"], power["xmin"], power["sample_size"], exact)

        yield self._command("fit", ["fit", *field_input], 0, check_fit)

    def graft(self, rec, idx: int) -> None:
        """Move the child's spans under the parent's query span."""
        if self.span_file.exists():
            rows = json.loads(self.span_file.read_text())
            rec.graft(tracing.Recorder.spans_from_json(rows), idx)
            self.span_file.unlink()

    def workload_metrics(self, loop) -> dict:
        return {"scan_p50_ms": (kind_p50_ms(loop, "scan"), "ms")}
