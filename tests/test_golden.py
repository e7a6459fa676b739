"""Byte pins of the CLI's machine outputs on the bundled leagues.

Each case runs on one fixture, and its pins are
``tests/golden/<fixture>_<case>.{json,csv}``; ``cr8`` is the 8-player
matrix that ``gen-cr`` writes, which reads no input.  The mini-league
pins were written by the CLI before its input loading moved into
``drawfix.ingest``; the step-0.001 scans were written before the scan
took every grid point from the rank recurrence; the ``count`` and
``gen-cr`` pins were written before the CLI built its CSV rows from its
JSON rows.  Every later change must reproduce them byte for byte.  The JSON metadata records the input
paths, so the commands run from the repository root with relative paths.
"""
from pathlib import Path

import pytest

from drawfix.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
MINI = ["--input", "data/mini_matches.csv", "--ranks", "data/mini_ranks.csv"]
SOCCER = ["--input", "data/soccer_matches.csv", "--ranks", "data/soccer_ranks.csv"]
# case -> (fixture, arguments); the case name without its fixture prefix
# names the pin.
CASES = {
    "fix": ("mini", ["fix", *MINI, "--target", "Elmsworth Badgers"]),
    "count-stats-none": ("mini", ["count", *MINI, "--stats", "none"]),
    "count-stats-first": ("mini", ["count", *MINI, "--stats", "first"]),
    "count-stats-all": ("mini", ["count", *MINI, "--stats", "all"]),
    "kings": ("mini", ["kings", *MINI]),
    "winprob": ("mini", ["winprob", *MINI]),
    "winprob-full-simulation": ("mini", ["winprob", *MINI, "--mode", "full-simulation",
                                         "--samples", "20000", "--seed", "7"]),
    "scan": ("mini", ["scan", *MINI]),
    "scan-step-0.001": ("mini", ["scan", *MINI, "--step", "0.001"]),
    "soccer-scan-step-0.001": ("soccer", ["scan", *SOCCER, "--step", "0.001"]),
    "fit": ("mini", ["fit", *MINI]),
    "cr8-gen-cr": ("cr8", ["gen-cr", "--players", "8", "--upset-prob", "0.3"]),
}


def _pin(case: str, fmt: str) -> Path:
    fixture = CASES[case][0]
    return GOLDEN / f"{fixture}_{case.removeprefix(fixture + '-')}.{fmt}"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_machine_output_is_pinned(case, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / f"out.{fmt}"
    assert main([*CASES[case][1], "--format", fmt, "--output", str(out)]) == 0
    assert out.read_bytes() == _pin(case, fmt).read_bytes()


@pytest.mark.parametrize("workers", ["2", "3"])
def test_sampled_csv_ignores_worker_count(workers, tmp_path, monkeypatch):
    # The CSV carries no run metadata, so it must equal the one-worker pin.
    monkeypatch.chdir(ROOT)
    out = tmp_path / "out.csv"
    args = [*CASES["winprob-full-simulation"][1], "--workers", workers]
    assert main([*args, "--format", "csv", "--output", str(out)]) == 0
    assert out.read_bytes() == _pin("winprob-full-simulation", "csv").read_bytes()
