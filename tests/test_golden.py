"""Byte pins of the CLI's machine outputs on the bundled mini league.

The files under ``tests/golden/`` were written by the CLI before its
input loading moved into ``drawfix.ingest``; every later change must
reproduce them byte for byte.  The JSON metadata records the input
paths, so the commands run from the repository root with relative paths.
"""
from pathlib import Path

import pytest

from drawfix.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
MINI = ["--input", "data/mini_matches.csv", "--ranks", "data/mini_ranks.csv"]
CASES = {
    "fix": ["fix", *MINI, "--target", "Elmsworth Badgers"],
    "kings": ["kings", *MINI],
    "winprob": ["winprob", *MINI],
    "winprob-full-simulation": ["winprob", *MINI, "--mode", "full-simulation",
                                "--samples", "20000", "--seed", "7"],
    "scan": ["scan", *MINI],
    "fit": ["fit", *MINI],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_machine_output_is_pinned(case, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / f"out.{fmt}"
    assert main([*CASES[case], "--format", fmt, "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"mini_{case}.{fmt}").read_bytes()
