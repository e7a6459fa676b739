"""A JSON matrix reads the same whatever order its rows are listed in.

Player ids are ranks, so reading a JSON matrix puts its rows in rank
order.  Each case writes one field twice, in rank order and in another
row order, and holds the readings and the command line's reports of the
two files to each other.
"""
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from drawfix import read_tournaments
from drawfix.cli import main

from conftest import write_rows

DATA = Path(__file__).parent.parent / "data"

COMMANDS = [
    ["count", "--stats", "all"],
    ["winprob", "--mode", "exact"],
    ["scan", "--step", "0.1"],
    ["fit"],
    ["kings"],
]


def report(tmp, path, argv):
    """Exit code and ``data`` block of one command on ``path``."""
    out = Path(tmp) / "out.json"
    out.unlink(missing_ok=True)
    code = main([argv[0], "--input", str(path), *argv[1:], "--output", str(out)])
    return code, json.loads(out.read_text())["data"] if out.exists() else None


def assert_same_field(names, probs, order, target):
    with tempfile.TemporaryDirectory() as tmp:
        ranked, shuffled = Path(tmp) / "ranked.json", Path(tmp) / "shuffled.json"
        write_rows(ranked, names, probs, range(len(names)))
        write_rows(shuffled, names, probs, order)
        (det_a, prob_a), (det_b, prob_b) = read_tournaments(ranked), read_tournaments(shuffled)
        assert prob_a.players == prob_b.players and prob_a.players.names == tuple(names)
        assert prob_a.probs.tobytes() == prob_b.probs.tobytes()
        assert np.array_equal(det_a.beats, det_b.beats)
        for argv in COMMANDS + [["fix", "--target", names[target]]]:
            assert report(tmp, shuffled, argv) == report(tmp, ranked, argv), argv


# Exact halves exercise the tie rule, which gives a tie to the better rank.
ENTRIES = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def shuffled_fields(draw):
    n = draw(st.sampled_from([2, 4, 8]))
    probs = np.full((n, n), 0.5)
    for i in range(n):
        for j in range(i + 1, n):
            probs[i, j] = draw(ENTRIES)
            probs[j, i] = 1.0 - probs[i, j]
    order = draw(st.permutations(range(n)))
    target = draw(st.integers(0, n - 1))
    return [f"t{i}" for i in range(n)], probs, order, target


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(shuffled_fields())
def test_row_order_changes_nothing(field):
    assert_same_field(*field)


def test_shuffled_soccer_season():
    _, prob = read_tournaments(DATA / "soccer_matches.csv", DATA / "soccer_ranks.csv")
    order = np.random.default_rng(3).permutation(prob.n).tolist()
    assert_same_field(list(prob.players.names), prob.probs, order, 3)

