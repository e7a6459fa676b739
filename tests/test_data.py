"""The committed synthetic datasets and their expected outputs.

The 8-team expectations were produced by the brute-force bracket
enumeration in tests/oracle.py, which shares no code with the library,
so comparing them against the library is a genuine two-route check.  The 16-player expectations pin library
output at generation time and guard against regressions.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from drawfix import (
    EmpiricalSample,
    average_upset_probability,
    condorcet_winner,
    count_winning_draws,
    drop_player,
    exact_uniform_win_probs,
    kings,
    read_h2h,
    read_matches,
    read_ranks,
    scan_cr,
    soccer_to_tournaments,
    tennis_to_tournaments,
)

DATA = Path(__file__).parent.parent / "data"


def load_expected(name):
    return json.loads((DATA / "expected" / name).read_text())


@pytest.fixture(scope="module")
def soccer():
    return soccer_to_tournaments(
        read_matches(DATA / "soccer_matches.csv"),
        read_ranks(DATA / "soccer_ranks.csv"),
    )


@pytest.fixture(scope="module")
def tennis():
    return tennis_to_tournaments(
        read_h2h(DATA / "tennis_h2h.csv"),
        read_ranks(DATA / "tennis_ranks.csv"),
    )


class TestMiniSeason:
    def test_counts_match_enumeration(self):
        det, _ = soccer_to_tournaments(
            read_matches(DATA / "mini_matches.csv"),
            read_ranks(DATA / "mini_ranks.csv"),
        )
        expected = load_expected("mini_counts.json")
        report = count_winning_draws(det)
        assert report.total_draws == expected["total_draws"] == 315
        for name, count in expected["counts"].items():
            assert report.counts[det.players.id_of(name)] == count


class TestSoccerSeason:
    def test_goal_shares_are_interior(self, soccer):
        _, prob = soccer
        off = ~np.eye(16, dtype=bool)
        assert prob.probs[off].min() > 0.0
        assert prob.probs[off].max() < 1.0

    def test_counts_pinned(self, soccer):
        det, _ = soccer
        expected = load_expected("soccer_counts.json")
        report = count_winning_draws(det)
        assert report.total_draws == expected["total_draws"] == 638_512_875
        for name, count in expected["counts"].items():
            assert report.counts[det.players.id_of(name)] == count
        assert expected["counts"]["Cindervale United"] == 504_417_690

    def test_win_probs_pinned(self, soccer):
        _, prob = soccer
        expected = load_expected("soccer_winprobs.json")["win_probs"]
        vector = exact_uniform_win_probs(prob)
        for name, p in expected.items():
            assert vector.entries[prob.players.id_of(name)] == pytest.approx(
                p, abs=1e-12)

    def test_scan_pinned(self, soccer):
        _, prob = soccer
        expected = load_expected("soccer_scan.json")
        reference = EmpiricalSample.from_win_probs(exact_uniform_win_probs(prob))
        result = scan_cr(reference, 16, step=expected["step"],
                         threshold=expected["threshold"])
        avg_upset = average_upset_probability(prob)
        assert result.min_accepted == pytest.approx(expected["min_accepted"])
        assert result.max_accepted == pytest.approx(expected["max_accepted"])
        assert avg_upset == pytest.approx(expected["avg_upset"])
        assert result.min_accepted <= avg_upset <= result.max_accepted


class TestTennisTour:
    def test_top_seed_dominates(self, tennis):
        det, _ = tennis
        assert det.players.n == 17
        assert condorcet_winner(det) == det.players.id_of("Axel Brandt")
        assert kings(det) == (det.players.id_of("Axel Brandt"),)

    def test_fixture_has_ties_and_gaps(self):
        records = read_h2h(DATA / "tennis_h2h.csv")
        assert any(r.a_wins == r.b_wins for r in records)
        named = {frozenset((r.player_a, r.player_b)) for r in records}
        all_pairs = {
            frozenset(p)
            for p in itertools.combinations(
                read_ranks(DATA / "tennis_ranks.csv").names, 2)
        }
        assert named < all_pairs  # some pairs never met

    def test_counts_after_dropping_top_seed(self, tennis):
        det, _ = tennis
        expected = load_expected("tennis_counts.json")
        trimmed = drop_player(det, det.players.id_of(expected["dropped"]))
        assert trimmed.players.n == 16
        report = count_winning_draws(trimmed)
        assert report.total_draws == expected["total_draws"]
        for name, count in expected["counts"].items():
            assert report.counts[trimmed.players.id_of(name)] == count
