from pathlib import Path

import numpy as np
import pytest

from conftest import check_fixing_conditions, random_deterministic
from drawfix import (
    DeterministicTournament,
    PlayerTable,
    ResourceLimitError,
    condorcet_winner,
    count_winning_draws,
    enumerate_winning_draws,
    enumeration_choice_points,
    find_winning_draw,
    kings,
    num_draws,
    read_matches,
    read_ranks,
    simulate,
    soccer_to_tournaments,
)
from drawfix import _subsetdp
from drawfix._subsetdp import combine_count

import oracle

DATA = Path(__file__).parent.parent / "data"


def transitive(n: int) -> DeterministicTournament:
    beats = np.triu(np.ones((n, n), dtype=bool), k=1)
    return DeterministicTournament(players=PlayerTable.default(n), beats=beats)


class TestCountWinningDraws:
    def test_cycle_counts(self, cycle4):
        report = count_winning_draws(cycle4)
        assert report.counts == (1, 1, 1, 0)
        assert report.total_draws == 3
        assert report.shares == pytest.approx((1 / 3, 1 / 3, 1 / 3, 0.0))

    def test_transitive_is_degenerate(self):
        for n in (4, 8, 16):
            report = count_winning_draws(transitive(n))
            assert report.counts[0] == num_draws(n)
            assert sum(report.counts) == report.counts[0]

    def test_matches_oracle(self):
        rng = np.random.default_rng(31)
        for n in (4, 8):
            for _ in range(8):
                t = random_deterministic(n, rng)
                report = count_winning_draws(t)
                assert list(report.counts) == oracle.count_by_winner(n, t.beats)

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(32)
        for n in (4, 8, 16):
            report = count_winning_draws(random_deterministic(n, rng))
            assert sum(report.counts) == num_draws(n)

    def test_shares_agree_with_sampled_frequencies(self):
        # independent of the subset sweep: play out uniformly sampled draws
        from drawfix import random_draw

        rng = np.random.default_rng(33)
        t = random_deterministic(16, rng)
        report = count_winning_draws(t)
        wins = np.zeros(16)
        for _ in range(20_000):
            wins[simulate(random_draw(16, rng), t)] += 1
        assert np.abs(wins / 20_000 - np.array(report.shares)).max() < 0.015

    def test_stats_report(self, cycle4):
        report = count_winning_draws(cycle4)
        assert report.stats.choice_points == combine_count(4)
        assert report.stats.solutions_found == 3

    def test_too_large(self):
        with pytest.raises(ResourceLimitError):
            count_winning_draws(transitive(32))

    def test_fractional_count_is_a_bug(self, cycle4, monkeypatch):
        monkeypatch.setattr(_subsetdp, "sweep", lambda n, m: np.array([1.0, 1.0, 0.5, 0.5]))
        with pytest.raises(RuntimeError, match="bug"):
            count_winning_draws(cycle4)


class TestFindWinningDraw:
    def test_cycle_target_zero(self, cycle4):
        result = find_winning_draw(cycle4, 0)
        assert result.draw is not None
        assert result.draw.leaves == (0, 3, 1, 2)
        assert simulate(result.draw, cycle4) == 0

    def test_cycle_target_three_impossible(self, cycle4):
        result = find_winning_draw(cycle4, 3)
        assert result.draw is None

    def test_found_iff_count_positive(self):
        rng = np.random.default_rng(41)
        for n in (4, 8, 16):
            for _ in range(4):
                t = random_deterministic(n, rng)
                report = count_winning_draws(t)
                for target in range(n):
                    result = find_winning_draw(t, target)
                    if report.counts[target]:
                        assert result.draw is not None
                        assert simulate(result.draw, t) == target
                    else:
                        assert result.draw is None

    def test_target_validation(self, cycle4):
        with pytest.raises(ValueError):
            find_winning_draw(cycle4, 4)
        with pytest.raises(ValueError):
            find_winning_draw(cycle4, -1)

    def test_too_large(self):
        with pytest.raises(ResourceLimitError):
            find_winning_draw(transitive(32), 0)


class TestEnumerateWinningDraws:
    def test_cycle_enumeration(self, cycle4):
        draws = list(enumerate_winning_draws(cycle4, 0))
        assert [d.leaves for d in draws] == [(0, 3, 1, 2)]

    def test_matches_filtered_oracle(self):
        rng = np.random.default_rng(51)
        for n in (4, 8):
            for _ in range(5):
                t = random_deterministic(n, rng)
                for target in range(n):
                    got = {d.leaves for d in enumerate_winning_draws(t, target)}
                    want = {
                        tuple(oracle.tree_leaves(tree))
                        for tree in oracle.all_draws(range(n))
                        if oracle.tree_winner(tree, t.beats) == target
                    }
                    assert got == want

    def test_no_duplicates_and_count_agreement(self):
        rng = np.random.default_rng(52)
        t = random_deterministic(8, rng)
        report = count_winning_draws(t)
        for target in range(8):
            leaves = [d.leaves for d in enumerate_winning_draws(t, target)]
            assert len(leaves) == len(set(leaves)) == report.counts[target]

    def test_limit_stops_stream(self):
        t = transitive(8)
        stream = enumerate_winning_draws(t, 0, limit=10)
        assert len(list(stream)) == 10
        assert stream.stats.solutions_found == 10

    def test_stream_stats_update(self, cycle4):
        stream = enumerate_winning_draws(cycle4, 0)
        list(stream)
        assert stream.stats.solutions_found == 1
        assert stream.stats.choice_points >= 1


class TestEnumerationChoicePoints:
    def test_cycle(self, cycle4):
        # p0, p1 and p2 each win one draw: three halvings at the top, two
        # pairs below; p3 wins none, so its enumeration examines nothing.
        assert enumeration_choice_points(cycle4) == (5, 5, 5, 0)

    def test_too_large(self):
        with pytest.raises(ResourceLimitError):
            enumeration_choice_points(transitive(32))

    @pytest.mark.parametrize("counts, points", [
        ([1.0, 1.0, 1.0, 0.0], [5.0, 5.5, 5.0, 0.0]),
        ([1.0, 1.0, 1.0, 0.0], [5.0, 2.0**53, 5.0, 0.0]),
        ([1.0, 1.0, 0.0, 1.0], [5.0, 5.0, 5.0, 0.0]),
    ], ids=["fraction", "inexact-range", "count-mismatch"])
    def test_bad_recurrence_is_a_bug(self, cycle4, monkeypatch, counts, points):
        monkeypatch.setattr(_subsetdp, "choice_points",
                            lambda n, beats: (np.array(counts), np.array(points)))
        with pytest.raises(RuntimeError, match="bug"):
            enumeration_choice_points(cycle4)


class TestKings:
    def test_cycle_kings(self, cycle4):
        assert kings(cycle4) == (0, 1, 2)

    def test_transitive_kings(self):
        assert kings(transitive(8)) == (0,)

    def test_matches_two_step_reachability(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            t = random_deterministic(8, rng)
            got = set(kings(t))
            want = set()
            for i in range(8):
                ok = True
                for j in range(8):
                    if i == j or t.beats[i][j]:
                        continue
                    if not any(t.beats[i][m] and t.beats[m][j] for m in range(8)):
                        ok = False
                        break
                if ok:
                    want.add(i)
            assert got == want

    def test_king_always_exists(self):
        rng = np.random.default_rng(62)
        for n in (2, 4, 8, 16):
            for _ in range(5):
                assert len(kings(random_deterministic(n, rng))) >= 1


class TestCondorcetWinner:
    def test_cycle_has_none(self, cycle4):
        assert condorcet_winner(cycle4) is None

    def test_transitive(self):
        assert condorcet_winner(transitive(16)) == 0

    def test_winner_beats_everyone(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            t = random_deterministic(8, rng)
            w = condorcet_winner(t)
            if w is not None:
                assert all(t.beats[w][j] for j in range(8) if j != w)
                assert count_winning_draws(t).counts[w] == num_draws(8)


class TestPublishedFixingConditions:
    """16-player fields, where brute force cannot reach, against the
    top cycle, out-degree, king and superking conditions of the oracle."""

    @pytest.mark.parametrize("p", [0.5, 0.7, 0.85, 0.95])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_fields(self, seed, p):
        rng = np.random.default_rng(seed)
        check_fixing_conditions(random_deterministic(16, rng, p, shuffle=True))

    @pytest.mark.parametrize("league", ["soccer", "mini"])
    def test_bundled_leagues(self, league):
        det, _ = soccer_to_tournaments(read_matches(DATA / f"{league}_matches.csv"),
                                       read_ranks(DATA / f"{league}_ranks.csv"))
        check_fixing_conditions(det)
        beats = det.beats.tolist()
        # Some players win only through the search: no condition covers them.
        winners = {i for i, c in enumerate(count_winning_draws(det).counts) if c}
        assert oracle.certified_winners(beats) < winners
