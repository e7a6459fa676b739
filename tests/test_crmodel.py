import numpy as np
import pytest

from drawfix import (
    MAX_MODEL_PLAYERS,
    CrParams,
    PlayerTable,
    ProbabilisticTournament,
    average_upset_probability,
    generate_cr,
)


class TestCrParams:
    def test_upset_prob_range(self):
        CrParams(n=4, upset_prob=0.5)
        CrParams(n=4, upset_prob=0.01)
        with pytest.raises(ValueError):
            CrParams(n=4, upset_prob=0.0)
        with pytest.raises(ValueError):
            CrParams(n=4, upset_prob=0.6)
        with pytest.raises(ValueError):
            CrParams(n=4, upset_prob=-0.1)

    def test_players_power_of_two(self):
        with pytest.raises(ValueError):
            CrParams(n=6, upset_prob=0.3)

    def test_player_cap(self):
        CrParams(n=MAX_MODEL_PLAYERS, upset_prob=0.3)
        for n in (2 * MAX_MODEL_PLAYERS, 2**14, 2**40):
            with pytest.raises(ValueError, match=f"limited to {MAX_MODEL_PLAYERS}"):
                CrParams(n=n, upset_prob=0.3)


class TestGenerate:
    def test_four_player_matrix(self):
        t = generate_cr(CrParams(n=4, upset_prob=0.3))
        expected = np.array(
            [
                [0.5, 0.7, 0.7, 0.7],
                [0.3, 0.5, 0.7, 0.7],
                [0.3, 0.3, 0.5, 0.7],
                [0.3, 0.3, 0.3, 0.5],
            ]
        )
        assert np.allclose(t.probs, expected)
        assert t.players == PlayerTable.default(4)

    def test_rows_well_formed(self):
        t = generate_cr(CrParams(n=16, upset_prob=0.45))
        assert np.allclose(t.probs + t.probs.T, 1.0)
        assert np.allclose(np.diag(t.probs), 0.5)

    def test_average_upset_recovers_parameter(self):
        for u in (0.05, 0.25, 0.5):
            t = generate_cr(CrParams(n=8, upset_prob=u))
            assert average_upset_probability(t) == pytest.approx(u)


class TestAverageUpset:
    def test_respects_rank_orientation(self):
        # id 1 is ranked below id 0, and beats them with probability 0.8
        probs = np.array([[0.5, 0.2], [0.8, 0.5]])
        t = ProbabilisticTournament(players=PlayerTable(("high", "low")), probs=probs)
        assert average_upset_probability(t) == pytest.approx(0.8)
