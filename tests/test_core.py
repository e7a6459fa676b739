import itertools
import math

import numpy as np
import pytest

from conftest import random_deterministic, random_probabilistic
from drawfix import (
    MAX_EXACT_PLAYERS,
    DeterministicTournament,
    Draw,
    PlayerTable,
    ProbabilisticTournament,
    ResourceLimitError,
    canonicalize,
    num_draws,
    random_draw,
    simulate,
)
from drawfix.core import require_bracket_size, require_exact_size
from drawfix.winprob import bracket_survival

import oracle


def is_canonical(leaves) -> bool:
    """Check the min-first invariant at every internal node."""
    if len(leaves) == 1:
        return True
    half = len(leaves) // 2
    left, right = leaves[:half], leaves[half:]
    return min(left) < min(right) and is_canonical(left) and is_canonical(right)


class TestNumDraws:
    def test_known_values(self):
        assert num_draws(2) == 1
        assert num_draws(4) == 3
        assert num_draws(8) == 315
        assert num_draws(16) == 638_512_875

    def test_closed_form(self):
        for n in (2, 4, 8, 16, 32):
            assert num_draws(n) == math.factorial(n) // 2 ** (n - 1)

    def test_matches_enumeration(self):
        for n in (2, 4, 8):
            assert num_draws(n) == len(oracle.all_draws(range(n)))

    def test_rejects_non_power_of_two(self):
        for n in (0, 3, 6, 12):
            with pytest.raises(ValueError):
                num_draws(n)


class TestSizeChecks:
    def test_bracket_size_message(self):
        with pytest.raises(ValueError, match="got 12 players"):
            require_bracket_size(12)

    def test_exact_size_limit(self):
        require_exact_size(MAX_EXACT_PLAYERS)
        with pytest.raises(ResourceLimitError):
            require_exact_size(2 * MAX_EXACT_PLAYERS)
        with pytest.raises(ValueError):
            require_exact_size(3)


class TestCanonicalize:
    def test_two_players(self):
        assert canonicalize([1, 0]).leaves == (0, 1)

    def test_four_players(self):
        assert canonicalize([2, 3, 1, 0]).leaves == (0, 1, 2, 3)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            perm = rng.permutation(8)
            once = canonicalize(perm).leaves
            assert canonicalize(once).leaves == once

    def test_output_always_canonical(self):
        rng = np.random.default_rng(12)
        for n in (2, 4, 8, 16):
            for _ in range(25):
                draw = canonicalize(rng.permutation(n))
                assert is_canonical(draw.leaves)
                assert sorted(draw.leaves) == list(range(n))

    def test_uniform_preimage_counts(self):
        # every canonical draw on 4 players has exactly 2^(n-1) = 8
        # orderings that collapse onto it
        hits = {}
        for perm in itertools.permutations(range(4)):
            hits.setdefault(canonicalize(perm).leaves, 0)
            hits[canonicalize(perm).leaves] += 1
        assert len(hits) == num_draws(4)
        assert set(hits.values()) == {8}

    def test_matches_oracle_enumeration(self):
        enumerated = {tuple(oracle.tree_leaves(t)) for t in oracle.all_draws(range(8))}
        collapsed = {
            canonicalize(perm).leaves
            for perm in (np.random.default_rng(5).permutation(8) for _ in range(2000))
        }
        # oracle trees are built min-first too, so leaves agree exactly
        assert collapsed <= enumerated
        assert len(enumerated) == num_draws(8)


class TestDraw:
    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            Draw(leaves=(1, 0))
        with pytest.raises(ValueError):
            Draw(leaves=(2, 3, 0, 1))
        with pytest.raises(ValueError):
            Draw(leaves=(0, 1, 3, 2))

    def test_rejects_bad_players(self):
        with pytest.raises(ValueError):
            Draw(leaves=(0, 1, 2))
        with pytest.raises(ValueError):
            Draw(leaves=(0, 0, 1, 2))

    def test_bracket_text(self):
        draw = Draw(leaves=(0, 1, 2, 3))
        assert draw.bracket_text() == "((0,1),(2,3))"
        named = draw.bracket_text(["a", "b", "c", "d"])
        assert named == "((a,b),(c,d))"


class TestRandomDraw:
    def test_canonical_and_complete(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 8, 16):
            draw = random_draw(n, rng)
            assert is_canonical(draw.leaves)
            assert sorted(draw.leaves) == list(range(n))

    def test_uniform_over_three_draws(self):
        rng = np.random.default_rng(4)
        counts = {}
        for _ in range(3000):
            key = random_draw(4, rng).leaves
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 3
        for c in counts.values():
            assert abs(c / 3000 - 1 / 3) < 0.05

    def test_int_seed_accepted(self):
        assert random_draw(8, 0).leaves == random_draw(8, 0).leaves


class TestPlayerTable:
    def test_default(self):
        t = PlayerTable.default(4)
        assert t.names == ("p0", "p1", "p2", "p3")

    def test_names_best_first(self):
        t = PlayerTable(["x", "y"])
        assert t.names == ("x", "y")
        assert t == PlayerTable(("x", "y"))
        assert t.id_of("y") == 1

    def test_by_rank_orders_ids(self):
        assert PlayerTable(("a", "b", "c", "d")).by_rank() == (0, 1, 2, 3)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown player"):
            PlayerTable.default(2).id_of("zz")

    def test_validation(self):
        with pytest.raises(ValueError, match="unique"):
            PlayerTable(("a", "a"))
        with pytest.raises(ValueError, match="empty"):
            PlayerTable(())


class TestTournaments:
    def test_deterministic_validation(self):
        players = PlayerTable.default(2)
        with pytest.raises(ValueError):
            DeterministicTournament(players=players,
                                    beats=np.array([[True, True], [False, False]]))
        with pytest.raises(ValueError):
            DeterministicTournament(players=players,
                                    beats=np.array([[False, True], [True, False]]))

    def test_probabilistic_validation(self):
        players = PlayerTable.default(2)
        with pytest.raises(ValueError):
            ProbabilisticTournament(players=players,
                                    probs=np.array([[0.5, 0.7], [0.4, 0.5]]))
        with pytest.raises(ValueError):
            ProbabilisticTournament(players=players,
                                    probs=np.array([[0.5, 1.2], [-0.2, 0.5]]))

    def test_arrays_read_only(self, cycle4):
        with pytest.raises(ValueError):
            cycle4.beats[0, 1] = False

    def test_round_trip(self, cycle4):
        prob = cycle4.to_probabilistic()
        assert prob.probs[0, 1] == 1.0
        assert prob.probs[1, 0] == 0.0
        back = prob.to_deterministic()
        assert np.array_equal(back.beats, cycle4.beats)

    def test_half_probabilities_resolve_by_rank(self):
        prob = ProbabilisticTournament(players=PlayerTable.default(4),
                                       probs=np.full((4, 4), 0.5))
        det = prob.to_deterministic()
        # every tie goes to the better rank, the smaller id
        assert np.array_equal(det.beats, np.triu(np.ones((4, 4), dtype=bool), 1))


class TestSimulate:
    def test_cycle_winners(self, cycle4):
        assert simulate(Draw(leaves=(0, 3, 1, 2)), cycle4) == 0
        assert simulate(Draw(leaves=(0, 1, 2, 3)), cycle4) == 2

    def test_matches_oracle(self):
        rng = np.random.default_rng(21)
        for n in (4, 8):
            for _ in range(20):
                t = random_deterministic(n, rng)
                draw = random_draw(n, rng)
                trees = {tuple(oracle.tree_leaves(tr)): tr
                         for tr in oracle.all_draws(range(n))}
                expected = oracle.tree_winner(trees[draw.leaves], t.beats)
                assert simulate(draw, t) == expected


class TestDrawWinProbabilities:
    def test_matches_oracle(self):
        rng = np.random.default_rng(22)
        for n in (4, 8):
            trees = {tuple(oracle.tree_leaves(tr)): tr
                     for tr in oracle.all_draws(range(n))}
            for _ in range(10):
                t = random_probabilistic(n, rng)
                draw = random_draw(n, rng)
                got = bracket_survival(t.probs, np.array([draw.leaves]))[0]
                want = oracle.tree_win_probs(trees[draw.leaves], t.probs)
                for player, p in want.items():
                    assert got[player] == pytest.approx(p, abs=1e-12)
                assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_matrix_reduces_to_simulate(self, cycle4):
        draw = Draw(leaves=(0, 1, 2, 3))
        probs = bracket_survival(cycle4.to_probabilistic().probs, np.array([draw.leaves]))[0]
        winner = simulate(draw, cycle4)
        assert probs[winner] == pytest.approx(1.0)
