import numpy as np
import pytest

from conftest import random_probabilistic
from drawfix import (
    MAX_MODEL_PLAYERS,
    CrParams,
    PlayerTable,
    ProbabilisticTournament,
    ResourceLimitError,
    count_winning_draws,
    exact_uniform_win_probs,
    generate_cr,
    num_draws,
    sample_uniform_win_probs,
)
from drawfix.winprob import MAX_SAMPLES, MAX_WORKERS

import oracle


class TestExact:
    def test_cycle_thirds(self, cycle4):
        vector = exact_uniform_win_probs(cycle4.to_probabilistic())
        assert vector.entries == pytest.approx([1 / 3, 1 / 3, 1 / 3, 0.0])
        assert vector.method == "exact"
        assert vector.samples is None

    def test_matches_oracle(self):
        rng = np.random.default_rng(71)
        for n in (4, 8):
            for _ in range(6):
                t = random_probabilistic(n, rng)
                got = np.asarray(exact_uniform_win_probs(t).entries)
                want = oracle.uniform_win_probs(n, t.probs)
                assert np.abs(got - np.array(want)).max() < 1e-10

    def test_sums_to_one(self):
        rng = np.random.default_rng(72)
        for n in (4, 8, 16):
            vector = exact_uniform_win_probs(random_probabilistic(n, rng))
            assert np.asarray(vector.entries).sum() == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_matrix_reproduces_counts(self):
        # a 0/1 matrix collapses the expectation to counting
        rng = np.random.default_rng(73)
        from conftest import random_deterministic

        t = random_deterministic(8, rng)
        report = count_winning_draws(t)
        vector = exact_uniform_win_probs(t.to_probabilistic())
        want = np.array(report.counts) / num_draws(8)
        assert np.abs(np.asarray(vector.entries) - want).max() < 1e-12

    def test_too_large(self):
        t = generate_cr(CrParams(n=32, upset_prob=0.4))
        with pytest.raises(ResourceLimitError):
            exact_uniform_win_probs(t)


class TestSampled:
    def test_per_draw_exact_converges(self):
        t = generate_cr(CrParams(n=8, upset_prob=0.4))
        exact = np.asarray(exact_uniform_win_probs(t).entries)
        vector = sample_uniform_win_probs(t, samples=30_000, rng=5)
        assert vector.method == "sampled"
        assert vector.samples == 30_000
        assert np.abs(np.asarray(vector.entries) - exact).max() < 0.01

    def test_full_simulation_converges(self):
        t = generate_cr(CrParams(n=8, upset_prob=0.4))
        exact = np.asarray(exact_uniform_win_probs(t).entries)
        vector = sample_uniform_win_probs(t, samples=30_000, rng=5,
                                          mode="full-simulation")
        assert np.abs(np.asarray(vector.entries) - exact).max() < 0.015

    def test_seeded_reproducibility(self):
        t = generate_cr(CrParams(n=16, upset_prob=0.3))
        for mode in ("per-draw-exact", "full-simulation"):
            for workers in (1, 3):
                a = sample_uniform_win_probs(t, samples=10_000, rng=42,
                                             mode=mode, workers=workers)
                b = sample_uniform_win_probs(t, samples=10_000, rng=42,
                                             mode=mode, workers=workers)
                assert np.array_equal(a.entries, b.entries)

    def test_worker_split_stays_unbiased(self):
        # a different worker count reshuffles the sample budget but the
        # estimate must stay near the exact vector
        t = generate_cr(CrParams(n=16, upset_prob=0.3))
        exact = np.asarray(exact_uniform_win_probs(t).entries)
        b = sample_uniform_win_probs(t, samples=20_000, rng=8, workers=4)
        assert np.abs(np.asarray(b.entries) - exact).max() < 0.01

    def test_awkward_sample_counts(self):
        t = generate_cr(CrParams(n=4, upset_prob=0.25))
        for samples in (1, 100, 4096, 5000):
            vector = sample_uniform_win_probs(t, samples=samples, rng=2)
            assert vector.samples == samples
            assert np.asarray(vector.entries).sum() == pytest.approx(1.0, abs=1e-6)

    def test_sample_count_validation(self):
        t = generate_cr(CrParams(n=4, upset_prob=0.25))
        with pytest.raises(ValueError):
            sample_uniform_win_probs(t, samples=0)
        with pytest.raises(ValueError, match="samples"):
            sample_uniform_win_probs(t, samples=MAX_SAMPLES + 1)

    def test_worker_count_validation(self):
        # rejected before any thread starts
        t = generate_cr(CrParams(n=4, upset_prob=0.25))
        for workers in (0, MAX_WORKERS + 1, 10**6):
            with pytest.raises(ValueError, match="workers"):
                sample_uniform_win_probs(t, samples=10, workers=workers)

    def test_player_count_validation(self):
        # rejected before any batch builds its n**2 / 4 temporaries
        def field(n):
            return ProbabilisticTournament(players=PlayerTable.default(n),
                                           probs=np.full((n, n), 0.5))

        vector = sample_uniform_win_probs(field(MAX_MODEL_PLAYERS), samples=8)
        assert vector.n == MAX_MODEL_PLAYERS
        for mode in ("per-draw-exact", "full-simulation"):
            with pytest.raises(ValueError, match=f"limited to {MAX_MODEL_PLAYERS}"):
                sample_uniform_win_probs(field(2 * MAX_MODEL_PLAYERS), samples=8,
                                         mode=mode)

    def test_unknown_mode(self):
        t = generate_cr(CrParams(n=4, upset_prob=0.25))
        with pytest.raises(ValueError):
            sample_uniform_win_probs(t, samples=10, mode="guess")
