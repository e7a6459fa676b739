import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import random_probabilistic
from drawfix import (
    MAX_MODEL_PLAYERS,
    CrParams,
    PlayerTable,
    ProbabilisticTournament,
    ResourceLimitError,
    WinProbVector,
    count_winning_draws,
    exact_uniform_win_probs,
    generate_cr,
    num_draws,
    sample_uniform_win_probs,
)
from drawfix.core import _pair_table
from drawfix.stats import _cr_rank_probs
from drawfix.winprob import _BATCH, MAX_SAMPLES, MAX_WORKERS, _PerDrawExact

import oracle


class TestWinProbVector:
    @pytest.mark.parametrize("entries,method,samples", [
        ((float("nan"),), "exact", None),
        ((float("nan"), 1.0), "sampled", 5),
        ((1.5, -0.5), "exact", None),
    ])
    def test_rejects_entries_outside_unit_interval(self, entries, method, samples):
        # NaN compares false both ways, so it must fail the range check too
        with pytest.raises(ValueError, match="entries must be probabilities"):
            WinProbVector(entries=entries, method=method, samples=samples)

    def test_rejects_entries_not_summing_to_one(self):
        with pytest.raises(ValueError, match="entries must sum to 1"):
            WinProbVector(entries=(0.25, 0.25), method="exact")


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

    @pytest.mark.parametrize("u", [0.001, 0.01, 0.1, 0.3, 0.4, 0.5])
    def test_sixteen_player_sweep_matches_exact_ranks(self, u):
        # The float sweep against the Fraction rank recurrence; generate_cr
        # gives player r the rank with r better players.
        got = exact_uniform_win_probs(generate_cr(CrParams(n=16, upset_prob=u))).entries
        want = _cr_rank_probs(16, np.array([Fraction(u)], dtype=object))[0]
        assert max(abs(Fraction(g) - w) / w for g, w in zip(got, want)) <= 1e-12

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

    # CR(0.3) at 16 players, 20,000 samples from seed 0.  A change to the
    # generator streams or the batching moves these by far more than
    # 1e-12.  Reordering the arithmetic that scores one bracket moves a
    # per-draw-exact entry by a few ulps at most; full simulation has no
    # such sums, so it must match exactly.  The worker count plays no part.
    PINNED = {
        "per-draw-exact": [
            0.2400999999999897, 0.1750397737199877, 0.1301948547480011,
            0.09888575982566522, 0.07617659357508465, 0.0594326559000923,
            0.04717929475117257, 0.03761053933654989, 0.03048124107469455,
            0.02470328394149147, 0.02026029492248843, 0.016719788313849526,
            0.01389535657171187, 0.011544991819199954, 0.009675571500000197,
            0.00809999999999957],
        "full-simulation": [
            0.24155, 0.17095, 0.12965, 0.0987, 0.0808, 0.0589, 0.0473, 0.03765,
            0.03045, 0.0236, 0.01935, 0.01805, 0.01395, 0.011, 0.0099, 0.0082],
    }

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("mode", sorted(PINNED))
    def test_stream_is_pinned(self, mode, workers):
        t = generate_cr(CrParams(n=16, upset_prob=0.3))

        def run(w):
            return sample_uniform_win_probs(t, samples=20_000, rng=0, mode=mode,
                                            workers=w).entries

        got = run(workers)
        want = self.PINNED[mode]
        if mode == "full-simulation":
            assert list(got) == want
        else:
            assert np.abs(np.subtract(got, want)).max() <= 1e-12
        assert got == run(1)

    @pytest.mark.parametrize("mode", ["per-draw-exact", "full-simulation"])
    @pytest.mark.parametrize("samples", [1, _BATCH, _BATCH + 1, 20_000])
    def test_worker_count_never_moves_the_estimate(self, mode, samples):
        t = generate_cr(CrParams(n=8, upset_prob=0.3))
        one = sample_uniform_win_probs(t, samples=samples, rng=11, mode=mode)
        for workers in (2, 3, 64):
            got = sample_uniform_win_probs(t, samples=samples, rng=11, mode=mode,
                                           workers=workers)
            assert got.entries == one.entries

    @pytest.mark.parametrize("mode", ["per-draw-exact", "full-simulation"])
    @pytest.mark.parametrize("n, chunk", [
        (n, chunk) for n in (4, 16, 64) for chunk in ("one_row", "odd", "whole_batch")])
    def test_results_do_not_depend_on_the_chunk_size(self, n, chunk, mode, monkeypatch):
        # A scorer takes _CHUNK_ENTRIES // (n * n / 4) rows of a batch at a
        # time; two batches, the second a short one.
        import drawfix.core as core

        t = generate_cr(CrParams(n=n, upset_prob=0.3))
        samples = _BATCH + 904
        expected = sample_uniform_win_probs(t, samples=samples, rng=9, mode=mode).entries
        rows = {"one_row": 1, "odd": 1007, "whole_batch": _BATCH}[chunk]
        monkeypatch.setattr(core, "_CHUNK_ENTRIES", rows * max(1, n * n // 4))
        got = sample_uniform_win_probs(t, samples=samples, rng=9, mode=mode)
        assert got.entries == expected

    @pytest.mark.parametrize("samples, workers", [(10, 64), (5000, 64),
                                                  (20_000, 2), (20_000, 3)])
    def test_threads_at_most_one_per_batch(self, samples, workers, monkeypatch):
        started = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        t = generate_cr(CrParams(n=4, upset_prob=0.25))
        sample_uniform_win_probs(t, samples=samples, rng=3, workers=workers)
        batches = -(-samples // _BATCH)
        assert len(started) <= min(workers, batches)

    def test_workers_under_fast_switching_lose_no_batch(self):
        # More threads than cores take batches from one queue while the
        # interpreter switches threads as often as it can.
        t = generate_cr(CrParams(n=4, upset_prob=0.25))
        samples = 40 * _BATCH + 7
        one = sample_uniform_win_probs(t, samples=samples, rng=6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sample_uniform_win_probs(t, samples=samples, rng=6, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert got.entries == one.entries

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_failing_batch_stops_the_call(self, workers, monkeypatch):
        # The error reaches the caller whichever worker raised it, and no
        # worker thread outlives the call.
        import drawfix.winprob as winprob

        failed = threading.Event()

        def fail(self, b, gen):
            # With threads, only they fail; the calling thread's batches
            # wait for a failure and then succeed.
            if workers > 1 and threading.current_thread() is threading.main_thread():
                assert failed.wait(timeout=30)
                return np.zeros(4)
            failed.set()
            raise MemoryError("batch failed")

        monkeypatch.setattr(winprob._PerDrawExact, "__call__", fail)
        before = threading.active_count()
        t = generate_cr(CrParams(n=4, upset_prob=0.25))
        with pytest.raises(MemoryError, match="batch failed"):
            sample_uniform_win_probs(t, samples=10 * _BATCH, rng=3, workers=workers)
        assert threading.active_count() == before

    def test_model_size_batch_memory(self):
        # Brackets are scored in chunks, so one worker's buffers and the
        # pair table at the largest field stay a few MiB.
        t = generate_cr(CrParams(n=MAX_MODEL_PLAYERS, upset_prob=0.3))
        tracemalloc.start()
        try:
            run = _PerDrawExact(t.probs, _pair_table(t.probs), _BATCH)
            run(_BATCH, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor fault counts are Linux's")
    def test_batches_reuse_their_pages(self):
        # A fresh process, so no earlier test has grown the heap: one
        # worker scores its 49 batches in the same buffers, where a fresh
        # set of pages per batch would fault about 24,000 times.
        code = (
            "import resource\n"
            "from drawfix import CrParams, generate_cr, sample_uniform_win_probs\n"
            "t = generate_cr(CrParams(n=16, upset_prob=0.3))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "sample_uniform_win_probs(t, samples=200_000, rng=1)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                             capture_output=True, text=True, timeout=120)
        assert int(out.stdout) < 5000

    def test_worker_split_stays_unbiased(self):
        # four threads share the batches; the estimate stays near the
        # exact vector
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
