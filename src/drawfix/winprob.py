"""Win probabilities when the draw itself is uniformly random.

The exact route runs the same halving recurrence as the draw counter,
with match probabilities in place of 0/1 outcomes, and divides by the
number of draws.  The sampling route averages over randomly drawn
brackets, either scoring each sampled bracket exactly (low variance) or
simulating single match outcomes (the crude estimator, kept as a
cross-check).
"""
from __future__ import annotations

import math
import threading
from collections import deque
from functools import partial

import numpy as np

from . import _subsetdp
from .core import (
    ProbabilisticTournament,
    _Frozen,
    _Survival,
    _pair_table,
    as_rng,
    num_draws,
    require_exact_size,
    require_model_size,
)

__all__ = ["WinProbVector", "exact_uniform_win_probs", "sample_uniform_win_probs"]

# Fixed batch size: the per-batch generator streams (and therefore the
# bit-exact result for a given seed) depend on it.
_BATCH = 4096

_MODES = ("per-draw-exact", "full-simulation")

# Fixed caps on the sampler's resource cost, the same on every machine:
# at most one thread per worker and per batch, and run time linear in
# the sample count (at n = 16 on one core of a 2-vCPU machine, about
# 0.6 s per million per-draw-exact samples and 0.3 s per million
# full-simulation ones).
MAX_WORKERS = 64
MAX_SAMPLES = 10_000_000


class WinProbVector(_Frozen):
    """Per-player championship probabilities under a uniform draw."""

    __match_args__ = ("entries", "method", "samples")

    def __init__(self, entries: tuple[float, ...], method: str, samples: int | None = None):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "samples", samples)
        if method not in ("exact", "sampled"):
            raise ValueError(f"unknown method tag: {method}")
        if (method == "sampled") != (samples is not None):
            raise ValueError("sample count goes with the sampled method only")
        if any(not 0 <= e <= 1 for e in entries):
            raise ValueError("entries must be probabilities")
        tol = 1e-9 if method == "exact" else 1e-6
        if not abs(sum(entries) - 1.0) <= tol:
            raise ValueError("entries must sum to 1")

    @property
    def n(self) -> int:
        return len(self.entries)


def exact_uniform_win_probs(t: ProbabilisticTournament) -> WinProbVector:
    """Exact probability of winning a uniformly drawn bracket, per player."""
    n = t.n
    require_exact_size(n)
    values = _subsetdp.sweep(n, t.probs)
    entries = tuple(float(v) for v in values / num_draws(n))
    return WinProbVector(entries=entries, method="exact")


def _shuffle(leaves: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Fill each row of leaves with its own uniform permutation of 0..n-1."""
    leaves[...] = np.arange(leaves.shape[1])
    return gen.permuted(leaves, axis=1, out=leaves)


class _PerDrawExact:
    """One worker's per-draw-exact batches, in buffers kept for the call."""

    def __init__(self, probs: np.ndarray, table: np.ndarray, rows: int):
        self.leaves = np.empty((rows, len(probs)), dtype=np.intp)
        self.survival = _Survival(probs, table, rows)

    def __call__(self, b: int, gen: np.random.Generator) -> np.ndarray:
        # Canonicalising the sampled leaf orders would not change any
        # bracket's win vector, so it is skipped.  The column sums add the
        # brackets in batch order, however the scorer chunks them.
        return self.survival(_shuffle(self.leaves[:b], gen)).sum(axis=0)


class _FullSimulation:
    """One worker's full-simulation batches, in buffers kept for the call.

    Each round's winners overwrite the buffer its players were read
    from the round before, so the leaf buffer and one of half its size
    hold every round.
    """

    def __init__(self, probs: np.ndarray, rows: int):
        n = len(probs)
        half = rows * max(1, n // 2)
        self.n = n
        self.flat = probs.ravel()
        self.leaves = np.empty(rows * n, dtype=np.intp)
        self.spare = np.empty(half, dtype=np.intp)
        self.draws, self.chances = np.empty((2, half))
        self.won = np.empty(half, dtype=bool)

    def __call__(self, b: int, gen: np.random.Generator) -> np.ndarray:
        n = self.n
        alive, spare = self.leaves[:b * n].reshape(b, n), self.spare
        _shuffle(alive, gen)
        while alive.shape[1] > 1:
            a, c = alive[:, 0::2], alive[:, 1::2]
            shape, size = a.shape, a.size
            u = gen.random(out=self.draws[:size].reshape(shape))
            winners = spare[:size].reshape(shape)
            # one flat take reads the same values as probs[a, c], faster;
            # every index is in range, so it skips the bounds check
            np.multiply(a, n, out=winners)
            winners += c
            p = self.flat.take(winners, out=self.chances[:size].reshape(shape), mode="clip")
            # winners = c + (a - c) * (u < p): a wins with probability p
            won = np.less(u, p, out=self.won[:size].reshape(shape))
            np.subtract(a, c, out=winners)
            winners *= won
            winners += c
            spare = alive.reshape(-1)
            alive = winners
        return np.bincount(alive[:, 0], minlength=n).astype(float)


def sample_uniform_win_probs(
    t: ProbabilisticTournament,
    samples: int = 200_000,
    rng=0,
    mode: str = "per-draw-exact",
    workers: int = 1,
) -> WinProbVector:
    """Monte Carlo estimate over uniformly sampled draws.

    ``per-draw-exact`` averages each sampled bracket's exact win vector;
    ``full-simulation`` plays every match as a Bernoulli trial.  Both
    are unbiased; the first has lower variance.  A fixed seed reproduces
    the estimate bit for bit: every batch of _BATCH draws has its own
    spawned stream, and ``math.fsum`` adds the batch sums exactly
    rounded, so ``workers`` threads change the speed, never the result.
    ``samples`` is capped at MAX_SAMPLES, ``workers`` at MAX_WORKERS and
    the player count at MAX_MODEL_PLAYERS; larger values raise
    ValueError before any work starts.
    """
    n = t.n
    require_model_size(n)
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must lie in 1..{MAX_SAMPLES:,}, got {samples}")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in 1..{MAX_WORKERS}, got {workers}")
    probs = t.probs
    rows = min(_BATCH, samples)
    if mode == "per-draw-exact":
        new_worker = partial(_PerDrawExact, probs, _pair_table(probs), rows)
    else:
        new_worker = partial(_FullSimulation, probs, rows)

    # One stream per batch, each a grandchild of the seed through a single
    # child; the pinned and golden sampled results depend on this order.
    gens = as_rng(rng).spawn(1)[0].spawn(-(-samples // _BATCH))
    batch_sums = [None] * len(gens)
    todo = deque(range(len(gens)))
    errors = []

    def work():
        # Take the next batch until none is left, scoring every batch in
        # this worker's own buffers.  A failure stops every worker after
        # its current batch and is raised in the calling thread.
        try:
            run = new_worker()
            while True:
                try:
                    k = todo.popleft()
                except IndexError:
                    return
                batch_sums[k] = run(min(_BATCH, samples - k * _BATCH), gens[k])
        except BaseException as exc:  # re-raised below
            errors.append(exc)
            todo.clear()

    # The calling thread is one of the workers.
    threads = [threading.Thread(target=work)
               for _ in range(min(workers, len(gens)) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]

    entries = tuple(
        math.fsum(acc[i] for acc in batch_sums) / samples for i in range(n)
    )
    return WinProbVector(entries=entries, method="sampled", samples=samples)
