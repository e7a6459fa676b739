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
from dataclasses import dataclass

import numpy as np

from . import _subsetdp
from .core import (
    ProbabilisticTournament,
    as_rng,
    bracket_survival,
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
# 1 s per million per-draw-exact samples and 0.35 s per million
# full-simulation ones).
MAX_WORKERS = 64
MAX_SAMPLES = 10_000_000


@dataclass(frozen=True)
class WinProbVector:
    """Per-player championship probabilities under a uniform draw."""

    entries: tuple[float, ...]
    method: str
    samples: int | None = None

    def __post_init__(self):
        if self.method not in ("exact", "sampled"):
            raise ValueError(f"unknown method tag: {self.method}")
        if (self.method == "sampled") != (self.samples is not None):
            raise ValueError("sample count goes with the sampled method only")
        if any(e < 0 or e > 1 for e in self.entries):
            raise ValueError("entries must be probabilities")
        tol = 1e-9 if self.method == "exact" else 1e-6
        if abs(sum(self.entries) - 1.0) > tol:
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


def _batch_permutations(n: int, b: int, gen: np.random.Generator) -> np.ndarray:
    base = np.tile(np.arange(n), (b, 1))
    return gen.permuted(base, axis=1)


def _per_draw_exact_batch(probs, n, b, gen) -> np.ndarray:
    # Canonicalising the sampled leaf orders would not change any
    # bracket's win vector, so it is skipped.  The column sums add the
    # brackets in batch order, however bracket_survival chunks them.
    return bracket_survival(probs, _batch_permutations(n, b, gen)).sum(axis=0)


def _full_simulation_batch(probs, n, b, gen) -> np.ndarray:
    alive = _batch_permutations(n, b, gen)
    flat = probs.ravel()
    while alive.shape[1] > 1:
        a, c = alive[:, 0::2], alive[:, 1::2]
        u = gen.random(a.shape)
        # one flat take reads the same values as probs[a, c], faster
        alive = np.where(u < flat.take(a * n + c), a, c)
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
    batch = _per_draw_exact_batch if mode == "per-draw-exact" else _full_simulation_batch

    probs = t.probs
    # One stream per batch, each a grandchild of the seed through a single
    # child; the pinned and golden sampled results depend on this order.
    gens = as_rng(rng).spawn(1)[0].spawn(-(-samples // _BATCH))

    def run_batch(k: int) -> np.ndarray:
        return batch(probs, n, min(_BATCH, samples - k * _BATCH), gens[k])

    workers = min(workers, len(gens))
    if workers == 1:
        batch_sums = list(map(run_batch, range(len(gens))))
    else:
        # Imported here: it loads logging, which no other path needs.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as ex:
            batch_sums = list(ex.map(run_batch, range(len(gens))))

    entries = tuple(
        math.fsum(acc[i] for acc in batch_sums) / samples for i in range(n)
    )
    return WinProbVector(entries=entries, method="sampled", samples=samples)
