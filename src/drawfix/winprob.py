"""Win probabilities when the draw itself is uniformly random.

The exact route runs the same halving recurrence as the draw counter,
with match probabilities in place of 0/1 outcomes, and divides by the
number of draws.  The sampling route averages over randomly drawn
brackets in batches of _BATCH draws, each scored by one worker class in
buffers it keeps: ``_Survival`` scores each sampled bracket exactly (low
variance) and ``_FullSimulation`` plays single match outcomes (the crude
estimator, kept as a cross-check).  ``_Survival``, also the scorer of
``bracket_survival``, takes a batch in chunks sized by _CHUNK_ENTRIES.
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
    _half_products,
    _merge,
    as_rng,
    num_draws,
    require_exact_size,
    require_model_size,
)

__all__ = ["WinProbVector", "exact_uniform_win_probs", "sample_uniform_win_probs"]

# Fixed batch size: the per-batch generator streams (and therefore the
# bit-exact result for a given seed) depend on it.
_BATCH = 4096

# The first dense round of a chunk holds rows x n/4 x n floats (512 KiB
# here), so a chunk's rounds stay in a core's cache; a batch at 16
# players is four chunks.
_CHUNK_ENTRIES = 1 << 16

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


def _pair_table(probs: np.ndarray) -> np.ndarray:
    """n x n x n table: w[x, y, i] is i's chance to beat the winner of x
    against y, that is P[x, y]·P[i, x] + P[y, x]·P[i, y]."""
    mt = probs.T
    return probs[:, :, None] * mt[:, None, :] + mt[:, :, None] * mt[None, :, :]


class _Survival:
    """One worker's per-draw-exact batches of up to ``rows`` brackets.

    Every batch reuses the same leaf, survival, index and round buffers:
    fresh pages for each round's arrays cost about as much as the
    arithmetic on them.  Rounds one and two look up each leaf's chance in
    the match probabilities and in :func:`_pair_table`: a leaf that meets
    y in round one and the winner of x against z in round two survives
    both with P[leaf, y]·w[x, z, leaf].  Two column maps, made once, give
    the leaves those rounds read: ``opponent[j] = j ^ 1``, and
    ``pair[j] = (j ^ 2) & ~1``, the first leaf of the pair leaf j meets in
    round two.  From round three on, every block of the bracket is a
    length-n row holding its players' survival and zero elsewhere, and
    sibling blocks merge by the sub-bracket product of
    :func:`drawfix.core._half_products`.  Brackets are scored in chunks of
    ``_CHUNK_ENTRIES // (n * n / 4)`` rows, which bounds the first dense
    round's table and leaves every value as it is.
    """

    def __init__(self, probs: np.ndarray, table: np.ndarray, rows: int):
        n = len(probs)
        self.flat_probs = probs.ravel()
        self.flat_table = table.ravel()
        self.mt = np.ascontiguousarray(probs.T)
        self.leaves = np.empty((rows, n), dtype=np.intp)
        self.survival = np.ones((rows, n))  # a lone player always wins
        self.step = step = min(rows, max(1, _CHUNK_ENTRIES // max(1, n * n // 4)))
        leaf = np.arange(n)
        self.opponent = leaf ^ 1
        self.pair = (leaf ^ 2) & ~1
        # Leaf j of a chunk row lands in block j // 4 of the first dense
        # round, whose blocks hold four leaves each (two at n = 2).
        self.first_blocks = n // min(n, 4)
        self.block_of = leaf // min(n, 4)
        self.row_offsets = np.arange(step)[:, None] * n
        self.index = np.empty((2, step, n), dtype=np.intp)
        self.won = np.empty((2, step, n))
        self.blocks, self.prod = np.empty((2, step * max(1, n // 4) * n))

    def __call__(self, b: int, gen: np.random.Generator) -> np.ndarray:
        # Canonicalising the sampled leaf orders would not change any
        # bracket's win vector, so it is skipped.  The column sums add the
        # brackets in batch order, however the scorer chunks them.
        return self.score(_shuffle(self.leaves[:b], gen)).sum(axis=0)

    def score(self, leaves: np.ndarray) -> np.ndarray:
        """Each player's survival in each row's bracket, for a b x n array
        of leaf orders: a view of the survival buffer, valid until the
        next call."""
        b, n = leaves.shape
        out = self.survival[:b]
        if n == 1:
            return out
        for start in range(0, b, self.step):
            ids = leaves[start:start + self.step]
            self._chunk(ids, out[start:start + len(ids)])
        return out

    def _chunk(self, ids: np.ndarray, out: np.ndarray) -> None:
        m, n = ids.shape
        own, other = self.index[:, :m]
        first, second = self.won[:, :m]
        # Round one: own holds x * n + y for each leaf x and its opponent y.
        # Every index is in range, so the takes can skip the bounds check,
        # which copies the output buffer.
        np.multiply(ids, n, out=own)
        own += ids.take(self.opponent, axis=1, out=other, mode="clip")
        self.flat_probs.take(own, out=first, mode="clip")
        if n > 2:
            # Round two: other holds (x * n + y) * n + i for leaf i and the
            # pair x, y it meets, so the table gives i's chance to beat
            # the winner of that pair.
            own.take(self.pair, axis=1, out=other, mode="clip")
            other *= n
            other += ids
            self.flat_table.take(other, out=second, mode="clip")
            first *= second

        def level(k):
            # k blocks of m rows; the last round writes the output rows.
            return out.reshape(1, m, n) if k == 1 else self.blocks[:k * m * n].reshape(k, m, n)

        # Scatter each leaf's survival into its block's row, at its player:
        # block j // 4 of row r starts at flat index ((j // 4) * m + r) * n.
        k = self.first_blocks
        blocks = level(k)
        np.add(ids, self.block_of * (m * n), out=other)
        other += self.row_offsets[:m]
        flat = blocks.reshape(-1)
        flat.fill(0.0)
        flat[other] = first
        while k > 1:
            u = self.prod[:k * m * n].reshape(k, m, n)
            _half_products(blocks, self.mt, u)
            k //= 2
            blocks = _merge(blocks[0::2], blocks[1::2], u[0::2], u[1::2], out=level(k))


def bracket_survival(probs: np.ndarray, leaves: np.ndarray) -> np.ndarray:
    """Win probability of every player, for a batch of brackets at once.

    ``leaves`` holds one leaf order per row (shape b x n); the result has
    the same shape and gives, indexed by player id, each player's chance
    to win that row's bracket, scored as :class:`_Survival` describes.
    """
    return _Survival(probs, _pair_table(probs), len(leaves)).score(leaves)


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
        new_worker = partial(_Survival, probs, _pair_table(probs), rows)
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
