"""Seeding manipulation: which draws hand the title to a chosen player.

Counting runs an exact recurrence over player subsets (see _subsetdp).
Search and enumeration assemble winning brackets depth-first, pruning
any sub-bracket whose feasible winner set cannot supply what the parent
requires.  The two routes are independent: tests cross-check them
against each other and against brute-force enumeration.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import _subsetdp
from .core import (
    MAX_EXACT_PLAYERS,
    DeterministicTournament,
    Draw,
    ResourceLimitError,
    num_draws,
)

__all__ = [
    "SearchStats",
    "WinCountReport",
    "FindResult",
    "DrawStream",
    "count_winning_draws",
    "find_winning_draw",
    "enumerate_winning_draws",
    "kings",
    "condorcet_winner",
]


@dataclass
class SearchStats:
    """Instrumentation counters for one solve.

    ``choice_points`` counts every halving alternative examined at a
    branching node (for the counting recurrence: every subset/halving
    combination swept).  ``solutions_found`` counts draws delivered; for
    a count report it is the number of players with at least one winning
    draw.  Wall-clock ``elapsed`` is in seconds and is the one field
    that is not reproducible across runs.
    """

    choice_points: int = 0
    solutions_found: int = 0
    elapsed: float = 0.0


@dataclass(frozen=True)
class WinCountReport:
    """Exact winning-draw counts per player id."""

    counts: tuple[int, ...]
    shares: tuple[float, ...]
    total_draws: int
    stats: SearchStats


@dataclass(frozen=True)
class FindResult:
    """One winning draw (or None when no draw exists) plus search stats."""

    draw: Draw | None
    stats: SearchStats


class DrawStream:
    """Iterator over winning draws; ``stats`` fills in as it is consumed."""

    def __init__(self, gen, stats: SearchStats):
        self._gen = gen
        self.stats = stats

    def __iter__(self):
        return self

    def __next__(self) -> Draw:
        return next(self._gen)


def _check_instance(t: DeterministicTournament, target: int | None = None) -> int:
    n = t.n
    if n & (n - 1):
        raise ValueError(f"bracket size must be a power of two, got {n} players")
    if n > MAX_EXACT_PLAYERS:
        raise ResourceLimitError(
            f"exact solving is limited to {MAX_EXACT_PLAYERS} players, got {n}"
        )
    if target is not None and not 0 <= target < n:
        raise ValueError(f"target must be a player id in 0..{n - 1}, got {target}")
    return n


def count_winning_draws(t: DeterministicTournament) -> WinCountReport:
    """Exact number of draws each player would win, summing to num_draws(n)."""
    n = _check_instance(t)
    start = time.perf_counter()
    values = _subsetdp.sweep(n, t.beats.astype(float))
    if np.abs(values - np.round(values)).max() > 1e-6:
        raise RuntimeError("count recurrence produced a fractional count; this is a bug")
    counts = tuple(int(round(v)) for v in values)
    total = num_draws(n)
    if sum(counts) != total:
        raise RuntimeError("count recurrence lost draws; this is a bug")
    stats = SearchStats(
        choice_points=_subsetdp.combine_count(n),
        solutions_found=sum(1 for c in counts if c),
        elapsed=time.perf_counter() - start,
    )
    return WinCountReport(
        counts=counts,
        shares=tuple(c / total for c in counts),
        total_draws=total,
        stats=stats,
    )


def _beats_bits(t: DeterministicTournament) -> list[int]:
    bitvals = 1 << np.arange(t.n, dtype=np.int64)
    return [int(row @ bitvals) for row in t.beats.astype(np.int64)]


def _assemble(mask, winner, wm, beats, stats) -> tuple[int, ...]:
    # Constructive descent: the feasibility tables guarantee progress,
    # so the first viable halving is always taken.
    if mask == 1 << winner:
        return (winner,)
    wbit = 1 << winner
    for a, b in _subsetdp.halvings(mask):
        stats.choice_points += 1
        if wbit & a:
            if not wm[a] & wbit:
                continue
            opp = wm[b] & beats[winner]
            if not opp:
                continue
            j = (opp & -opp).bit_length() - 1
            return _assemble(a, winner, wm, beats, stats) + _assemble(b, j, wm, beats, stats)
        else:
            if not wm[b] & wbit:
                continue
            opp = wm[a] & beats[winner]
            if not opp:
                continue
            j = (opp & -opp).bit_length() - 1
            return _assemble(a, j, wm, beats, stats) + _assemble(b, winner, wm, beats, stats)
    raise RuntimeError("feasible winner tables are inconsistent; this is a bug")


def find_winning_draw(t: DeterministicTournament, target: int) -> FindResult:
    """Find one draw that makes ``target`` the champion, if any exists."""
    n = _check_instance(t, target)
    start = time.perf_counter()
    stats = SearchStats()
    wm = _subsetdp.winner_masks(n, t.beats)
    full = (1 << n) - 1
    if not wm[full] >> target & 1:
        stats.elapsed = time.perf_counter() - start
        return FindResult(None, stats)
    leaves = _assemble(full, target, wm, _beats_bits(t), stats)
    stats.solutions_found = 1
    stats.elapsed = time.perf_counter() - start
    return FindResult(Draw(leaves), stats)


def _enum(mask, winner, wm, beats, stats):
    if mask == 1 << winner:
        yield (winner,)
        return
    wbit = 1 << winner
    for a, b in _subsetdp.halvings(mask):
        stats.choice_points += 1
        if wbit & a:
            if not wm[a] & wbit:
                continue
            opps = wm[b] & beats[winner]
            for left in _enum(a, winner, wm, beats, stats):
                for j in _subsetdp.bit_indices(opps):
                    for right in _enum(b, j, wm, beats, stats):
                        yield left + right
        else:
            if not wm[b] & wbit:
                continue
            opps = wm[a] & beats[winner]
            for j in _subsetdp.bit_indices(opps):
                for left in _enum(a, j, wm, beats, stats):
                    for right in _enum(b, winner, wm, beats, stats):
                        yield left + right


def enumerate_winning_draws(
    t: DeterministicTournament, target: int, limit: int | None = None
) -> DrawStream:
    """Stream every draw won by ``target`` (at most ``limit`` if given).

    With no limit the stream yields exactly count_winning_draws(t)
    .counts[target] distinct draws.  The order is deterministic but not
    part of the contract.
    """
    n = _check_instance(t, target)
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    stats = SearchStats()

    def run():
        start = time.perf_counter()
        wm = _subsetdp.winner_masks(n, t.beats)
        full = (1 << n) - 1
        if wm[full] >> target & 1:
            beats = _beats_bits(t)
            for leaves in _enum(full, target, wm, beats, stats):
                if limit is not None and stats.solutions_found >= limit:
                    break
                stats.solutions_found += 1
                stats.elapsed = time.perf_counter() - start
                yield Draw(leaves)
        stats.elapsed = time.perf_counter() - start

    return DrawStream(run(), stats)


def kings(t: DeterministicTournament) -> tuple[int, ...]:
    """Players that reach every other player in at most two steps."""
    b = t.beats.astype(float)
    reach = t.beats | ((b @ b) > 0.5)
    np.fill_diagonal(reach, True)
    return tuple(i for i in range(t.n) if reach[i].all())


def condorcet_winner(t: DeterministicTournament) -> int | None:
    """The player beating all others directly, or None."""
    wins = t.beats.sum(axis=1)
    best = int(np.argmax(wins))
    return best if wins[best] == t.n - 1 else None
