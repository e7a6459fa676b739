"""Seeding manipulation: which draws hand the title to a chosen player.

Enumeration assembles winning brackets depth-first, pruning any
sub-bracket whose feasible winner set cannot supply what the parent
requires; search returns the first draw of that same descent.  Counting
is the independent route: an exact recurrence over player subsets (see
_subsetdp).  Tests cross-check the two against each other and against
brute-force enumeration.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _subsetdp
from .core import (
    DeterministicTournament,
    Draw,
    _Fields,
    num_draws,
    require_exact_size,
)

__all__ = [
    "SearchStats",
    "WinCountReport",
    "FindResult",
    "DrawStream",
    "count_winning_draws",
    "enumeration_choice_points",
    "find_winning_draw",
    "enumerate_winning_draws",
    "kings",
    "condorcet_winner",
]


class SearchStats(_Fields):
    """Instrumentation counters for one solve.

    ``choice_points`` counts every halving alternative examined at a
    branching node (for the counting recurrence: every subset/halving
    combination swept).  ``solutions_found`` counts draws delivered; for
    a count report it is the number of players with at least one winning
    draw.  Both are reproducible: the same input gives the same stats.
    """

    __match_args__ = ("choice_points", "solutions_found")

    def __init__(self, choice_points: int = 0, solutions_found: int = 0):
        self.choice_points = choice_points
        self.solutions_found = solutions_found


class WinCountReport(NamedTuple):
    """Exact winning-draw counts per player id."""

    counts: tuple[int, ...]
    shares: tuple[float, ...]
    total_draws: int
    stats: SearchStats


class FindResult(NamedTuple):
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


def _check_target(t: DeterministicTournament, target: int) -> None:
    require_exact_size(t.n)
    if not 0 <= target < t.n:
        raise ValueError(f"target must be a player id in 0..{t.n - 1}, got {target}")


def count_winning_draws(t: DeterministicTournament) -> WinCountReport:
    """Exact number of draws each player would win, summing to num_draws(n)."""
    n = t.n
    require_exact_size(n)
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
    )
    return WinCountReport(
        counts=counts,
        shares=tuple(c / total for c in counts),
        total_draws=total,
        stats=stats,
    )


def enumeration_choice_points(t: DeterministicTournament) -> tuple[int, ...]:
    """Choice points of the full enumeration of every player's draws.

    Entry w equals ``enumerate_winning_draws(t, w).stats.choice_points``
    once that stream is exhausted (0 when w wins no draw), without
    walking a single draw: one recurrence over sub-brackets (see
    _subsetdp.choice_points) gives every player's total.
    """
    n = t.n
    require_exact_size(n)
    counts, points = _subsetdp.choice_points(n, t.beats)
    if not np.array_equal(points, np.floor(points)):
        raise RuntimeError("choice-point recurrence produced a fraction; this is a bug")
    if points.max() >= 2**53:
        raise RuntimeError("choice-point recurrence left the exact float range; this is a bug")
    if not np.array_equal(counts, _subsetdp.sweep(n, t.beats.astype(float))):
        raise RuntimeError("choice-point recurrence disagrees with the count; this is a bug")
    return tuple(int(p) for p in points)


def _beats_bits(t: DeterministicTournament) -> list[int]:
    bitvals = 1 << np.arange(t.n, dtype=np.int64)
    return [int(row @ bitvals) for row in t.beats.astype(np.int64)]


def _enum(mask, winner, wm, beats, stats):
    # A halving is viable when the winner can win its own half and the
    # other half has a possible winner that it beats.  The feasibility
    # tables rule out dead ends: every viable halving yields a draw.
    if mask == 1 << winner:
        yield (winner,)
        return
    wbit = 1 << winner
    for a, b in _subsetdp.halvings(mask):
        stats.choice_points += 1
        own, other = (a, b) if wbit & a else (b, a)
        opps = wm[other] & beats[winner]
        if not wm[own] & wbit or not opps:
            continue
        if own == a:
            for left in _enum(a, winner, wm, beats, stats):
                for j in _subsetdp.bit_indices(opps):
                    for right in _enum(b, j, wm, beats, stats):
                        yield left + right
        else:
            for j in _subsetdp.bit_indices(opps):
                for left in _enum(a, j, wm, beats, stats):
                    for right in _enum(b, winner, wm, beats, stats):
                        yield left + right


def _draws(t, target, limit, stats):
    # The descent behind both find and enumerate.  It stops right after
    # the limit-th draw, without searching for the next one.
    n = t.n
    wm = _subsetdp.winner_masks(n, t.beats)
    full = (1 << n) - 1
    if limit != 0 and wm[full] >> target & 1:
        for leaves in _enum(full, target, wm, _beats_bits(t), stats):
            stats.solutions_found += 1
            yield Draw(leaves)
            if stats.solutions_found == limit:
                break


def find_winning_draw(t: DeterministicTournament, target: int) -> FindResult:
    """Find one draw that makes ``target`` the champion, if any exists.

    The draw is the first one enumerate_winning_draws would yield.
    """
    _check_target(t, target)
    stats = SearchStats()
    return FindResult(next(_draws(t, target, 1, stats), None), stats)


def enumerate_winning_draws(
    t: DeterministicTournament, target: int, limit: int | None = None
) -> DrawStream:
    """Stream every draw won by ``target`` (at most ``limit`` if given).

    With no limit the stream yields exactly count_winning_draws(t)
    .counts[target] distinct draws.  The order is deterministic but not
    part of the contract.
    """
    _check_target(t, target)
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    stats = SearchStats()
    return DrawStream(_draws(t, target, limit, stats), stats)


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
