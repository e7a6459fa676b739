"""Bitmask machinery for exact recurrences over sub-brackets.

A sub-bracket over a player subset S splits into two halves; to count
each unordered split once, the half containing min(S) is always listed
first.  The plan below enumerates, level by level (|S| = 2, 4, ..., n),
every subset together with its halvings, as row indices into the
previous level's table.  No level at n <= 16 has more than C(16, 8) =
12,870 subsets, so the row indices are uint16: about 2 MB at n = 16.
Each level is built with numpy from int32 member bits, without a
full-level float or int64 temporary: every parent shares one halving
position pattern, so each A-half mask starts from the subset minimum's
bit and adds the selected member columns, and the same array then turns
into the B-half masks in place.  A dense ``2**n`` uint16 array maps a
half's bitmask to its row in the previous level.

Sweeps over the plan run level by level in blocks of halving rows,
writing into a preallocated level table.  A block holds whole parent
subsets, or one chunk of a parent with more halvings than a block (at
n = 16 the full set's 6,435).  Each call allocates its block buffers
once: a block widens its slice of row indices to intp, which keeps
numpy's ``take`` off its casting path, gathers both halves' rows into
one buffer and combines them there in place.  The float recurrences
merge halves by the sub-bracket product (``core._half_products``).
They multiply each level's table by the match matrix once, over at
most 1,820 rows at n = 16, and gather these half products like the
rows, instead of multiplying every block's halves.  The final level
would need another table the size of the |S| = n/2 level for them
(1.6 MB at n = 16), so its blocks multiply their own halves.  A warm ``sweep(16)``
traces about 2.8 MiB: the 1.6 MB level table, half a MiB of buffers and
the temporary through which ``take`` checks a block's row indices.
The same block loop serves three recurrences: :func:`sweep` (float64
weights), :func:`winner_masks` (packed bitmasks of the players who can
win each sub-bracket) and :func:`choice_points` (the effort of
enumerating every winning draw).

All sweep arithmetic runs in float64.  For n <= 16 the counting values
stay below 2^53 (the full-draw total at n = 16 is 638,512,875 and every
partial product is smaller still), so float64 arithmetic is exact there.
So are the choice points: every call of the enumeration descent yields
at least one draw, which bounds them by 6435 + 90 * 638,512,875 (about
5.7e10) at n = 16, and their caller checks the 2^53 bound at run time.
Blocking changes no sum: each parent's k halvings are still added one
after another in plan order, and a chunk's reduction starts from the
running sum of the chunks before it, carried as its row 0.  The tests
pin the sweep bit for bit to the per-block formula that the half
products replaced, and every recurrence at several block sizes to its
result at the default one.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .core import _half_products, _merge, require_exact_size

__all__ = ["plan", "sweep", "winner_masks", "choice_points", "halvings", "bit_indices",
           "combine_count"]

# Halvings per block of a level sweep (a quarter of them with half
# products); a parent with more halvings than a block is split into
# chunks.
_BLOCK_ROWS = 4096


class Level(NamedTuple):
    masks: np.ndarray
    k: int
    a_rows: np.ndarray
    b_rows: np.ndarray


class Plan(NamedTuple):
    levels: tuple[Level, ...]


def halvings(mask: int):
    """Yield (A, B) bitmask halvings of mask with min(mask) forced into A."""
    members = bit_indices(mask)
    first = members[0]
    for sub in itertools.combinations(members[1:], len(members) // 2 - 1):
        a = (1 << first) + sum(1 << c for c in sub)
        yield a, mask ^ a


def bit_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _combinations(pool: int, size: int) -> np.ndarray:
    """Every ``size``-subset of range(pool) in lexicographic order, one per row."""
    count = comb(pool, size)
    flat = itertools.chain.from_iterable(itertools.combinations(range(pool), size))
    return np.fromiter(flat, dtype=np.int32, count=count * size).reshape(count, size)


@lru_cache(maxsize=None)
def plan(n: int) -> Plan:
    require_exact_size(n)
    levels = []
    # row[mask] is the mask's row in its own level's table; levels hold
    # disjoint subset sizes, so one array serves them all.
    row = np.zeros(1 << n, dtype=np.uint16)
    row[1 << np.arange(n)] = np.arange(n)
    size = 2
    while size <= n:
        # Masks stay below 2^16, so int32 member bits hold them exactly.
        bits = np.left_shift(np.int32(1), _combinations(n, size))
        masks = bits.sum(axis=1, dtype=np.int32)
        if len(masks) > 1 << 16:
            raise RuntimeError("a plan level outgrew its 16-bit rows; this is a bug")
        # Row j of rest holds the member positions that join position 0
        # (the subset's minimum) in half A of halving j.
        rest = _combinations(size - 1, size // 2 - 1) + 1
        halves = np.repeat(bits[:, :1], len(rest), axis=1)
        for col in rest.T:
            halves += bits[:, col]
        a_rows = row[halves.ravel()]
        np.subtract(masks[:, None], halves, out=halves)
        levels.append(
            Level(masks=masks.astype(np.int64), k=len(rest), a_rows=a_rows,
                  b_rows=row[halves.ravel()])
        )
        row[masks] = np.arange(len(masks))
        size *= 2
    return Plan(levels=tuple(levels))


def _levels(p: Plan, table: np.ndarray, combine, reduce, mt=None):
    """Yield (level, table) for every level of the plan, bottom up.

    ``table`` holds the singleton rows.  Each block gathers the half rows
    of its halvings into ``ta`` and ``tb`` and, given ``mt``, their half
    products into ``ua`` and ``ub``.  ``combine(ta, tb)``, or
    ``combine(ta, tb, ua, ub)`` with half products, leaves each halving's
    contribution in ``ta``, and the ufunc ``reduce`` folds every parent's
    contributions in plan order.  The caller may finish a yielded table
    in place before the next level reads it.
    """
    # With half products a block gathers twice the rows, 16 or 32 floats
    # wide, so it takes a quarter of the halvings: a sweep's buffers stay
    # at half a MiB.
    rows = _BLOCK_ROWS if mt is None else max(1, _BLOCK_ROWS // 4)
    rows = min(rows, max((len(level.a_rows) for level in p.levels), default=1))
    width = table.shape[1:]
    # A block of m halvings gathers its A halves to rows 1..m and its B
    # halves to rows m+1..2m; row 0 carries a parent's running sum from
    # one chunk of it to the next.
    t_buf = np.empty((2 * rows + 1,) + width, dtype=table.dtype)
    u_buf = None if mt is None else np.empty_like(t_buf)
    idx = np.empty(2 * rows, dtype=np.intp)
    for level in p.levels:
        k, total = level.k, len(level.a_rows)
        out = np.empty((len(level.masks),) + width, dtype=table.dtype)
        # The final level's half products would take another table the
        # size of the previous one, so its blocks compute their own.
        u = None
        if mt is not None and level is not p.levels[-1]:
            u = np.empty_like(table)
            _half_products(table, mt, u)
        # A block holds whole parents, or one chunk of a parent with more
        # halvings than a block.
        span = rows // k * k
        if span:
            bounds = [(lo, min(lo + span, total)) for lo in range(0, total, span)]
        else:
            bounds = [(lo, min(lo + rows, end)) for end in range(k, total + 1, k)
                      for lo in range(end - k, end, rows)]
        for lo, hi in bounds:
            m = hi - lo
            ix = idx[:2 * m]
            # Gathering with intp indices skips numpy's casting path.
            ix[:m] = level.a_rows[lo:hi]
            ix[m:] = level.b_rows[lo:hi]
            gathered = t_buf[1:2 * m + 1]
            # take's default mode checks every row index, as fancy indexing
            # does, so a bad plan row raises instead of reading a clipped one.
            table.take(ix, axis=0, out=gathered)
            ta, tb = gathered[:m], gathered[m:]
            if mt is None:
                combine(ta, tb)
            else:
                products = u_buf[1:2 * m + 1]
                if u is None:
                    _half_products(gathered, mt, products)
                else:
                    u.take(ix, axis=0, out=products)
                combine(ta, tb, products[:m], products[m:])
            parent, carry = divmod(lo, k)
            if carry:
                t_buf[0] = out[parent]
            contrib = t_buf[1 - bool(carry):m + 1]
            contrib = contrib.reshape((-1, k) + width) if span else contrib[None]
            reduce.reduce(contrib, axis=1, out=out[parent:parent + len(contrib)])
        table = out
        yield level, table


def sweep(n: int, matrix: np.ndarray) -> np.ndarray:
    """Run the halving recurrence up to the full player set.

    ``matrix[i, j]`` weights the event "i meets and beats j" in a final:
    1/0 entries count draws, probabilities accumulate expected draws.
    Returns the length-n value vector for the full set.
    """
    mt = np.ascontiguousarray(np.asarray(matrix, dtype=float).T)

    def combine(ta, tb, ua, ub):
        _merge(ta, tb, ua, ub, out=ta)

    table = np.eye(n)
    for _, table in _levels(plan(n), table, combine, np.add, mt):
        pass
    return table[0]


def winner_masks(n: int, beats: np.ndarray) -> list[int]:
    """Feasible-winner bitmask of every power-of-two-sized subset.

    ``beats[i, j]`` is True when i beats j.  The result is indexed by
    subset bitmask (other masks read 0).  A member of half A can win
    A + B when it can win A and beats some possible winner of B, so with
    ``lose[m]`` the mask of players beating some member of m, each level
    is W(S) = OR over halvings of (W(A) & lose[W(B)]) | (W(B) & lose[W(A)]).
    """
    beaten_by = (np.asarray(beats, dtype=np.int64) << np.arange(n)[:, None]).sum(axis=0)
    lose = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        lose[1 << j:2 << j] = lose[:1 << j] | beaten_by[j]

    def combine(wa, wb):
        # (wa & lose[wb]) | (wb & lose[wa]), in place in the two gathers.
        other = lose.take(wb)
        wb &= lose.take(wa)
        wa &= other
        wa |= wb

    singles = 1 << np.arange(n, dtype=np.int64)
    out = np.zeros(1 << n, dtype=np.int64)
    out[singles] = singles
    for level, table in _levels(plan(n), singles, combine, np.bitwise_or):
        out[level.masks] = table
    return out.tolist()


def choice_points(n: int, beats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Winning-draw counts N and enumeration choice points CP of the full set.

    ``beats[i, j]`` is True when i beats j.  N(S, w) is the count of
    :func:`sweep` on the 0/1 relation.  CP(S, w) counts the halvings the
    enumeration descent (``solver._enum``) examines while it walks every
    draw of S won by w, and is 0 wherever N is.  The descent examines
    all k halvings of S.  In a viable halving with w in A it walks A's
    draws once and, for each of them, B's draws won by each winner j of
    B that w beats; with w in B it walks A's draws won by each such j
    once and B's draws won by w once per draw of A.  With u = N @ beats.T
    and v = CP @ beats.T (u(w) > 0 exactly when w beats a possible
    winner), wherever N(S, w) > 0:

        CP(S, w) = k + sum over halvings of CP(A, w) [u_B(w) > 0]
                   + N(A, w) v_B(w) + v_A(w) [N(B, w) > 0] + u_A(w) CP(B, w)

    The terms need no case split: N and CP of a half vanish at players
    who cannot win it, and v at players who beat none of its possible
    winners.
    Returns the two length-n vectors (N, CP).
    """
    # A row [N | CP], read as two n-wide rows, has the half products [u | v].
    mt = np.ascontiguousarray(np.asarray(beats, dtype=float).T)

    def combine(ta, tb, ua, ub):
        # In place, in the order of the sums above: CP first, while N,
        # u_A and u_B still hold their gathered values, then N.
        na, pa, nb, pb = ta[:, :n], ta[:, n:], tb[:, :n], tb[:, n:]
        pa *= ub[:, :n] > 0
        ub[:, n:] *= na
        pa += ub[:, n:]
        ua[:, n:] *= nb > 0
        pa += ua[:, n:]
        pb *= ua[:, :n]
        pa += pb
        _merge(na, nb, ua[:, :n], ub[:, :n], out=na)

    table = np.hstack([np.eye(n), np.zeros((n, n))])
    for level, table in _levels(plan(n), table, combine, np.add, mt):
        np.add(table[:, n:], level.k, out=table[:, n:], where=table[:, :n] > 0)
    return table[0, :n], table[0, n:]


def combine_count(n: int) -> int:
    """Total halving alternatives examined by one full sweep."""
    return sum(len(level.masks) * level.k for level in plan(n).levels)
