"""Players, pairwise comparisons, and balanced knockout draws.

Players are ids 0..n-1 in rank order: id 0 has rank 1, the strongest,
and every comparison of ranks is a comparison of ids.

A draw over n = 2^c players is a full binary bracket tree, kept in a
canonical leaf order: at every internal node, the half that contains the
smallest player id comes first.  Canonical leaf sequences are in
one-to-one correspondence with unordered draws, of which there are
exactly n!/2^(n-1).
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PlayerTable",
    "DeterministicTournament",
    "ProbabilisticTournament",
    "Draw",
    "ResourceLimitError",
    "MAX_EXACT_PLAYERS",
    "MAX_MODEL_PLAYERS",
    "num_draws",
    "canonicalize",
    "random_draw",
    "simulate",
]

RngLike = "int | np.random.Generator"


class ResourceLimitError(RuntimeError):
    """An exact method was asked to exceed its documented size bound."""


# The exact subset-table methods (counting, search pruning, draw-uniform
# win probabilities) materialise values for every power-of-two-sized
# player subset.  At 16 players the plan's row indices take about 2 MB,
# the dense 2**16 mask tables 0.5 MB each and a blocked sweep a few MB of
# temporaries; at 32 players the |S| = 16 level alone has 6e8 subsets.
MAX_EXACT_PLAYERS = 16

# The upset-model generator holds arrays that grow with n squared: the
# model matrix and its index arrays (2 GiB each at 16384 players).  The
# draw sampler's dense player-space rounds take about n**3 / 2
# multiply-adds per bracket: 1.2e5 at 64 players, about 35 ms per
# 4,096-draw batch on one core of a 2-vCPU machine, and 4096 times that
# at 1024 players, minutes per batch; its pair table holds n**3 floats,
# 2 MiB at 64 players and 8 GiB at 1024.
MAX_MODEL_PLAYERS = 64


def as_rng(rng) -> np.random.Generator:
    """Accept either a Generator or an integer seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def require_bracket_size(n: int) -> None:
    """Raise ValueError unless n players fill a balanced bracket."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"bracket size must be a power of two, got {n} players")


def require_exact_size(n: int) -> None:
    """Also raise ResourceLimitError when n exceeds MAX_EXACT_PLAYERS."""
    require_bracket_size(n)
    if n > MAX_EXACT_PLAYERS:
        raise ResourceLimitError(
            f"exact methods are limited to {MAX_EXACT_PLAYERS} players, got {n}"
        )


def require_model_size(n: int) -> None:
    """Also raise ValueError when n exceeds MAX_MODEL_PLAYERS."""
    require_bracket_size(n)
    if n > MAX_MODEL_PLAYERS:
        raise ValueError(
            f"the upset model and the sampler are limited to {MAX_MODEL_PLAYERS} "
            f"players, got {n}"
        )


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Fields:
    """Fields named in ``__match_args__``, shown in that order by the repr
    and compared by ``==``; no hash.  No ``__setattr__`` either: the
    solver bumps a counter field in its inner loop."""

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__match_args__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


class _Frozen(_Fields):
    """Fields set once by ``__init__``: they hash, and cannot be assigned
    or deleted."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PlayerTable(_Frozen):
    """Roster of n players listed best first: id i has rank i + 1."""

    __match_args__ = ("names",)

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        object.__setattr__(self, "names", names)
        if not names:
            raise ValueError("player table must not be empty")
        if len(set(names)) != len(names):
            raise ValueError("player names must be unique")

    @property
    def n(self) -> int:
        return len(self.names)

    @classmethod
    def default(cls, n: int) -> "PlayerTable":
        return cls(tuple(f"p{i}" for i in range(n)))

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown player name: {name!r}") from None

    def by_rank(self) -> tuple[int, ...]:
        """Player ids from rank 1 to rank n, which is id order."""
        return tuple(range(self.n))


class DeterministicTournament(_Frozen):
    """Complete pairwise win relation: beats[i, j] is True iff i beats j.

    Two tournaments are equal only when they are the same object.
    """

    __match_args__ = ("players", "beats")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, players: PlayerTable, beats):
        n = players.n
        beats = np.array(beats, dtype=bool)
        if beats.shape != (n, n):
            raise ValueError(f"beats must be {n}x{n}")
        if beats.diagonal().any():
            raise ValueError("a player cannot beat itself")
        off = ~np.eye(n, dtype=bool)
        if not (beats ^ beats.T)[off].all():
            raise ValueError("every pair needs exactly one winner")
        object.__setattr__(self, "players", players)
        object.__setattr__(self, "beats", _readonly(beats))

    @property
    def n(self) -> int:
        return self.players.n

    def to_probabilistic(self) -> "ProbabilisticTournament":
        """Degenerate 0/1 probability matrix for the same relation."""
        return ProbabilisticTournament(players=self.players, probs=self.beats)


class ProbabilisticTournament(_Frozen):
    """Pairwise win probabilities: probs[i, j] is the chance i beats j.

    Rows and columns are consistent (probs + probs.T == 1 off the
    diagonal, within 1e-12).  Diagonal entries are unused and stored as
    0.5 by convention.  Two tournaments are equal only when they are the
    same object.
    """

    __match_args__ = ("players", "probs")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, players: PlayerTable, probs):
        n = players.n
        p = np.array(probs, dtype=float)
        if p.shape != (n, n):
            raise ValueError(f"probs must be {n}x{n}")
        if np.isnan(p).any() or (p < 0).any() or (p > 1).any():
            raise ValueError("probabilities must lie in [0, 1]")
        off = ~np.eye(n, dtype=bool)
        if np.abs((p + p.T) - 1.0)[off].max(initial=0.0) > 1e-12:
            raise ValueError("probs[i, j] + probs[j, i] must equal 1")
        np.fill_diagonal(p, 0.5)
        object.__setattr__(self, "players", players)
        object.__setattr__(self, "probs", _readonly(p))

    @property
    def n(self) -> int:
        return self.players.n

    def to_deterministic(self) -> DeterministicTournament:
        """Threshold at 1/2: i beats j iff probs[i, j] > 0.5.

        Exact 0.5 entries are broken in favour of the higher-ranked
        player, the smaller id, so a deterministic reading always exists.
        """
        p = self.probs
        beats = (p > 0.5) | np.triu(p == 0.5, 1)
        return DeterministicTournament(players=self.players, beats=beats)


def num_draws(n: int) -> int:
    """Number of distinct unordered draws over n = 2^c players, exactly."""
    require_bracket_size(n)
    return math.factorial(n) // 2 ** (n - 1)


def _canon(seg: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    if len(seg) == 1:
        return seg, seg[0]
    h = len(seg) // 2
    left, lmin = _canon(seg[:h])
    right, rmin = _canon(seg[h:])
    if lmin < rmin:
        return left + right, lmin
    return right + left, rmin


def canonicalize(leaves: Iterable[int]) -> "Draw":
    """Canonical draw for any leaf ordering of the same bracket tree."""
    seq = tuple(leaves)
    require_bracket_size(len(seq))  # Draw checks the rest; _canon needs a size
    return Draw(_canon(seq)[0])


class Draw(_Frozen):
    """A canonical draw: leaf order of the bracket tree.

    Adjacent pairs meet in round one, adjacent pairs of pairs in round
    two, and so on.  The constructor enforces the canonical form; use
    :func:`canonicalize` to normalise an arbitrary leaf order.
    """

    __match_args__ = ("leaves",)

    def __init__(self, leaves: Iterable[int]):
        seq = tuple(leaves)
        object.__setattr__(self, "leaves", seq)
        require_bracket_size(len(seq))
        if sorted(seq) != list(range(len(seq))):
            raise ValueError("leaves must be a permutation of 0..n-1")
        if _canon(seq)[0] != seq:
            raise ValueError(
                "leaf order is not canonical; build with canonicalize()"
            )

    @property
    def n(self) -> int:
        return len(self.leaves)

    def bracket_text(self, names: Sequence[str] | None = None) -> str:
        """Nested-parentheses rendering, e.g. ``((p0,p3),(p1,p2))``."""
        def render(seg):
            if len(seg) == 1:
                i = seg[0]
                return str(i) if names is None else names[i]
            h = len(seg) // 2
            return f"({render(seg[:h])},{render(seg[h:])})"

        return render(self.leaves)


def random_draw(n: int, rng: RngLike) -> Draw:
    """Uniform draw over all num_draws(n) possibilities.

    A uniform leaf permutation followed by canonicalisation is uniform
    over draws, because every draw has the same number (2^(n-1)) of
    permutation preimages.
    """
    require_bracket_size(n)
    gen = as_rng(rng)
    return canonicalize(int(x) for x in gen.permutation(n))


def simulate(draw: Draw, t: DeterministicTournament) -> int:
    """Play out the bracket and return the champion's id."""
    if draw.n != t.n:
        raise ValueError(f"draw has {draw.n} leaves but tournament has {t.n} players")
    beats = t.beats
    alive = list(draw.leaves)
    while len(alive) > 1:
        alive = [i if beats[i, j] else j for i, j in zip(alive[0::2], alive[1::2])]
    return alive[0]


# The first dense round of a chunk holds rows x n/4 x n floats (512 KiB
# here), so a chunk's rounds stay in a core's cache; a 4,096-draw batch
# at 16 players is four chunks.
_CHUNK_ENTRIES = 1 << 16


def _half_products(t: np.ndarray, mt: np.ndarray, out: np.ndarray) -> None:
    """The sub-bracket product ``out = t @ mt``, ``t`` and the contiguous
    ``out`` read as rows of n = len(mt) entries, with ``mt = probs.T``.

    A row ``c`` holding each player's chance to win a sub-bracket, zero
    outside it, gives in ``(c @ mt)[i]`` player i's chance to beat the
    sub-bracket's winner; so siblings ``ca`` and ``cb`` merge as
    ``ca * (cb @ mt) + cb * (ca @ mt)`` (:func:`_merge`).  The subset
    sweeps of :mod:`drawfix._subsetdp` merge every halving of a subset,
    weighting by draw counts, and :func:`bracket_survival` the one
    halving of each block of a bracket.
    """
    n = len(mt)
    np.matmul(t.reshape(-1, n), mt, out=out.reshape(-1, n))


def _merge(ca: np.ndarray, cb: np.ndarray, ua: np.ndarray, ub: np.ndarray,
           out: np.ndarray) -> np.ndarray:
    """``out = ca * ub + cb * ua``, returned, where ``ua`` and ``ub`` hold
    the half products of ``ca`` and ``cb`` and are overwritten; see
    :func:`_half_products`.  ``out`` may overlap ``ca`` and ``cb``."""
    ub *= ca
    ua *= cb
    return np.add(ub, ua, out=out)


def _pair_table(probs: np.ndarray) -> np.ndarray:
    """n x n x n table: w[x, y, i] is i's chance to beat the winner of x
    against y, that is P[x, y]·P[i, x] + P[y, x]·P[i, y]."""
    mt = probs.T
    return probs[:, :, None] * mt[:, None, :] + mt[:, :, None] * mt[None, :, :]


class _Survival:
    """Scores batches of up to ``rows`` brackets of one field.

    Every batch reuses the same survival, index and round buffers: fresh
    pages for each round's arrays cost about as much as the arithmetic on
    them.  Two column maps, made once, give the leaves that rounds one and
    two read: ``opponent[j] = j ^ 1``, and ``pair[j] = (j ^ 2) & ~1``, the
    first leaf of the pair leaf j meets in round two.  Called with a b x n
    array of leaf orders, it returns a b x n view of its survival buffer,
    valid until the next call; see :func:`bracket_survival`.
    """

    def __init__(self, probs: np.ndarray, table: np.ndarray, rows: int):
        n = len(probs)
        self.flat_probs = probs.ravel()
        self.flat_table = table.ravel()
        self.mt = np.ascontiguousarray(probs.T)
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

    def __call__(self, leaves: np.ndarray) -> np.ndarray:
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
    to win that row's bracket.  Rounds one and two look up each leaf's
    chance in the match probabilities and in :func:`_pair_table`: a leaf
    that meets y in round one and the winner of x against z in round two
    survives both with P[leaf, y]·w[x, z, leaf].  From round three on,
    every block of the bracket is a length-n row holding its players'
    survival and zero elsewhere, and sibling blocks merge by the
    sub-bracket product of :func:`_half_products`.  Brackets are
    evaluated in chunks of ``_CHUNK_ENTRIES // (n * n / 4)`` rows, which
    bounds the first dense round's table and leaves every value as it is.
    """
    return _Survival(probs, _pair_table(probs), len(leaves))(leaves)
