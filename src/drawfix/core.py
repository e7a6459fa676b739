"""Players, pairwise comparisons, and balanced knockout draws.

A draw over n = 2^c players is a full binary bracket tree, kept in a
canonical leaf order: at every internal node, the half that contains the
smallest player id comes first.  Canonical leaf sequences are in
one-to-one correspondence with unordered draws, of which there are
exactly n!/2^(n-1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
# draw sampler's player-space rounds take about n**3 multiply-adds per
# bracket: 2.6e5 at 64 players, about 0.1 s per 4,096-draw batch, and
# 4096 times that at 1024 players, minutes per batch.
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


@dataclass(frozen=True)
class PlayerTable:
    """Roster of n players identified by ids 0..n-1.

    ``ranks`` is a permutation of 1..n, rank 1 being the strongest.
    Builders in this package assign ids in rank order (id 0 has rank 1),
    but any permutation is accepted.
    """

    names: tuple[str, ...]
    ranks: tuple[int, ...]

    def __post_init__(self):
        n = len(self.names)
        if n == 0:
            raise ValueError("player table must not be empty")
        if len(self.ranks) != n:
            raise ValueError("names and ranks must have equal length")
        if len(set(self.names)) != n:
            raise ValueError("player names must be unique")
        if sorted(self.ranks) != list(range(1, n + 1)):
            raise ValueError(f"ranks must be a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.names)

    @classmethod
    def from_ordered(cls, names: Sequence[str]) -> "PlayerTable":
        """Build a table from names listed best first (id order = rank order)."""
        names = tuple(names)
        return cls(names=names, ranks=tuple(range(1, len(names) + 1)))

    @classmethod
    def default(cls, n: int) -> "PlayerTable":
        return cls.from_ordered(tuple(f"p{i}" for i in range(n)))

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown player name: {name!r}") from None

    def by_rank(self) -> tuple[int, ...]:
        """Player ids sorted from rank 1 to rank n."""
        return tuple(sorted(range(self.n), key=lambda i: self.ranks[i]))


@dataclass(frozen=True, eq=False)
class DeterministicTournament:
    """Complete pairwise win relation: beats[i, j] is True iff i beats j."""

    players: PlayerTable
    beats: np.ndarray

    def __post_init__(self):
        n = self.players.n
        beats = np.array(self.beats, dtype=bool)
        if beats.shape != (n, n):
            raise ValueError(f"beats must be {n}x{n}")
        if beats.diagonal().any():
            raise ValueError("a player cannot beat itself")
        off = ~np.eye(n, dtype=bool)
        if not (beats ^ beats.T)[off].all():
            raise ValueError("every pair needs exactly one winner")
        object.__setattr__(self, "beats", _readonly(beats))

    @property
    def n(self) -> int:
        return self.players.n

    def to_probabilistic(self) -> "ProbabilisticTournament":
        """Degenerate 0/1 probability matrix for the same relation."""
        p = self.beats.astype(float)
        np.fill_diagonal(p, 0.5)
        return ProbabilisticTournament(players=self.players, probs=p)


@dataclass(frozen=True, eq=False)
class ProbabilisticTournament:
    """Pairwise win probabilities: probs[i, j] is the chance i beats j.

    Rows and columns are consistent (probs + probs.T == 1 off the
    diagonal, within 1e-12).  Diagonal entries are unused and stored as
    0.5 by convention.
    """

    players: PlayerTable
    probs: np.ndarray

    def __post_init__(self):
        n = self.players.n
        p = np.array(self.probs, dtype=float)
        if p.shape != (n, n):
            raise ValueError(f"probs must be {n}x{n}")
        if np.isnan(p).any() or (p < 0).any() or (p > 1).any():
            raise ValueError("probabilities must lie in [0, 1]")
        off = ~np.eye(n, dtype=bool)
        if np.abs((p + p.T) - 1.0)[off].max(initial=0.0) > 1e-12:
            raise ValueError("probs[i, j] + probs[j, i] must equal 1")
        np.fill_diagonal(p, 0.5)
        object.__setattr__(self, "probs", _readonly(p))

    @property
    def n(self) -> int:
        return self.players.n

    def to_deterministic(self) -> DeterministicTournament:
        """Threshold at 1/2: i beats j iff probs[i, j] > 0.5.

        Exact 0.5 entries are broken in favour of the higher-ranked
        (smaller rank number) player, so a deterministic reading always
        exists.
        """
        p = self.probs
        ranks = np.array(self.players.ranks)
        higher = ranks[:, None] < ranks[None, :]
        beats = (p > 0.5) | ((p == 0.5) & higher)
        np.fill_diagonal(beats, False)
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


@dataclass(frozen=True)
class Draw:
    """A canonical draw: leaf order of the bracket tree.

    Adjacent pairs meet in round one, adjacent pairs of pairs in round
    two, and so on.  The constructor enforces the canonical form; use
    :func:`canonicalize` to normalise an arbitrary leaf order.
    """

    leaves: tuple[int, ...]

    def __post_init__(self):
        seq = tuple(self.leaves)
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


# Round two of a chunk holds rows x n/2 x n floats (512 KiB here), so a
# chunk's rounds stay in a core's cache; a 4,096-draw batch at 16 players
# is eight chunks.
_CHUNK_ENTRIES = 1 << 16


def bracket_survival(probs: np.ndarray, leaves: np.ndarray) -> np.ndarray:
    """Win probability of every player, for a batch of brackets at once.

    ``leaves`` holds one leaf order per row (shape b x n); the result has
    the same shape and gives, indexed by player id, each player's chance
    to win that row's bracket.  Round one looks up each pair's two match
    probabilities directly.  From round two on, every block of the
    bracket is a length-n row holding its players' survival and zero
    elsewhere, and sibling blocks ``ca`` and ``cb`` merge as
    ``ca * (cb @ mt) + cb * (ca @ mt)`` with ``mt = probs.T``: a player's
    survival times its chance of beating whoever emerges from the
    sibling block.  This is the product :func:`drawfix._subsetdp.sweep`
    applies to each halving, here on one fixed halving per block.
    Brackets are evaluated in chunks of ``_CHUNK_ENTRIES // (n * n / 2)``
    rows, which bounds the round-two table and leaves every value as it
    is.
    """
    b, n = leaves.shape
    out = np.ones((b, n))
    if n == 1:
        return out
    mt = np.ascontiguousarray(probs.T)
    step = min(b, max(1, _CHUNK_ENTRIES // (n * n // 2)))
    # Every chunk reuses the same two buffers: fresh pages for each
    # round's arrays cost about as much as the arithmetic on them.
    table, prod = np.empty((2, step * n * n // 2))
    for start in range(0, b, step):
        ids = leaves[start:start + step]
        m, k = len(ids), n // 2
        # blocks[j, r] is block j of bracket r, so siblings are the even
        # and the odd block slabs, each a contiguous m x n array.
        blocks = table[:k * m * n].reshape(k, m, n)
        blocks.fill(0.0)
        a, c = ids[:, 0::2].T, ids[:, 1::2].T
        pairs, rows = np.arange(k)[:, None], np.arange(m)[None, :]
        blocks[pairs, rows, a] = probs[a, c]
        blocks[pairs, rows, c] = probs[c, a]
        while k > 1:
            # ca * (cb @ mt) + cb * (ca @ mt), in place in the product.
            u = prod[:k * m * n].reshape(k, m, n)
            np.matmul(blocks.reshape(-1, n), mt, out=u.reshape(-1, n))
            u[0::2] *= blocks[1::2]
            u[1::2] *= blocks[0::2]
            k //= 2
            blocks = table[:k * m * n].reshape(k, m, n)
            np.add(u[0::2], u[1::2], out=blocks)
        out[start:start + m] = blocks[0]
    return out

