"""Rank-respecting random model of pairwise upsets.

Every match between a higher-ranked and a lower-ranked player is an
independent coin flip in which the favourite wins with probability
1 - upset_prob.  The model is a deterministic probability matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PlayerTable, ProbabilisticTournament, require_model_size

__all__ = [
    "CrParams",
    "generate_cr",
    "average_upset_probability",
]


@dataclass(frozen=True)
class CrParams:
    """Model parameters: bracket size and the per-match upset probability.

    n is a power of two of at most MAX_MODEL_PLAYERS.  upset_prob = 0.5
    is allowed and makes every match a fair coin, which is the uniform
    random tournament.
    """

    n: int
    upset_prob: float

    def __post_init__(self):
        require_model_size(self.n)
        if not 0.0 < self.upset_prob <= 0.5:
            raise ValueError(
                f"upset_prob must lie in (0.0, 0.5], got {self.upset_prob}"
            )


def generate_cr(params: CrParams) -> ProbabilisticTournament:
    """Probability matrix for the model, players listed in rank order."""
    n = params.n
    u = params.upset_prob
    p = np.full((n, n), 0.5)
    iu, ju = np.triu_indices(n, 1)
    p[iu, ju] = 1.0 - u  # id order is rank order, so i < j means i is ranked higher
    p[ju, iu] = u
    return ProbabilisticTournament(players=PlayerTable.default(n), probs=p)


def average_upset_probability(t: ProbabilisticTournament) -> float:
    """Mean chance, over unordered pairs, that the lower-ranked side wins."""
    n = t.n
    if n < 2:
        raise ValueError("need at least two players")
    ranks = np.array(t.players.ranks)
    iu, ju = np.triu_indices(n, 1)
    i_is_favourite = ranks[iu] < ranks[ju]
    upsets = np.where(i_is_favourite, t.probs[ju, iu], t.probs[iu, ju])
    return float(upsets.mean())
