"""Seeded inputs for the benchmark, made with numpy alone.

Nothing here calls drawfix, so the inputs stay the same when the
program changes.  Field ``k`` of seed ``s`` comes from its own stream,
``SeedSequence([s, stream, k])``, so a workload can take as many fields
as its run length allows and the first ones never change.
"""
from __future__ import annotations

import numpy as np

N = 16
_RELATION, _MATRIX, _CLI = 1, 2, 3


def _rng(seed: int, stream: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, k]))


def relation(seed: int, k: int) -> tuple[np.ndarray, float]:
    """Boolean beats matrix: the higher-ranked side of each pair (smaller
    id) loses with an upset probability drawn from [0.05, 0.5]."""
    gen = _rng(seed, _RELATION, k)
    upset = float(gen.uniform(0.05, 0.5))
    iu, ju = np.triu_indices(N, 1)
    favourite_wins = gen.random(iu.size) >= upset
    beats = np.zeros((N, N), dtype=bool)
    beats[iu, ju] = favourite_wins
    beats[ju, iu] = ~favourite_wins
    return beats, upset


def prob_matrix(seed: int, k: int) -> np.ndarray:
    """Rank-structured win probabilities with noise added per pair.

    Strengths fall with rank; the logistic of a strength gap gives the
    base probability, a per-pair normal perturbation breaks the
    structure, and clipping keeps every entry inside (0, 1).
    """
    gen = _rng(seed, _MATRIX, k)
    spread = gen.uniform(0.5, 3.0)
    strength = np.sort(gen.normal(0.0, spread, N))[::-1]
    gap = strength[:, None] - strength[None, :]
    noisy = 1.0 / (1.0 + np.exp(-gap)) + gen.normal(0.0, 0.05, (N, N))
    iu, ju = np.triu_indices(N, 1)
    upper = np.clip(noisy[iu, ju], 0.02, 0.98)
    p = np.full((N, N), 0.5)
    p[iu, ju] = upper
    p[ju, iu] = 1.0 - upper
    return p


def cr_matrix(upset_prob: float) -> np.ndarray:
    """The rank-upset model matrix, written out independently of drawfix."""
    p = np.full((N, N), 0.5)
    iu, ju = np.triu_indices(N, 1)
    p[iu, ju] = 1.0 - upset_prob
    p[ju, iu] = upset_prob
    return p


def cli_round(seed: int, k: int, feasible: list[str], infeasible: list[str]) -> dict:
    """Per-round choices of the CLI workload."""
    gen = _rng(seed, _CLI, k)
    return {
        "upset_prob": round(float(gen.uniform(0.05, 0.5)), 2),
        "fix_target": feasible[int(gen.integers(len(feasible)))],
        "fix_none_target": infeasible[int(gen.integers(len(infeasible)))],
        "sample_seed": int(gen.integers(2**31)),
    }


def matrix_doc(p: np.ndarray) -> dict:
    """A probability matrix in drawfix's JSON matrix format."""
    names = [f"p{i:02d}" for i in range(len(p))]
    return {
        "format": "drawfix-probmatrix/1",
        "names": names,
        "ranks": list(range(1, len(p) + 1)),
        "probs": [[float(x) for x in row] for row in p],
    }
