import json
import sys
from pathlib import Path

# drawfix sets OPENBLAS_NUM_THREADS=1, which OpenBLAS reads only when
# numpy loads.  Importing drawfix first runs the tests' matrix products on
# one BLAS thread, as under the CLI.
NUMPY_LOADED_BEFORE_DRAWFIX = "numpy" in sys.modules

from drawfix import (
    DeterministicTournament,
    PlayerTable,
    ProbabilisticTournament,
    _subsetdp,
    count_winning_draws,
    find_winning_draw,
)

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
import oracle  # noqa: E402


@pytest.fixture
def cycle4() -> DeterministicTournament:
    """0 beats 1, 1 beats 2, 2 beats 0; everyone beats 3."""
    beats = np.zeros((4, 4), dtype=bool)
    beats[0, 1] = beats[1, 2] = beats[2, 0] = True
    beats[0, 3] = beats[1, 3] = beats[2, 3] = True
    return DeterministicTournament(players=PlayerTable.default(4), beats=beats)


def random_deterministic(n: int, rng, p: float = 0.5,
                         shuffle: bool = False) -> DeterministicTournament:
    """Player i beats a later-listed j with probability p; ``shuffle``
    then permutes the ids, so the strong players land anywhere."""
    upper = rng.random((n, n)) < p
    beats = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, k=1)
    beats[iu] = upper[iu]
    beats.T[iu] = ~upper[iu]
    if shuffle:
        order = rng.permutation(n)
        beats = beats[order][:, order]
    return DeterministicTournament(players=PlayerTable.default(n), beats=beats)


def random_probabilistic(n: int, rng) -> ProbabilisticTournament:
    p = rng.random((n, n))
    probs = np.full((n, n), 0.5)
    iu = np.triu_indices(n, k=1)
    probs[iu] = p[iu]
    probs.T[iu] = 1.0 - p[iu]
    return ProbabilisticTournament(players=PlayerTable.default(n), probs=probs)


def write_rows(path, names, probs, order):
    """A JSON matrix file listing the rank-ordered field's rows in ``order``."""
    doc = {
        "format": "drawfix-probmatrix/1",
        "names": [names[i] for i in order],
        "ranks": [i + 1 for i in order],
        "probs": [[float(probs[i][j]) for j in order] for i in order],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def reference_sweep(n: int, matrix) -> np.ndarray:
    """The halving recurrence as each block computed it before half products:
    ``ca * (cb @ mt) + cb * (ca @ mt)`` on the gathered half rows, summed
    per parent, in blocks of whole parents of up to 4,096 halvings."""
    from drawfix import _subsetdp

    mt = np.ascontiguousarray(np.asarray(matrix, dtype=float).T)
    table = np.eye(n)
    for level in _subsetdp.plan(n).levels:
        k = level.k
        step = max(1, 4096 // k)
        out = np.empty((len(level.masks), n))
        for start in range(0, len(out), step):
            rows = slice(start * k, (start + step) * k)
            ca = table[level.a_rows[rows].astype(np.intp)]
            cb = table[level.b_rows[rows].astype(np.intp)]
            contrib = ca * (cb @ mt) + cb * (ca @ mt)
            out[start:start + step] = contrib.reshape(-1, k, n).sum(axis=1)
        table = out
    return table[0]


def check_fixing_conditions(t: DeterministicTournament) -> None:
    """Hold the solver to the published fixing conditions in the oracle.

    The full set's possible winners (``winner_masks``) lie in the top cycle
    and beat at least log2(n) players.  Every certified player gets a
    positive count and a found draw that it wins, so a None find means no
    certificate holds.  A Condorcet winner wins every draw.
    """
    n = t.n
    beats = t.beats.tolist()
    full = _subsetdp.winner_masks(n, t.beats)[(1 << n) - 1]
    possible = {i for i in range(n) if full >> i & 1}
    assert possible <= {i for i in oracle.top_cycle(beats) if oracle.wins_enough(beats, i)}
    report = count_winning_draws(t)
    found = set()
    for i in range(n):
        draw = find_winning_draw(t, i).draw
        if draw is not None:
            assert oracle.tree_winner(oracle.leaves_tree(draw.leaves), beats) == i
            found.add(i)
    certified = oracle.certified_winners(beats)
    assert certified <= found
    assert all(report.counts[i] > 0 for i in certified)
    for i in range(n):
        if oracle.is_condorcet_winner(beats, i):
            assert report.counts[i] == report.total_draws
