import sys
from pathlib import Path

# drawfix sets OPENBLAS_NUM_THREADS=1, which OpenBLAS reads only when
# numpy loads.  Importing drawfix first runs the tests' matrix products on
# one BLAS thread, as under the CLI.
NUMPY_LOADED_BEFORE_DRAWFIX = "numpy" in sys.modules

from drawfix import DeterministicTournament, PlayerTable, ProbabilisticTournament

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def cycle4() -> DeterministicTournament:
    """0 beats 1, 1 beats 2, 2 beats 0; everyone beats 3."""
    beats = np.zeros((4, 4), dtype=bool)
    beats[0, 1] = beats[1, 2] = beats[2, 0] = True
    beats[0, 3] = beats[1, 3] = beats[2, 3] = True
    return DeterministicTournament(players=PlayerTable.default(4), beats=beats)


def random_deterministic(n: int, rng) -> DeterministicTournament:
    upper = rng.random((n, n)) < 0.5
    beats = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, k=1)
    beats[iu] = upper[iu]
    beats.T[iu] = ~upper[iu]
    return DeterministicTournament(players=PlayerTable.default(n), beats=beats)


def random_probabilistic(n: int, rng) -> ProbabilisticTournament:
    p = rng.random((n, n))
    probs = np.full((n, n), 0.5)
    iu = np.triu_indices(n, k=1)
    probs[iu] = p[iu]
    probs.T[iu] = 1.0 - p[iu]
    return ProbabilisticTournament(players=PlayerTable.default(n), probs=probs)


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
