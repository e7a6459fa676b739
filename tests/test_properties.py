"""Property tests over random relations and probability matrices.

Find and enumerate share one descent, and the single-draw and batched
bracket evaluators share one survival loop; these properties pin the
shared paths to each other and to the independent counting route.  The
KS permutation p-value, one lattice-path count, is pinned to full
enumeration of the splits.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from drawfix import (
    DeterministicTournament,
    EmpiricalSample,
    PlayerTable,
    ProbabilisticTournament,
    canonicalize,
    count_winning_draws,
    draw_win_probabilities,
    enumerate_winning_draws,
    find_winning_draw,
    ks_two_sample,
    simulate,
)
from drawfix.core import bracket_survival

import oracle

SIZES = st.sampled_from([1, 2, 4, 8])
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def relations(draw):
    n = draw(SIZES)
    pairs = n * (n - 1) // 2
    upper = np.array(draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs)),
                     dtype=bool)
    beats = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, k=1)
    beats[iu] = upper
    beats.T[iu] = ~upper
    return DeterministicTournament(players=PlayerTable.default(n), beats=beats)


@st.composite
def matrices_and_orders(draw):
    n = draw(SIZES)
    pairs = n * (n - 1) // 2
    upper = draw(st.lists(st.floats(0.0, 1.0), min_size=pairs, max_size=pairs))
    probs = np.full((n, n), 0.5)
    iu = np.triu_indices(n, k=1)
    probs[iu] = upper
    probs.T[iu] = 1.0 - np.array(upper)
    t = ProbabilisticTournament(players=PlayerTable.default(n), probs=probs)
    orders = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=6))
    return t, orders


@SETTINGS
@given(relations())
def test_find_is_first_enumerated_draw(t):
    for target in range(t.n):
        found = find_winning_draw(t, target)
        stream = enumerate_winning_draws(t, target, limit=1)
        draws = list(stream)
        assert draws == ([] if found.draw is None else [found.draw])
        assert found.stats.choice_points == stream.stats.choice_points
        assert found.stats.solutions_found == stream.stats.solutions_found


@SETTINGS
@given(relations())
def test_find_succeeds_iff_count_positive(t):
    counts = count_winning_draws(t).counts
    for target in range(t.n):
        assert (find_winning_draw(t, target).draw is not None) == (counts[target] > 0)


@SETTINGS
@given(relations())
def test_enumeration_matches_count(t):
    counts = count_winning_draws(t).counts
    for target in range(t.n):
        draws = list(enumerate_winning_draws(t, target))
        assert len(draws) == len(set(draws)) == counts[target]
        for d in draws:
            assert canonicalize(d.leaves) == d
            assert simulate(d, t) == target


@SETTINGS
@given(matrices_and_orders())
def test_single_draw_is_a_batch_row(case):
    t, orders = case
    draws = [canonicalize(order) for order in orders]
    leaves = np.array([d.leaves for d in draws], dtype=np.intp)
    batch = bracket_survival(t.probs, leaves)
    for row, d, surv in zip(leaves, draws, batch):
        by_player = np.empty(t.n)
        by_player[row] = surv
        assert np.array_equal(draw_win_probabilities(d, t), by_player)


# Values from a set of four, so most samples hold ties within and across.
TIED_SAMPLES = st.lists(st.integers(1, 4).map(float), min_size=1, max_size=6)


@SETTINGS
@given(TIED_SAMPLES, TIED_SAMPLES)
def test_ks_permutation_p_matches_enumeration(a, b):
    res = ks_two_sample(EmpiricalSample.from_values(a), EmpiricalSample.from_values(b),
                        method="permutation")
    assert res.p_value == oracle.ks_permutation_p(a, b)
