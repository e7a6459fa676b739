"""Property tests over random relations and probability matrices.

Find and enumerate share one descent, and the single-draw and batched
bracket evaluators share one survival loop; these properties pin the
shared paths to each other, to the independent counting route and to the
oracle's tree walk.  The subset sweep is pinned to the per-block formula
its half products replaced.  The choice-point recurrence is pinned to the
exhausted descent it accounts for, the KS permutation p-value, one
lattice-path count, to full enumeration of the splits, and the upset
model's rank recurrence to full enumeration of the draws.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from drawfix import (
    CrParams,
    DeterministicTournament,
    EmpiricalSample,
    PlayerTable,
    ProbabilisticTournament,
    canonicalize,
    count_winning_draws,
    draw_win_probabilities,
    enumerate_winning_draws,
    enumeration_choice_points,
    find_winning_draw,
    generate_cr,
    ks_two_sample,
    simulate,
)
from drawfix._subsetdp import sweep
from drawfix.core import bracket_survival
from drawfix.stats import _cr_rank_probs

import oracle
from conftest import reference_sweep

SIZES = st.sampled_from([1, 2, 4, 8])
# Scoring one bracket is cheap in the oracle, so the evaluator's properties
# reach the exact-method limit.
BRACKET_SIZES = st.sampled_from([1, 2, 4, 8, 16])
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
    n = draw(BRACKET_SIZES)
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
        assert found.stats == stream.stats


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
@given(relations())
def test_choice_point_recurrence_matches_walk(t):
    points = enumeration_choice_points(t)
    for target in range(t.n):
        stream = enumerate_winning_draws(t, target)
        list(stream)
        assert points[target] == stream.stats.choice_points


@st.composite
def weight_matrices(draw):
    n = draw(st.sampled_from([2, 4, 8]))
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))
    return np.array(cells).reshape(n, n)


@SETTINGS
@given(weight_matrices())
def test_sweep_equals_per_block_reference(weights):
    n = len(weights)
    assert sweep(n, weights).tobytes() == reference_sweep(n, weights).tobytes()


@SETTINGS
@given(matrices_and_orders())
def test_single_draw_is_a_batch_row(case):
    t, orders = case
    draws = [canonicalize(order) for order in orders]
    leaves = np.array([d.leaves for d in draws], dtype=np.intp)
    batch = bracket_survival(t.probs, leaves)
    for d, surv in zip(draws, batch):
        assert np.array_equal(draw_win_probabilities(d, t), surv)


@SETTINGS
@given(matrices_and_orders())
def test_bracket_survival_matches_oracle(case):
    t, orders = case
    batch = bracket_survival(t.probs, np.array(orders, dtype=np.intp))
    for order, surv in zip(orders, batch):
        want = oracle.tree_win_probs(oracle.leaves_tree(order), t.probs)
        assert np.abs(surv - [want[i] for i in range(t.n)]).max() <= 1e-12
        assert abs(surv.sum() - 1.0) <= 1e-12


# Values from a set of four, so most samples hold ties within and across.
TIED_SAMPLES = st.lists(st.integers(1, 4).map(float), min_size=1, max_size=6)


@SETTINGS
@given(TIED_SAMPLES, TIED_SAMPLES)
def test_ks_permutation_p_matches_enumeration(a, b):
    res = ks_two_sample(EmpiricalSample.from_values(a), EmpiricalSample.from_values(b),
                        method="permutation")
    assert res.p_value == oracle.ks_permutation_p(a, b)


@SETTINGS
@given(SIZES, st.floats(0.0, 0.5, exclude_min=True))
def test_cr_rank_recurrence_matches_oracle(n, u):
    got = _cr_rank_probs(n, np.array([u]))[0]
    want = oracle.uniform_win_probs(n, generate_cr(CrParams(n, u)).probs)
    assert np.abs(got - want).max() <= 1e-12
