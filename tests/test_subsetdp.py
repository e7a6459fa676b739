import itertools
import os
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest

from conftest import random_deterministic, random_probabilistic, reference_sweep
from drawfix import _subsetdp

import oracle


def reference_plan(n):
    """Per level: (masks, k, a_rows, b_rows) built with plain itertools."""
    levels = []
    prev_index = {1 << i: i for i in range(n)}
    size = 2
    while size <= n:
        masks, index, a_rows, b_rows = [], {}, [], []
        for combo in itertools.combinations(range(n), size):
            mask = sum(1 << c for c in combo)
            index[mask] = len(masks)
            masks.append(mask)
            for sub in itertools.combinations(combo[1:], size // 2 - 1):
                amask = (1 << combo[0]) + sum(1 << c for c in sub)
                a_rows.append(prev_index[amask])
                b_rows.append(prev_index[mask ^ amask])
        levels.append((masks, comb(size - 1, size // 2 - 1), a_rows, b_rows))
        prev_index = index
        size *= 2
    return levels


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_plan_matches_itertools_reference(n):
    levels = _subsetdp.plan(n).levels
    expected = reference_plan(n)
    assert len(levels) == len(expected)
    for level, (masks, k, a_rows, b_rows) in zip(levels, expected):
        assert level.masks.dtype == np.int64
        assert level.a_rows.dtype == level.b_rows.dtype == np.uint16
        assert level.masks.tolist() == masks
        assert level.k == k
        assert level.a_rows.tolist() == a_rows
        assert level.b_rows.tolist() == b_rows


def test_plan_at_the_exact_limit():
    n = 16
    prev = 1 << np.arange(n, dtype=np.int64)
    levels = _subsetdp.plan(n).levels
    assert len(levels) == 4
    for s, level in zip((2, 4, 8, 16), levels):
        k, masks = level.k, level.masks
        assert level.a_rows.dtype == level.b_rows.dtype == np.uint16
        assert len(np.unique(masks)) == len(masks) == comb(n, s)
        assert (((masks[:, None] >> np.arange(n)) & 1).sum(axis=1) == s).all()
        a, b = prev[level.a_rows], prev[level.b_rows]
        assert np.array_equal(a | b, np.repeat(masks, k))
        assert not (a & b).any()
        assert (a & np.repeat(masks & -masks, k)).all()
        halves = np.sort(a.reshape(-1, k), axis=1)
        assert (np.diff(halves, axis=1) > 0).all()
        prev = masks


def test_plan_rejects_non_power_of_two():
    for n in (0, 3, 12):
        with pytest.raises(ValueError):
            _subsetdp.plan(n)


def feasible_winners(members, beats):
    return {oracle.tree_winner(tree, beats) for tree in oracle.all_draws(members)}


@pytest.mark.parametrize("n", [2, 4, 8])
def test_winner_masks_match_oracle(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(4):
        t = random_deterministic(n, rng)
        wm = _subsetdp.winner_masks(n, t.beats)
        assert len(wm) == 1 << n
        for mask in range(1, 1 << n):
            members = _subsetdp.bit_indices(mask)
            if len(members) & (len(members) - 1):
                assert wm[mask] == 0
                continue
            winners = feasible_winners(members, t.beats)
            assert _subsetdp.bit_indices(wm[mask]) == sorted(winners)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cold_plan_is_compact():
    # 16-bit rows keep 1.9 MiB of arrays at the exact limit (7.2 MiB as
    # int64), and the build holds no full-level float or int64 temporary.
    _subsetdp.plan.cache_clear()
    p, peak = _traced_peak(lambda: _subsetdp.plan(16))
    kept = sum(lv.masks.nbytes + lv.a_rows.nbytes + lv.b_rows.nbytes for lv in p.levels)
    assert peak < 6 * 2**20
    assert kept <= 2 * 2**20


def test_winner_masks_and_choice_points_are_blocked():
    beats = random_deterministic(16, np.random.default_rng(45)).beats
    _subsetdp.plan(16)
    assert _traced_peak(lambda: _subsetdp.winner_masks(16, beats))[1] < 4 * 2**20
    assert _traced_peak(lambda: _subsetdp.choice_points(16, beats))[1] < 24 * 2**20


def test_sweep_is_blocked():
    # A warm sweep at the exact limit keeps its temporaries to a few
    # blocks instead of the full |S| = 8 level (about 230 MB unblocked).
    t = random_probabilistic(16, np.random.default_rng(44))
    _subsetdp.sweep(16, t.probs)
    assert _traced_peak(lambda: _subsetdp.sweep(16, t.probs))[1] < 32 * 2**20


def test_warm_sweep_working_set():
    # Half products and reused buffers: the 1.6 MB |S| = 8 table, half a
    # MiB of block buffers and one gather's temporary, 2.8 MiB traced
    # (4.7 MiB before).
    t = random_probabilistic(16, np.random.default_rng(44))
    _subsetdp.sweep(16, t.probs)
    assert _traced_peak(lambda: _subsetdp.sweep(16, t.probs))[1] < 3 * 2**20


def test_choice_points_working_set():
    # 5.6 MiB traced (12.8 MiB before); the bound is 1.25 times that.
    beats = random_deterministic(16, np.random.default_rng(45)).beats
    _subsetdp.plan(16)
    assert _traced_peak(lambda: _subsetdp.choice_points(16, beats))[1] < 7 * 2**20


@pytest.mark.parametrize("seed", range(6))
def test_sweep_equals_per_block_reference(seed):
    t = random_probabilistic(16, np.random.default_rng(300 + seed))
    for matrix in (t.probs, (t.probs > 0.5).astype(float)):
        assert _subsetdp.sweep(16, matrix).tobytes() == reference_sweep(16, matrix).tobytes()


def _recurrences(n, with_choice_points=True):
    t = random_probabilistic(n, np.random.default_rng(46))
    beats = t.probs > 0.5
    out = [_subsetdp.sweep(n, t.probs), _subsetdp.sweep(n, beats.astype(float)),
           np.array(_subsetdp.winner_masks(n, beats))]
    if with_choice_points:
        out += _subsetdp.choice_points(n, beats)
    return [a.tobytes() for a in out]


def _block_rows(n, case):
    """A value of ``_BLOCK_ROWS``; float recurrences take a quarter of it."""
    levels = _subsetdp.plan(n).levels
    return {
        "one_halving": 1,
        # one parent of the |S| = n/2 level per float block, and the full
        # set in chunks of that many halvings
        "one_parent": 4 * levels[-2].k,
        "odd": 1007,
        "default": _subsetdp._BLOCK_ROWS,
        "whole_level": 4 * max(len(level.a_rows) for level in levels) + 4,
    }[case]


@pytest.mark.parametrize("n, case", [
    (8, "one_halving"), (8, "one_parent"), (8, "odd"), (8, "default"), (8, "whole_level"),
    (16, "one_parent"), (16, "odd"), (16, "default"), (16, "whole_level"),
])
def test_results_do_not_depend_on_the_block_size(n, case, monkeypatch):
    # choice_points' whole-level buffers at n = 16 would take about 460 MB;
    # n = 8 covers that case for it.
    with_cp = (n, case) != (16, "whole_level")
    expected = _recurrences(n, with_cp)
    monkeypatch.setattr(_subsetdp, "_BLOCK_ROWS", _block_rows(n, case))
    assert _recurrences(n, with_cp) == expected


def test_cli_import_builds_no_plan():
    src = Path(_subsetdp.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import drawfix.cli, drawfix._subsetdp as s; "
            "print(s.plan.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "0"
