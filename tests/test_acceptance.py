"""Acceptance gate: thirteen checks the toolkit must pass, one test each.

Run ``pytest tests/test_acceptance.py -v`` for one PASS/FAIL line per
criterion; each test also prints its own PASS line (visible with -s).
Tolerances are stated inline and must not be loosened.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_deterministic, random_probabilistic
from drawfix import (
    CrParams,
    DeterministicTournament,
    Draw,
    EmpiricalSample,
    PlayerTable,
    count_winning_draws,
    enumerate_winning_draws,
    exact_uniform_win_probs,
    find_winning_draw,
    fit_lognormal,
    fit_power_law,
    generate_cr,
    ks_two_sample,
    likelihood_ratio_test,
    num_draws,
    sample_uniform_win_probs,
    scan_cr,
    simulate,
)
from drawfix.cli import main as cli_main
from drawfix.stats import _kolmogorov_sf
from drawfix.winprob import bracket_survival

import oracle

ROOT = Path(__file__).parent.parent


def fixtures(n: int, count: int = 100):
    return [random_deterministic(n, np.random.default_rng(1000 + n * 1000 + i))
            for i in range(count)]


def enumerated_counts_via_simulate(t):
    n = t.players.n
    counts = [0] * n
    for tree in oracle.all_draws(range(n)):
        draw = Draw(leaves=tuple(oracle.tree_leaves(tree)))
        counts[simulate(draw, t)] += 1
    return counts


def report(label: str) -> None:
    print(f"PASS {label}")


def test_criterion_01_draw_count_identity():
    start = time.perf_counter()
    for seed in (1, 2, 3):
        t = random_deterministic(16, np.random.default_rng(seed))
        assert sum(count_winning_draws(t).counts) == 638_512_875
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"16-player counting took {elapsed:.2f}s"
    report("criterion 1: 16-player counts sum to 638,512,875 in "
           f"{elapsed:.2f}s (< 5s)")


def test_criterion_02_oracle_equivalence():
    for n in (4, 8):
        for t in fixtures(n):
            brute = enumerated_counts_via_simulate(t)
            assert list(count_winning_draws(t).counts) == brute
            searched = [
                sum(1 for _ in enumerate_winning_draws(t, target))
                for target in range(n)
            ]
            assert searched == brute
    report("criterion 2: enumeration, subset DP and search agree on "
           "100 fixtures at n=4 and n=8")


def test_criterion_03_tfp_consistency():
    checked = 0
    for n in (4, 8):
        for t in fixtures(n):
            counts = count_winning_draws(t).counts
            for target in range(n):
                found = find_winning_draw(t, target)
                assert (found.draw is not None) == (counts[target] > 0)
                if found.draw is not None:
                    assert simulate(found.draw, t) == target
                for draw in enumerate_winning_draws(t, target):
                    assert simulate(draw, t) == target
                checked += 1
    report(f"criterion 3: find/enumerate verified via simulate on "
           f"{checked} player instances")


def test_criterion_04_condorcet_extremes():
    rng = np.random.default_rng(44)
    beats = rng.random((16, 16)) < 0.5
    iu = np.triu_indices(16, k=1)
    full = np.zeros((16, 16), dtype=bool)
    full[iu] = beats[iu]
    full.T[iu] = ~beats[iu]
    full[0, :] = True   # player 0 beats everyone
    full[:, 0] = False
    full[15, :] = False  # player 15 loses to everyone
    full[:, 15] = True
    full[0, 0] = full[15, 15] = False
    full[0, 15] = True
    t = DeterministicTournament(players=PlayerTable.default(16), beats=full)
    counts = count_winning_draws(t).counts
    assert counts[0] == num_draws(16)
    assert counts[15] == 0
    report("criterion 4: Condorcet winner takes every draw, "
           "all-losing player takes none")


def test_criterion_05_exact_win_probabilities():
    for n in (2, 4, 8):
        trees = oracle.all_draws(range(n))
        for i in range(5):
            t = random_probabilistic(n, np.random.default_rng(500 + 10 * n + i))
            acc = np.zeros(n)
            for tree in trees:
                draw = Draw(leaves=tuple(oracle.tree_leaves(tree)))
                acc += bracket_survival(t.probs, np.array([draw.leaves]))[0]
            brute = acc / len(trees)
            got = np.asarray(exact_uniform_win_probs(t).entries)
            assert np.abs(got - brute).max() < 1e-12
        uniform = np.full((n, n), 0.5)
        t = type(t)(players=PlayerTable.default(n), probs=uniform)
        got = np.asarray(exact_uniform_win_probs(t).entries)
        assert np.abs(got - 1.0 / n).max() < 1e-12
    report("criterion 5: exact vector equals brute-force average within "
           "1e-12 at n=2,4,8; uniform matrix gives 1/n")


def test_criterion_06_sampler_convergence():
    t = generate_cr(CrParams(n=16, upset_prob=0.3))
    exact = np.asarray(exact_uniform_win_probs(t).entries)
    start = time.perf_counter()
    sampled = sample_uniform_win_probs(t, samples=200_000, rng=0,
                                       mode="per-draw-exact")
    elapsed = time.perf_counter() - start
    err = np.abs(np.asarray(sampled.entries) - exact).max()
    assert err < 0.005, f"max sampling error {err:.5f}"
    assert elapsed < 60.0, f"sampling took {elapsed:.1f}s"
    report(f"criterion 6: 200,000 samples within {err:.5f} (< 0.005) "
           f"of exact in {elapsed:.1f}s (< 60s)")


def test_criterion_07_ks_correctness():
    s = EmpiricalSample.from_values([0.3, 0.7, 1.1])
    res = ks_two_sample(s, s)
    assert res.statistic == 0.0

    rng = np.random.default_rng(77)
    for _ in range(20):
        a = list(rng.random(3))
        b = list(rng.random(3) + rng.uniform(0, 0.5))
        got = ks_two_sample(EmpiricalSample.from_values(a),
                            EmpiricalSample.from_values(b))
        assert got.p_value == pytest.approx(oracle.ks_permutation_p(a, b),
                                            abs=1e-12)

    worst = 0.0
    for _ in range(100):
        a = EmpiricalSample.from_values(rng.random(16))
        b = EmpiricalSample.from_values(rng.random(16) + rng.uniform(0, 0.4))
        perm = ks_two_sample(a, b)
        asym = _kolmogorov_sf(math.sqrt(16 * 16 / 32) * perm.statistic)
        worst = max(worst, abs(perm.p_value - asym))
    assert worst <= 0.02, f"asymptotic drifted {worst:.4f} from permutation"
    report(f"criterion 7: d=0 on identical samples; tiny-case p exact; "
           f"asymptotic within {worst:.4f} (<= 0.02) of permutation at 16v16")


def test_criterion_08_scan_self_consistency():
    near = EmpiricalSample.from_win_probs(
        exact_uniform_win_probs(generate_cr(CrParams(n=16, upset_prob=0.30))))
    result = scan_cr(near, step=0.01, threshold=0.05)
    assert result.min_accepted <= 0.30 <= result.max_accepted

    far = EmpiricalSample.from_win_probs(
        exact_uniform_win_probs(generate_cr(CrParams(n=16, upset_prob=0.05))))
    far_result = scan_cr(far, step=0.01, threshold=0.05)
    step_30 = next(s for s in far_result.steps
                   if abs(s.upset_prob - 0.30) < 1e-9)
    assert not step_30.accepted
    report(f"criterion 8: CR(0.30) reference accepts 0.30 "
           f"(range [{result.min_accepted:.2f}, {result.max_accepted:.2f}]); "
           f"CR(0.05) reference rejects it (p={step_30.ks.p_value:.4f})")


def test_criterion_09_fit_recovery():
    rng = np.random.default_rng(99)
    mu, sigma = -4.0717, 1.2611
    ln = fit_lognormal(EmpiricalSample.from_values(
        rng.lognormal(mean=mu, sigma=sigma, size=10_000)))
    assert abs(ln.mu - mu) < 0.05
    assert abs(ln.sigma - sigma) < 0.05

    pl = fit_power_law(EmpiricalSample.from_values(
        oracle.powerlaw_sample(rng, 2.5, 1.0, 10_000)))
    assert abs(pl.alpha - 2.5) < 0.05
    report(f"criterion 9: recovered mu={ln.mu:.4f}, sigma={ln.sigma:.4f}, "
           f"alpha={pl.alpha:.4f}, all within 0.05 of truth")


def test_criterion_10_lrt_direction():
    favored = 0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        s = EmpiricalSample.from_values(
            rng.lognormal(mean=-4.0717, sigma=1.2611, size=10_000))
        res = likelihood_ratio_test(s, fit_lognormal(s), fit_power_law(s))
        if res.r > 0:
            favored += 1
    assert favored >= 18, f"log-normal favored in only {favored}/20 seeds"

    s = EmpiricalSample.from_values(
        oracle.powerlaw_sample(np.random.default_rng(7), 2.5, 1.0, 200))
    fit = fit_power_law(s)
    tie = likelihood_ratio_test(s, fit, fit)
    assert tie.r == 0.0 and tie.p_value == 1.0
    report(f"criterion 10: log-normal favored in {favored}/20 seeds (>= 18); "
           "identical fits give r=0, p=1")


def test_criterion_11_synthetic_substitution_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8").lower()
    assert "synthetic" in readme
    assert "not distributed" in readme or "proprietary" in readme
    for name in ("soccer_matches.csv", "soccer_ranks.csv", "tennis_h2h.csv",
                 "tennis_ranks.csv", "mini_matches.csv", "mini_ranks.csv"):
        assert (ROOT / "data" / name).is_file(), f"missing fixture {name}"
    expected = json.loads(
        (ROOT / "data" / "expected" / "mini_counts.json").read_text())
    assert expected["total_draws"] == 315
    assert (ROOT / "tools" / "make_synthetic_data.py").is_file()
    report("criterion 11: synthetic fixtures committed with expected outputs "
           "and the substitution documented in the README")


def test_criterion_12_cli_reproducibility(tmp_path):
    matrix = tmp_path / "cr.json"
    assert cli_main(["gen-cr", "--players", "16", "--upset-prob", "0.3",
                     "--output", str(matrix)]) == 0
    runs = []
    for tag in ("a", "b"):
        wp = tmp_path / f"wp-{tag}.json"
        sc = tmp_path / f"scan-{tag}.csv"
        assert cli_main(["winprob", "--input", str(matrix), "--mode",
                         "full-simulation", "--samples", "30000", "--seed",
                         "5", "--workers", "2", "--output", str(wp)]) == 0
        assert cli_main(["scan", "--input", str(matrix), "--step", "0.1",
                         "--format", "csv", "--output", str(sc)]) == 0
        runs.append((wp.read_bytes(), sc.read_bytes()))
    assert runs[0] == runs[1]
    report("criterion 12: repeated CLI runs with fixed config, seed and "
           "workers are byte-identical")


def test_criterion_13_full_enumeration_effort(tmp_path):
    out = tmp_path / "count.json"
    start = time.perf_counter()
    assert cli_main(["count", "--input", str(ROOT / "data" / "soccer_matches.csv"),
                     "--ranks", str(ROOT / "data" / "soccer_ranks.csv"),
                     "--stats", "all", "--output", str(out)]) == 0
    elapsed = time.perf_counter() - start
    players = json.loads(out.read_text())["data"]["players"]
    assert all(p["nodes_all"] is not None for p in players)
    assert elapsed < 5.0, f"soccer count --stats all took {elapsed:.2f}s"
    report(f"criterion 13: full-enumeration choice points for all 16 soccer "
           f"players in {elapsed:.2f}s (< 5s)")
