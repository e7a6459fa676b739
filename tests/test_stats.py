import math
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats

from drawfix import (
    CrParams,
    EmpiricalSample,
    FitResult,
    UndefinedTestError,
    ccdf_points,
    ecdf_points,
    exact_uniform_win_probs,
    fit_lognormal,
    fit_power_law,
    generate_cr,
    ks_two_sample,
    likelihood_ratio_test,
    read_matches,
    read_ranks,
    scan_cr,
    soccer_to_tournaments,
)
from drawfix import stats
from drawfix.stats import MIN_SCAN_STEP, ScanResult, ScanStep, _cr_win_prob_sample

import oracle


class TestEmpiricalSample:
    def test_from_values_sorts(self):
        s = EmpiricalSample.from_values([3.0, 1.0, 2.0])
        assert s.values == (1.0, 2.0, 3.0)
        assert s.size == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            EmpiricalSample.from_values([1.0, 0.0])
        with pytest.raises(ValueError):
            EmpiricalSample.from_values([1.0, -2.0])
        with pytest.raises(ValueError):
            EmpiricalSample.from_values([])

    def test_rejects_unsorted_direct_construction(self):
        with pytest.raises(ValueError):
            EmpiricalSample(values=(2.0, 1.0))

    def test_from_win_probs(self):
        t = generate_cr(CrParams(n=4, upset_prob=0.4))
        s = EmpiricalSample.from_win_probs(exact_uniform_win_probs(t))
        assert s.size == 4
        assert math.fsum(s.values) == pytest.approx(1.0)

    def test_ecdf_and_ccdf(self):
        s = EmpiricalSample.from_values([1.0, 1.0, 2.0])
        assert ecdf_points(s) == [(1.0, pytest.approx(2 / 3)), (2.0, 1.0)]
        assert ccdf_points(s) == [(1.0, pytest.approx(1 / 3)), (2.0, 0.0)]


class TestKsStatistic:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(81)
        for _ in range(40):
            na, nb = rng.integers(2, 12, size=2)
            a = list(rng.integers(0, 6, size=na) + 0.5)  # plenty of ties
            b = list(rng.integers(0, 6, size=nb) + 0.5)
            res = ks_two_sample(EmpiricalSample.from_values(a),
                                EmpiricalSample.from_values(b),
                                method="asymptotic")
            assert res.statistic == pytest.approx(oracle.ks_statistic(a, b),
                                                  abs=1e-12)

    def test_identical_samples(self):
        s = EmpiricalSample.from_values([1.0, 2.0, 3.0])
        res = ks_two_sample(s, s, method="permutation")
        assert res.statistic == 0.0
        assert res.p_value == 1.0


class TestKsPermutation:
    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(82)
        for _ in range(10):
            na, nb = rng.integers(3, 6, size=2)
            a = list(rng.random(na))
            b = list(rng.random(nb) * 1.5)
            res = ks_two_sample(EmpiricalSample.from_values(a),
                                EmpiricalSample.from_values(b),
                                method="permutation")
            assert res.p_value == pytest.approx(oracle.ks_permutation_p(a, b),
                                                abs=1e-12)
            assert res.resamples is None

    def test_with_ties_matches_enumeration_oracle(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            a = list(rng.integers(0, 4, size=5) * 1.0 + 1)
            b = list(rng.integers(0, 4, size=4) * 1.0 + 1)
            res = ks_two_sample(EmpiricalSample.from_values(a),
                                EmpiricalSample.from_values(b),
                                method="permutation")
            assert res.p_value == pytest.approx(oracle.ks_permutation_p(a, b),
                                                abs=1e-12)

    def test_agrees_with_scipy_exact(self):
        rng = np.random.default_rng(84)
        a = list(rng.random(8))
        b = list(rng.random(8) + 0.2)
        res = ks_two_sample(EmpiricalSample.from_values(a),
                            EmpiricalSample.from_values(b),
                            method="permutation")
        ref = scipy.stats.ks_2samp(a, b, method="exact")
        assert res.statistic == pytest.approx(ref.statistic, abs=1e-12)
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-9)

    @pytest.mark.parametrize("na,nb", [(12, 13), (9, 16), (16, 15)])
    def test_unequal_sizes_agree_with_scipy_exact(self, na, nb):
        # Tie-free, with millions of splits (5.2M at 12 v 13).
        rng = np.random.default_rng(89)
        a = list(rng.random(na))
        b = list(rng.random(nb) + 0.25)
        res = ks_two_sample(EmpiricalSample.from_values(a),
                            EmpiricalSample.from_values(b))
        ref = scipy.stats.ks_2samp(a, b, method="exact")
        assert res.method == "permutation"
        assert res.resamples is None
        assert res.statistic == pytest.approx(ref.statistic, abs=1e-12)
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-9)


class TestKsAsymptotic:
    def test_classical_limit_formula(self):
        rng = np.random.default_rng(87)
        a = list(rng.random(60))
        b = list(rng.random(80) + 0.1)
        res = ks_two_sample(EmpiricalSample.from_values(a),
                            EmpiricalSample.from_values(b),
                            method="asymptotic")
        en = math.sqrt(60 * 80 / 140)
        want = scipy.special.kolmogorov(en * res.statistic)
        assert res.p_value == pytest.approx(want, rel=1e-12)
        # scipy's asymp mode uses a finite-size refinement; the two
        # approximations must still land close together
        ref = scipy.stats.ks_2samp(a, b, method="asymp")
        assert res.p_value == pytest.approx(ref.pvalue, abs=0.02)

    def test_auto_switches_on_pooled_size(self):
        rng = np.random.default_rng(88)
        small_a = EmpiricalSample.from_values(rng.random(16))
        small_b = EmpiricalSample.from_values(rng.random(16))
        large_a = EmpiricalSample.from_values(rng.random(17))
        large_b = EmpiricalSample.from_values(rng.random(16))
        assert ks_two_sample(small_a, small_b).method == "permutation"
        assert ks_two_sample(large_a, large_b).method == "asymptotic"


class TestPowerLawFit:
    def test_two_point_closed_form(self):
        s = EmpiricalSample.from_values([1.0, math.e])
        fit = fit_power_law(s, xmin=1.0)
        assert fit.alpha == pytest.approx(3.0, abs=1e-12)
        assert fit.xmin == 1.0
        assert fit.sample_size == 2

    def test_loglik_matches_oracle(self):
        rng = np.random.default_rng(91)
        vals = oracle.powerlaw_sample(rng, 2.5, 1.0, 200)
        s = EmpiricalSample.from_values(vals)
        fit = fit_power_law(s)
        assert fit.log_likelihood == pytest.approx(
            oracle.powerlaw_loglik(vals, fit.alpha, fit.xmin), rel=1e-12)

    def test_mle_maximises_likelihood(self):
        rng = np.random.default_rng(92)
        vals = oracle.powerlaw_sample(rng, 2.2, 0.5, 300)
        s = EmpiricalSample.from_values(vals)
        fit = fit_power_law(s)
        at = oracle.powerlaw_loglik(vals, fit.alpha, fit.xmin)
        assert at > oracle.powerlaw_loglik(vals, fit.alpha + 0.01, fit.xmin)
        assert at > oracle.powerlaw_loglik(vals, fit.alpha - 0.01, fit.xmin)

    def test_parameter_recovery(self):
        rng = np.random.default_rng(93)
        for alpha in (1.8, 2.5, 3.4):
            vals = oracle.powerlaw_sample(rng, alpha, 1.0, 5000)
            fit = fit_power_law(EmpiricalSample.from_values(vals))
            assert fit.alpha == pytest.approx(alpha, abs=0.1)

    def test_explicit_xmin_truncates(self):
        s = EmpiricalSample.from_values([0.5, 0.8, 1.0, 2.0, 4.0])
        fit = fit_power_law(s, xmin=1.0)
        assert fit.sample_size == 3

    def test_scan_finds_contaminated_cutoff(self):
        rng = np.random.default_rng(94)
        tail = oracle.powerlaw_sample(rng, 2.5, 1.0, 2000)
        noise = list(rng.uniform(0.05, 1.0, size=400))
        fit = fit_power_law(EmpiricalSample.from_values(tail + noise), scan=True)
        assert 0.5 <= fit.xmin <= 2.0

    def test_scan_and_xmin_exclusive(self):
        s = EmpiricalSample.from_values([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_power_law(s, xmin=1.0, scan=True)

    def test_survival_closed_form(self):
        s = EmpiricalSample.from_values([1.0, 2.0, 4.0, 8.0])
        fit = fit_power_law(s, xmin=1.0)
        xs = np.array([1.0, 2.0, 5.0])
        want = (xs / fit.xmin) ** (1.0 - fit.alpha)
        assert np.allclose(fit.survival(xs), want)


class TestLogNormalFit:
    def test_moments_match_log_sample(self):
        rng = np.random.default_rng(95)
        vals = list(rng.lognormal(mean=-1.0, sigma=0.7, size=500))
        fit = fit_lognormal(EmpiricalSample.from_values(vals))
        logs = np.log(vals)
        assert fit.mu == pytest.approx(logs.mean(), rel=1e-12)
        assert fit.sigma == pytest.approx(logs.std(), rel=1e-12)

    def test_loglik_matches_oracle(self):
        rng = np.random.default_rng(96)
        vals = list(rng.lognormal(mean=0.5, sigma=1.2, size=150))
        fit = fit_lognormal(EmpiricalSample.from_values(vals))
        assert fit.log_likelihood == pytest.approx(
            oracle.lognormal_loglik(vals, fit.mu, fit.sigma), rel=1e-12)

    def test_parameter_recovery(self):
        rng = np.random.default_rng(97)
        fit = fit_lognormal(EmpiricalSample.from_values(
            rng.lognormal(mean=-2.0, sigma=0.9, size=8000)))
        assert fit.mu == pytest.approx(-2.0, abs=0.05)
        assert fit.sigma == pytest.approx(0.9, abs=0.05)

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError):
            fit_lognormal(EmpiricalSample.from_values([2.0, 2.0, 2.0]))

    def test_survival_matches_scipy(self):
        rng = np.random.default_rng(98)
        vals = list(rng.lognormal(mean=0.0, sigma=0.5, size=100))
        fit = fit_lognormal(EmpiricalSample.from_values(vals))
        xs = np.array([0.5, 1.0, 2.0])
        ref = scipy.stats.lognorm.sf(xs, s=fit.sigma, scale=math.exp(fit.mu))
        assert np.allclose(fit.survival(xs), ref)


class TestLikelihoodRatio:
    def test_lognormal_data_favors_lognormal(self):
        rng = np.random.default_rng(101)
        vals = rng.lognormal(mean=-1.5, sigma=0.8, size=2000)
        s = EmpiricalSample.from_values(vals)
        res = likelihood_ratio_test(s, fit_lognormal(s), fit_power_law(s))
        assert res.r > 0
        assert res.favored == "log-normal"
        assert res.p_value < 0.05

    def test_powerlaw_data_favors_powerlaw(self):
        rng = np.random.default_rng(102)
        vals = oracle.powerlaw_sample(rng, 2.2, 1.0, 2000)
        s = EmpiricalSample.from_values(vals)
        res = likelihood_ratio_test(s, fit_lognormal(s), fit_power_law(s))
        assert res.r < 0
        assert res.favored == "power-law"

    def test_identical_fits_inconclusive(self):
        rng = np.random.default_rng(103)
        s = EmpiricalSample.from_values(oracle.powerlaw_sample(rng, 2.5, 1.0, 50))
        fit = fit_power_law(s)
        res = likelihood_ratio_test(s, fit, fit)
        assert res.r == 0.0
        assert res.p_value == 1.0
        assert res.favored is None

    def test_constant_difference_is_undefined(self):
        s = EmpiricalSample.from_values([4.0, 4.0, 4.0, 4.0])
        first = FitResult(family="power-law", log_likelihood=0.0, sample_size=4,
                          support_min=1.0, alpha=2.0, xmin=1.0)
        second = FitResult(family="power-law", log_likelihood=0.0, sample_size=4,
                           support_min=1.0, alpha=3.0, xmin=1.0)
        with pytest.raises(UndefinedTestError):
            likelihood_ratio_test(s, first, second)

    def test_mismatched_truncation_rejected(self):
        rng = np.random.default_rng(104)
        vals = list(rng.lognormal(mean=0.0, sigma=1.0, size=100))
        s = EmpiricalSample.from_values(vals)
        full = fit_lognormal(s)
        truncated = fit_power_law(s, xmin=float(np.median(vals)))
        with pytest.raises(ValueError):
            likelihood_ratio_test(s, full, truncated)

    def test_favors_symmetry(self):
        rng = np.random.default_rng(105)
        vals = rng.lognormal(mean=-1.0, sigma=0.6, size=500)
        s = EmpiricalSample.from_values(vals)
        ln, pl = fit_lognormal(s), fit_power_law(s)
        fwd = likelihood_ratio_test(s, ln, pl)
        rev = likelihood_ratio_test(s, pl, ln)
        assert fwd.r == pytest.approx(-rev.r)
        assert fwd.p_value == pytest.approx(rev.p_value)
        assert fwd.favored == rev.favored


class TestScanCr:
    def test_truth_is_accepted(self):
        t = generate_cr(CrParams(n=8, upset_prob=0.3))
        reference = EmpiricalSample.from_win_probs(exact_uniform_win_probs(t))
        result = scan_cr(reference, 8, step=0.1, threshold=0.05,
                         reference_avg_upset=0.3)
        accepted = [s.upset_prob for s in result.steps if s.accepted]
        assert 0.3 in [pytest.approx(u) for u in accepted]
        assert result.min_accepted <= 0.3 <= result.max_accepted
        assert result.reference_avg_upset == 0.3

    def test_exact_match_step_has_p_one(self):
        t = generate_cr(CrParams(n=16, upset_prob=0.4))
        reference = EmpiricalSample.from_win_probs(exact_uniform_win_probs(t))
        result = scan_cr(reference, 16, step=0.1)
        by_u = {round(s.upset_prob, 3): s for s in result.steps}
        assert by_u[0.4].ks.statistic == 0.0
        assert by_u[0.4].ks.p_value == 1.0

    def test_grid_covers_half_inclusive(self):
        t = generate_cr(CrParams(n=4, upset_prob=0.25))
        reference = EmpiricalSample.from_win_probs(exact_uniform_win_probs(t))
        result = scan_cr(reference, 4, step=0.05)
        grid = [round(s.upset_prob, 3) for s in result.steps]
        assert grid[0] == 0.05
        assert grid[-1] == 0.5
        assert len(grid) == 10

    def test_step_bounds(self):
        reference = EmpiricalSample.from_values([0.1, 0.2, 0.3, 0.4])
        for step in (0.0, 1e-9, 0.000999, 0.51):
            with pytest.raises(ValueError, match="step"):
                scan_cr(reference, 4, step=step)

    def test_size_mismatch_rejected(self):
        reference = EmpiricalSample.from_values([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            scan_cr(reference, 8)

    def test_nothing_accepted_reports_none(self):
        # an extreme reference no grid point can explain
        reference = EmpiricalSample.from_values(
            [1e-9] * 15 + [1.0 - 15e-9])
        result = scan_cr(reference, 16, step=0.1, threshold=0.05)
        assert result.min_accepted is None
        assert result.max_accepted is None

    def test_model_cache_holds_one_finest_scan(self):
        # Each step below gives a different grid; together they name
        # 1447 distinct upset probabilities.
        reference = EmpiricalSample.from_values([0.1, 0.2, 0.3, 0.4])
        _cr_win_prob_sample.cache_clear()
        for step in (0.001, 0.0011, 0.0013, 0.0017):
            scan_cr(reference, 4, step=step)
        assert _cr_win_prob_sample.cache_info().currsize <= round(0.5 / MIN_SCAN_STEP) == 500


def _direct_scan(reference, n, step, threshold=0.05):
    """scan_cr's grid loop with one exact sweep per grid point."""
    steps = []
    k = 1
    while round(k * step, 10) <= 0.5:
        u = round(k * step, 10)
        ks = ks_two_sample(reference, _cr_win_prob_sample(n, u))
        steps.append(ScanStep(upset_prob=u, ks=ks, accepted=ks.p_value >= threshold))
        k += 1
    accepted = [s.upset_prob for s in steps if s.accepted]
    return ScanResult(
        steps=tuple(steps),
        threshold=threshold,
        min_accepted=min(accepted) if accepted else None,
        max_accepted=max(accepted) if accepted else None,
    )


def _reference(kind, n, step):
    if kind == "lognormal":
        rng = np.random.default_rng(1000 * n + round(1e4 * step))
        return EmpiricalSample.from_values(rng.lognormal(-2.0, 1.0, size=n))
    if kind == "on-grid":  # the model vector at the grid point nearest 0.3
        u = round(max(1, round(0.3 / step)) * step, 10)
        return EmpiricalSample.from_win_probs(
            exact_uniform_win_probs(generate_cr(CrParams(n, u))))
    return EmpiricalSample.from_values([1e-9] * (n - 1) + [1.0 - (n - 1) * 1e-9])


_EQUIVALENCE_CASES = [
    (n, step, kind)
    for n in (1, 2, 4, 8)
    for step in (0.001, 0.0013, 0.05, 0.5)
    for kind in ("lognormal", "on-grid", "ties")
]


class TestScanCrMatchesDirectSweeps:
    @pytest.mark.parametrize("n,step,kind", _EQUIVALENCE_CASES)
    def test_small_fields(self, n, step, kind):
        reference = _reference(kind, n, step)
        assert scan_cr(reference, n, step=step) == _direct_scan(reference, n, step)

    def test_sixteen_players(self):
        data = Path(__file__).parent.parent / "data"
        _, prob = soccer_to_tournaments(read_matches(data / "soccer_matches.csv"),
                                        read_ranks(data / "soccer_ranks.csv"))
        soccer = EmpiricalSample.from_win_probs(exact_uniform_win_probs(prob))
        cr = EmpiricalSample.from_win_probs(
            exact_uniform_win_probs(generate_cr(CrParams(16, 0.3))))
        for reference in (soccer, cr):
            assert scan_cr(reference, 16) == _direct_scan(reference, 16, 0.01)

    def test_sweep_count_does_not_grow_with_the_grid(self, monkeypatch):
        calls = []
        real = stats.exact_uniform_win_probs

        def counted(t):
            calls.append(t.n)
            return real(t)

        monkeypatch.setattr(stats, "exact_uniform_win_probs", counted)
        stats._cr_curve.cache_clear()
        _cr_win_prob_sample.cache_clear()
        reference = _reference("lognormal", 8, 0.001)
        scan_cr(reference, 8, step=0.001)
        assert len(calls) <= 8 // 2 + 8

    def test_curve_misses_fair_coin_raises(self, monkeypatch):
        # every node swept at one upset probability: not the model's curve
        monkeypatch.setattr(stats, "generate_cr",
                            lambda p: generate_cr(CrParams(p.n, 0.3)))
        stats._cr_curve.cache_clear()
        with pytest.raises(RuntimeError, match="bug"):
            stats._cr_curve(4)
