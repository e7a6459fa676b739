import math
from fractions import Fraction
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
    drop_player,
    ecdf_points,
    exact_uniform_win_probs,
    fit_lognormal,
    fit_power_law,
    generate_cr,
    ks_two_sample,
    likelihood_ratio_test,
    read_h2h,
    read_matches,
    read_ranks,
    scan_cr,
    soccer_to_tournaments,
    tennis_to_tournaments,
)
from drawfix import _subsetdp, stats
from drawfix.stats import _RANK_PROB_TOL, ScanResult, ScanStep, _cr_rank_probs

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
                                EmpiricalSample.from_values(b))
            assert res.statistic == pytest.approx(oracle.ks_statistic(a, b),
                                                  abs=1e-12)

    def test_identical_samples(self):
        s = EmpiricalSample.from_values([1.0, 2.0, 3.0])
        res = ks_two_sample(s, s)
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
                                EmpiricalSample.from_values(b))
            assert res.p_value == pytest.approx(oracle.ks_permutation_p(a, b),
                                                abs=1e-12)
            assert res.resamples is None

    def test_with_ties_matches_enumeration_oracle(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            a = list(rng.integers(0, 4, size=5) * 1.0 + 1)
            b = list(rng.integers(0, 4, size=4) * 1.0 + 1)
            res = ks_two_sample(EmpiricalSample.from_values(a),
                                EmpiricalSample.from_values(b))
            assert res.p_value == pytest.approx(oracle.ks_permutation_p(a, b),
                                                abs=1e-12)

    def test_agrees_with_scipy_exact(self):
        rng = np.random.default_rng(84)
        a = list(rng.random(8))
        b = list(rng.random(8) + 0.2)
        res = ks_two_sample(EmpiricalSample.from_values(a),
                            EmpiricalSample.from_values(b))
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
                            EmpiricalSample.from_values(b))
        en = math.sqrt(60 * 80 / 140)
        want = scipy.special.kolmogorov(en * res.statistic)
        assert res.p_value == pytest.approx(want, rel=1e-12)
        # scipy's asymp mode uses a finite-size refinement; the two
        # approximations must still land close together
        ref = scipy.stats.ks_2samp(a, b, method="asymp")
        assert res.p_value == pytest.approx(ref.pvalue, abs=0.02)

    def test_series_matches_scipy(self):
        # both sides of the switch between the two series at lam = 1
        switch = [1 - 1e-12, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-12]
        lams = np.concatenate([np.linspace(0.001, 9.0, 4500), switch])
        got = np.array([stats._kolmogorov_sf(float(x)) for x in lams])
        want = scipy.special.kolmogorov(lams)
        assert np.all(np.abs(got - want) <= 5e-15)
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    def test_series_bounds(self):
        assert stats._kolmogorov_sf(0.0) == 1.0
        assert stats._kolmogorov_sf(-1.0) == 1.0
        assert stats._kolmogorov_sf(1e-300) == 1.0
        lams = np.arange(19.0, 31.0, 0.01)
        underflow = lams[scipy.special.kolmogorov(lams) == 0.0]
        assert underflow.size > 1000
        assert all(stats._kolmogorov_sf(float(x)) == 0.0 for x in underflow)

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

    def test_survival_matches_scipy_to_rounding(self):
        rng = np.random.default_rng(99)
        fit = fit_lognormal(EmpiricalSample.from_values(
            rng.lognormal(mean=-2.5, sigma=0.8, size=16)))
        z = np.concatenate([np.linspace(-6.0, 6.0, 13), rng.uniform(-6.0, 6.0, 200)])
        xs = np.exp(fit.mu + fit.sigma * z)
        ref = scipy.stats.lognorm.sf(xs, s=fit.sigma, scale=math.exp(fit.mu))
        np.testing.assert_allclose(fit.survival(xs), ref, rtol=1e-13, atol=0)

    def test_survival_keeps_the_input_shape(self):
        fit = fit_lognormal(EmpiricalSample.from_values([0.5, 1.0, 2.0, 4.0]))
        assert np.shape(fit.survival(1.5)) == ()
        assert fit.survival([0.5, 1.5, 3.0]).shape == (3,)
        grid = np.array([[0.5, 1.0, 1.5], [2.0, 3.0, 4.0]])
        surv = fit.survival(grid)
        assert surv.shape == (2, 3)
        assert surv[1, 0] == fit.survival(2.0)


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

    @pytest.mark.parametrize("family", ["log-normal", "power-law"])
    def test_p_value_matches_scipy(self, family):
        rng = np.random.default_rng(106)
        for _ in range(10):
            if family == "log-normal":
                vals = rng.lognormal(mean=-1.0, sigma=0.7, size=300)
            else:
                vals = oracle.powerlaw_sample(rng, 2.4, 1.0, 300)
            s = EmpiricalSample.from_values(vals)
            res = likelihood_ratio_test(s, fit_lognormal(s), fit_power_law(s))
            ref = scipy.special.erfc(abs(res.r) / math.sqrt(2))
            assert res.p_value == pytest.approx(ref, rel=1e-13, abs=0)

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
        result = scan_cr(reference, step=0.1, threshold=0.05)
        accepted = [s.upset_prob for s in result.steps if s.accepted]
        assert 0.3 in [pytest.approx(u) for u in accepted]
        assert result.min_accepted <= 0.3 <= result.max_accepted

    def test_exact_match_step_has_p_one(self):
        reference = _exact_sample(16, 0.4)
        result = scan_cr(reference, step=0.1)
        by_u = {round(s.upset_prob, 3): s for s in result.steps}
        assert by_u[0.4].ks.statistic == 0.0
        assert by_u[0.4].ks.p_value == 1.0

    def test_grid_covers_half_inclusive(self):
        t = generate_cr(CrParams(n=4, upset_prob=0.25))
        reference = EmpiricalSample.from_win_probs(exact_uniform_win_probs(t))
        result = scan_cr(reference, step=0.05)
        grid = [round(s.upset_prob, 3) for s in result.steps]
        assert grid[0] == 0.05
        assert grid[-1] == 0.5
        assert len(grid) == 10

    def test_step_bounds(self):
        reference = EmpiricalSample.from_values([0.1, 0.2, 0.3, 0.4])
        for step in (0.0, 1e-9, 0.000999, 0.51):
            with pytest.raises(ValueError, match="step"):
                scan_cr(reference, step=step)

    def test_players_are_the_reference_size(self):
        # an old call's player count must not bind to step
        reference = EmpiricalSample.from_values([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(TypeError):
            scan_cr(reference, 4)
        with pytest.raises(TypeError):
            scan_cr(reference, step=0.1, threshold=0.05, n=4)
        with pytest.raises(ValueError, match="power of two"):
            scan_cr(EmpiricalSample.from_values([0.1, 0.2, 0.3]))

    def test_nothing_accepted_reports_none(self):
        # an extreme reference no grid point can explain
        reference = EmpiricalSample.from_values(
            [1e-9] * 15 + [1.0 - 15e-9])
        result = scan_cr(reference, step=0.1, threshold=0.05)
        assert result.min_accepted is None
        assert result.max_accepted is None


def _exact_sample(n, u):
    """The upset model at u in exact arithmetic, each entry rounded once."""
    exact = _cr_rank_probs(n, np.array([Fraction(u)], dtype=object))[0]
    return EmpiricalSample.from_values(exact.astype(float))


def _sweep_sample(n, u):
    """The model at u from one float subset sweep."""
    return EmpiricalSample.from_win_probs(exact_uniform_win_probs(generate_cr(CrParams(n, u))))


def _grid(step):
    k = 1
    while round(k * step, 10) <= 0.5:
        yield round(k * step, 10)
        k += 1


def _scan_against(reference, model_at, step, threshold=0.05):
    """scan_cr's grid loop with the model sample ``model_at(u)`` at each point."""
    steps = []
    for u in _grid(step):
        ks = ks_two_sample(reference, model_at(u))
        steps.append(ScanStep(upset_prob=u, ks=ks, accepted=ks.p_value >= threshold))
    return ScanResult(steps=tuple(steps), threshold=threshold)


def _direct_scan(reference, n, step):
    """scan_cr's contract: the KS test against the rounded exact model."""
    return _scan_against(reference, lambda u: _exact_sample(n, u), step)


def _reference(kind, n, step):
    if kind == "lognormal":
        rng = np.random.default_rng(1000 * n + round(1e4 * step))
        return EmpiricalSample.from_values(rng.lognormal(-2.0, 1.0, size=n))
    if kind == "on-grid":  # the model vector at the grid point nearest 0.3
        return _exact_sample(n, round(max(1, round(0.3 / step)) * step, 10))
    return EmpiricalSample.from_values([1e-9] * (n - 1) + [1.0 - (n - 1) * 1e-9])


DATA = Path(__file__).parent.parent / "data"


def _league_sample(name):
    _, prob = soccer_to_tournaments(read_matches(DATA / f"{name}_matches.csv"),
                                    read_ranks(DATA / f"{name}_ranks.csv"))
    return EmpiricalSample.from_win_probs(exact_uniform_win_probs(prob))


def _soccer_sample():
    return _league_sample("soccer")


def _tennis_sample():
    """The 17-player tennis field without its top seed."""
    _, prob = tennis_to_tournaments(read_h2h(DATA / "tennis_h2h.csv"),
                                    read_ranks(DATA / "tennis_ranks.csv"))
    return EmpiricalSample.from_win_probs(
        exact_uniform_win_probs(drop_player(prob, 0)))


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
        assert scan_cr(reference, step=step) == _direct_scan(reference, n, step)

    def test_sixteen_players(self):
        cr = EmpiricalSample.from_win_probs(
            exact_uniform_win_probs(generate_cr(CrParams(16, 0.3))))
        for reference in (_soccer_sample(), cr):
            for step in (0.01, 0.05, 0.1):
                assert scan_cr(reference, step=step) == _direct_scan(reference, 16, step)

    def test_fixtures_match_one_float_sweep_per_point(self):
        # The float sweep is up to 2.9e-13 relative off the exact model, yet
        # on the bundled fields no KS result at step 0.01 depends on that.
        sweeps = {n: {u: _sweep_sample(n, u) for u in _grid(0.01)} for n in (8, 16)}
        for reference in (_soccer_sample(), _league_sample("mini"), _tennis_sample()):
            n = reference.size
            want = _scan_against(reference, sweeps[n].__getitem__, 0.01)
            assert scan_cr(reference, step=0.01) == want

    @pytest.mark.parametrize("league,counts", [("soccer", 15), ("mini", 7)])
    def test_one_lattice_count_per_tie_pattern(self, league, counts):
        # 500 grid points, but a KS p-value depends only on where the pooled
        # sample's tie runs end and on the distance, so few distinct counts
        reference = _league_sample(league)
        stats._permutation_p.cache_clear()
        scan_cr(reference, step=0.001)
        assert stats._permutation_p.cache_info().misses == counts

    def test_soccer_sweeps_only_undecided_points(self, monkeypatch):
        cr = EmpiricalSample.from_win_probs(
            exact_uniform_win_probs(generate_cr(CrParams(16, 0.3))))
        references = (_soccer_sample(), _league_sample("mini"), cr)

        def no_sweep(*args, **kwargs):
            raise AssertionError("the scan ran a subset sweep")

        monkeypatch.setattr(_subsetdp, "sweep", no_sweep)
        with pytest.raises(AssertionError, match="subset sweep"):
            _sweep_sample(4, 0.3)
        for reference in references:
            for step in (0.1, 0.01, 0.001):
                scan_cr(reference, step=step)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_coin_flip_sample_is_the_exact_sweep(self, n, monkeypatch):
        sweep = exact_uniform_win_probs(generate_cr(CrParams(n, 0.5))).entries
        assert [v.hex() for v in sweep] == [(1 / n).hex()] * n
        scored = []
        ks_rows = stats._ks_rows

        def spy(reference, model):
            scored.append(model.tolist())
            return ks_rows(reference, model)

        def no_sample(self, values):
            raise AssertionError("the scan built an EmpiricalSample")

        reference = EmpiricalSample.from_values(np.arange(1.0, n + 1) / (n * (n + 1) / 2))
        monkeypatch.setattr(stats, "_ks_rows", spy)
        monkeypatch.setattr(EmpiricalSample, "__init__", no_sample)
        scan_cr(reference, step=0.5)
        # every match is a coin flip, so every player wins with exactly 1/n
        assert scored == [[[1 / n] * n]]

    @pytest.mark.parametrize("n", [8, 16])
    def test_guard_holds_for_any_error_within_the_bound(self, n, monkeypatch):
        # Replace the float recurrence by the exact model perturbed by up to
        # the stated bound: ties with the reference (on-grid) and within the
        # model (u = 1/2) must still give the exact model's KS results.
        rng = np.random.default_rng(n)

        def perturbed(m, us):
            if us.dtype == object:
                return _cr_rank_probs(m, us)
            exact = np.array([Fraction(u) for u in us], dtype=object)
            rows = _cr_rank_probs(m, exact).astype(float)
            return rows * (1 + 0.99 * _RANK_PROB_TOL * rng.uniform(-1, 1, rows.shape))

        monkeypatch.setattr(stats, "_cr_rank_probs", perturbed)
        for step in (0.1, 0.05):
            reference = _reference("on-grid", n, step)
            assert scan_cr(reference, step=step) == _direct_scan(reference, n, step)


class TestCrRankProbs:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_exact_recurrence_equals_enumeration(self, n):
        for u in (Fraction(1, 1000), Fraction(0.183), Fraction(3, 10), Fraction(1, 2)):
            probs = [[Fraction(1, 2) if i == j else 1 - u if i < j else u
                      for j in range(n)] for i in range(n)]
            got = _cr_rank_probs(n, np.array([u], dtype=object))
            assert got.tolist() == [oracle.uniform_win_probs(n, probs)]

    def test_matches_exact_sweep_at_sixteen(self):
        rng = np.random.default_rng(16)
        us = rng.uniform(0.0, 0.5, size=20)
        got = stats._cr_rank_probs(16, us)
        for u, row in zip(us, got):
            want = exact_uniform_win_probs(generate_cr(CrParams(16, float(u)))).entries
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)

    def test_rows_not_summing_to_one_raise(self, monkeypatch):
        # wrong hypergeometric weights: no longer the model's draw
        monkeypatch.setattr(stats, "comb", lambda a, b: math.comb(a, b) + 1)
        with pytest.raises(RuntimeError, match="bug"):
            stats._cr_rank_probs(4, np.array([0.25]))
