"""Distribution tests and heavy-tail fits for win-probability samples.

The two-sample Kolmogorov-Smirnov distance is computed exactly in
integer units of 1/(n_a*n_b), so tie handling and permutation tests
never depend on float rounding.  The pooled size alone picks the
p-value.  Up to 32 values it is the exact permutation probability, one
lattice-path count over the sorted pooled sample with ties kept
together, kept per tie pattern so a scan repeats none of them.  Larger
samples use the asymptotic Kolmogorov distribution, evaluated by two
short series in ``math``.

The upset-model scan scores its whole grid with an O(n^2) recurrence
over ranks and never runs a subset sweep.  Grid points whose KS result
the recurrence's float rounding could change run the same recurrence in
exact rational arithmetic.  One KS routine scores a single pair of
samples and the whole grid, as one array of model rows.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, erfc, exp, fsum, log, pi, sqrt
from typing import Iterable, NamedTuple

import numpy as np

from .core import _Frozen, require_exact_size
from .winprob import WinProbVector

__all__ = [
    "EmpiricalSample",
    "KsResult",
    "FitResult",
    "LrtResult",
    "ScanStep",
    "ScanResult",
    "UndefinedTestError",
    "ecdf_points",
    "ccdf_points",
    "ks_two_sample",
    "fit_power_law",
    "fit_lognormal",
    "likelihood_ratio_test",
    "scan_cr",
]


class UndefinedTestError(ValueError):
    """The requested test statistic is undefined on this input."""


class EmpiricalSample(_Frozen):
    """Positive observations, stored sorted ascending."""

    __match_args__ = ("values",)

    def __init__(self, values: Iterable[float]):
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("sample must not be empty")
        if any(not np.isfinite(v) or v <= 0 for v in vals):
            raise ValueError("sample values must be positive and finite")
        if any(a > b for a, b in zip(vals, vals[1:])):
            raise ValueError("values must be sorted ascending; use from_values()")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_values(cls, values) -> "EmpiricalSample":
        return cls(values=tuple(sorted(float(v) for v in values)))

    @classmethod
    def from_win_probs(cls, v: WinProbVector) -> "EmpiricalSample":
        return cls.from_values(v.entries)

    @property
    def size(self) -> int:
        return len(self.values)


def _run_ends(vals: np.ndarray) -> np.ndarray:
    # True at the last entry of each run of equal values along the last
    # axis of sorted vals; np.unique would load numpy.ma on first use.
    ends = np.ones(vals.shape, dtype=bool)
    ends[..., :-1] = vals[..., 1:] != vals[..., :-1]
    return ends


def ecdf_points(s: EmpiricalSample) -> list[tuple[float, float]]:
    """Step points (x, F(x)) of the empirical CDF, F right-continuous."""
    vals = np.array(s.values)
    ends = np.flatnonzero(_run_ends(vals))
    f = (ends + 1) / vals.size
    return list(zip(vals[ends].tolist(), f.tolist()))


def ccdf_points(s: EmpiricalSample) -> list[tuple[float, float]]:
    """Step points (x, 1 - F(x)); the strict convention P(X > x)."""
    return [(x, 1.0 - f) for x, f in ecdf_points(s)]


class KsResult(NamedTuple):
    """Two-sample KS outcome.

    Every p-value is exact or asymptotic, so ``resamples`` is always
    None.  The field stays because the benchmark harness
    (``perfbench/tracing.py``) reads it to count Monte Carlo p-values.
    """

    statistic: float
    p_value: float
    method: str
    resamples: int | None = None


@lru_cache(maxsize=1024)
def _permutation_p(run_ends: tuple[bool, ...], na: int, nb: int, d_int: int) -> float:
    # P(D >= d_int) over all C(m, na) equally likely splits of the sorted
    # pooled sample, whose tie runs end where run_ends is True.  paths[i]
    # counts the ways to assign the first k positions with i of them in
    # sample a while keeping the distance below d_int; it is checked only
    # at the end of each tie run, where both empirical CDFs are defined.
    m = na + nb
    paths = [1] + [0] * na
    for k, end in enumerate(run_ends, start=1):
        for i in range(min(k, na), 0, -1):
            paths[i] += paths[i - 1]
        if end:
            for i in range(min(k, na) + 1):
                if abs(i * nb - (k - i) * na) >= d_int:
                    paths[i] = 0
    total = comb(m, na)
    return (total - paths[na]) / total


def _kolmogorov_sf(lam: float) -> float:
    # Kolmogorov's limiting P(K > lam) (1933).  Each series reaches double
    # precision within its term count on its own side of lam = 1; t * t
    # overflows to inf, not an error, as lam approaches 0.
    if lam <= 0.0:
        return 1.0
    if lam >= 1.0:
        terms = ((-1) ** (k - 1) * exp(-2 * k * k * lam * lam) for k in range(1, 12))
        return 2.0 * sum(terms)
    t = pi / lam
    terms = (exp(-(2 * k - 1) ** 2 * t * t / 8) for k in range(1, 8))
    return 1.0 - sqrt(2 * pi) / lam * sum(terms)


def _ks_rows(a: np.ndarray, bs: np.ndarray) -> list[KsResult]:
    # The KS test of sorted sample a against each sorted row of bs.  At a
    # tie-run end after k pooled values, a holds ca of them and the row
    # k - ca, so |F_a - F_b| there is |ca (na + nb) - k na| / (na nb).
    na, nb = a.size, bs.shape[1]
    m = na + nb
    pooled = np.sort(np.concatenate([np.broadcast_to(a, (len(bs), na)), bs], axis=1), axis=1)
    ends = _run_ends(pooled)
    gap = np.abs(np.searchsorted(a, pooled, side="right") * m - np.arange(1, m + 1) * na)
    results = []
    for run_ends, d_int in zip(ends.tolist(), (gap * ends).max(axis=1).tolist()):
        d = d_int / (na * nb)
        if m <= 32:
            p = _permutation_p(tuple(run_ends), na, nb, d_int)
            results.append(KsResult(statistic=d, p_value=p, method="permutation"))
        else:
            p = min(1.0, max(0.0, _kolmogorov_sf(sqrt(na * nb / m) * d)))
            results.append(KsResult(statistic=d, p_value=p, method="asymptotic"))
    return results


def ks_two_sample(a: EmpiricalSample, b: EmpiricalSample) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test.

    The pooled size alone picks the p-value.  Up to 32 values it is the
    exact permutation p-value, for any sizes and ties: the share of
    splits of the pooled sample whose distance reaches the observed one.
    Above that it is Kolmogorov's limiting distribution at
    sqrt(n_a n_b / (n_a + n_b)) * D.
    """
    return _ks_rows(np.array(a.values), np.array([b.values]))[0]


class FitResult(NamedTuple):
    """A fitted tail family and its parameters.

    ``support_min`` is the smallest sample value the fit covers (for a
    power law this equals ``xmin``); ``sample_size`` counts the covered
    values.  For the power law the density is
    ``(alpha-1)/xmin * (x/xmin)**-alpha``.
    """

    family: str
    log_likelihood: float
    sample_size: int
    support_min: float
    alpha: float | None = None
    xmin: float | None = None
    mu: float | None = None
    sigma: float | None = None

    def logpdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.family == "power-law":
            return (
                log(self.alpha - 1)
                - log(self.xmin)
                - self.alpha * np.log(x / self.xmin)
            )
        lx = np.log(x)
        return (
            -lx
            - log(self.sigma)
            - 0.5 * log(2 * pi)
            - (lx - self.mu) ** 2 / (2 * self.sigma**2)
        )

    def survival(self, x) -> np.ndarray:
        """P(X > x) under the fitted family (conditional on the tail).

        The log-normal survival is evaluated elementwise with ``math.erfc``.
        """
        x = np.asarray(x, dtype=float)
        if self.family == "power-law":
            return np.where(x < self.xmin, 1.0, (x / self.xmin) ** (1 - self.alpha))
        z = (np.log(x) - self.mu) / (self.sigma * sqrt(2))
        return 0.5 * np.fromiter(map(erfc, z.flat), dtype=float, count=z.size).reshape(z.shape)


def _powerlaw_alpha(tail: np.ndarray, xm: float) -> tuple[float, float]:
    logs = np.log(tail / xm)
    ssum = float(logs.sum())
    if ssum <= 0.0:
        raise ValueError("cannot fit a power law to values with no spread above xmin")
    m = tail.size
    alpha = 1.0 + m / ssum
    loglik = m * log(alpha - 1) - m * log(xm) - alpha * ssum
    return alpha, loglik


def fit_power_law(
    s: EmpiricalSample, xmin: float | None = None, scan: bool = False
) -> FitResult:
    """Continuous maximum-likelihood power-law fit to the tail x >= xmin.

    By default ``xmin`` is the sample minimum (the whole sample is the
    tail).  With ``scan=True`` every distinct value is tried as ``xmin``
    and the one minimising the KS distance between the fitted and
    empirical tail distributions wins.
    """
    vals = np.array(s.values)
    if scan:
        if xmin is not None:
            raise ValueError("give either xmin or scan=True, not both")
        best = None
        for cand in vals[_run_ends(vals)][:-1]:
            tail = vals[vals >= cand]
            if tail.size < 2:
                continue
            try:
                alpha, _ = _powerlaw_alpha(tail, float(cand))
            except ValueError:
                continue
            model = 1.0 - (tail / cand) ** (1.0 - alpha)
            hi = np.arange(1, tail.size + 1) / tail.size
            lo = np.arange(0, tail.size) / tail.size
            dist = max(np.abs(hi - model).max(), np.abs(lo - model).max())
            if best is None or dist < best[0]:
                best = (dist, float(cand))
        if best is None:
            raise ValueError("no viable xmin candidate; sample has no spread")
        xmin = best[1]
    xm = float(vals.min()) if xmin is None else float(xmin)
    if xm <= 0:
        raise ValueError("xmin must be positive")
    tail = vals[vals >= xm]
    if tail.size < 2:
        raise ValueError("need at least two values at or above xmin")
    alpha, loglik = _powerlaw_alpha(tail, xm)
    return FitResult(
        family="power-law",
        log_likelihood=loglik,
        sample_size=int(tail.size),
        support_min=xm,
        alpha=alpha,
        xmin=xm,
    )


def fit_lognormal(s: EmpiricalSample) -> FitResult:
    """Maximum-likelihood log-normal fit to the full sample.

    sigma is the population standard deviation of log values (divisor
    m); a sample with no spread has sigma = 0 and is rejected.
    """
    vals = np.array(s.values)
    logs = np.log(vals)
    mu = float(logs.mean())
    sigma = float(logs.std(ddof=0))
    if sigma == 0.0:
        raise ValueError("cannot fit a log-normal to a zero-spread sample")
    m = vals.size
    loglik = float(
        -logs.sum() - m * log(sigma) - 0.5 * m * log(2 * pi)
        - float(((logs - mu) ** 2).sum()) / (2 * sigma**2)
    )
    return FitResult(
        family="log-normal",
        log_likelihood=loglik,
        sample_size=int(m),
        support_min=float(vals.min()),
        mu=mu,
        sigma=sigma,
    )


class LrtResult(NamedTuple):
    """Normalised log-likelihood ratio between two fitted families.

    Positive ``r`` favours the first-listed family; the two-sided
    p-value is the probability of an |r| this large when neither family
    fits better.
    """

    r: float
    p_value: float
    first: str
    second: str

    @property
    def favored(self) -> str | None:
        if self.r > 0:
            return self.first
        if self.r < 0:
            return self.second
        return None


def likelihood_ratio_test(
    s: EmpiricalSample, first: FitResult, second: FitResult
) -> LrtResult:
    """Vuong-style test of which fitted family describes the sample better.

    Both fits must cover the same truncation of the sample.  Two
    numerically identical fits give r = 0 and p = 1; a nonzero but
    pointwise-constant log-likelihood difference leaves the statistic
    undefined and raises UndefinedTestError.
    """
    vals = np.array(s.values)
    cut = max(first.support_min, second.support_min)
    tail = vals[vals >= cut]
    if not (first.sample_size == second.sample_size == tail.size):
        raise ValueError("fits must share the same sample truncation")
    diff = first.logpdf(tail) - second.logpdf(tail)
    if np.abs(diff).max() < 1e-15:
        return LrtResult(r=0.0, p_value=1.0, first=first.family, second=second.family)
    sd = float(diff.std(ddof=0))
    if sd == 0.0:
        raise UndefinedTestError(
            "log-likelihood difference is constant; the ratio test is undefined"
        )
    m = diff.size
    r = float(fsum(diff) / (sqrt(m) * sd))
    p = float(erfc(abs(r) / sqrt(2)))
    return LrtResult(r=r, p_value=p, first=first.family, second=second.family)


# Finest scan grid: at most 500 points.  The rank recurrence
# (_cr_rank_probs) scores every grid point at once, so the step sets no
# number of sweeps.
MIN_SCAN_STEP = 0.001

# Relative error bound of the float rank recurrence at n <= 16 while
# nothing underflows, as on the scan grid (u >= MIN_SCAN_STEP).  Every
# term of the recurrence is nonnegative, so each computed value is its
# exact value times (1 + theta_k), |theta_k| <= gamma_k = k eps / (1 - k eps)
# with eps = 2^-53, where k counts the roundings along its longest path
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3-4).
# One level multiplies h (1 rounding) by f_s (k_s) and by an s-term
# cumulative sum of f_s weighted by u or 1 - u (k_s + s + 2), then sums s
# such products: k_1 = 0, k_2s = 2 k_s + 2s + 4, so k_16 = 124 and
# gamma_124 < 1.38e-14.  Measured against exact rational arithmetic the
# error is at most 1.5e-15 at n = 16; the float subset sweep is up to
# 2.9e-13 off.  Rounded up, which also covers the guard's own rounding.
_RANK_PROB_TOL = 1.4e-14


def _cr_rank_probs(n: int, us: np.ndarray) -> np.ndarray:
    """Upset-model uniform-draw win probability of every rank; one row per u.

    Column r is the player with r better players.  A uniform draw of 2s
    players is a uniform split into halves followed by independent
    uniform draws of each half, and any s players of the model play like
    ranks 0 .. s-1.  So with f_s the win probabilities in a bracket of s
    and a the number of the player's s - 1 half-mates that are better
    (hypergeometric over the 2s - 1 others),

        f_2s(r) = sum_a H(a) f_s(a) (u F_s(r-a) + (1-u) (1 - F_s(r-a))),

    where F_s(c) is the chance that the other half's winner is one of
    its c players better than r.  The result has the dtype of ``us``: a
    float array gives floats within _RANK_PROB_TOL relative of the exact
    values, an object array of ``fractions.Fraction`` gives them exactly.
    """
    us = np.asarray(us)[:, None, None]
    kind = type(us.flat[0]) if us.size else float
    zero = np.full((us.shape[0], 1), kind(0), dtype=us.dtype)
    f = np.full((us.shape[0], 1), kind(1), dtype=us.dtype)
    s = 1
    while s < n:
        h = np.array([[kind(comb(r, a) * comb(2 * s - 1 - r, s - 1 - a))
                       / kind(comb(2 * s - 1, s - 1)) for a in range(s)]
                      for r in range(2 * s)], dtype=us.dtype)
        # better players in the other half; h is zero wherever the clip acts
        c = np.clip(np.arange(2 * s)[:, None] - np.arange(s), 0, s)
        below = np.concatenate([zero, np.cumsum(f, axis=1)], axis=1)
        above = np.concatenate([np.cumsum(f[:, ::-1], axis=1)[:, ::-1], zero], axis=1)
        beats = us * below[:, c] + (kind(1) - us) * above[:, c]
        f = (h * f[:, None, :] * beats).sum(axis=2)
        s *= 2
    if np.abs(f.sum(axis=1) - 1.0).max(initial=0.0) > 1e-12:
        raise RuntimeError(
            "upset-model rank probabilities do not sum to 1; this is a bug")
    return f


class ScanStep(NamedTuple):
    upset_prob: float
    ks: KsResult
    accepted: bool


class ScanResult(NamedTuple):
    """Which upset probabilities are statistically compatible with the data."""

    steps: tuple[ScanStep, ...]
    threshold: float

    @property
    def min_accepted(self) -> float | None:
        """Smallest accepted upset probability; None if none is accepted."""
        return min((s.upset_prob for s in self.steps if s.accepted), default=None)

    @property
    def max_accepted(self) -> float | None:
        """Largest accepted upset probability; None if none is accepted."""
        return max((s.upset_prob for s in self.steps if s.accepted), default=None)


def scan_cr(
    reference: EmpiricalSample,
    *,
    step: float = 0.01,
    threshold: float = 0.05,
) -> ScanResult:
    """Compare a reference win-probability sample against the upset model.

    For every upset probability on the grid {step, 2*step, ..., 0.5}
    the exact model win probabilities are computed and a KS test is run
    against the reference; a grid point is accepted when its p-value
    reaches ``threshold``.  The reference holds one win probability per
    player, so its size is the number of players.
    ``step`` must lie in [MIN_SCAN_STEP, 0.5], so the grid has at most
    500 points.

    Every model vector comes from an O(n^2) recurrence over ranks that
    scores the whole grid at once, with no subset sweep.  A grid point
    whose KS result the float recurrence's rounding could change (u = 1/2,
    where every entry ties, is one) is recomputed by the same recurrence
    in exact rational arithmetic, so every step equals the KS test
    against the correctly rounded exact model.

    To compare the accepted range with the reference's own upset rate,
    compute that rate with
    :func:`drawfix.crmodel.average_upset_probability` on the matrix the
    reference came from.
    """
    if not MIN_SCAN_STEP <= step <= 0.5:
        raise ValueError(f"step must lie in [{MIN_SCAN_STEP}, 0.5], got {step}")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    grid = []
    k = 1
    while round(k * step, 10) <= 0.5:
        grid.append(round(k * step, 10))
        k += 1
    # KS statistics and p-values depend only on how the pooled values
    # order and tie, and every recurrence entry is within a relative
    # _RANK_PROB_TOL of the exact model, whose entries are all positive.
    # So a float vector gives the exact model's KS result unless one of
    # its entries lies within a relative 2 * _RANK_PROB_TOL of another
    # entry or of a reference value, or is not positive (a sample must
    # be).  Such grid points take the exact recurrence, rounded once.
    n = reference.size
    require_exact_size(n)
    model = np.sort(_cr_rank_probs(n, np.array(grid)), axis=1)
    ref = np.array(reference.values)
    close = 2 * _RANK_PROB_TOL * model
    undecided = (
        (np.diff(model, axis=1) <= close[:, 1:]).any(axis=1)
        | (np.abs(model[:, :, None] - ref) <= close[:, :, None]).any(axis=(1, 2))
        | (model[:, 0] <= 0.0)
    )
    if undecided.any():
        from fractions import Fraction  # only here, so importing drawfix stays light

        exact_us = np.array([Fraction(u) for u in np.array(grid)[undecided]], dtype=object)
        model[undecided] = np.sort(_cr_rank_probs(n, exact_us).astype(float), axis=1)
    steps = tuple(ScanStep(upset_prob=u, ks=ks, accepted=ks.p_value >= threshold)
                  for u, ks in zip(grid, _ks_rows(ref, model)))
    return ScanResult(steps=steps, threshold=threshold)
