"""Distribution tests and heavy-tail fits for win-probability samples.

The two-sample Kolmogorov-Smirnov distance is computed exactly in
integer units of 1/(n_a*n_b), so tie handling and permutation tests
never depend on float rounding.  For small pooled samples the p-value
is the exact permutation probability, one lattice-path count over the
sorted pooled sample with ties kept together; large samples use the
asymptotic Kolmogorov distribution, which is approximate for 16-point
samples.  scipy is imported only by the code that needs it, so
importing this module (and the CLI) does not load it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, fsum, log, pi, sqrt

import numpy as np

from .core import require_exact_size
from .crmodel import CrParams, generate_cr
from .winprob import WinProbVector, exact_uniform_win_probs

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


@dataclass(frozen=True)
class EmpiricalSample:
    """Positive observations, stored sorted ascending."""

    values: tuple[float, ...]
    label: str = ""

    def __post_init__(self):
        if not self.values:
            raise ValueError("sample must not be empty")
        vals = tuple(float(v) for v in self.values)
        if any(not np.isfinite(v) or v <= 0 for v in vals):
            raise ValueError("sample values must be positive and finite")
        if any(a > b for a, b in zip(vals, vals[1:])):
            raise ValueError("values must be sorted ascending; use from_values()")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_values(cls, values, label: str = "") -> "EmpiricalSample":
        return cls(values=tuple(sorted(float(v) for v in values)), label=label)

    @classmethod
    def from_win_probs(cls, v: WinProbVector, label: str = "") -> "EmpiricalSample":
        return cls.from_values(v.entries, label=label)

    @property
    def size(self) -> int:
        return len(self.values)


def ecdf_points(s: EmpiricalSample) -> list[tuple[float, float]]:
    """Step points (x, F(x)) of the empirical CDF, F right-continuous."""
    vals = np.array(s.values)
    xs = np.unique(vals)
    f = np.searchsorted(vals, xs, side="right") / vals.size
    return list(zip(xs.tolist(), f.tolist()))


def ccdf_points(s: EmpiricalSample) -> list[tuple[float, float]]:
    """Step points (x, 1 - F(x)); the strict convention P(X > x)."""
    return [(x, 1.0 - f) for x, f in ecdf_points(s)]


@dataclass(frozen=True)
class KsResult:
    """Two-sample KS outcome.

    Every p-value is exact or asymptotic, so ``resamples`` is always
    None.  The field stays because the benchmark harness
    (``perfbench/tracing.py``) reads it to count Monte Carlo p-values.
    """

    statistic: float
    p_value: float
    method: str
    resamples: int | None = None


def _distance_int(a: np.ndarray, b: np.ndarray, pooled: np.ndarray) -> int:
    # sup |F_a - F_b| in exact units of 1/(n_a n_b)
    ca = np.searchsorted(a, pooled, side="right")
    cb = np.searchsorted(b, pooled, side="right")
    return int(np.abs(ca * b.size - cb * a.size).max())


def _permutation_p(pooled: list[float], na: int, nb: int, d_int: int) -> float:
    # P(D >= d_int) over all C(m, na) equally likely splits of the sorted
    # pooled sample.  paths[i] counts the ways to assign the first k
    # positions with i of them in sample a while keeping the distance
    # below d_int; it is checked only at the end of each tie run, where
    # both empirical CDFs are defined.
    m = na + nb
    paths = [1] + [0] * na
    for k in range(1, m + 1):
        for i in range(min(k, na), 0, -1):
            paths[i] += paths[i - 1]
        if k == m or pooled[k] != pooled[k - 1]:
            for i in range(min(k, na) + 1):
                if abs(i * nb - (k - i) * na) >= d_int:
                    paths[i] = 0
    total = comb(m, na)
    return (total - paths[na]) / total


def ks_two_sample(a: EmpiricalSample, b: EmpiricalSample, method: str = "auto") -> KsResult:
    """Two-sample Kolmogorov-Smirnov test.

    ``method`` is ``"auto"`` (permutation when the pooled size is at
    most 32, asymptotic otherwise), ``"permutation"``, or
    ``"asymptotic"``.  The permutation p-value is exact for any sizes
    and ties: it counts the splits of the pooled sample whose distance
    reaches the observed one.
    """
    av = np.array(a.values)
    bv = np.array(b.values)
    na, nb = av.size, bv.size
    pooled = np.sort(np.concatenate([av, bv]))
    d_int = _distance_int(av, bv, pooled)
    d = d_int / (na * nb)

    if method == "auto":
        method = "permutation" if na + nb <= 32 else "asymptotic"
    if method == "asymptotic":
        from scipy.special import kolmogorov

        en = na * nb / (na + nb)
        p = float(kolmogorov(sqrt(en) * d))
        return KsResult(statistic=d, p_value=min(1.0, max(0.0, p)), method="asymptotic")
    if method != "permutation":
        raise ValueError(f"unknown method: {method!r}")
    p = _permutation_p(pooled.tolist(), na, nb, d_int)
    return KsResult(statistic=d, p_value=p, method="permutation")


@dataclass(frozen=True)
class FitResult:
    """A fitted tail family and its parameters.

    ``support_min`` is the smallest sample value the fit covers (for a
    power law this equals ``xmin``); ``sample_size`` counts the covered
    values.  For the power law the density is
    ``(alpha-1)/xmin * (x/xmin)**-alpha``; the implicit constant in the
    ``c * x**-alpha`` reading is exposed as ``scale_constant``.
    """

    family: str
    log_likelihood: float
    sample_size: int
    support_min: float
    alpha: float | None = None
    xmin: float | None = None
    mu: float | None = None
    sigma: float | None = None

    @property
    def scale_constant(self) -> float:
        if self.family != "power-law":
            raise ValueError("scale_constant is defined for power-law fits only")
        return (self.alpha - 1) * self.xmin ** (self.alpha - 1)

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
        """P(X > x) under the fitted family (conditional on the tail)."""
        x = np.asarray(x, dtype=float)
        if self.family == "power-law":
            return np.where(x < self.xmin, 1.0, (x / self.xmin) ** (1 - self.alpha))
        from scipy.special import erfc

        z = (np.log(x) - self.mu) / (self.sigma * sqrt(2))
        return 0.5 * erfc(z)


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
        for cand in np.unique(vals)[:-1]:
            tail = vals[vals >= cand]
            if tail.size < 2:
                continue
            try:
                alpha, _ = _powerlaw_alpha(tail, float(cand))
            except ValueError:
                continue
            tail_sorted = np.sort(tail)
            model = 1.0 - (tail_sorted / cand) ** (1.0 - alpha)
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


@dataclass(frozen=True)
class LrtResult:
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
    from scipy.special import erfc

    m = diff.size
    r = float(fsum(diff) / (sqrt(m) * sd))
    p = float(erfc(abs(r) / sqrt(2)))
    return LrtResult(r=r, p_value=p, first=first.family, second=second.family)


# Finest scan grid: at most 500 points.  Each is read off the model's
# interpolated curve (_cr_curve), or swept exactly where the curve cannot
# settle its KS result, so the step no longer sets the number of sweeps.
MIN_SCAN_STEP = 0.001

# Error bound assumed for the curve.  It measures about 2e-13 at n = 16
# and is checked at u = 1/2, where every exact entry is 1/n.
_CURVE_TOL = 1e-9


# The exact sweep for one grid point that the curve cannot settle.  One
# scan has at most 500 grid points and this cache holds that many, so
# scans with different steps in one process cannot grow it without bound.
@lru_cache(maxsize=round(0.5 / MIN_SCAN_STEP))
def _cr_win_prob_sample(n: int, upset_prob: float) -> EmpiricalSample:
    vec = exact_uniform_win_probs(generate_cr(CrParams(n, upset_prob)))
    return EmpiricalSample.from_values(vec.entries, label=f"cr-{upset_prob:g}")


# One entry per bracket size the exact sweep accepts (n = 1 .. 16), so at
# most five.
@lru_cache(maxsize=None)
def _cr_curve(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chebyshev nodes, barycentric weights and model win vectors at the nodes.

    Under the upset model each player's exact win probability is a
    polynomial of degree at most n - 1 in the upset probability u (a draw
    plays n - 1 matches, each linear in u), so its values at n Chebyshev
    nodes on [0, 1] determine it.  Ids are in rank order, so reversing
    the ranks maps u to 1 - u and reverses the vector: the nodes pair up
    as x, 1 - x and only those in (0, 1/2] need an exact sweep.
    """
    require_exact_size(n)
    k = np.arange(n)
    theta = (2 * k + 1) * np.pi / (2 * n)
    half = (n + 1) // 2
    low = (1.0 + np.cos(theta[::-1][:half])) / 2  # ascending, in (0, 1/2]
    nodes = np.concatenate([low, 1.0 - low[: n // 2][::-1]])
    weights = (-1.0) ** k * np.sin(theta)
    values = np.empty((n, n))
    for i, u in enumerate(low):
        vec = exact_uniform_win_probs(generate_cr(CrParams(n, float(u))))
        values[i] = vec.entries
        values[n - 1 - i] = vec.entries[::-1]
    for a in (nodes, weights, values):
        a.flags.writeable = False
    fair = _eval_curve((nodes, weights, values), np.array([0.5]))[0]
    if np.abs(fair - 1.0 / n).max() > _CURVE_TOL:
        raise RuntimeError(
            "interpolated upset-model curve misses 1/n at u = 1/2; this is a bug")
    return nodes, weights, values


def _eval_curve(curve, us: np.ndarray) -> np.ndarray:
    """Barycentric evaluation of the curve at every u; one row per u."""
    nodes, weights, values = curve
    diff = us[:, None] - nodes[None, :]
    hit = diff == 0.0
    diff[hit] = 1.0
    c = weights / diff
    out = (c @ values) / c.sum(axis=1)[:, None]
    rows, cols = np.nonzero(hit)
    out[rows] = values[cols]
    return out


@dataclass(frozen=True)
class ScanStep:
    upset_prob: float
    ks: KsResult
    accepted: bool


@dataclass(frozen=True)
class ScanResult:
    """Which upset probabilities are statistically compatible with the data."""

    steps: tuple[ScanStep, ...]
    threshold: float
    min_accepted: float | None
    max_accepted: float | None
    reference_avg_upset: float | None = None


def scan_cr(
    reference: EmpiricalSample,
    n: int,
    step: float = 0.01,
    threshold: float = 0.05,
    reference_avg_upset: float | None = None,
) -> ScanResult:
    """Compare a reference win-probability sample against the upset model.

    For every upset probability on the grid {step, 2*step, ..., 0.5}
    the exact model win probabilities for n players are computed and a
    KS test (module defaults) is run against the reference; a grid point
    is accepted when its p-value reaches ``threshold``.  The reference
    holds one win probability per player, so its size must equal n.
    ``step`` must lie in [MIN_SCAN_STEP, 0.5], so the grid has at most
    500 points.

    The model vectors are read off an interpolated curve that costs
    ceil(n/2) exact sweeps once per n; a grid point whose KS result the
    curve's rounding could change takes its own exact sweep instead, so
    the result equals that of one exact sweep per grid point.

    ``reference_avg_upset`` is carried through to the report; pass the
    value from :func:`drawfix.crmodel.average_upset_probability` when
    the reference came from a full probability matrix.
    """
    if reference.size != n:
        raise ValueError(
            f"reference must hold one win probability per player ({n}), got {reference.size}"
        )
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
    # order and tie, and the curve is within _CURVE_TOL of the exact
    # sweep, whose entries are all positive.  So an interpolated vector
    # gives the exact sweep's KS result unless one of its entries lies
    # within 2 * _CURVE_TOL of another entry or of a reference value, or
    # is not positive (a sample must be).  Such grid points are swept.
    model = np.sort(_eval_curve(_cr_curve(n), np.array(grid)), axis=1)
    ref = np.array(reference.values)
    close = 2 * _CURVE_TOL
    undecided = (
        (np.diff(model, axis=1) <= close).any(axis=1)
        | (np.abs(model[:, :, None] - ref).min(axis=2) <= close).any(axis=1)
        | (model[:, 0] <= 0.0)
    )
    steps = []
    accepted = []
    for u, values, sweep in zip(grid, model, undecided):
        if sweep:
            sample = _cr_win_prob_sample(n, u)
        else:
            sample = EmpiricalSample(values=tuple(values), label=f"cr-{u:g}")
        ks = ks_two_sample(reference, sample)
        ok = ks.p_value >= threshold
        steps.append(ScanStep(upset_prob=u, ks=ks, accepted=ok))
        if ok:
            accepted.append(u)
    return ScanResult(
        steps=tuple(steps),
        threshold=threshold,
        min_accepted=min(accepted) if accepted else None,
        max_accepted=max(accepted) if accepted else None,
        reference_avg_upset=reference_avg_upset,
    )
