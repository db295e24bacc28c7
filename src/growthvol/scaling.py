"""Volatility-size scaling: binned OLS and the heteroskedastic AR(1) fit.

Two estimators of the scale relation ln(sigma) ~ beta * s:

* binned_beta: sort growth observations by size into equal-occupancy bins
  of at least 30 observations, regress each bin's log standard deviation on
  its mean size by OLS.  Transparent, but needs many observations and
  ignores the autoregressive structure of growth rates.

* fit_alad: asymmetric least absolute deviation estimation of

      r(i, t) = alpha + phi1 * r(i, t-1) + exp(beta * s(i, t-1)) * eps(i, t)

  by minimizing the Laplace-kernel negative log pseudo-likelihood

      sum over pairs of [ beta * s + |r - alpha - phi1 * r_lag| * exp(-beta * s) ]

  whose location part is a weighted median regression (so residuals have
  zero weighted median by construction) and whose linear term identifies
  beta through the scale Jacobian.  Each optimization round takes two
  steps: an exact weighted median regression for (alpha, phi1) at fixed
  beta, which pivots a line through two observations, then a
  one-dimensional search on that line's smooth, convex beta profile.  A
  round is kept only if it lowers the objective, and the first that does
  not ends the fit, at a fixed point of the round; the recorded trace is
  strictly decreasing.  Point fits and bootstrap replicates run the same
  optimizer.

Standard errors: classical OLS errors for the binned method (t-test with
n_bins - 2 degrees of freedom); nonparametric bootstrap over whole countries
for ALAD (within-country serial dependence survives resampling), normal
approximation for the 5% flag.  That flag, ``significant_5pct``, is the one
significance rule: rolling windows report it as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ndtri, stdtr

from growthvol.ingest import table_csv
from growthvol.panel import GrowthPanel, demean_by_group

_BETA_BOUNDS = (-5.0, 5.0)
_MIN_OCCUPANCY = 30  # fewest observations a size bin may hold
# Normal critical value of the two-sided 5% test behind ``significant_5pct``.
_CRITICAL_5PCT = float(ndtri(0.975))


@dataclass(frozen=True)
class BinStat:
    """One size bin: its index, mean size, growth-rate dispersion, and count."""

    bin_index: int
    mean_size: float
    sigma: float
    count: int


@dataclass
class ScalingFit:
    """Estimated scale relation from either method.

    ``gamma_or_alpha`` is the binned regression's intercept gamma or the
    ALAD constant alpha.  ``phi1`` and its error are None for the binned
    method.  ``trace`` records the ALAD objective after each accepted
    optimization stage.  ``n_bootstrap_requested`` and ``n_bootstrap_used``
    count the ALAD bootstrap replicates asked for and fitted; both are None
    for the binned method.
    """

    method: str
    beta: float
    gamma_or_alpha: float
    se_beta: float | None
    se_gamma_or_alpha: float | None
    n_obs: int
    significant_5pct: bool | None
    phi1: float | None = None
    se_phi1: float | None = None
    n_bootstrap_requested: int | None = None
    n_bootstrap_used: int | None = None
    trace: list[float] = field(default_factory=list, repr=False)

    def to_json_dict(self, bins: list[BinStat] | None = None) -> dict:
        return {
            "method": self.method,
            "beta": self.beta,
            "se_beta": self.se_beta,
            "alpha_or_gamma": self.gamma_or_alpha,
            "se_alpha_or_gamma": self.se_gamma_or_alpha,
            "phi1": self.phi1,
            "se_phi1": self.se_phi1,
            "n": self.n_obs,
            "significant_5pct": self.significant_5pct,
            "n_bootstrap_requested": self.n_bootstrap_requested,
            "n_bootstrap_used": self.n_bootstrap_used,
            "bins": None if bins is None else [
                {"bin": b.bin_index, "mean_size": b.mean_size,
                 "sigma": b.sigma, "count": b.count}
                for b in bins
            ],
        }


def bin_stats_csv(bins: list[BinStat]) -> str:
    return table_csv(["bin", "mean_size", "sigma", "count"],
                     [(b.bin_index, b.mean_size, b.sigma, b.count) for b in bins])


def binned_beta_xy(sizes, values, n_bins: int = 15) -> tuple[ScalingFit, list[BinStat]]:
    """Binned OLS of log dispersion on mean size, for raw arrays.

    Observations are sorted by size and split into ``n_bins`` groups of as
    equal occupancy as possible, at least 30 each; each group contributes
    (mean size, standard deviation of values); ln sigma is regressed on mean
    size by OLS with classical standard errors.
    """
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    if sizes.shape != values.shape or sizes.ndim != 1:
        raise ValueError("sizes and values must be one-dimensional and aligned")
    if n_bins < 3:
        raise ValueError(f"need at least 3 bins for a slope and its error, got {n_bins}")
    smallest = sizes.size // n_bins
    if smallest < _MIN_OCCUPANCY:
        max_bins = sizes.size // _MIN_OCCUPANCY
        raise ValueError(
            f"{sizes.size} observations cannot fill {n_bins} bins at minimum "
            f"occupancy {_MIN_OCCUPANCY}; use at most {max_bins} bins"
        )
    order = np.argsort(sizes, kind="stable")
    bins = []
    for index, chunk in enumerate(np.array_split(order, n_bins)):
        sigma = float(np.std(values[chunk], ddof=1))
        if sigma <= 0.0:
            raise ValueError(f"bin {index} has zero dispersion; cannot take its log")
        bins.append(BinStat(bin_index=index, mean_size=float(np.mean(sizes[chunk])),
                            sigma=sigma, count=int(chunk.size)))

    x = np.array([b.mean_size for b in bins])
    y = np.log([b.sigma for b in bins])
    k = len(bins)
    x_centered = x - x.mean()
    sxx = float(np.sum(x_centered**2))
    if sxx <= 0.0:
        raise ValueError("all bins share one mean size; beta is unidentified")
    beta = float(np.sum(x_centered * y) / sxx)
    gamma = float(y.mean() - beta * x.mean())
    residuals = y - gamma - beta * x
    dof = k - 2
    s2 = float(np.sum(residuals**2) / dof)
    se_beta = float(np.sqrt(s2 / sxx))
    se_gamma = float(np.sqrt(s2 * (1.0 / k + x.mean() ** 2 / sxx)))
    if se_beta > 0.0:
        p_value = 2.0 * float(stdtr(dof, -abs(beta) / se_beta))
    else:
        p_value = 0.0
    fit = ScalingFit(
        method="binned",
        beta=beta,
        gamma_or_alpha=gamma,
        se_beta=se_beta,
        se_gamma_or_alpha=se_gamma,
        n_obs=int(sizes.size),
        significant_5pct=bool(p_value < 0.05),
    )
    return fit, bins


def binned_beta(panel: GrowthPanel, n_bins: int = 15) -> tuple[ScalingFit, list[BinStat]]:
    """Binned OLS on a panel's (size, growth rate) observations."""
    _, _, growth, size = panel.growth_arrays()
    return binned_beta_xy(size, growth, n_bins=n_bins)


def rescale_residuals(panel: GrowthPanel, beta: float):
    """Rescaled growth rates eps = (r - rbar) / exp(beta * s).

    rbar is the cross-sectional mean of growth rates in the observation's
    year, which removes common shocks.
    """
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    _, year, growth, size = panel.growth_arrays()
    return demean_by_group(year, growth) / np.exp(beta * size)


def _alad_loss(r_t, r_lag, s_lag, alpha, phi1, beta) -> float:
    """The ALAD loss of the module docstring over arrays of AR(1) pairs."""
    residuals = r_t - alpha - phi1 * r_lag
    return float(np.sum(beta * s_lag + np.abs(residuals) * np.exp(-beta * s_lag)))


def _weighted_median(values, weights):
    """(v, i): the smallest v = values[i] with weight below or at v >= half the total."""
    order = np.argsort(values, kind="stable")
    cumulative = np.cumsum(weights[order])
    position = int(np.searchsorted(cumulative, 0.5 * cumulative[-1], side="left"))
    index = int(order[min(position, values.size - 1)])
    return float(values[index]), index


def _exact_location(y, x, weights, start):
    """(intercept, slope) minimizing sum of weights * |y - a - b x|, exactly.

    Some optimal line passes through two observations (Koenker & Bassett
    1978).  At the start's slope the best intercept is a weighted median,
    which puts the line through one observation j.  A pivot then turns the
    line about j to the best slope through j: with d = x - x[j], a line of
    slope b through j leaves residuals d * (t - b), where t = (y - y[j]) / d
    are the slopes to the other observations, so its loss is an absolute
    loss in b with weights w |d|, minimized by a weighted median of t.  That
    line passes through a second observation k, about which the next pivot
    turns.  The walk stops when a pivot no longer lowers the loss: the line
    is then optimal when turned about either of its two observations, which
    for observations in general position (no three on one line) makes it a
    minimum.  A constant regressor leaves the slope unidentified, and the
    start comes back.
    """
    if np.ptp(x) == 0.0:
        return start

    def pivot(j):
        """(a, b, loss, k) of the best line through observation j and another, k."""
        others = np.flatnonzero(x != x[j])
        d = x[others] - x[j]
        slope, k = _weighted_median((y[others] - y[j]) / d, weights[others] * np.abs(d))
        intercept = float(y[j] - slope * x[j])
        loss = float(weights @ np.abs(y - intercept - slope * x))
        return intercept, slope, loss, int(others[k])

    _, j = _weighted_median(y - start[1] * x, weights)
    a, b, best, j = pivot(j)
    while True:
        intercept, slope, candidate, k = pivot(j)
        if not candidate < best:
            return a, b
        a, b, best, j = intercept, slope, candidate, k


def fit_alad(panel: GrowthPanel, *, bootstrap: int = 200, seed=0) -> ScalingFit:
    """Fit the heteroskedastic AR(1) by asymmetric least absolute deviation.

    Parameters
    ----------
    panel : GrowthPanel
        Pairs (r_t, r_{t-1}, s_{t-1}) come from consecutive years only.
    bootstrap : int
        Country-level bootstrap replicates for standard errors; 0 disables
        them (point estimates only, significance then unknown).  Each
        replicate is fitted exactly as the point fit is, and the point
        estimate and ``trace`` are the same whatever this is.  Errors and
        the significance flag are None when fewer than
        max(10, bootstrap // 2) replicates could be fitted, or when every
        fitted replicate drew the same countries (as with two countries,
        where the only draw with size variation is the sample itself): the
        spread of such replicates is rounding noise, not sampling error.
    seed : int or sequence of ints
        Root of the deterministic per-replicate RNG streams.

    Returns
    -------
    ScalingFit with method "alad"; ``trace`` holds the accepted objective
    values, strictly decreasing by construction; ``n_bootstrap_used``
    counts the replicates fitted (draws without size variation are skipped).
    """
    r_t, r_lag, s_lag, country, year = panel.ar1_pairs()
    n = r_t.size
    if n < 6:
        raise ValueError(f"need at least 6 consecutive-year pairs, got {n}")
    if float(np.std(s_lag)) < 1e-12:
        raise ValueError("all sizes are equal; beta is unidentified")
    alpha, phi1, beta, trace = _fit_alad_arrays(r_t, r_lag, s_lag)

    se_alpha = se_phi1 = se_beta = None
    significant = None
    draws, varied = _bootstrap_alad(r_t, r_lag, s_lag, country, year, bootstrap, seed)
    if varied and len(draws) >= max(10, bootstrap // 2):
        se_alpha, se_phi1, se_beta = (float(v) for v in np.std(draws, axis=0, ddof=1))
        significant = bool(abs(beta) / se_beta > _CRITICAL_5PCT) if se_beta > 0 else True

    return ScalingFit(
        method="alad",
        beta=float(beta),
        gamma_or_alpha=float(alpha),
        se_beta=se_beta,
        se_gamma_or_alpha=se_alpha,
        n_obs=int(n),
        significant_5pct=significant,
        phi1=float(phi1),
        se_phi1=se_phi1,
        n_bootstrap_requested=int(bootstrap),
        n_bootstrap_used=len(draws),
        trace=trace,
    )


def _fit_alad_arrays(r_t, r_lag, s_lag):
    """Core ALAD optimizer on raw arrays; returns (alpha, phi1, beta, trace).

    Each round fits the line exactly at the current beta, warm-started from
    the current line, then searches beta on that line's residuals.  A round
    is kept only if it lowers the loss, and the first that does not ends the
    fit: the line is then optimal at the final beta.  The loop always ends,
    because beta depends only on the line, finitely many lines pass through
    two observations, and the loss strictly falls, so no state repeats.
    """
    alpha, phi1, beta = float(np.median(r_t)), 0.0, 0.0
    best = _alad_loss(r_t, r_lag, s_lag, alpha, phi1, beta)
    trace = [best]
    while True:
        a, p = _exact_location(r_t, r_lag, np.exp(-beta * s_lag), (alpha, phi1))
        residuals = np.abs(r_t - a - p * r_lag)

        def beta_profile(trial):
            return float(np.sum(trial * s_lag + residuals * np.exp(-trial * s_lag)))

        b = float(minimize_scalar(beta_profile, bounds=_BETA_BOUNDS, method="bounded",
                                  options={"xatol": 1e-10}).x)
        candidate = _alad_loss(r_t, r_lag, s_lag, a, p, b)
        if not candidate < best:
            return alpha, phi1, beta, trace
        alpha, phi1, beta, best = a, p, b, candidate
        trace.append(best)


def _seed_entropy(seed) -> list[int]:
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


def _bootstrap_alad(r_t, r_lag, s_lag, country, year, n_replicates, seed):
    """Country-resampled replicate estimates and whether their draws differ.

    Returns one (alpha, phi1, beta) row per fitted replicate, and whether
    the fitted replicates drew more than one multiset of countries.

    Each replicate is fitted from a cold start by ``_fit_alad_arrays``, as
    the point fit is.  A draw whose re-demeaned sizes do not vary, such as
    one that repeats a single country, leaves beta unidentified and is
    skipped, so there can be fewer rows than ``n_replicates``.

    Sizes are reconstructed within each pseudo-panel: resampling countries
    changes every year's cross-sectional mean log level, and sizes are
    defined against that mean, so each replicate re-demeans the drawn sizes
    per year (with multiplicity).  Without this, replicate size sums drift
    away from zero and the scale term's leverage on beta is distorted.
    """
    unique = np.unique(country)
    rows_of = {c: np.flatnonzero(country == c) for c in unique}
    entropy = _seed_entropy(seed)
    draws = []
    drawn = set()  # the multisets of countries behind the rows
    for rep in range(n_replicates):
        rng = np.random.default_rng(np.random.SeedSequence(entropy + [rep]))
        chosen = rng.choice(unique, size=unique.size, replace=True)
        idx = np.concatenate([rows_of[c] for c in chosen])
        sizes = demean_by_group(year[idx], s_lag[idx])
        if float(np.std(sizes)) < 1e-12:
            continue  # no size variation drawn; beta unidentified this round
        # Each replicate starts cold, as the point fit does.  Warm starting
        # at the point estimate is faster but biases the errors downward:
        # over 40 synthetic 10-year windows (SynthSpec(beta=-0.2), seeds
        # 100-107), 39 warm/cold se_beta ratios were at most 1.00003, with
        # mean 0.9984.
        alpha, phi1, beta, _ = _fit_alad_arrays(r_t[idx], r_lag[idx], sizes)
        draws.append((alpha, phi1, beta))
        drawn.add(tuple(sorted(chosen.tolist())))
    return np.reshape(draws, (-1, 3)), len(drawn) > 1
