"""Maximum likelihood estimation of asymmetric exponential power parameters.

The log-likelihood is smooth in the shapes and scales but only piecewise
smooth in the mode m: each observation contributes a kink there, and for
shapes below 1 the likelihood has a cusp at every data point.  Gradient-based
optimizers are unreliable on such surfaces, so the fit proceeds in stages:

1. standardize the sample by its median and mean absolute deviation, and
   orient it so the standardized mean is nonnegative (mirroring the data if
   needed, and mirroring the fitted parameters back afterwards).  Negating
   an array is exact in floating point, so a mirrored input produces the
   bit-identical internal problem: the fit is exactly equivariant under
   mirroring, and equivariant to rounding error under shift and rescale;
2. profile the mode over a grid of sample quantiles, maximizing the four
   remaining parameters at each candidate with a warm-started Nelder-Mead;
3. refine all five parameters jointly by Nelder-Mead from the profile
   solution plus shape-perturbed restarts, keeping the best optimum found
   (ties and comparisons resolved in a fixed order, so results do not depend
   on evaluation scheduling);
4. polish the Nelder-Mead solution, which is only reliable to about 1e-6 in
   the parameters, by coordinate rounds of an analytic-gradient quasi-Newton
   step in the four shape/scale coordinates (the likelihood is smooth in
   them at fixed mode) and a bracketed one-dimensional refinement of the
   mode.  This pins the optimum to near machine precision, so equal samples
   presented on different scales return equal parameters to well below the
   1e-6 the equivariance contract requires.

Shapes and scales are optimized in log space, which enforces positivity and
makes the surface better conditioned.

Standard errors come from the observed information matrix, computed by
central finite differences of the negative log-likelihood in the internal
coordinates and mapped back by the delta method.  When that matrix is not
positive definite (it need not be at a cusp optimum), a nonparametric
bootstrap is used instead.

The mode needs special care.  When either fitted shape is at or below 1 the
log-likelihood is not differentiable in m at the optimum (the fit typically
lands on a data point), the Fisher information for m is infinite in the
limit, and the finite-difference curvature there measures the probe step,
not the sampling variability: it understates the true spread of the mode
estimate several-fold.  In that regime (either shape below 1.2, where the
curvature starts being dominated by the nearest data points) the standard
error of m is taken from a nonparametric bootstrap instead, which tracks the
estimator's actual, faster-than-sqrt(n) convergence.

Bootstrap replicates are single warm-started Nelder-Mead refits, without
restarts or the polish, stopped at 1e-6 in the parameters and 1e-7 in the
value.  A looser stop does not only shorten each refit: on a multimodal
resample it can end a replicate on a worse optimum.  Stopped at 1e-5 and
1e-6, one replicate in 200 stalled 3 to 7 units of log-likelihood short on
2 of 20 samples of n = 1000, which moved the SE of m there by -4.9% and
+1.3%; a 1e-4 stop biased the SE of m down.  Point fits keep the 1e-8
refine and the polish, so no point estimate depends on the bootstrap
settings.

Every Nelder-Mead run goes through ``_nelder_mead``, which repeats scipy's
algorithm step for step and returns the same digits, at about a fifth of
its bookkeeping cost per likelihood call; most of a bootstrapped fit is
spent in these runs.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import asdict, dataclass
from functools import reduce
from math import isfinite
from operator import add

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import digamma, gammaln

from growthvol.aep import AepParams, log_density

# Internal coordinates: (log b_l, log b_r, log a_l, log a_r, m), on data
# standardized to median 0 and mean absolute deviation 1.
_LOG_SHAPE_CAP = 3.5  # |log b| wall: shapes confined to ~[0.03, 33]
_LOG_SCALE_CAP = 12.0
# Cap of each internal coordinate (m has none), and how close a bootstrap
# replicate must come to one to count as held there.
_CAPS = np.array([_LOG_SHAPE_CAP] * 2 + [_LOG_SCALE_CAP] * 2 + [np.inf])
_CAP_TOL = 1e-6

# The mode profile scans this many sample quantiles, evenly spaced over
# this band.
_MODE_CANDIDATES = 41
_MODE_QUANTILES = (0.05, 0.95)
_PROFILE_OPTIONS = {"xatol": 1e-4, "fatol": 1e-6, "maxiter": 400, "maxfev": 600}
_REFINE_OPTIONS = {"xatol": 1e-8, "fatol": 1e-9, "maxiter": 4000, "maxfev": 8000}
# Replicate stop: see the module docstring.
_BOOTSTRAP_OPTIONS = {"xatol": 1e-6, "fatol": 1e-7, "maxiter": 1500, "maxfev": 3000}

# Below this fitted shape, curvature in m at the optimum reflects the
# finite-difference step rather than sampling variability (see module
# docstring); the mode's standard error then comes from the bootstrap.
_SMOOTH_SHAPE_MIN = 1.2


@dataclass
class AepFit:
    """Result of a maximum likelihood fit."""

    params: AepParams
    std_errors: dict[str, float | None] | None
    loglik: float
    n: int
    converged: bool
    n_restarts_used: int
    se_method: str | None
    # Bootstrap replicates that stopped on maxiter/maxfev rather than on the
    # tolerances; 0 when no bootstrap ran.
    n_bootstrap_unconverged: int = 0

    def to_json_dict(self) -> dict:
        return {
            **asdict(self.params),
            "se": dict(self.std_errors) if self.std_errors is not None else None,
            "loglik": self.loglik,
            "n": self.n,
            "converged": self.converged,
            "se_method": self.se_method,
            "n_restarts_used": self.n_restarts_used,
            "n_bootstrap_unconverged": self.n_bootstrap_unconverged,
        }


def _negll(theta, z_sorted):
    """Negative log-likelihood on standardized, ascending-sorted data.

    This is the optimizers' inner loop, called hundreds of thousands of times
    per bootstrapped fit, so its fixed cost is kept low: scalar checks use
    ``math``, and array reductions use the ndarray methods.  The arithmetic
    itself must not change, since every fitted digit depends on it.  ``u**b``
    overflows to inf for far-off trial points; callers run under
    ``np.errstate(over="ignore")`` (``fit_aep`` sets it once).
    """
    lbl, lbr, lal, lar, m = theta
    if not (isfinite(lbl) and isfinite(lbr) and isfinite(lal) and isfinite(lar)
            and isfinite(m)):
        return np.inf
    if max(abs(lbl), abs(lbr)) > _LOG_SHAPE_CAP or max(abs(lal), abs(lar)) > _LOG_SCALE_CAP:
        return np.inf
    b_l, b_r = np.exp(lbl), np.exp(lbr)
    a_l, a_r = np.exp(lal), np.exp(lar)
    k = z_sorted.searchsorted(m, side="right")
    s_left = (((m - z_sorted[:k]) / a_l) ** b_l).sum() / b_l
    s_right = (((z_sorted[k:] - m) / a_r) ** b_r).sum() / b_r
    inv_l, inv_r = np.exp(-lbl), np.exp(-lbr)
    log_norm = np.logaddexp(
        lal + lbl * inv_l + gammaln(1.0 + inv_l),
        lar + lbr * inv_r + gammaln(1.0 + inv_r),
    )
    value = z_sorted.size * log_norm + s_left + s_right
    return value if isfinite(value) else np.inf


class _BudgetSpent(Exception):
    """Raised inside ``_nelder_mead`` by a call past its ``maxfev``."""


def _nelder_mead(f, x0, args=(), *, xatol, fatol, maxiter, maxfev):
    """Minimize f from x0 by Nelder-Mead: (value, x, converged).

    Step for step the algorithm of ``scipy.optimize.minimize(f, x0, args,
    method="Nelder-Mead", options=...)`` without bounds: the same initial
    simplex, coefficients, operation order, stopping tests and order among
    tied vertices, so it returns the same digits and the same success flag.
    It keeps the simplex in lists of floats instead of small arrays, which
    costs about 4 us of bookkeeping per call of f where scipy takes about 20.
    f is called with a list of floats and must not return NaN.
    """
    n = len(x0)
    start = [float(v) for v in x0]
    sim = [start]
    for k in range(n):
        vertex = start.copy()
        vertex[k] = (1 + 0.05) * vertex[k] if vertex[k] != 0 else 0.00025
        sim.append(vertex)
    fsim = [np.inf] * (n + 1)
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return f(x, *args)

    def sort(only_last_moved):
        # Distinct values have one ascending order, however found.  Ties
        # keep the order numpy's (unstable) argsort gives them, as in scipy.
        if len(set(fsim)) <= n:
            order = np.argsort(np.array(fsim)).tolist()
        elif only_last_moved:
            p = bisect(fsim, fsim[n], 0, n)
            sim.insert(p, sim.pop())
            fsim.insert(p, fsim.pop())
            return
        else:
            order = sorted(range(n + 1), key=fsim.__getitem__)
        sim[:] = [sim[i] for i in order]
        fsim[:] = [fsim[i] for i in order]

    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _BudgetSpent:
        pass
    sort(False)
    sort(False)  # scipy sorts the first simplex twice
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        best, f_best = sim[0], fsim[0]
        # fsim is ascending, so its last entry is the farthest from f_best.
        if (abs(f_best - fsim[n]) <= fatol
                and all(abs(v - b) <= xatol for s in sim[1:] for v, b in zip(s, best))):
            break
        shrunk = False
        try:
            # Rows added in order, as numpy's sum over axis 0 adds them.
            xbar = [reduce(add, column) / n for column in zip(*sim[:-1])]
            worst = sim[n]
            xr = [2 * b - w for b, w in zip(xbar, worst)]
            fxr = evaluate(xr)
            if fxr < f_best:
                xe = [3 * b - 2 * w for b, w in zip(xbar, worst)]
                fxe = evaluate(xe)
                sim[n], fsim[n] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[n - 1]:
                sim[n], fsim[n] = xr, fxr
            else:
                if fxr < fsim[n]:
                    xc = [1.5 * b - 0.5 * w for b, w in zip(xbar, worst)]
                    fxc = evaluate(xc)
                    shrunk = not fxc <= fxr
                    if not shrunk:
                        sim[n], fsim[n] = xc, fxc
                else:
                    xcc = [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)]
                    fxcc = evaluate(xcc)
                    shrunk = not fxcc < fsim[n]
                    if not shrunk:
                        sim[n], fsim[n] = xcc, fxcc
                if shrunk:
                    for j in range(1, n + 1):
                        sim[j] = [a + 0.5 * (v - a) for a, v in zip(best, sim[j])]
                        fsim[j] = evaluate(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        sort(not shrunk)
    return fsim[0], np.array(sim[0]), nfev < maxfev and iterations < maxiter


def _profile_mode(z_sorted):
    """Best (theta4, m, value) over a quantile grid of mode candidates."""
    qs = np.linspace(*_MODE_QUANTILES, _MODE_CANDIDATES)
    candidates = np.unique(np.quantile(z_sorted, qs))
    theta4 = np.zeros(4)  # shapes 1, scales 1: Laplace at unit scale
    best = (np.inf, theta4, candidates[0])
    for m in candidates:
        value, theta4, _ = _nelder_mead(  # warm start the next candidate
            lambda t4: _negll((*t4, m), z_sorted), theta4, **_PROFILE_OPTIONS)
        if value < best[0]:
            best = (value, theta4, m)
    return best


def _refine(z_sorted, theta0):
    """Joint Nelder-Mead from theta0 and shape-perturbed restarts."""
    starts = [np.asarray(theta0, dtype=float)]
    for index, log_shape in ((0, np.log(0.7)), (0, np.log(1.5)),
                             (1, np.log(0.7)), (1, np.log(1.5))):
        start = starts[0].copy()
        start[index] = log_shape
        starts.append(start)
    best_fun, best_x, best_success = np.inf, starts[0], False
    for start in starts:
        value, x, success = _nelder_mead(_negll, start, (z_sorted,), **_REFINE_OPTIONS)
        if value < best_fun:
            best_fun, best_x, best_success = value, x, success
    # A Nelder-Mead simplex can collapse short of the optimum; one re-polish
    # from the incumbent with a fresh simplex recovers it.  ``_polish`` does
    # not make this redundant: without the re-polish, 4 of 46 samples tried
    # (criterion 2's n = 5000 seeds 5, 12 and 15, and one n = 1000 draw)
    # ended 1.6e-4 to 0.024 lower in log-likelihood.
    value, x, success = _nelder_mead(_negll, best_x, (z_sorted,), **_REFINE_OPTIONS)
    if value < best_fun:
        best_fun, best_x, best_success = value, x, success
    return best_fun, best_x, best_success, len(starts) - 1


def _negll_smooth(theta4, m, z_sorted):
    """Negative log-likelihood and its gradient in the smooth coordinates.

    At fixed mode the objective is infinitely differentiable in the four
    log shape/scale coordinates, with a short closed-form gradient; this is
    what lets the final polish use a quasi-Newton step.
    """
    lbl, lbr, lal, lar = theta4
    b_l, b_r = np.exp(lbl), np.exp(lbr)
    a_l, a_r = np.exp(lal), np.exp(lar)
    n = z_sorted.size
    k = np.searchsorted(z_sorted, m, side="right")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u_l = (m - z_sorted[:k]) / a_l
        u_r = (z_sorted[k:] - m) / a_r
        p_l, p_r = u_l**b_l, u_r**b_r
        sum_l, sum_r = float(np.sum(p_l)), float(np.sum(p_r))
        # u^b * log(u) -> 0 as u -> 0, so zero observations drop out.
        plog_l = float(np.sum(np.where(u_l > 0.0, p_l * np.log(u_l), 0.0)))
        plog_r = float(np.sum(np.where(u_r > 0.0, p_r * np.log(u_r), 0.0)))
    t_l = lal + lbl * np.exp(-lbl) + gammaln(1.0 + np.exp(-lbl))
    t_r = lar + lbr * np.exp(-lbr) + gammaln(1.0 + np.exp(-lbr))
    log_norm = np.logaddexp(t_l, t_r)
    w_l, w_r = np.exp(t_l - log_norm), np.exp(t_r - log_norm)
    value = n * log_norm + sum_l / b_l + sum_r / b_r
    if not np.isfinite(value):
        return np.inf, np.zeros(4)
    dt_lbl = np.exp(-lbl) * (1.0 - lbl - digamma(1.0 + np.exp(-lbl)))
    dt_lbr = np.exp(-lbr) * (1.0 - lbr - digamma(1.0 + np.exp(-lbr)))
    grad = np.array([
        n * w_l * dt_lbl + plog_l - sum_l / b_l,
        n * w_r * dt_lbr + plog_r - sum_r / b_r,
        n * w_l - sum_l,
        n * w_r - sum_r,
    ])
    return float(value), grad


_SMOOTH_BOUNDS = [(-_LOG_SHAPE_CAP, _LOG_SHAPE_CAP)] * 2 + [
    (-_LOG_SCALE_CAP, _LOG_SCALE_CAP)
] * 2
_MODE_BRACKET = 1e-4  # in standardized units; well within one data spacing
_POLISH_ROUNDS = 4


def _polish(z_sorted, theta_hat):
    """Coordinate polish of a Nelder-Mead optimum to near machine precision."""
    theta = np.asarray(theta_hat, dtype=float).copy()
    value = _negll(theta, z_sorted)
    for _ in range(_POLISH_ROUNDS):
        res = minimize(
            _negll_smooth, theta[:4], args=(theta[4], z_sorted),
            jac=True, method="L-BFGS-B", bounds=_SMOOTH_BOUNDS,
            options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 200},
        )
        if np.isfinite(res.fun) and res.fun <= value:
            theta[:4], value = res.x, float(res.fun)
        scalar = minimize_scalar(
            lambda m: _negll(np.append(theta[:4], m), z_sorted),
            bounds=(theta[4] - _MODE_BRACKET, theta[4] + _MODE_BRACKET),
            method="bounded", options={"xatol": 1e-13},
        )
        if np.isfinite(scalar.fun) and scalar.fun <= value:
            theta[4], value = float(scalar.x), float(scalar.fun)
    return value, theta


@np.errstate(invalid="ignore")
def _hessian(f, x0, step=1e-4):
    """Symmetric Hessian by central finite differences.

    A step past a parameter cap evaluates to inf, and inf - inf makes that
    entry NaN; the caller treats a non-finite matrix as unusable, so the
    invalid-value warning is silenced here.
    """
    d = x0.size
    h = np.full(d, step)
    f0 = f(x0)
    hess = np.empty((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h[i]
        hess[i, i] = (f(x0 + ei) - 2.0 * f0 + f(x0 - ei)) / h[i] ** 2
    for i in range(d):
        for j in range(i + 1, d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = h[i]
            ej[j] = h[j]
            mixed = (
                f(x0 + ei + ej) - f(x0 + ei - ej) - f(x0 - ei + ej) + f(x0 - ei - ej)
            )
            hess[i, j] = hess[j, i] = mixed / (4.0 * h[i] * h[j])
    return hess


def _information_se(z_sorted, theta_hat):
    """Internal-coordinate standard errors from the observed information.

    Returns None when the numerical Hessian is not positive definite.
    """
    hess = _hessian(lambda t: _negll(t, z_sorted), theta_hat)
    if not np.all(np.isfinite(hess)):
        return None
    try:
        np.linalg.cholesky(hess)
        cov = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        return None
    variances = np.diag(cov)
    if np.any(variances <= 0.0):
        return None
    return np.sqrt(variances)


def _to_natural(theta, loc, scale, mirrored=False):
    """Map internal coordinates back to AepParams on the original data scale.

    ``mirrored`` says the internal problem was solved on the negated sample;
    the sides swap and the mode flips on the way back.
    """
    lbl, lbr, lal, lar, m = theta
    if mirrored:
        lbl, lbr, lal, lar, m = lbr, lbl, lar, lal, -m
    return AepParams(
        b_l=float(np.exp(lbl)),
        b_r=float(np.exp(lbr)),
        a_l=float(np.exp(lal) * scale),
        a_r=float(np.exp(lar) * scale),
        m=float(loc + m * scale),
    )


def fit_aep(
    sample,
    *,
    bootstrap_fallback: int = 200,
    seed: int = 0,
) -> AepFit:
    """Fit all five parameters by maximum likelihood.

    Parameters
    ----------
    sample : array_like
        Observations; at least 50 finite values are required, since the
        five-parameter likelihood is badly behaved on smaller samples.
    bootstrap_fallback : int
        Number of bootstrap replicates used for standard errors when the
        observed information matrix is not positive definite, and for the
        mode's standard error when a fitted shape is below 1.2 (where
        curvature-based errors for m are invalid; see module docstring).
        Zero disables both uses; curvature-based values are then reported
        as-is, or ``std_errors`` is None when the matrix is unusable.
    seed : int
        Seed for the bootstrap fallback.

    Returns
    -------
    AepFit
        ``std_errors`` is a dict keyed by parameter name, present only when
        the optimizer converged and a standard error method succeeded.  A
        bootstrapped shape or scale whose replicates all sit on its cap has
        error None.  ``n_bootstrap_unconverged`` counts the bootstrap
        replicates that stopped on their iteration or evaluation limit.
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 50:
        raise ValueError(f"need at least 50 observations to fit, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    loc = float(np.median(x))
    scale = float(np.mean(np.abs(x - loc)))
    if scale == 0.0:
        raise ValueError("sample has zero dispersion")
    z = (x - loc) / scale
    mirrored = bool(np.sum(z) < 0.0)
    if mirrored:
        z = -z
    z = np.sort(z)

    # Trial points far from the data overflow u**b in _negll to inf, which
    # the optimizers treat as a rejected step; that is silenced here, once
    # for the whole fit, rather than on every likelihood call.
    with np.errstate(over="ignore"):
        _, theta4, m0 = _profile_mode(z)
        fun, theta_hat, success, n_restarts = _refine(z, np.append(theta4, m0))
        fun, theta_hat = _polish(z, theta_hat)
        converged = bool(success) and bool(np.isfinite(fun))
        params = _to_natural(theta_hat, loc, scale, mirrored)

        std_errors = None
        se_method = None
        n_unconverged = 0
        if converged:
            se_internal = _information_se(z, theta_hat)
            if se_internal is not None:
                # Delta method: d(exp(u))/du = exp(u); scales carry the data
                # scale.  Internal coordinates are in mirrored order when the
                # sample was re-oriented.
                i_bl, i_br, i_al, i_ar = (1, 0, 3, 2) if mirrored else (0, 1, 2, 3)
                se_method = "hessian"
                std_errors = {
                    "b_l": float(params.b_l * se_internal[i_bl]),
                    "b_r": float(params.b_r * se_internal[i_br]),
                    "a_l": float(params.a_l * se_internal[i_al]),
                    "a_r": float(params.a_r * se_internal[i_ar]),
                    "m": float(scale * se_internal[4]),
                }
                if (min(params.b_l, params.b_r) < _SMOOTH_SHAPE_MIN
                        and bootstrap_fallback > 0):
                    boot, n_unconverged = _bootstrap_se(
                        z, theta_hat, loc, scale, mirrored, bootstrap_fallback, seed)
                    std_errors["m"] = boot["m"]
                    se_method = "hessian+bootstrap_m"
            elif bootstrap_fallback > 0:
                se_method = "bootstrap"
                std_errors, n_unconverged = _bootstrap_se(
                    z, theta_hat, loc, scale, mirrored, bootstrap_fallback, seed)
    loglik = float(np.sum(log_density(x, params)))

    return AepFit(
        params=params,
        std_errors=std_errors,
        loglik=loglik,
        n=int(x.size),
        converged=converged,
        n_restarts_used=n_restarts,
        se_method=se_method,
        n_bootstrap_unconverged=n_unconverged,
    )


def _bootstrap_se(z_sorted, theta_hat, loc, scale, mirrored, n_replicates, seed):
    """Standard errors from refits on resampled data, warm started at the fit.

    A shape or scale whose replicates all end on its log cap has no sampling
    spread to measure (the wall holds it, not the data); its error is None
    rather than a spurious zero.  So is the mode's when every replicate
    returns it to within a few ulps: a spread of rounding error measures
    the arithmetic, not the sample.

    Returns the errors by parameter name and the number of replicates that
    stopped on an iteration or evaluation limit instead of converging.
    """
    draws = np.empty((n_replicates, 5))
    no_spread = np.ones(5, dtype=bool)
    n_unconverged = 0
    for rep in range(n_replicates):
        rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
        resampled = np.sort(rng.choice(z_sorted, size=z_sorted.size, replace=True))
        _, theta_rep, success = _nelder_mead(_negll, theta_hat, (resampled,),
                                             **_BOOTSTRAP_OPTIONS)
        n_unconverged += not success
        no_spread &= np.abs(theta_rep) >= _CAPS - _CAP_TOL
        p = _to_natural(theta_rep, loc, scale, mirrored)
        draws[rep] = (p.b_l, p.b_r, p.a_l, p.a_r, p.m)
    if mirrored:
        no_spread = no_spread[[1, 0, 3, 2, 4]]
    spread = np.std(draws, axis=0, ddof=1)
    m_hat = _to_natural(theta_hat, loc, scale, mirrored).m
    no_spread[4] = spread[4] <= 16 * np.spacing(abs(m_hat))
    errors = {
        name: None if no_spread[i] else float(spread[i])
        for i, name in enumerate(("b_l", "b_r", "a_l", "a_r", "m"))
    }
    return errors, n_unconverged


def fit_special(sample, family: str) -> AepFit:
    """Closed-form fit of a symmetric special case.

    ``family`` is ``"gaussian"`` (both shapes fixed at 2) or ``"laplace"``
    (both shapes fixed at 1).  The location and scale maximum likelihood
    estimators have closed forms: mean and root mean squared deviation for
    the Gaussian, median and mean absolute deviation for the Laplace.
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 2:
        raise ValueError(f"need at least 2 observations, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    n = x.size
    if family == "gaussian":
        m = float(np.mean(x))
        a = float(np.std(x))
        if a == 0.0:
            raise ValueError("sample has zero dispersion")
        params = AepParams.gaussian(a, m)
        std_errors = {"b_l": 0.0, "b_r": 0.0,
                      "a_l": a / np.sqrt(2.0 * n), "a_r": a / np.sqrt(2.0 * n),
                      "m": a / np.sqrt(n)}
    elif family == "laplace":
        m = float(np.median(x))
        a = float(np.mean(np.abs(x - m)))
        if a == 0.0:
            raise ValueError("sample has zero dispersion")
        params = AepParams.laplace(a, m)
        std_errors = {"b_l": 0.0, "b_r": 0.0,
                      "a_l": a / np.sqrt(n), "a_r": a / np.sqrt(n),
                      "m": a / np.sqrt(n)}
    else:
        raise ValueError(f"unknown family {family!r}; expected 'gaussian' or 'laplace'")
    loglik = float(np.sum(log_density(x, params)))
    return AepFit(
        params=params,
        std_errors=std_errors,
        loglik=loglik,
        n=int(n),
        converged=True,
        n_restarts_used=0,
        se_method="closed_form",
    )
