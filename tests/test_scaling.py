"""Scaling estimators against the generator oracle and their invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog, minimize_scalar
from scipy.special import ndtri, stdtr
from scipy.stats import norm
from scipy.stats import t as student_t

from growthvol.panel import build_growth_panel, stratify
from growthvol.scaling import (
    _BETA_BOUNDS,
    _CRITICAL_5PCT,
    _alad_loss,
    _bootstrap_alad,
    _exact_location,
    bin_stats_csv,
    binned_beta,
    binned_beta_xy,
    fit_alad,
    rescale_residuals,
)
from growthvol.synth import SynthSpec, generate


@pytest.fixture(scope="module")
def hetero_panel():
    # 31 countries x 50 years with a strong scale relation
    return generate(SynthSpec(alpha=0.02, phi1=0.3, beta=-0.3, seed=42))


@pytest.fixture(scope="module")
def null_panel():
    return generate(SynthSpec(alpha=0.02, phi1=0.3, beta=0.0, seed=43))


def test_binned_recovers_generator_beta(hetero_panel):
    fit, bins = binned_beta(hetero_panel)
    assert fit.method == "binned"
    assert fit.beta == pytest.approx(-0.3, abs=2 * fit.se_beta)
    assert fit.significant_5pct
    assert fit.n_obs == 31 * 50
    assert len(bins) == 15


def test_binned_null_not_significant(null_panel):
    fit, _ = binned_beta(null_panel)
    assert abs(fit.beta) < 3 * fit.se_beta


def test_bins_equal_occupancy(hetero_panel):
    _, bins = binned_beta(hetero_panel, n_bins=15)
    counts = [b.count for b in bins]
    assert max(counts) - min(counts) <= 1
    assert sum(counts) == 1550
    sizes = [b.mean_size for b in bins]
    assert sizes == sorted(sizes)
    assert all(b.sigma > 0 for b in bins)


def test_binned_occupancy_violation_names_remedy():
    sizes = np.linspace(-1, 1, 100)
    values = np.sin(sizes * 17.0) * 0.1 + 0.01 * sizes**2
    with pytest.raises(ValueError, match="at most 3 bins"):
        binned_beta_xy(sizes, values, n_bins=10)


def test_binned_needs_three_bins():
    with pytest.raises(ValueError, match="at least 3 bins"):
        binned_beta_xy(np.arange(100.0), np.arange(100.0), n_bins=2)


def test_binned_constant_sizes_unidentified():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="unidentified"):
        binned_beta_xy(np.zeros(200), rng.normal(size=200), n_bins=4)


def test_bin_csv_layout(hetero_panel):
    _, bins = binned_beta(hetero_panel)
    text = bin_stats_csv(bins)
    lines = text.strip().split("\n")
    assert lines[0] == "bin,mean_size,sigma,count"
    assert len(lines) == 16


def test_rescale_beta_zero_is_demeaning(null_panel):
    eps = rescale_residuals(null_panel, 0.0)
    _, years, growth, _ = null_panel.growth_arrays()
    for y in (1955, 1980):
        mask = years == y
        np.testing.assert_allclose(
            eps[mask], growth[mask] - growth[mask].mean(), atol=1e-12
        )
    with pytest.raises(ValueError, match="finite"):
        rescale_residuals(null_panel, np.nan)


def test_rescale_restores_homoskedasticity(hetero_panel):
    fit, _ = binned_beta(hetero_panel)
    eps = rescale_residuals(hetero_panel, fit.beta)
    _, _, _, size = hetero_panel.growth_arrays()
    refit, _ = binned_beta_xy(size, eps)
    assert abs(refit.beta / refit.se_beta) < 2.0


def test_alad_recovers_generator_params():
    panel = generate(SynthSpec(alpha=0.02, phi1=0.3, beta=-0.2, seed=7))
    fit = fit_alad(panel, bootstrap=100, seed=1)
    assert fit.method == "alad"
    assert fit.gamma_or_alpha == pytest.approx(0.02, abs=3 * fit.se_gamma_or_alpha)
    assert fit.phi1 == pytest.approx(0.3, abs=3 * fit.se_phi1)
    assert fit.beta == pytest.approx(-0.2, abs=3 * fit.se_beta)
    assert fit.significant_5pct
    assert fit.n_obs == 31 * 49  # one lag year consumed per country


def test_alad_trace_monotone(hetero_panel):
    fit = fit_alad(hetero_panel, bootstrap=0)
    assert len(fit.trace) >= 2
    assert all(a > b for a, b in zip(fit.trace, fit.trace[1:]))


def _one_more_round(r_t, r_lag, s_lag, fit):
    """The loss after one more location-then-beta round from a returned fit."""
    alpha, phi1 = _exact_location(r_t, r_lag, np.exp(-fit.beta * s_lag),
                                  (fit.gamma_or_alpha, fit.phi1))
    residuals = np.abs(r_t - alpha - phi1 * r_lag)
    beta = minimize_scalar(lambda b: float(np.sum(b * s_lag + residuals * np.exp(-b * s_lag))),
                           bounds=_BETA_BOUNDS, method="bounded",
                           options={"xatol": 1e-10}).x
    return _alad_loss(r_t, r_lag, s_lag, alpha, phi1, float(beta))


def test_alad_stops_at_a_fixed_point(toy_panel):
    # The fit ends at a fixed point of its rounds: one more round from the
    # returned fit lowers nothing, not even by rounding (about 3e-16 of the
    # loss on the toy windows where a fit stopped short of this).
    first, last = toy_panel.growth_years()
    windows = [stratify(toy_panel, year_range=(start, start + 9))
               for start in range(first, last - 8)]
    assert len(windows) == 90
    for seed in (100, 103):
        panel = generate(SynthSpec(beta=-0.2, seed=seed))
        windows += [stratify(panel, year_range=(start, start + 9))
                    for start in range(1950, 1991)]
    for window in windows:
        fit = fit_alad(window, bootstrap=0)
        r_t, r_lag, s_lag = window.ar1_pairs()[:3]
        assert fit.trace[-1] == _alad_loss(r_t, r_lag, s_lag, fit.gamma_or_alpha,
                                           fit.phi1, fit.beta)
        assert not _one_more_round(r_t, r_lag, s_lag, fit) < fit.trace[-1]


def test_alad_alpha_first_order_optimality(hetero_panel):
    fit = fit_alad(hetero_panel, bootstrap=0)
    pairs = hetero_panel.ar1_pairs()[:3]

    def loss(alpha):
        return _alad_loss(*pairs, alpha, fit.phi1, fit.beta)

    at_optimum = loss(fit.gamma_or_alpha)
    for delta in (1e-6, 1e-5, 1e-4):
        for sign in (-1.0, 1.0):
            perturbed = loss(fit.gamma_or_alpha + sign * delta)
            assert perturbed >= at_optimum - 1e-12


def test_alad_deterministic(hetero_panel):
    one = fit_alad(hetero_panel, bootstrap=30, seed=9)
    two = fit_alad(hetero_panel, bootstrap=30, seed=9)
    assert one == two
    three = fit_alad(hetero_panel, bootstrap=30, seed=10)
    assert three.se_beta != one.se_beta  # different resamples


def test_alad_degenerate_sizes_rejected():
    panel = generate(SynthSpec(n_countries=1, n_years=30, beta=0.0, seed=3))
    with pytest.raises(ValueError, match="unidentified"):
        fit_alad(panel, bootstrap=0)


def test_json_layout(hetero_panel):
    fit, bins = binned_beta(hetero_panel)
    d = fit.to_json_dict(bins)
    assert set(d) == {"method", "beta", "se_beta", "alpha_or_gamma",
                      "se_alpha_or_gamma", "phi1", "se_phi1", "n", "significant_5pct",
                      "n_bootstrap_requested", "n_bootstrap_used", "bins"}
    assert d["phi1"] is None and d["se_phi1"] is None
    assert d["se_alpha_or_gamma"] == fit.se_gamma_or_alpha
    assert d["n_bootstrap_requested"] is None and d["n_bootstrap_used"] is None
    assert len(d["bins"]) == 15
    assert set(d["bins"][0]) == {"bin", "mean_size", "sigma", "count"}

    afit = fit_alad(hetero_panel, bootstrap=0)
    ad = afit.to_json_dict()
    assert ad["method"] == "alad"
    assert ad["bins"] is None
    assert ad["phi1"] == afit.phi1
    assert ad["se_phi1"] is None
    assert (ad["n_bootstrap_requested"], ad["n_bootstrap_used"]) == (0, 0)


def test_alad_counts_skipped_replicates():
    # A's log level is the mean of B's and C's plus a constant, so its size
    # never moves: a draw of A alone has no size variation and is skipped.
    rng = np.random.default_rng(0)
    b = np.cumsum(rng.normal(0.02, 0.05, size=31))
    c = np.cumsum(rng.normal(0.02, 0.05, size=31)) + 1.0
    paths = {"A": (b + c) / 2.0 + 0.5, "B": b, "C": c}
    panel = build_growth_panel((np.repeat(list(paths), 31),
                                np.tile(np.arange(1950, 1981), 3),
                                np.exp(np.concatenate(list(paths.values())))))
    fit = fit_alad(panel, bootstrap=60, seed=0)
    assert fit.n_bootstrap_requested == 60
    assert 30 <= fit.n_bootstrap_used < 60
    assert fit.se_beta > 0.0


def test_alad_replicates_of_two_countries_identify_beta():
    # Re-demeaned by year, the sizes of a draw that repeats one country are
    # all zero, so beta is unidentified there; such draws must be skipped
    # rather than fitted to beta = 0.  In a two-country panel they are half
    # of all draws.
    panel = generate(SynthSpec(n_countries=2, n_years=20, beta=-0.3, seed=7))
    r_t, r_lag, s_lag, country, year = panel.ar1_pairs()
    draws, varied = _bootstrap_alad(r_t, r_lag, s_lag, country, year, 200, 0)
    assert 50 <= len(draws) < 150
    assert not np.any(draws[:, 2] == 0.0)
    assert not varied  # every kept draw is the sample itself


@pytest.mark.parametrize("seed", range(4))
def test_alad_two_countries_report_no_errors(seed):
    # With two countries every fitted draw is {C0, C1}, the sample itself,
    # so the replicates' spread was rounding noise (se_beta about 1e-10)
    # that flagged beta = -0.001 significant.  Three countries draw
    # different samples and keep their errors.
    two = fit_alad(generate(SynthSpec(n_countries=2, n_years=40, beta=0.0, seed=seed)),
                   bootstrap=200)
    assert two.n_bootstrap_used >= 100
    assert two.se_beta is two.se_phi1 is two.se_gamma_or_alpha is None
    assert two.significant_5pct is None
    three = fit_alad(generate(SynthSpec(n_countries=3, n_years=40, beta=0.0, seed=seed)),
                     bootstrap=200)
    assert three.se_beta > 1e-3 and three.significant_5pct is not None


# ------------------------------------------------------ ALAD location step


def _check_loss(y, x, weights, a, b):
    return float(np.sum(weights * np.abs(y - a - b * x)))


def _linprog_location(y, x, weights):
    """The same weighted absolute-loss regression solved as a linear program."""
    n = y.size
    cost = np.concatenate([[0.0, 0.0], weights, weights])
    identity = sparse.identity(n, format="csr")
    equality = sparse.hstack([np.ones((n, 1)), x[:, None], identity, -identity],
                             format="csr")
    result = linprog(cost, A_eq=equality, b_eq=y, method="highs",
                     bounds=[(None, None)] * 2 + [(0.0, None)] * (2 * n))
    assert result.status == 0
    return float(result.x[0]), float(result.x[1])


def _assert_location_matches_linprog(y, x, weights, start):
    # The LP's own objective value is only good to about 1e-9, so both are
    # recomputed from the (a, b) each solver returns.  Its (a, b) can itself
    # sit a few ulps off the optimum when the weights span many decades, so
    # the exact solver may come out lower.  Two solvers reaching one line by
    # different arithmetic also differ by the rounding of the residuals,
    # which on a few points with a small loss exceeds 1e-12 of the loss.
    exact = _check_loss(y, x, weights, *_exact_location(y, x, weights, start))
    reference = _check_loss(y, x, weights, *_linprog_location(y, x, weights))
    rounding = 1e-14 * float(np.sum(weights * np.abs(y)))
    assert exact <= reference * (1.0 + 1e-12) + rounding


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 300), seed=st.integers(0, 2**32 - 1),
       duplicated_x=st.booleans(), data=st.data())
def test_exact_location_matches_linprog(n, seed, duplicated_x, data):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 0.05
    if duplicated_x:
        x = np.round(x, 2)  # a few dozen distinct values, most of them repeated
    y = 0.02 + 0.3 * x + rng.laplace(size=n) * 0.03
    weights = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    # The optimum under equal weights is a vertex that stays optimal along
    # some of its edges, as a warm start in the ALAD rounds is; an early
    # stop would hand it back unimproved.
    start = data.draw(st.sampled_from([(float(np.median(y)), 0.0), (0.1, -2.0),
                                       _linprog_location(y, x, np.ones(n))]))
    _assert_location_matches_linprog(y, x, weights, start)


def _irls_location_reference(y, x, weights, start, iterations=60, tol=1e-12):
    """The IRLS step the exact location step replaced, as first written."""
    a, b = start
    floor = 1e-10 * (np.std(y) + 1e-12)
    for _ in range(iterations):
        e = y - a - b * x
        u = weights / np.maximum(np.abs(e), floor)
        sw = u.sum()
        swx = float(u @ x)
        swxx = float(u @ (x * x))
        swy = float(u @ y)
        swxy = float(u @ (x * y))
        det = sw * swxx - swx * swx
        if not np.isfinite(det) or det <= 1e-14 * max(sw * swxx, 1e-300):
            break
        a_new = (swxx * swy - swx * swxy) / det
        b_new = (sw * swxy - swx * swy) / det
        shift = max(abs(a_new - a), abs(b_new - b))
        a, b = a_new, b_new
        if shift < tol:
            break
    return a, b


@pytest.mark.parametrize("weight_scale", [1.0, 2.0])
@pytest.mark.parametrize("n", [40, 279, 3038])
def test_irls_location_matches_reference_exactly(weight_scale, n):
    # The cases that pinned the IRLS location step: the exact step reaches
    # the linear program's optimum on them, and no IRLS result, run to its
    # stop or cut off after 3 iterations, has a lower loss.
    rng = np.random.default_rng([n, int(10 * weight_scale)])
    for _ in range(12):
        x = rng.normal(size=n) * 0.05
        y = 0.02 + 0.3 * x + rng.laplace(size=n) * 0.03
        weights = weight_scale * np.exp(-rng.normal() * rng.normal(size=n))
        start = (float(np.median(y)), 0.0)
        exact = _check_loss(y, x, weights, *_exact_location(y, x, weights, start))
        rounding = 1e-14 * float(np.sum(weights * np.abs(y)))
        for iterations in (60, 3):
            irls = _check_loss(y, x, weights,
                               *_irls_location_reference(y, x, weights, start,
                                                         iterations=iterations))
            assert exact <= irls * (1.0 + 1e-12) + rounding
        _assert_location_matches_linprog(y, x, weights, start)


@pytest.mark.parametrize("weight_scale", [1.0, 2.0])
def test_exact_location_edge_cases(weight_scale):
    rng = np.random.default_rng(5)
    n = 200
    x = rng.normal(size=n)
    weights = weight_scale * rng.uniform(0.5, 2.0, size=n)
    # Every residual at zero: the line through all the points is found.
    a, b = _exact_location(0.1 + 0.5 * x, x, weights, (0.0, 0.0))
    assert a == pytest.approx(0.1, abs=1e-15) and b == pytest.approx(0.5, abs=1e-15)
    # A constant regressor leaves the slope unidentified: the start comes back.
    assert _exact_location(rng.laplace(size=n), np.full(n, 0.3), weights,
                           (0.0, 0.0)) == (0.0, 0.0)
    # Every x value four times over.
    x = np.repeat(rng.normal(size=n // 4), 4)
    y = 0.1 + 0.5 * x + rng.laplace(size=n) * 0.2
    _assert_location_matches_linprog(y, x, weights, (0.0, 0.0))


def test_alad_bootstrap_leaves_point_fit_untouched(hetero_panel):
    # Replicates are separate fits of resampled panels, so the estimates and
    # the trace do not depend on whether errors are asked for.
    point = fit_alad(hetero_panel, bootstrap=0)
    with_errors = fit_alad(hetero_panel, bootstrap=20)
    assert point.gamma_or_alpha == with_errors.gamma_or_alpha
    assert point.phi1 == with_errors.phi1
    assert point.beta == with_errors.beta
    assert point.trace == with_errors.trace
    assert with_errors.se_beta > 0.0


def test_alad_unpolished_replicates_keep_the_standard_error(toy_panel):
    # Replicates that ended in a three-parameter simplex polish gave se_beta
    # 0.014403427443372937 on the bundled panel's late half; replicates fitted
    # by rounds with an exact location step must stay within 1%.
    late = stratify(toy_panel, year_range=(1950, 1999))
    fit = fit_alad(late, bootstrap=200, seed=0)
    assert fit.se_beta == pytest.approx(0.014403427443372937, rel=0.01)


def test_special_function_tails_equal_scipy_stats():
    # binned_beta_xy and fit_alad's 5% flag take their Student t and normal
    # tails from scipy.special, which imports far faster than scipy.stats;
    # the values must be the same floats.
    ratios = np.concatenate([np.linspace(0.0, 40.0, 801), np.geomspace(1e-8, 1e4, 241)])
    for dof in (*range(1, 60), 100, 1000):
        assert np.array_equal(stdtr(dof, -ratios), student_t.sf(ratios, dof)), dof
    levels = np.concatenate([[0.05, 0.01, 0.1, 0.2, 1e-3], np.geomspace(1e-12, 0.999, 400)])
    for level in levels:
        assert ndtri(1.0 - level / 2.0) == norm.ppf(1.0 - level / 2.0), level
    assert _CRITICAL_5PCT == norm.ppf(1.0 - 0.05 / 2.0)
