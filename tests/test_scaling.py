"""Scaling estimators against the generator oracle and their invariants."""

import numpy as np
import pytest
from scipy.special import ndtri, stdtr
from scipy.stats import norm
from scipy.stats import t as student_t

from growthvol.panel import stratify
from growthvol.scaling import (
    _irls_location,
    alad_objective,
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
        binned_beta_xy(sizes, values, n_bins=10, min_occupancy=30)


def test_binned_needs_three_bins():
    with pytest.raises(ValueError, match="at least 3 bins"):
        binned_beta_xy(np.arange(100.0), np.arange(100.0), n_bins=2, min_occupancy=1)


def test_binned_constant_sizes_unidentified():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="unidentified"):
        binned_beta_xy(np.zeros(200), rng.normal(size=200), n_bins=4, min_occupancy=30)


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


def test_rescale_restores_homoskedasticity(hetero_panel):
    fit, _ = binned_beta(hetero_panel)
    eps = rescale_residuals(hetero_panel, fit.beta)
    _, _, _, size = hetero_panel.growth_arrays()
    refit, _ = binned_beta_xy(size, eps)
    assert abs(refit.beta / refit.se_beta) < 2.0


def test_rescale_center_options(hetero_panel):
    by_year = rescale_residuals(hetero_panel, -0.3, center="year")
    by_country = rescale_residuals(hetero_panel, -0.3, center="country")
    assert by_year.shape == by_country.shape
    assert not np.allclose(by_year, by_country)
    with pytest.raises(ValueError, match="center"):
        rescale_residuals(hetero_panel, -0.3, center="median")
    with pytest.raises(ValueError, match="finite"):
        rescale_residuals(hetero_panel, np.nan)


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
    assert all(a >= b - 1e-12 for a, b in zip(fit.trace, fit.trace[1:]))


def test_alad_alpha_first_order_optimality(hetero_panel):
    fit = fit_alad(hetero_panel, bootstrap=0)
    at_optimum = alad_objective(hetero_panel, fit.gamma_or_alpha, fit.phi1, fit.beta)
    for delta in (1e-6, 1e-5, 1e-4):
        for sign in (-1.0, 1.0):
            perturbed = alad_objective(
                hetero_panel, fit.gamma_or_alpha + sign * delta, fit.phi1, fit.beta
            )
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


def test_alad_asymmetric_kernel_shifts_location(hetero_panel):
    symmetric = fit_alad(hetero_panel, bootstrap=0)
    skewed = fit_alad(hetero_panel, bootstrap=0, tail_weights=(1.0, 3.0))
    # Tripling the cost of positive residuals moves the location fit up,
    # to the 75th weighted percentile of the residual distribution.
    assert skewed.gamma_or_alpha > symmetric.gamma_or_alpha
    assert all(a >= b - 1e-12 for a, b in zip(skewed.trace, skewed.trace[1:]))


def test_json_layout(hetero_panel):
    fit, bins = binned_beta(hetero_panel)
    d = fit.to_json_dict(bins)
    assert set(d) == {"method", "beta", "se_beta", "alpha_or_gamma", "phi1", "n",
                      "significant_5pct", "bins"}
    assert d["phi1"] is None
    assert len(d["bins"]) == 15
    assert set(d["bins"][0]) == {"bin", "mean_size", "sigma", "count"}

    afit = fit_alad(hetero_panel, bootstrap=0)
    ad = afit.to_json_dict()
    assert ad["method"] == "alad"
    assert ad["bins"] is None
    assert ad["phi1"] == afit.phi1


# ------------------------------------------------- ALAD optimizer speed-ups


def _irls_location_reference(y, x, weights, tail_weights, start, iterations=60,
                             tol=1e-12):
    """The IRLS step as first written, before its loop invariants were hoisted."""
    a, b = start
    w_left, w_right = tail_weights
    floor = 1e-10 * (np.std(y) + 1e-12)
    for _ in range(iterations):
        e = y - a - b * x
        u = weights * np.where(e >= 0.0, w_right, w_left) / np.maximum(np.abs(e), floor)
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


@pytest.mark.parametrize("tail_weights", [(1.0, 1.0), (1.0, 3.0), (2.0, 2.0), (0.5, 0.7)])
@pytest.mark.parametrize("n", [40, 279, 3038])
def test_irls_location_matches_reference_exactly(tail_weights, n):
    rng = np.random.default_rng([n, int(10 * tail_weights[1])])
    for _ in range(12):
        x = rng.normal(size=n) * 0.05
        y = 0.02 + 0.3 * x + rng.laplace(size=n) * 0.03
        weights = np.exp(-rng.normal() * rng.normal(size=n))
        start = (float(np.median(y)), 0.0)
        expected = _irls_location_reference(y, x, weights, tail_weights, start)
        assert _irls_location(y, x, weights, tail_weights, start) == expected
        # A few iterations only, stopping mid-descent.
        expected = _irls_location_reference(y, x, weights, tail_weights, start,
                                            iterations=3)
        assert _irls_location(y, x, weights, tail_weights, start,
                              iterations=3) == expected


@pytest.mark.parametrize("tail_weights", [(1.0, 1.0), (1.0, 3.0), (2.0, 2.0)])
def test_irls_location_edge_cases_match_reference(tail_weights):
    rng = np.random.default_rng(5)
    n = 200
    x = rng.normal(size=n)
    weights = rng.uniform(0.5, 2.0, size=n)
    # Residuals exactly at zero, so the floor sets their weight: half the
    # points lie on the starting line.
    y = 0.1 + 0.5 * x
    y[::2] += rng.laplace(size=n // 2) * 0.2
    cases = [(y, x, (0.1, 0.5))]
    # Every residual at zero.
    cases.append((0.1 + 0.5 * x, x, (0.1, 0.5)))
    # A constant lag regressor: det vanishes and the start comes back.
    cases.append((rng.laplace(size=n), np.full(n, 0.3), (0.0, 0.0)))
    for y_case, x_case, start in cases:
        expected = _irls_location_reference(y_case, x_case, weights, tail_weights, start)
        assert _irls_location(y_case, x_case, weights, tail_weights, start) == expected
    assert _irls_location(cases[-1][0], cases[-1][1], weights, tail_weights,
                          (0.0, 0.0)) == (0.0, 0.0)


def test_alad_bootstrap_leaves_point_fit_untouched(hetero_panel):
    # Replicates fit without the simplex polish; the point fit keeps it, so
    # the estimates and the trace do not depend on whether errors are asked for.
    point = fit_alad(hetero_panel, bootstrap=0)
    with_errors = fit_alad(hetero_panel, bootstrap=20)
    assert point.gamma_or_alpha == with_errors.gamma_or_alpha
    assert point.phi1 == with_errors.phi1
    assert point.beta == with_errors.beta
    assert point.trace == with_errors.trace
    assert with_errors.se_beta > 0.0


def test_alad_unpolished_replicates_keep_the_standard_error(toy_panel):
    # Polished replicates gave se_beta 0.014403427443372937 on the bundled
    # panel's late half; replicates without the polish must stay within 1%.
    late = stratify(toy_panel, year_range=(1950, 1999))
    fit = fit_alad(late, bootstrap=200, seed=0)
    assert fit.se_beta == pytest.approx(0.014403427443372937, rel=0.01)


def test_special_function_tails_equal_scipy_stats():
    # binned_beta_xy and significance_segments take their Student t and
    # normal tails from scipy.special, which imports far faster than
    # scipy.stats; the values must be the same floats.
    ratios = np.concatenate([np.linspace(0.0, 40.0, 801), np.geomspace(1e-8, 1e4, 241)])
    for dof in (*range(1, 60), 100, 1000):
        assert np.array_equal(stdtr(dof, -ratios), student_t.sf(ratios, dof)), dof
    levels = np.concatenate([[0.05, 0.01, 0.1, 0.2, 1e-3], np.geomspace(1e-12, 0.999, 400)])
    for level in levels:
        assert ndtri(1.0 - level / 2.0) == norm.ppf(1.0 - level / 2.0), level
