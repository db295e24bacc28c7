"""Maximum likelihood fitting: closed forms, equivariance, recovery, guards.

The full five-parameter fit is exercised at moderate sample sizes to keep the
suite fast; the statistically demanding calibration study lives in the
acceptance tests.
"""

import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from growthvol import aep_fit
from growthvol.aep import AepParams, sample
from growthvol.aep_fit import AepFit, _information_se, _negll, fit_aep, fit_special
from growthvol.panel import development_split, stratify

# A right-skewed, heavy-left-tail configuration used across recovery tests.
TRUTH = AepParams(b_l=0.75, b_r=1.0, a_l=0.045, a_r=0.050, m=0.01)


def _draw(params, n, seed):
    return sample(params, n, rng=np.random.default_rng(seed))


@pytest.fixture(scope="module")
def base_sample():
    return _draw(TRUTH, 1000, seed=11)


@pytest.fixture(scope="module")
def base_fit(base_sample):
    return fit_aep(base_sample, bootstrap_fallback=0)


# ---------------------------------------------------------------- closed forms


def test_gaussian_closed_form():
    fit = fit_special([-1.0, 0.0, 1.0], "gaussian")
    assert fit.params.m == 0.0
    assert fit.params.a_l == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-15)
    assert fit.params.a_r == fit.params.a_l
    assert fit.params.b_l == 2.0 and fit.params.b_r == 2.0
    assert fit.se_method == "closed_form"
    assert fit.converged


def test_laplace_closed_form():
    fit = fit_special([-1.0, 0.0, 3.0], "laplace")
    assert fit.params.m == 0.0
    assert fit.params.a_l == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert fit.params.b_l == 1.0 and fit.params.b_r == 1.0


def test_gaussian_loglik_matches_normal_density():
    x = _draw(AepParams.gaussian(1.3, -0.4), 300, seed=3)
    fit = fit_special(x, "gaussian")
    reference = scipy.stats.norm(fit.params.m, fit.params.a_l).logpdf(x).sum()
    assert fit.loglik == pytest.approx(reference, rel=1e-12)


def test_laplace_loglik_matches_laplace_density():
    x = _draw(AepParams.laplace(0.7, 0.2), 300, seed=4)
    fit = fit_special(x, "laplace")
    reference = scipy.stats.laplace(fit.params.m, fit.params.a_l).logpdf(x).sum()
    assert fit.loglik == pytest.approx(reference, rel=1e-12)


def test_special_case_standard_error_formulas():
    x = _draw(AepParams.gaussian(1.0, 0.0), 400, seed=5)
    gaussian = fit_special(x, "gaussian")
    a = gaussian.params.a_l
    assert gaussian.std_errors["m"] == pytest.approx(a / 20.0, rel=1e-12)
    assert gaussian.std_errors["a_l"] == pytest.approx(a / np.sqrt(800.0), rel=1e-12)
    assert gaussian.std_errors["b_l"] == 0.0

    laplace = fit_special(x, "laplace")
    assert laplace.std_errors["m"] == pytest.approx(laplace.params.a_l / 20.0, rel=1e-12)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        fit_special([0.0, 1.0], "cauchy")


# ------------------------------------------------------------------ full fit


def test_full_fit_recovers_truth():
    x = _draw(TRUTH, 5000, seed=2)
    fit = fit_aep(x, bootstrap_fallback=0)
    assert fit.converged
    # Bounds are ~4x the sampling spread observed at this n.
    assert fit.params.b_l == pytest.approx(TRUTH.b_l, abs=0.10)
    assert fit.params.b_r == pytest.approx(TRUTH.b_r, abs=0.14)
    assert fit.params.a_l == pytest.approx(TRUTH.a_l, abs=0.011)
    assert fit.params.a_r == pytest.approx(TRUTH.a_r, abs=0.012)
    assert fit.params.m == pytest.approx(TRUTH.m, abs=0.005)
    # The maximum likelihood fit dominates the generating parameters in sample
    # log-likelihood.
    from growthvol.aep import log_density

    assert fit.loglik >= float(np.sum(log_density(x, TRUTH)))


def test_full_fit_nests_special_cases(base_sample):
    full = fit_aep(base_sample, bootstrap_fallback=0)
    for family in ("gaussian", "laplace"):
        restricted = fit_special(base_sample, family)
        assert full.loglik >= restricted.loglik - 1e-6


def test_gaussian_data_yields_gaussian_shapes():
    x = _draw(AepParams.gaussian(1.0, 0.0), 1500, seed=6)
    fit = fit_aep(x, bootstrap_fallback=0)
    assert fit.params.b_l == pytest.approx(2.0, abs=0.45)
    assert fit.params.b_r == pytest.approx(2.0, abs=0.45)
    assert abs(fit.params.m) < 0.15


def test_shift_scale_equivariance(base_sample, base_fit):
    shift, factor = 3.7, 250.0
    moved = fit_aep(shift + factor * base_sample, bootstrap_fallback=0)
    assert moved.params.b_l == pytest.approx(base_fit.params.b_l, abs=1e-6)
    assert moved.params.b_r == pytest.approx(base_fit.params.b_r, abs=1e-6)
    assert moved.params.a_l == pytest.approx(factor * base_fit.params.a_l, rel=1e-6)
    assert moved.params.a_r == pytest.approx(factor * base_fit.params.a_r, rel=1e-6)
    assert moved.params.m == pytest.approx(
        shift + factor * base_fit.params.m, abs=1e-6 * factor
    )


def test_mirror_equivariance(base_sample, base_fit):
    mirrored = fit_aep(-base_sample, bootstrap_fallback=0)
    assert mirrored.params.b_l == pytest.approx(base_fit.params.b_r, abs=1e-6)
    assert mirrored.params.b_r == pytest.approx(base_fit.params.b_l, abs=1e-6)
    assert mirrored.params.a_l == pytest.approx(base_fit.params.a_r, rel=1e-6)
    assert mirrored.params.a_r == pytest.approx(base_fit.params.a_l, rel=1e-6)
    assert mirrored.params.m == pytest.approx(-base_fit.params.m, abs=1e-6)


def _equivariance_gap(base, moved, shift, factor, mirror):
    """Largest parameter gap, in base units, between a fit and its moved fit.

    The moved sample is shift + factor * x, negated after when ``mirror``.
    """
    p, q = base.params, moved.params
    if mirror:
        q = AepParams(b_l=q.b_r, b_r=q.b_l, a_l=q.a_r, a_r=q.a_l, m=-q.m)
    return max(
        abs(q.b_l - p.b_l), abs(q.b_r - p.b_r),
        abs(q.a_l / factor - p.a_l), abs(q.a_r / factor - p.a_r),
        abs((q.m - shift) / factor - p.m),
    )


@settings(max_examples=6, derandomize=True, deadline=None)
@given(
    b_l=st.floats(0.6, 2.0), b_r=st.floats(0.6, 2.0),
    n=st.integers(150, 600), seed=st.integers(0, 2**32 - 1),
    shift=st.floats(-50.0, 50.0), log10_factor=st.floats(-3.0, 3.0),
    mirror=st.booleans(),
)
def test_fit_is_equivariant_under_shift_scale_and_mirroring(
        b_l, b_r, n, seed, shift, log10_factor, mirror):
    x = _draw(AepParams(b_l=b_l, b_r=b_r, a_l=0.045, a_r=0.05, m=0.01), n, seed)
    factor = 10.0**log10_factor
    moved = shift + factor * x
    base = fit_aep(x, bootstrap_fallback=0)
    fit = fit_aep(-moved if mirror else moved, bootstrap_fallback=0)
    assert _equivariance_gap(base, fit, shift, factor, mirror) <= 1e-6


def test_standard_errors_present_and_positive(base_sample):
    fit = fit_aep(base_sample, bootstrap_fallback=40, seed=1)
    assert fit.std_errors is not None
    assert set(fit.std_errors) == {"b_l", "b_r", "a_l", "a_r", "m"}
    assert all(v > 0.0 for v in fit.std_errors.values())
    # Both fitted shapes sit below the smooth regime here, so the mode's
    # error must come from the bootstrap, not the curvature.
    assert min(fit.params.b_l, fit.params.b_r) < 1.2
    assert fit.se_method == "hessian+bootstrap_m"


def test_bootstrap_disabled_leaves_curvature_errors(base_fit):
    assert base_fit.se_method in (None, "hessian")
    if base_fit.se_method == "hessian":
        assert set(base_fit.std_errors) == {"b_l", "b_r", "a_l", "a_r", "m"}


def test_fit_is_deterministic(base_sample, base_fit):
    again = fit_aep(base_sample, bootstrap_fallback=0)
    assert again.params == base_fit.params
    assert again.loglik == base_fit.loglik


# -------------------------------------------------------------------- guards


def test_small_sample_rejected():
    with pytest.raises(ValueError, match="at least 50"):
        fit_aep(np.zeros(49))


def test_non_finite_sample_rejected():
    bad = np.r_[np.linspace(-1.0, 1.0, 60), np.nan]
    with pytest.raises(ValueError, match="non-finite"):
        fit_aep(bad)
    with pytest.raises(ValueError, match="non-finite"):
        fit_special([0.0, np.inf], "gaussian")


def test_zero_dispersion_rejected():
    with pytest.raises(ValueError, match="dispersion"):
        fit_aep(np.full(60, 2.5))
    with pytest.raises(ValueError, match="dispersion"):
        fit_special([1.0, 1.0, 1.0], "laplace")


# ------------------------------------------------------------- serialization


def test_json_dict_layout(base_sample):
    fit = fit_special(base_sample, "gaussian")
    payload = fit.to_json_dict()
    assert set(payload) == {
        "b_l", "b_r", "a_l", "a_r", "m", "se", "loglik", "n", "converged",
        "se_method", "n_bootstrap_unconverged",
    }
    assert payload["n"] == 1000
    assert payload["converged"] is True
    assert payload["se_method"] == "closed_form"
    assert payload["n_bootstrap_unconverged"] == 0
    assert set(payload["se"]) == {"b_l", "b_r", "a_l", "a_r", "m"}
    assert payload["b_l"] == fit.params.b_l


def test_json_dict_without_errors():
    fit = AepFit(
        params=TRUTH, std_errors=None, loglik=-1.0, n=100,
        converged=False, se_method=None,
    )
    assert fit.to_json_dict()["se"] is None


# ------------------------------------------------------- likelihood kernel


def _negll_reference(theta, z_sorted):
    """The likelihood kernel as first written, before its per-call trims.

    The fitted digits of every stored result depend on ``_negll`` doing
    exactly this arithmetic in exactly this order.
    """
    from scipy.special import gammaln

    from growthvol.aep_fit import _LOG_SCALE_CAP, _LOG_SHAPE_CAP

    lbl, lbr, lal, lar, m = theta
    if not np.all(np.isfinite(theta)):
        return np.inf
    if max(abs(lbl), abs(lbr)) > _LOG_SHAPE_CAP or max(abs(lal), abs(lar)) > _LOG_SCALE_CAP:
        return np.inf
    b_l, b_r = np.exp(lbl), np.exp(lbr)
    a_l, a_r = np.exp(lal), np.exp(lar)
    k = np.searchsorted(z_sorted, m, side="right")
    with np.errstate(over="ignore"):
        s_left = np.sum(((m - z_sorted[:k]) / a_l) ** b_l) / b_l
        s_right = np.sum(((z_sorted[k:] - m) / a_r) ** b_r) / b_r
    log_norm = np.logaddexp(
        lal + lbl * np.exp(-lbl) + gammaln(1.0 + np.exp(-lbl)),
        lar + lbr * np.exp(-lbr) + gammaln(1.0 + np.exp(-lbr)),
    )
    value = z_sorted.size * log_norm + s_left + s_right
    return value if np.isfinite(value) else np.inf


def _overflow_theta(z_sorted):
    """Largest shape, smallest scale, mode far above the data: u**b overflows."""
    return [3.4, -3.4, -11.9, 11.9, z_sorted[-1] + 1e6]


def _theta_grid(z_sorted, rng):
    """Random thetas plus the edge cases the optimizers reach."""
    n_random = 400
    grid = np.column_stack([
        rng.uniform(-4.0, 4.0, (n_random, 2)),    # shapes beyond the 3.5 cap
        rng.uniform(-13.0, 13.0, (n_random, 2)),  # scales beyond the 12 cap
        rng.uniform(z_sorted[0] - 2.0, z_sorted[-1] + 2.0, n_random),
    ])
    edges = [
        _overflow_theta(z_sorted),
        [-3.4, 3.4, 11.9, -11.9, z_sorted[0] - 1e6],  # overflow right of m
        [0.0, 0.0, 0.0, 0.0, z_sorted[0] - 1.0],  # m below every observation
        [0.0, 0.0, 0.0, 0.0, z_sorted[-1] + 1.0], # m above every observation
        [0.0, 0.0, 0.0, 0.0, z_sorted[0]],        # m on the smallest observation
        [0.0, 0.0, 0.0, 0.0, z_sorted[-1]],       # m on the largest observation
        [3.5, -3.5, 12.0, -12.0, 0.0],            # exactly on the caps
        [-0.3, 0.2, 0.1, -0.1, 0.05],
    ]
    for bad in (np.nan, np.inf, -np.inf):
        for index in range(5):
            theta = [-0.3, 0.2, 0.1, -0.1, 0.05]
            theta[index] = bad
            edges.append(theta)
    return np.vstack([grid, np.array(edges, dtype=float)])


@pytest.mark.parametrize("n", [60, 1500])
def test_likelihood_kernel_matches_reference_exactly(n):
    from growthvol.aep_fit import _negll

    x = _draw(TRUTH, n, seed=21)
    z = np.sort((x - np.median(x)) / np.mean(np.abs(x - np.median(x))))
    thetas = _theta_grid(z, np.random.default_rng(n))
    values = []
    with np.errstate(over="ignore"):
        for theta in thetas:
            value, expected = _negll(theta, z), _negll_reference(theta, z)
            assert value == expected, (theta, value, expected)
            values.append(value)
    # The grid reaches both outcomes: finite values and rejected points.
    assert np.isinf(values).sum() > 20
    assert np.isfinite(values).sum() > 100
    # The overflow row does overflow, so the grid covers that path.
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _negll(np.array(_overflow_theta(z)), z)


def _standardized(n, seed):
    x = _draw(TRUTH, n, seed=seed)
    return np.sort((x - np.median(x)) / np.mean(np.abs(x - np.median(x))))


@pytest.mark.parametrize("n", [60, 1500])
def test_gradient_path_returns_the_value_path_value(n):
    z = _standardized(n, 21)
    thetas = _theta_grid(z, np.random.default_rng(n))
    caps = np.array([aep_fit._LOG_SHAPE_CAP] * 2 + [aep_fit._LOG_SCALE_CAP] * 2)
    inside = thetas[np.all(np.abs(thetas[:, :4]) <= caps, axis=1)
                    & np.all(np.isfinite(thetas), axis=1)]
    assert len(inside) > 100
    with np.errstate(over="ignore"):
        for theta in inside:
            assert _negll(theta, z, gradient=True)[0] == _negll(theta, z), theta


def test_gradient_matches_central_differences():
    z = _standardized(1500, 21)
    rng = np.random.default_rng(3)
    step = 1e-6
    for _ in range(20):
        theta = np.append(rng.uniform(-1.0, 1.0, 4), rng.uniform(z[0], z[-1]))
        _, grad = _negll(theta, z, gradient=True)
        for i in range(4):
            e = np.zeros(5)
            e[i] = step
            numeric = (_negll(theta + e, z) - _negll(theta - e, z)) / (2.0 * step)
            assert grad[i] == pytest.approx(numeric, rel=1e-6)


def test_fit_raises_no_runtime_warnings():
    # The kernel no longer silences its own overflow; fit_aep does, once, for
    # all of its stages.  An outlier-heavy sample (ten points about 6 to 20
    # scales out) takes the optimizers, the Hessian and the mode bootstrap
    # through far-off trial points, none of which may warn.
    rng = np.random.default_rng(8)
    x = np.concatenate([
        _draw(TRUTH, 300, seed=8),
        rng.choice([-1.0, 1.0], 10) * rng.uniform(0.3, 1.0, 10),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_aep(x, bootstrap_fallback=10, seed=0)
    assert fit.converged
    assert fit.se_method == "hessian+bootstrap_m"


def test_one_bootstrap_replicate_gives_no_error_and_no_warning():
    # A spread needs two draws: ddof=1 over one replicate is NaN, and NaN is
    # no JSON number.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_aep(_draw(TRUTH, 300, seed=8), bootstrap_fallback=1)
    assert fit.se_method == "hessian+bootstrap_m"
    assert fit.std_errors["m"] is None


def test_capped_scales_warn_nothing_and_report_no_error():
    # Three huge outliers stretch the standardization so far that both
    # fitted scales end on the lower log-scale cap.  The Hessian's steps past
    # the cap are inf, inf - inf is NaN, and the matrix is unusable; that must
    # not warn.  The bootstrap replicates all end on the cap too, so the
    # scales have no measurable spread: their errors are None, not 0.0.
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.laplace(size=300), [1e8, -3e8, 5e7]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_aep(x, bootstrap_fallback=20, seed=0)
    assert fit.converged
    assert fit.se_method == "bootstrap"
    assert fit.std_errors["a_l"] is None and fit.std_errors["a_r"] is None
    for name in ("b_l", "b_r"):
        assert fit.std_errors[name] > 0.0
    assert fit.to_json_dict()["se"]["a_l"] is None


@pytest.mark.parametrize("seed", [1, 5])
def test_mode_error_of_rounding_spread_is_none(seed):
    # With both scales on their cap every replicate returns the fitted mode
    # to within rounding: the spread read 3.6e-18 (seed 1) and 0.0 (seed 5).
    # That measures the arithmetic, not the sample, so the error is None.
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.laplace(size=300), [1e8, -3e8, 5e7]])
    fit = fit_aep(x, bootstrap_fallback=20)
    assert fit.se_method == "bootstrap"
    assert fit.std_errors["m"] is None
    assert fit.to_json_dict()["se"]["m"] is None
    for name in ("b_l", "b_r"):
        assert fit.std_errors[name] > 0.0


def test_information_se_of_capped_point_is_none_without_warning():
    z = np.sort(np.random.default_rng(2).laplace(size=200))
    theta = np.array([0.0, 0.0, -12.0, -12.0, 0.0])  # both scales on the cap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _information_se(z, theta) is None


# ------------------------------------------------------------ mode bootstrap


@pytest.fixture(scope="module")
def toy_strata(toy_panel):
    """Growth rates of the bundled panel's developed and developing strata,
    as ``growthvol fit --panel balanced --split both`` fits them."""
    developed = development_split(toy_panel)[0]
    return {
        label: stratify(toy_panel, development=label,
                        developed_countries=developed).growth_arrays()[2]
        for label in ("developed", "developing")
    }


@pytest.fixture(scope="module")
def toy_bootstrap_fits(toy_strata):
    return {label: fit_aep(growth, bootstrap_fallback=200, seed=0)
            for label, growth in toy_strata.items()}


def test_mode_bootstrap_leaves_point_fit_untouched(toy_strata, toy_bootstrap_fits):
    # Replicates stop at a looser tolerance than the point fit and skip its
    # restarts and rounds; the point fit, its likelihood and its curvature
    # errors must not depend on whether the mode's error is bootstrapped.
    point = fit_aep(toy_strata["developed"], bootstrap_fallback=0)
    booted = toy_bootstrap_fits["developed"]
    assert booted.se_method == "hessian+bootstrap_m"
    assert point.se_method == "hessian"
    assert point.params == booted.params
    assert point.loglik == booted.loglik
    assert point.converged == booted.converged
    for name in ("b_l", "b_r", "a_l", "a_r"):
        assert point.std_errors[name] == booted.std_errors[name], name
    assert booted.std_errors["m"] != point.std_errors["m"]


# ------------------------------------------------------------- stopping rule


def _one_more_round(z_sorted, theta):
    """The value after one more point-fit round from theta: a fresh-simplex
    Nelder-Mead, a quasi-Newton step in the four shape/scale coordinates and
    a bracketed mode step."""
    value, theta, _ = aep_fit._nelder_mead(_negll, theta, (z_sorted,),
                                           **aep_fit._REFINE_OPTIONS)
    smooth = scipy.optimize.minimize(
        lambda t4: _negll((*t4, theta[4]), z_sorted, gradient=True), theta[:4],
        jac=True, method="L-BFGS-B", bounds=aep_fit._SMOOTH_BOUNDS,
        options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 200})
    t4 = smooth.x if smooth.fun <= value else theta[:4]
    mode = scipy.optimize.minimize_scalar(
        lambda m: _negll((*t4, m), z_sorted),
        bounds=(theta[4] - aep_fit._MODE_BRACKET, theta[4] + aep_fit._MODE_BRACKET),
        method="bounded", options={"xatol": 1e-13})
    return min(value, smooth.fun, mode.fun)


_FIXED_POINT_SAMPLES = {
    **{f"n1000_seed{seed}": (TRUTH, 1000, seed) for seed in (5, 9, 106)},
    "n5000_seed5": (TRUTH, 5000, 5),
    "gaussian_seed2": (AepParams.gaussian(1.0, 0.0), 1500, 2),
}


@pytest.mark.parametrize("name", ["developed", "developing", *_FIXED_POINT_SAMPLES])
def test_point_fit_stops_at_a_fixed_point(toy_strata, monkeypatch, name):
    # The point fit repeats its round until one lowers nothing, so one more
    # round from the returned optimum lowers nothing either.  The seed 9
    # draw takes 6 rounds and the Gaussian one 3; a fixed count of rounds
    # stops 2.9e-2 and 6.9e-5 short on them.
    x = toy_strata[name] if name in toy_strata else _draw(*_FIXED_POINT_SAMPLES[name])
    optima = []  # fit_aep hands its standardized sample and optimum to _information_se
    information_se = aep_fit._information_se
    monkeypatch.setattr(aep_fit, "_information_se", lambda z, theta: (
        optima.append((z, theta)) or information_se(z, theta)))
    fit = fit_aep(x, bootstrap_fallback=0)
    assert fit.converged and len(optima) == 1
    z, theta = optima[0]
    with np.errstate(over="ignore"):
        assert not _one_more_round(z, theta) < _negll(theta, z)


# se.m as fitted with scipy's Nelder-Mead for every replicate, each stopped
# at xatol 1e-6 and fatol 1e-7; a cheaper replicate must keep it within 1%.
_SE_M_AT_1E6_STOP = {"developed": 0.0024596760898851263,
                     "developing": 0.006266455164236934}


@pytest.mark.parametrize("label", sorted(_SE_M_AT_1E6_STOP))
def test_mode_bootstrap_stop_keeps_the_standard_error(toy_bootstrap_fits, label):
    fit = toy_bootstrap_fits[label]
    assert fit.se_method == "hessian+bootstrap_m"
    assert fit.std_errors["m"] == pytest.approx(_SE_M_AT_1E6_STOP[label], rel=0.01)
    assert fit.n_bootstrap_unconverged == 0


def test_replicates_stopped_by_their_limit_are_counted(base_sample, monkeypatch):
    # With a budget of ten likelihood calls no replicate can converge, and
    # every one of them must be counted, on the fit and in its JSON.
    monkeypatch.setattr(aep_fit, "_BOOTSTRAP_OPTIONS",
                        {**aep_fit._BOOTSTRAP_OPTIONS, "maxfev": 10})
    fit = fit_aep(base_sample, bootstrap_fallback=15, seed=0)
    assert fit.se_method == "hessian+bootstrap_m"
    assert fit.n_bootstrap_unconverged == 15
    assert fit.to_json_dict()["n_bootstrap_unconverged"] == 15


# ------------------------------------------------------------- Nelder-Mead


def _counted(f):
    calls = []

    def wrapped(x, *args):
        calls.append(list(x))
        return f(x, *args)

    return wrapped, calls


def _rounded_bowl(x):
    # A quadratic rounded to one decimal: vertices and trial points tie.
    return float(np.round((x[0] - 0.3) ** 2 + 3.0 * (x[1] + 0.2) ** 2, 1))


def _nelder_mead_cases():
    z = np.sort(_draw(TRUTH, 300, seed=4) / 0.04)
    warm = np.array([-0.2, 0.1, 0.3, 0.2, 0.25])
    bootstrap = dict(aep_fit._BOOTSTRAP_OPTIONS)
    return {
        "warm start": (aep_fit._negll, warm, (z,), bootstrap),
        "zero start": (aep_fit._negll, np.zeros(5), (z,), bootstrap),
        "evaluation limit": (aep_fit._negll, warm, (z,), {**bootstrap, "maxfev": 47}),
        "iteration limit": (aep_fit._negll, warm, (z,), {**bootstrap, "maxiter": 30}),
        # Two first vertices step past the shape cap, so they tie at inf.
        "capped vertices": (aep_fit._negll, np.array([3.4, 3.4, 0.0, 0.0, 0.1]),
                            (z,), bootstrap),
        "rounded values": (_rounded_bowl, np.array([-0.26, 0.45]), (), bootstrap),
    }


@pytest.mark.parametrize("case", sorted(_nelder_mead_cases()))
def test_nelder_mead_equals_scipy(case):
    # Every fitted digit depends on _nelder_mead taking scipy's steps: the
    # same trial points, the same answer and the same success flag.
    from scipy.optimize import minimize

    f, x0, args, options = _nelder_mead_cases()[case]
    ours, our_calls = _counted(f)
    theirs, their_calls = _counted(f)
    with np.errstate(over="ignore"):
        value, x, converged = aep_fit._nelder_mead(ours, x0, args, **options)
        res = minimize(theirs, x0, args=args, method="Nelder-Mead", options=options)
    assert our_calls == their_calls
    assert value == res.fun
    np.testing.assert_array_equal(x, res.x)
    assert converged == res.success
    assert converged == (case not in ("evaluation limit", "iteration limit"))
