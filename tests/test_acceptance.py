"""Package acceptance gate: eight criteria, one printed PASS/FAIL line each.

Three criteria compare against reference estimates for the historical
Maddison 2013 GDP-per-capita file, which is not redistributable with the
package.  When ``$GROWTHVOL_DATA_DIR`` holds that file the comparisons run;
otherwise those criteria run their documented replacement: the estimator
oracle studies plus golden checks on the bundled synthetic century panel
(``data/toy_panel_31.csv``), whose generating parameters are known exactly.

Every threshold here is pinned; a criterion that cannot be met fails loudly
rather than being weakened.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from conftest import record_criterion

from growthvol.aep import AepParams, density, log_density, sample
from growthvol.aep_fit import fit_aep
from growthvol.cli import main as cli_main
from growthvol.ingest import load_panel, panel_to_long_csv
from growthvol.panel import REGIONS, GrowthPanel, build_growth_panel, stratify
from growthvol.rolling import roll, significance_segments
from growthvol.scaling import (
    binned_beta,
    binned_beta_xy,
    fit_alad,
    rescale_residuals,
)
from growthvol.synth import SynthSpec, generate

# Generating law of the bundled century panel (see demos/00_build_toy_panel.py).
TOY_ALPHA, TOY_PHI1, TOY_BETA = 0.017, 0.25, -0.18
TOY_SHOCK = AepParams(b_l=0.8, b_r=1.1, a_l=0.035, a_r=0.038, m=0.0)

N_BINS = 25  # equal-occupancy bins used by the scaling studies (dof 23)


def _historical_path():
    root = os.environ.get("GROWTHVOL_DATA_DIR")
    if not root:
        return None
    for name in ("maddison_2013.csv", "gdppc_levels_1900_1999.csv"):
        candidate = Path(root) / name
        if candidate.is_file():
            return candidate
    return None


def _load_century(path) -> GrowthPanel:
    return load_panel(path, balanced=True)[0]


@pytest.fixture(scope="module")
def synthetic_grid():
    """30 seeded 31x50 panels for each scaling exponent under study."""
    return {
        beta: [generate(SynthSpec(beta=beta, seed=s)) for s in range(30)]
        for beta in (0.0, -0.15, -0.30)
    }


def _wls_trend_z(starts, betas, ses) -> float:
    """Trend z-score of window estimates, weighted by their known errors."""
    x = np.asarray(starts, dtype=float)
    y = np.asarray(betas, dtype=float)
    w = 1.0 / np.asarray(ses, dtype=float) ** 2
    xbar = float(np.sum(w * x) / np.sum(w))
    ybar = float(np.sum(w * y) / np.sum(w))
    sxx = float(np.sum(w * (x - xbar) ** 2))
    slope = float(np.sum(w * (x - xbar) * (y - ybar)) / sxx)
    return slope / float(np.sqrt(1.0 / sxx))


# --------------------------------------------------------------- criterion 1


def test_criterion_1_density_correctness():
    worst_mass = 0.0
    for b_l in (0.5, 0.7, 1.0, 2.0, 3.0):
        for b_r in (0.5, 0.7, 1.0, 2.0, 3.0):
            for a in (0.01, 0.05, 1.0):
                params = AepParams(b_l=b_l, b_r=b_r, a_l=a, a_r=a, m=0.0)
                left, _ = scipy.integrate.quad(
                    density, -np.inf, params.m, args=(params,))
                right, _ = scipy.integrate.quad(
                    density, params.m, np.inf, args=(params,))
                worst_mass = max(worst_mass, abs(left + right - 1.0))

    grid = np.linspace(-6.0, 6.0, 100)
    gaussian = AepParams.gaussian(1.3, 0.2)
    laplace = AepParams.laplace(0.7, -0.1)
    worst_special = max(
        float(np.max(np.abs(
            log_density(grid, gaussian)
            - scipy.stats.norm(gaussian.m, gaussian.a_l).logpdf(grid)))),
        float(np.max(np.abs(
            log_density(grid, laplace)
            - scipy.stats.laplace(laplace.m, laplace.a_l).logpdf(grid)))),
    )

    passed = worst_mass <= 1e-6 and worst_special <= 1e-10
    assert record_criterion(
        1, passed,
        f"unit mass over 75 parameter combos, worst |integral-1| = "
        f"{worst_mass:.1e} (tol 1e-6); special-case log-densities on 100 "
        f"points, worst gap = {worst_special:.1e} (tol 1e-10)",
    )


# --------------------------------------------------------------- criterion 2


def test_criterion_2_mle_recovery():
    truth = AepParams(b_l=0.75, b_r=1.0, a_l=0.045, a_r=0.050, m=0.01)
    start = time.time()
    hits = 0
    for seed in range(20):
        x = sample(truth, 5000, rng=np.random.default_rng(seed))
        fit = fit_aep(x, seed=seed)
        se = fit.std_errors
        hits += (
            fit.converged
            and abs(fit.params.b_l - truth.b_l) <= 3.0 * se["b_l"]
            and abs(fit.params.b_r - truth.b_r) <= 3.0 * se["b_r"]
            and abs(fit.params.a_l - truth.a_l) <= 3.0 * se["a_l"]
            and abs(fit.params.a_r - truth.a_r) <= 3.0 * se["a_r"]
            and abs(fit.params.m - truth.m) <= 3.0 * se["m"]
        )

    base_sample = sample(truth, 1000, rng=np.random.default_rng(99))
    base = fit_aep(base_sample, bootstrap_fallback=0)
    shift, factor = 3.7, 250.0
    moved = fit_aep(shift + factor * base_sample, bootstrap_fallback=0)
    mirrored = fit_aep(-base_sample, bootstrap_fallback=0)
    equivariance_gap = max(
        abs(moved.params.b_l - base.params.b_l),
        abs(moved.params.b_r - base.params.b_r),
        abs(moved.params.a_l / factor - base.params.a_l),
        abs(moved.params.a_r / factor - base.params.a_r),
        abs((moved.params.m - shift) / factor - base.params.m),
        abs(mirrored.params.b_l - base.params.b_r),
        abs(mirrored.params.b_r - base.params.b_l),
        abs(mirrored.params.a_l - base.params.a_r),
        abs(mirrored.params.a_r - base.params.a_l),
        abs(mirrored.params.m + base.params.m),
    )
    elapsed = time.time() - start

    passed = hits >= 18 and equivariance_gap <= 1e-6 and elapsed < 300.0
    assert record_criterion(
        2, passed,
        f"{hits}/20 seeds recover all five parameters within +-3 SE (need "
        f">=18); shift/scale/mirror equivariance gap {equivariance_gap:.1e} "
        f"(tol 1e-6); {elapsed:.0f}s (budget 300s)",
    )


# --------------------------------------------------------------- criterion 3


def test_criterion_3_distribution_tables(toy_panel):
    historical = _historical_path()
    if historical is not None:
        panel = _load_century(historical)
        expected = {
            (1950, 1999): (0.912, 1.377, 0.024, 0.026, 0.022),
            (1900, 1949): (0.703, 0.957, 0.045, 0.045, 0.010),
        }
        gaps = {}
        for years, (b_l, b_r, a_l, a_r, m) in expected.items():
            growth = stratify(panel, year_range=years).growth_arrays()[2]
            p = fit_aep(growth, seed=0).params
            gaps[years] = (abs(p.b_l - b_l), abs(p.b_r - b_r),
                           abs(p.a_l - a_l), abs(p.a_r - a_r), abs(p.m - m))
        passed = all(
            g[0] <= 0.10 and g[1] <= 0.10 and g[2] <= 0.005
            and g[3] <= 0.005 and g[4] <= 0.005
            for g in gaps.values()
        )
        assert record_criterion(
            3, passed,
            "historical balanced panel: both half-century rows within "
            "+-0.10 shape / +-0.005 scale / +-0.005 mode of the reference "
            f"estimates (worst gaps {gaps})",
        )
        return

    # Replacement: the oracle study of criterion 2 plus shock recovery on
    # the bundled panel.  Standardizing the panel's growth innovations by
    # the autoregression must recover the known generating shock.
    alad = fit_alad(toy_panel, bootstrap=0)
    r_t, r_lag, s_lag, _, _ = toy_panel.ar1_pairs()
    innovations = (r_t - alad.gamma_or_alpha - alad.phi1 * r_lag) / np.exp(
        alad.beta * s_lag)
    fit = fit_aep(innovations, seed=0)
    se = fit.std_errors
    z_scores = {
        "b_l": (fit.params.b_l - TOY_SHOCK.b_l) / se["b_l"],
        "b_r": (fit.params.b_r - TOY_SHOCK.b_r) / se["b_r"],
        "a_l": (fit.params.a_l - TOY_SHOCK.a_l) / se["a_l"],
        "a_r": (fit.params.a_r - TOY_SHOCK.a_r) / se["a_r"],
        "m": (fit.params.m - TOY_SHOCK.m) / se["m"],
    }
    worst = max(abs(z) for z in z_scores.values())
    # The panel is a fixed dataset, so these are frozen regression values
    # (tolerance allows optimizer-level drift only).
    golden = {"b_l": 0.8877, "b_r": 1.1034, "a_l": 0.03577, "a_r": 0.03842,
              "m": -0.00327}
    drift = max(
        abs(fit.params.b_l - golden["b_l"]),
        abs(fit.params.b_r - golden["b_r"]),
        abs(fit.params.a_l - golden["a_l"]),
        abs(fit.params.a_r - golden["a_r"]),
        abs(fit.params.m - golden["m"]),
    )
    passed = fit.converged and worst <= 3.5 and drift <= 1e-3
    assert record_criterion(
        3, passed,
        "replacement (historical file not provided): bundled-panel "
        f"innovations recover the generating shock, worst |z| = {worst:.2f} "
        f"(bound 3.5); frozen-value drift {drift:.1e} (tol 1e-3)",
    )


# --------------------------------------------------------------- criterion 4


def test_criterion_4_binned_scaling(synthetic_grid):
    covered = {}
    null_non_significant = 0
    for beta_true, panels in synthetic_grid.items():
        count = 0
        for panel in panels:
            fit, _ = binned_beta(panel, n_bins=N_BINS)
            if abs(fit.beta - beta_true) <= 2.0 * fit.se_beta:
                count += 1
            if beta_true == 0.0 and not fit.significant_5pct:
                null_non_significant += 1
        covered[beta_true] = count

    passed = all(c >= 27 for c in covered.values()) and null_non_significant >= 27
    assert record_criterion(
        4, passed,
        f"2-SE coverage over 30 seeds: beta 0 -> {covered[0.0]}, "
        f"-0.15 -> {covered[-0.15]}, -0.30 -> {covered[-0.30]} (need >=27 "
        f"each); null flagged non-significant {null_non_significant}/30 "
        "(need >=27)",
    )


# --------------------------------------------------------------- criterion 5


def test_criterion_5_scaling_values(toy_panel):
    historical = _historical_path()
    if historical is not None:
        panel = _load_century(historical)
        late = stratify(panel, year_range=(1950, 1999))
        early = stratify(panel, year_range=(1900, 1949))
        binned_late, _ = binned_beta(late, n_bins=N_BINS)
        alad_late = fit_alad(late, bootstrap=200, seed=0)
        binned_early, _ = binned_beta(early, n_bins=N_BINS)
        alad_early = fit_alad(early, bootstrap=200, seed=0)
        passed = (
            abs(binned_late.beta - (-0.285)) <= 0.08
            and binned_late.beta < 0.0 and binned_late.significant_5pct
            and abs(alad_late.beta - (-0.225)) <= 0.08
            and alad_late.beta < 0.0 and alad_late.significant_5pct
            and alad_late.se_beta < 0.06
            and not binned_early.significant_5pct
            and not alad_early.significant_5pct
        )
        assert record_criterion(
            5, passed,
            f"historical panel: late-half binned beta {binned_late.beta:.3f} "
            f"(target -0.285 +-0.08), ALAD beta {alad_late.beta:.3f} (target "
            f"-0.225 +-0.08, SE {alad_late.se_beta:.3f}); early half "
            "non-significant by both methods",
        )
        return

    # Replacement: frozen goldens on the bundled panel with known beta -0.18.
    late = stratify(toy_panel, year_range=(1950, 1999))
    early = stratify(toy_panel, year_range=(1900, 1949))
    binned_late, _ = binned_beta(late)
    alad_late = fit_alad(late, bootstrap=200, seed=0)
    alad_early = fit_alad(early, bootstrap=200, seed=0)
    golden = {
        "binned_late": (binned_late.beta, -0.18541601650346365),
        "alad_late": (alad_late.beta, -0.188194373170128),
        "alad_early": (alad_early.beta, -0.19086346866416568),
    }
    drift = max(abs(value - frozen) for value, frozen in golden.values())
    passed = (
        drift <= 5e-4
        and binned_late.significant_5pct and alad_late.significant_5pct
        and alad_early.significant_5pct
        and abs(alad_late.beta - TOY_BETA) <= 3.0 * alad_late.se_beta
        and abs(alad_early.beta - TOY_BETA) <= 3.0 * alad_early.se_beta
        and abs(alad_late.se_beta - 0.0144) <= 2e-3
    )
    assert record_criterion(
        5, passed,
        "replacement (historical file not provided): bundled-panel scaling "
        f"betas match frozen goldens within {drift:.1e} (tol 5e-4), both "
        "halves significant, ALAD recovers the generating exponent -0.18 "
        "within +-3 SE",
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_6_rescaling_homoskedasticity(synthetic_grid):
    worst_t = 0.0
    n_panels = 0
    for panels in synthetic_grid.values():
        for panel in panels:
            estimated, _ = binned_beta(panel, n_bins=N_BINS)
            residuals = rescale_residuals(panel, estimated.beta)
            sizes = panel.growth_arrays()[3]
            refit, _ = binned_beta_xy(sizes, residuals, n_bins=N_BINS)
            worst_t = max(worst_t, abs(refit.beta) / refit.se_beta)
            n_panels += 1

    passed = worst_t < 2.0
    assert record_criterion(
        6, passed,
        f"rescaled residuals show no size gradient on all {n_panels} panels: "
        f"worst |t| = {worst_t:.2f} (bound 2)",
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_7_rolling_dynamics(toy_panel):
    historical = _historical_path()
    if historical is not None:
        panel = _load_century(historical)
        series = roll(panel, window_length=10, bootstrap=200, seed=0)
        segments = significance_segments(series)
        final_run_start = None
        for start, end, significant in segments:
            entry_betas = [e.fit.beta for e in series.entries
                           if start <= e.start_year <= end and e.fit]
            if significant and end == series.entries[-1].end_year and all(
                    b < 0 for b in entry_betas):
                final_run_start = start
        pre = [e.fit.beta for e in series.entries
               if e.fit and e.start_year < 1945]
        post = [e.fit.beta for e in series.entries
                if e.fit and e.start_year > 1960]
        passed = (
            final_run_start is not None and abs(final_run_start - 1956) <= 2
            and np.mean(post) < np.mean(pre)
        )
        assert record_criterion(
            7, passed,
            f"historical panel: persistent significant-negative run starts "
            f"{final_run_start} (target 1956 +-2); post-1960 mean beta below "
            "pre-1945 mean",
        )
        return

    # Replacement part 1: constant-exponent panels show no trend.  Windows
    # are non-overlapping so their estimates are independent and the
    # weighted trend z-score is calibrated; overlapping windows would share
    # 90% of their data and any trend test on them badly over-rejects.
    no_trend = 0
    window_hits = 0
    window_total = 0
    for seed in range(30):
        panel = generate(SynthSpec(beta=-0.2, seed=100 + seed))
        series = roll(panel, window_length=10, step=10, bootstrap=50, seed=0)
        starts = [e.start_year for e in series.entries]
        betas = [e.fit.beta for e in series.entries]
        ses = [e.fit.se_beta for e in series.entries]
        if abs(_wls_trend_z(starts, betas, ses)) < 2.0:
            no_trend += 1
        window_total += len(betas)
        window_hits += sum(
            abs(b - (-0.2)) <= 3.0 * s for b, s in zip(betas, ses))

    # Replacement part 2: the bundled century panel (constant exponent) has
    # every window significant-negative and no significant trend; the trend
    # z is a frozen value for this fixed dataset.
    toy_series = roll(toy_panel, window_length=10, step=10, bootstrap=50,
                      seed=0)
    toy_z = _wls_trend_z(
        [e.start_year for e in toy_series.entries],
        [e.fit.beta for e in toy_series.entries],
        [e.fit.se_beta for e in toy_series.entries],
    )
    toy_all_significant = all(
        e.fit.significant_5pct and e.fit.beta < 0.0 for e in toy_series.entries)

    passed = (
        no_trend >= 27
        and window_hits >= 0.95 * window_total
        and abs(toy_z) < 2.0
        and toy_all_significant
    )
    assert record_criterion(
        7, passed,
        f"replacement (historical file not provided): constant-exponent "
        f"panels show no window trend in {no_trend}/30 seeds (need >=27); "
        f"window 3-SE coverage {window_hits}/{window_total} (need >=95%); "
        f"bundled panel trend |z| = {abs(toy_z):.2f} (bound 2) with every "
        "window significant-negative",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_determinism_and_round_trip(toy_panel, tmp_path, monkeypatch):
    spec = SynthSpec(n_countries=12, n_years=20, beta=-0.25, seed=21)

    def region_map_for(source: GrowthPanel) -> Path:
        lines = ["country,region"] + [
            f"{name},{REGIONS[i % len(REGIONS)]}"
            for i, name in enumerate(source.countries)
        ]
        path = tmp_path / "region_map.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    # Same spec, same panel, run to run.
    regenerated_equal = generate(spec) == generate(spec)

    # Full pipeline, identical bytes: generate, serialize, reload, estimate.
    def pipeline():
        panel = generate(spec)
        text = panel_to_long_csv(panel)
        path = tmp_path / "pipeline.csv"
        path.write_text(text, encoding="utf-8")
        reloaded, _ = load_panel(path, region_map=region_map_for(panel),
                                 year_range=(1949, 1969))
        fit = fit_alad(reloaded, bootstrap=60, seed=0)
        return text, (fit.beta, fit.se_beta, fit.phi1, fit.se_phi1)

    text_a, fit_a = pipeline()
    text_b, fit_b = pipeline()
    pipeline_identical = text_a == text_b and fit_a == fit_b

    # Rolling windows: the same call, the same estimates.
    panel = generate(spec)
    first = roll(panel, window_length=10, bootstrap=16, seed=0)
    again = roll(panel, window_length=10, bootstrap=16, seed=0)
    rolls_identical = all(
        a.fit.beta == b.fit.beta and a.fit.se_beta == b.fit.se_beta
        for a, b in zip(first.entries, again.entries)
    )

    # Distribution fitting is deterministic including its bootstrap errors.
    growth = panel.growth_arrays()[2]
    fit_one = fit_aep(growth, bootstrap_fallback=25, seed=4)
    fit_two = fit_aep(growth, bootstrap_fallback=25, seed=4)
    fit_identical = (fit_one.params == fit_two.params
                     and fit_one.std_errors == fit_two.std_errors)

    # CLI determinism: one seed, one byte stream, regardless of directory.
    csv_bytes = []
    for run in ("one", "two"):
        workdir = tmp_path / run
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert cli_main(["synth", "--out", "artifacts", "--seed", "5",
                         "--countries", "8", "--n-years", "12"]) == 0
        csv_bytes.append((workdir / "artifacts" / "synth_panel.csv").read_bytes())
    cli_identical = csv_bytes[0] == csv_bytes[1]

    # Serialization round trip is the identity on every column.
    def survives_round_trip(source: GrowthPanel) -> bool:
        text = panel_to_long_csv(source)
        path = tmp_path / "roundtrip.csv"
        path.write_text(text, encoding="utf-8")
        lo, hi = source.span
        back, _ = load_panel(path, region_map=region_map_for(source), year_range=(lo, hi))
        return (
            np.array_equal(back.country, source.country)
            and np.array_equal(back.year, source.year)
            and np.array_equal(back.gdppc, source.gdppc)
            and np.array_equal(back.size, source.size)
            and np.array_equal(back.growth, source.growth, equal_nan=True)
        )

    round_trips = survives_round_trip(toy_panel) and survives_round_trip(panel)

    passed = (regenerated_equal and pipeline_identical and rolls_identical
              and fit_identical and cli_identical and round_trips)
    assert record_criterion(
        8, passed,
        f"regeneration equal: {regenerated_equal}; synth->ingest->fit "
        f"bit-identical across runs: {pipeline_identical}; rolling windows "
        f"identical across runs: {rolls_identical}; seeded bootstrap errors identical: "
        f"{fit_identical}; CLI bytes identical: {cli_identical}; long-CSV "
        f"round trip exact: {round_trips}",
    )
