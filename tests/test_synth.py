"""Generator correctness against theory oracles."""

import numpy as np
import pytest

from growthvol.aep import AepParams
from growthvol.aep_fit import fit_special
from growthvol.synth import SynthSpec, generate


def test_reproducible():
    a = generate(SynthSpec(seed=11))
    b = generate(SynthSpec(seed=11))
    assert a == b
    assert not (a == generate(SynthSpec(seed=12)))


def test_shape_and_years():
    panel = generate(SynthSpec(n_countries=5, n_years=20, start_year=1950, seed=3))
    assert panel.n_countries == 5
    assert panel.span == (1949, 1969)  # one leading level year before 1950
    _, years, growth, _ = panel.growth_arrays()
    assert years.min() == 1950 and years.max() == 1969
    assert growth.size == 5 * 20


def test_laplace_scale_recovered():
    spec = SynthSpec(
        n_countries=50, n_years=400, alpha=0.0, phi1=0.0, beta=0.0,
        shock=AepParams.laplace(0.03), seed=21,
    )
    panel = generate(spec)
    _, _, growth, _ = panel.growth_arrays()
    assert growth.size == 50 * 400
    fit = fit_special(growth, "laplace")
    assert fit.params.a_l == pytest.approx(0.03, rel=0.05)


def test_ar1_autocorrelation():
    spec = SynthSpec(
        n_countries=3, n_years=2000, alpha=0.01, phi1=0.5, beta=0.0, seed=9,
    )
    panel = generate(spec)
    for country in panel.countries:
        mask = (panel.country == country) & ~np.isnan(panel.growth)
        r = panel.growth[mask]
        rho = np.corrcoef(r[1:], r[:-1])[0, 1]
        assert rho == pytest.approx(0.5, abs=0.05)


def test_symmetric_shocks_give_symmetric_growth():
    spec = SynthSpec(
        n_countries=100, n_years=1000, alpha=0.0, phi1=0.0, beta=0.0, seed=33,
    )
    panel = generate(spec)
    _, _, growth, _ = panel.growth_arrays()
    assert growth.size == 100_000
    centered = growth - growth.mean()
    skew = np.mean(centered**3) / np.mean(centered**2) ** 1.5
    assert abs(skew) < 0.1


def test_size_profile_ordering_propagates():
    profile = np.array([-3.0, 0.0, 3.0])
    spec = SynthSpec(n_countries=3, n_years=50, size_profile=profile, seed=4)
    panel = generate(spec)
    means = [panel.size[panel.country == c].mean() for c in spec.country_ids()]
    assert means[0] < means[1] < means[2]


def test_mean_growth_near_stationary_mean():
    spec = SynthSpec(n_countries=31, n_years=1000, alpha=0.02, phi1=0.35,
                     beta=0.0, seed=6)
    panel = generate(spec)
    _, _, growth, _ = panel.growth_arrays()
    assert growth.mean() == pytest.approx(0.02 / 0.65, abs=0.005)


def test_heteroskedastic_sizes_modulate_volatility():
    # With beta < 0, countries with larger size offsets have calmer growth.
    profile = np.array([-2.0, 2.0])
    spec = SynthSpec(n_countries=2, n_years=2000, alpha=0.0, phi1=0.0,
                     beta=-0.3, size_profile=profile, fixed_sizes=True, seed=8)
    panel = generate(spec)
    low_id, high_id = spec.country_ids()
    small = np.nanstd(panel.growth[panel.country == low_id])
    large = np.nanstd(panel.growth[panel.country == high_id])
    # stds should differ by roughly exp(-0.3 * (-2)) / exp(-0.3 * 2) = e^1.2
    assert small / large == pytest.approx(np.exp(1.2), rel=0.15)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError, match="phi1"):
        SynthSpec(phi1=1.0)
    with pytest.raises(ValueError, match="mode"):
        SynthSpec(shock=AepParams.laplace(0.03, m=0.01))
    with pytest.raises(ValueError, match="size_profile"):
        SynthSpec(n_countries=3, size_profile=np.zeros(4))


@pytest.mark.parametrize("seed", [17, 10001])
def test_negative_beta_panels_stay_finite(seed):
    # With sizes unbounded in the volatility link, a shrinking country drew
    # ever larger shocks in these specs until its level overflowed.
    panel = generate(SynthSpec(n_countries=150, n_years=100, beta=-0.3, seed=seed))
    _, _, growth, size = panel.growth_arrays()
    assert np.all(np.isfinite(panel.gdppc)) and np.all(panel.gdppc > 0.0)
    assert np.all(np.isfinite(growth)) and np.all(np.isfinite(size))
