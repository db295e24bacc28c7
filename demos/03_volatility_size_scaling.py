"""
Volatility shrinks with economy size
====================================

Across a growth panel, the spread of annual growth rates falls with the
economy's relative size s (log GDP per capita, demeaned within each year):

    sigma(s) ~ exp(beta * s),   beta < 0

This script estimates the exponent beta on the bundled century panel two
independent ways, shows the two estimates agree, and checks that rescaling
by the fitted law actually flattens the volatility profile.
"""

import importlib.resources

import numpy as np

from growthvol.ingest import load_panel
from growthvol.panel import stratify
from growthvol.scaling import (
    binned_beta,
    binned_beta_xy,
    fit_alad,
    rescale_residuals,
)

# ----------------------------------------------------------------------------
# Load the bundled panel.  Its generating law uses beta = -0.18, so both
# estimators have a known target.

toy = importlib.resources.files("growthvol") / "data" / "toy_panel_31.csv"
panel, _ = load_panel(toy, balanced=True)

# ----------------------------------------------------------------------------
# Method 1: binned OLS.  Sort observations into equal-occupancy size bins,
# measure each bin's growth-rate standard deviation, and regress log sigma
# on mean size.  Simple, robust, and it makes the law visible bin by bin.

fit_b, bins = binned_beta(panel)
print("size bin -> volatility (equal-occupancy bins):")
for b in bins:
    bar = "#" * int(round(400 * b.sigma))
    print(f"  s = {b.mean_size:+.3f}   sigma = {b.sigma:.4f}  {bar}")
print(f"\nbinned OLS:  beta = {fit_b.beta:+.4f}  (se {fit_b.se_beta:.4f}, "
      f"{'significant' if fit_b.significant_5pct else 'not significant'})")

# ----------------------------------------------------------------------------
# Method 2: heteroskedastic AR(1) by asymmetric least absolute deviations.
# Growth rates follow r(t) = alpha + phi1 r(t-1) + exp(beta s(t-1)) eps(t);
# alpha, phi1 and beta are fit jointly, with country-bootstrap errors.
# Unlike the binned method it models persistence instead of averaging over
# it, so it uses one fewer year per country and is the sharper estimator.

fit_a = fit_alad(panel, bootstrap=200, seed=0)
print(f"ALAD AR(1):  beta = {fit_a.beta:+.4f}  (se {fit_a.se_beta:.4f}, "
      f"{'significant' if fit_a.significant_5pct else 'not significant'})")
print(f"             phi1 = {fit_a.phi1:+.4f}  (se {fit_a.se_phi1:.4f})")
print(f"             alpha = {fit_a.alpha_or_gamma:+.4f}")
print("generating value: beta = -0.1800")

# ----------------------------------------------------------------------------
# The law by era: both halves of the century carry it.

for lo, hi in ((1900, 1949), (1950, 1999)):
    era = stratify(panel, year_range=(lo, hi))
    era_fit = fit_alad(era, bootstrap=200, seed=0)
    print(f"  {lo}-{hi}: ALAD beta = {era_fit.beta:+.4f} "
          f"(se {era_fit.se_beta:.4f})")

# ----------------------------------------------------------------------------
# Consistency check: divide growth deviations by exp(beta_hat * s) and the
# size gradient must vanish.  Refitting the binned regression on the
# rescaled residuals should find nothing.

residuals = rescale_residuals(panel, fit_b.beta)
sizes = panel.growth_arrays()[3]
flat, _ = binned_beta_xy(sizes, residuals)
print(f"\nafter rescaling: residual beta = {flat.beta:+.4f} "
      f"(|t| = {abs(flat.beta) / flat.se_beta:.2f}, "
      f"{'significant' if flat.significant_5pct else 'not significant'})")
