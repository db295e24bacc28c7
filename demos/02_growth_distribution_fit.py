"""
Fitting growth-rate distributions
=================================

Annual log growth rates of GDP per capita are not Gaussian: their center is
sharper and their tails -- especially the crash tail -- are much heavier.
This script fits the five-parameter asymmetric exponential power density to
the bundled century panel by maximum likelihood and compares it against the
nested Gaussian and Laplace special cases.
"""

import importlib.resources

import numpy as np

from growthvol.aep_fit import fit_aep, fit_special
from growthvol.ingest import load_panel
from growthvol.panel import stratify

# ----------------------------------------------------------------------------
# Load the bundled panel: 31 countries, balanced levels 1900-1999, generated
# with known parameters (see 00_build_toy_panel.py).

toy = importlib.resources.files("growthvol") / "data" / "toy_panel_31.csv"
panel, report = load_panel(toy, balanced=True)
growth = panel.growth_arrays()[2]
print(f"panel: {report['countries']} countries, {growth.size} growth observations")

# ----------------------------------------------------------------------------
# Full maximum likelihood fit.  Standard errors come from the observed
# information matrix; because the fitted left shape sits below 1.2 the mode's
# error is taken from a short nonparametric bootstrap instead (curvature at a
# cusp optimum says nothing about sampling variability).

fit = fit_aep(growth, bootstrap_fallback=60, seed=0)
p, se = fit.params, fit.std_errors
print(f"\nfitted parameters ({fit.se_method} standard errors):")
for name in ("b_l", "b_r", "a_l", "a_r", "m"):
    # A bootstrapped shape or scale held on its cap has no error (None).
    se_text = "n/a" if se[name] is None else f"{se[name]:.4f}"
    print(f"  {name:3s} = {getattr(p, name):+.4f}  (se {se_text})")

# The crash side is heavier-tailed than the boom side whenever b_l < b_r.
print(f"\nleft shape {p.b_l:.2f} < right shape {p.b_r:.2f}: "
      "crashes are heavier-tailed than booms")

# ----------------------------------------------------------------------------
# Nested special cases.  Both are closed-form maximum likelihood fits; the
# log-likelihood differences say how much the extra shape freedom buys.

gaussian = fit_special(growth, "gaussian")
laplace = fit_special(growth, "laplace")
print(f"\nlog-likelihood  full {fit.loglik:10.1f}")
print(f"                laplace {laplace.loglik:7.1f}  "
      f"(gap {fit.loglik - laplace.loglik:7.1f})")
print(f"                gaussian {gaussian.loglik:6.1f}  "
      f"(gap {fit.loglik - gaussian.loglik:7.1f})")

# ----------------------------------------------------------------------------
# Era comparison.  Re-fitting by half-century shows how the distribution's
# width moves over time while the shape ordering is stable.

for lo, hi in ((1900, 1949), (1950, 1999)):
    era = stratify(panel, year_range=(lo, hi)).growth_arrays()[2]
    era_fit = fit_aep(era, bootstrap_fallback=0)
    q = era_fit.params
    print(f"\n{lo}-{hi}  (n={era.size}):"
          f"  b=({q.b_l:.3f}, {q.b_r:.3f})"
          f"  a=({q.a_l:.4f}, {q.a_r:.4f})"
          f"  m={q.m:+.4f}")

# Tail mass beyond three scales, fitted vs raw counts, as a quick
# goodness-of-fit read on the part of the distribution that matters most.
lo_cut = p.m - 3 * p.a_l
hi_cut = p.m + 3 * p.a_r
from growthvol.aep import sample  # noqa: E402

draws = sample(p, 200_000, rng=np.random.default_rng(1))
print(f"\ncrash tail beyond 3 scales: data {np.mean(growth < lo_cut):.4f}, "
      f"fitted {np.mean(draws < lo_cut):.4f}")
print(f"boom tail beyond 3 scales:  data {np.mean(growth > hi_cut):.4f}, "
      f"fitted {np.mean(draws > hi_cut):.4f}")
