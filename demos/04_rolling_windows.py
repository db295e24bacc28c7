"""
Rolling re-estimation of the scaling exponent
=============================================

A single full-sample beta can hide regime changes.  Re-estimating the
volatility-size exponent in short windows turns it into a time series:
each 10-year window gets its own heteroskedastic AR(1) fit with bootstrap
errors, and maximal runs of windows sharing a significance status mark the
regimes.  On the bundled panel the generating beta is constant (-0.18), so
every window should be significantly negative and the series should show
no trend -- which is exactly the null against which real data is read.
"""

import importlib.resources

import numpy as np

from growthvol.ingest import load_panel
from growthvol.rolling import roll, rolling_csv, significance_segments

# ----------------------------------------------------------------------------
# Load the bundled panel and roll a 10-year window across its 99 growth
# years.  Step 5 keeps the demo quick; the estimator supports any step down
# to one year.  Windows are fitted one after another.

toy = importlib.resources.files("growthvol") / "data" / "toy_panel_31.csv"
panel, _ = load_panel(toy, balanced=True)

series = roll(panel, window_length=10, step=5, bootstrap=50, seed=0)
print(f"{len(series.entries)} windows of {series.window_length} years, "
      f"step {series.step}")

# ----------------------------------------------------------------------------
# The beta path.  Every window hugs the generating value.

print("\nwindow        beta      se     ")
for entry in series.entries:
    if entry.fit is None:
        print(f"{entry.start_year}-{entry.end_year}   (insufficient pairs)")
        continue
    flag = "*" if entry.fit.significant_5pct else " "
    offset = int(round((entry.fit.beta + 0.4) * 60))
    lane = " " * max(offset, 0) + "o"
    print(f"{entry.start_year}-{entry.end_year}  {entry.fit.beta:+.3f}  "
          f"{entry.fit.se_beta:.3f} {flag} |{lane}")
print(" " * 27 + "|" + " " * int(round((-0.18 + 0.4) * 60)) + "^ truth -0.18")

# ----------------------------------------------------------------------------
# Significance regimes.  Runs of windows with the same significance status,
# the machine-readable version of shaded regions on a beta-path plot.

print("\nregimes:")
for start, end, significant in significance_segments(series):
    label = "beta < 0 significant" if significant else "not significant"
    print(f"  {start}-{end}: {label}")

# ----------------------------------------------------------------------------
# Stability of the path: weighted mean distance from the generating value.

betas = np.array([e.fit.beta for e in series.entries if e.fit])
ses = np.array([e.fit.se_beta for e in series.entries if e.fit])
z = (betas - (-0.18)) / ses
print(f"\nwindow-level deviation from truth: mean |z| = {np.mean(np.abs(z)):.2f}, "
      f"max |z| = {np.max(np.abs(z)):.2f}")

# The same series as CSV, the format the command-line interface writes.
print("\nfirst lines of the CSV serialization:")
for line in rolling_csv(series).splitlines()[:4]:
    print("  " + line)
