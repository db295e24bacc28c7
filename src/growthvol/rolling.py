"""Sliding-window re-estimation of the scale relation across a century.

A window of length L starting at year t covers growth years t .. t+L-1; the
window's fit sees only those rows (growth into the first window year, which
the parent panel computed from t-1, is part of the window).  Windows whose
panels yield too few consecutive-year pairs are recorded as gaps rather than
silently skipped, so a series always has one entry per window position.

Each window's estimate is exactly ``fit_alad`` applied to the stratified
sub-panel with a seed derived from (series seed, window start); the driver
adds no estimation logic, and a window can be reproduced in isolation.
A window's significance is the fit's own 5% flag, ``significant_5pct``,
which both the CSV table and the significance segments report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

from growthvol.ingest import table_csv
from growthvol.panel import GrowthPanel, stratify
from growthvol.scaling import ScalingFit, _seed_entropy, fit_alad

# Fewer consecutive-year pairs make a gap: eight per estimated parameter.
_MIN_PAIRS = 24


@dataclass
class RollingEntry:
    """One window position: its span, pair count, and fit (None for a gap)."""

    start_year: int
    end_year: int
    n_pairs: int
    fit: ScalingFit | None


@dataclass
class RollingSeries:
    window_length: int
    step: int
    entries: list[RollingEntry] = field(default_factory=list)


def roll(
    panel: GrowthPanel,
    window_length: int = 10,
    step: int = 1,
    *,
    bootstrap: int = 200,
    seed=0,
) -> RollingSeries:
    """Estimate the ALAD model on every window of growth years.

    Parameters
    ----------
    panel : GrowthPanel
    window_length, step : int
        Window size in growth years and the distance between window starts.
    bootstrap : int
        Passed through to ``fit_alad``.
    seed : int or sequence of ints
        Window w uses the derived seed (seed, w), so any window can be
        recomputed independently of the others.

    Windows are fitted serially, in order of start.  A window with fewer
    than 24 consecutive-year pairs is a gap: its entry has no fit.
    """
    if window_length < 2:
        raise ValueError(f"window_length must be at least 2, got {window_length}")
    if step < 1:
        raise ValueError(f"step must be positive, got {step}")
    first, last = panel.growth_years()
    n_years = last - first + 1
    if window_length > n_years:
        raise ValueError(
            f"window of {window_length} years exceeds the panel's "
            f"{n_years} growth years ({first}..{last})"
        )
    starts = list(range(first, last - window_length + 2, step))
    entropy = _seed_entropy(seed)
    entries = []
    for start in starts:
        end = start + window_length - 1
        sub = stratify(panel, year_range=(start, end))
        n_pairs = int(sub.ar1_pairs()[0].size)
        fit = None
        if n_pairs >= _MIN_PAIRS:
            fit = fit_alad(sub, bootstrap=bootstrap, seed=entropy + [start])
        entries.append(RollingEntry(start, end, n_pairs, fit))
    return RollingSeries(window_length=window_length, step=step, entries=entries)


def significance_segments(series: RollingSeries) -> list[tuple[int, int, bool]]:
    """Maximal runs of windows sharing beta's 5% significance flag.

    Returns (first window's start year, last window's end year, significant)
    per run — the plot data behind regime shading.  A window's status is its
    fit's ``significant_5pct``, the ``significant`` column of
    ``rolling_csv``.  Windows without a usable fit (gaps, or fits without
    standard errors) break runs and belong to none.
    """
    if not series.entries:
        raise ValueError("empty rolling series")

    def status(entry: RollingEntry):
        return None if entry.fit is None else entry.fit.significant_5pct

    segments = []
    for significant, run in groupby(series.entries, key=status):
        if significant is not None:
            run = list(run)
            segments.append((run[0].start_year, run[-1].end_year, significant))
    return segments


def rolling_csv(series: RollingSeries) -> str:
    """One row per window: both span labels, estimates, errors, and flags.

    Gap windows keep their identifying columns and pair count; estimate
    fields are left empty.
    """
    rows = []
    for e in series.entries:
        f = e.fit
        if f is None:
            rows.append([e.start_year, e.end_year, None, None, None, None, None,
                         e.n_pairs, None])
        else:
            rows.append([e.start_year, e.end_year, f.beta, f.se_beta, f.phi1,
                         f.se_phi1, f.gamma_or_alpha, f.n_obs, f.significant_5pct])
    return table_csv(["window_start", "window_end", "beta", "se_beta", "phi1",
                      "se_phi1", "alpha", "n", "significant"], rows)
