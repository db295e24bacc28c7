"""Country-year growth panels.

A panel is built from three level columns, (country, year, gdppc) with
rows in any order.  It keeps them sorted by (country, year), together with
two derived columns:

* growth rate: r(i, t) = ln gdppc(i, t) - ln gdppc(i, t-1), defined only
  when the country has an observation in the immediately preceding year
  (gaps in a series produce missing growth rates, never multi-year ratios);
* size: s(i, t) = ln gdppc(i, t) minus the cross-sectional mean of
  ln gdppc(., t) over the countries observed in year t, so that size
  measures relative position and is invariant to common growth of all
  countries.

A panel's ``meta`` maps each country to its region, or None.  Panels can be
stratified by region, by development status (membership in a developed set,
such as the upper half by ``development_split``), or to a year range.  Every
filter is a row selection, and stratification keeps the derived columns of the parent: a sub-panel's growth rates and sizes still
refer to the full panel that produced them, which is what rolling-window
estimation needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

REGIONS = (
    "EuropeNorthAmerica",
    "EastEuropeCentralAsia",
    "EastSouthAsiaPacific",
    "LatinAmericaCaribbean",
    "SubSaharanAfrica",
    "MiddleEastNorthAfrica",
)


@dataclass
class GrowthPanel:
    """Level observations plus derived growth and size columns.

    Rows are sorted by (country_id, year).  ``growth`` is NaN in a country's
    first observed year and after any gap.  ``size`` is defined for every
    row.  ``meta`` maps each country to its region, None where unknown.
    """

    country: np.ndarray
    year: np.ndarray
    gdppc: np.ndarray
    size: np.ndarray
    growth: np.ndarray
    meta: dict[str, str | None] = field(default_factory=dict)

    @property
    def span(self) -> tuple[int, int]:
        return int(self.year.min()), int(self.year.max())

    @property
    def countries(self) -> list[str]:
        return sorted(set(self.country.tolist()))

    @property
    def n_countries(self) -> int:
        return len(set(self.country.tolist()))

    def __eq__(self, other):
        if not isinstance(other, GrowthPanel):
            return NotImplemented
        return (
            np.array_equal(self.country, other.country)
            and np.array_equal(self.year, other.year)
            and np.array_equal(self.gdppc, other.gdppc)
            and np.array_equal(self.size, other.size)
            and np.array_equal(self.growth, other.growth, equal_nan=True)
            and self.meta == other.meta
        )

    def growth_arrays(self):
        """(country, year, growth, size) over rows where growth is defined."""
        mask = ~np.isnan(self.growth)
        return (
            self.country[mask],
            self.year[mask],
            self.growth[mask],
            self.size[mask],
        )

    def growth_years(self) -> tuple[int, int]:
        """(first, last) year in which any growth rate is defined."""
        years = self.year[~np.isnan(self.growth)]
        if years.size == 0:
            raise ValueError("panel has no growth observations")
        return int(years.min()), int(years.max())

    def ar1_pairs(self):
        """Consecutive growth pairs for autoregression.

        Returns (r_t, r_lag, s_lag, country, year) over all (i, t) where
        both r(i, t) and r(i, t-1) exist; s_lag is the size s(i, t-1) and
        year is t.
        """
        has_growth = ~np.isnan(self.growth)
        same_country = self.country[1:] == self.country[:-1]
        consecutive = self.year[1:] == self.year[:-1] + 1
        pair = same_country & consecutive & has_growth[1:] & has_growth[:-1]
        idx = np.flatnonzero(pair) + 1
        return (
            self.growth[idx],
            self.growth[idx - 1],
            self.size[idx - 1],
            self.country[idx],
            self.year[idx],
        )


def demean_by_group(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Subtract from each value the mean of the values sharing its key.

    With years as keys and log GDP per capita as values this is the size
    s(i, t); the same helper centres growth rates by year or by country.
    """
    _, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=values)
    counts = np.bincount(inverse)
    return values - sums[inverse] / counts[inverse]


def build_growth_panel(
    observations,
    meta: dict[str, str | None] | None = None,
) -> GrowthPanel:
    """Assemble a panel from raw level observations.

    Parameters
    ----------
    observations : (country, year, gdppc)
        Three 1-D columns of equal length, rows in any order.  Levels must be
        positive and finite and (country, year) unique; the first offender in
        (country, year) order is named.
    meta : dict, optional
        Country -> region; countries without an entry get None.

    Returns
    -------
    GrowthPanel with growth rates over consecutive years and sizes demeaned
    within each year's observed cross section.
    """
    country, year, gdppc = (np.asarray(column) for column in observations)
    if country.ndim != 1 or not country.shape == year.shape == gdppc.shape:
        raise ValueError("observations must be three 1-D columns of equal length, "
                         f"got shapes {country.shape}, {year.shape}, {gdppc.shape}")
    if not country.size:
        raise ValueError("no observations")
    order = np.lexsort((year, country))
    country, year, gdppc = country[order], year[order].astype(int), gdppc[order].astype(float)
    bad = ~((gdppc > 0.0) & (gdppc < np.inf))  # also true for nan
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"gdppc must be positive and finite: {country[i]} {year[i]} "
                         f"has {float(gdppc[i])!r}")
    same_country = country[1:] == country[:-1]
    repeats = same_country & (year[1:] == year[:-1])
    if repeats.any():
        i = int(np.argmax(repeats)) + 1
        raise ValueError(f"duplicate observation for {country[i]} in {year[i]}")

    log_gdppc = np.log(gdppc)
    size = demean_by_group(year, log_gdppc)
    growth = np.full(gdppc.size, np.nan)
    idx = np.flatnonzero(same_country & (year[1:] == year[:-1] + 1)) + 1
    growth[idx] = log_gdppc[idx] - log_gdppc[idx - 1]

    meta = meta or {}
    full_meta = {c: meta.get(c) for c in country[np.r_[True, ~same_country]].tolist()}
    return GrowthPanel(country=country, year=year, gdppc=gdppc, size=size,
                       growth=growth, meta=full_meta)


def development_split(panel: GrowthPanel) -> tuple[frozenset, frozenset]:
    """(developed, developing) country sets by median mean log GDP per capita.

    Countries at or above the median of per-country mean log levels are
    "developed"; the rest "developing".
    """
    means = {}
    log_gdppc = np.log(panel.gdppc)
    for c in panel.countries:
        means[c] = float(np.mean(log_gdppc[panel.country == c]))
    cutoff = float(np.median(list(means.values())))
    developed = frozenset(c for c, v in means.items() if v >= cutoff)
    developing = frozenset(c for c, v in means.items() if v < cutoff)
    return developed, developing


def stratify(
    panel: GrowthPanel,
    *,
    region: str | None = None,
    development: str | None = None,
    developed_countries=None,
    year_range: tuple[int, int] | None = None,
) -> GrowthPanel:
    """Restrict a panel to a stratum.

    Parameters
    ----------
    region : str, optional
        Keep countries whose meta region matches (see REGIONS).
    development : {"developed", "developing"}, optional
        Keep the countries in ``developed_countries``, or the rest.
    developed_countries : iterable of str
        The developed set, required with ``development``; usually the first
        set of ``development_split`` on the whole panel.
    year_range : (int, int), optional
        Keep rows with year in the closed range.  Growth rates computed by
        the parent panel are retained, so the first kept year keeps the
        growth rate into it; row filtering never recomputes growth.

    Every filter is a row selection, so the filters commute: stratifying by
    one and then another gives the panel that both at once give.
    """
    keep = np.ones(panel.country.shape, dtype=bool)
    if region is not None:
        if region not in REGIONS:
            raise ValueError(f"unknown region {region!r}; expected one of {REGIONS}")
        keep &= np.isin(panel.country, [c for c, r in panel.meta.items() if r == region])
    if development is not None:
        if development not in ("developed", "developing"):
            raise ValueError(
                f"development must be 'developed' or 'developing', got {development!r}"
            )
        if developed_countries is None:
            raise ValueError("development needs developed_countries")
        developed = np.isin(panel.country, sorted(developed_countries))
        keep &= developed if development == "developed" else ~developed
    if year_range is not None:
        first, last = year_range
        if first > last:
            raise ValueError(f"empty year range {year_range!r}")
        keep &= (panel.year >= first) & (panel.year <= last)

    if not np.any(keep):
        raise ValueError("stratification selects no observations")

    country = panel.country[keep]
    meta = {c: panel.meta[c] for c in set(country.tolist())}
    return GrowthPanel(country=country, year=panel.year[keep], gdppc=panel.gdppc[keep],
                       size=panel.size[keep], growth=panel.growth[keep], meta=meta)
