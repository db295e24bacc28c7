"""Synthetic growth panels with known parameters.

The generative law mirrors the heteroskedastic AR(1) the estimators target::

    r(i, t) = alpha + phi1 * r(i, t-1) + exp(beta * s(i, t-1)) * eps(i, t)

with eps i.i.d. from an AEP (or Laplace) shock law with mode 0.  Each
country's growth path starts at the stationary mean alpha / (1 - phi1), log
GDP per capita integrates the growth rates starting from a per-country size
offset, and s is the realized demeaned log level, so volatility feeds back
into size exactly as in the estimated model, except that s enters the
volatility link clipped to [-8, 8] so that the feedback cannot run away.  A
fixed-size mode holds s at the initial offsets during generation for
textbook consistency checks.

A burn-in prefix is generated and discarded so the retained years start from
the process's stationary regime, not from the artificial initial condition.

Generated panels carry one level year before the first retained growth year,
so a spec with n_years = 50 starting in 1950 yields growth rates for
1950..1999 exactly.

Generated countries have no region: a panel's meta maps each of them to
None.  Loading the panel back with a region map, such as the one the
``synth`` command writes beside it, assigns regions.

Each country consumes its own RNG substream (spawned from the spec seed), so
panels are reproducible regardless of how generation is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from growthvol.aep import AepParams, sample
from growthvol.panel import GrowthPanel, build_growth_panel


# Sizes enter the volatility link bounded to [-_SIZE_BOUND, _SIZE_BOUND].  For
# beta < 0 a shrinking country otherwise draws ever larger shocks, and the
# feedback can run away until a level overflows: 1 panel in 10 at 150 x 100
# and beta -0.3 did.  Panels whose sizes stay inside the bound are unchanged
# by it, the default 31 x 50 ones among them.
_SIZE_BOUND = 8.0


def _default_shock() -> AepParams:
    return AepParams.laplace(0.03)


@dataclass
class SynthSpec:
    """Ground-truth parameters for a generated panel.

    ``size_profile`` gives per-country base log-size offsets; the default
    spreads countries evenly over [-2, 2].  ``n_years`` counts growth years;
    the panel carries one extra leading level year.
    """

    n_countries: int = 31
    n_years: int = 50
    alpha: float = 0.02
    phi1: float = 0.35
    beta: float = -0.2
    shock: AepParams = field(default_factory=_default_shock)
    size_profile: np.ndarray | None = None
    seed: int = 0
    start_year: int = 1950
    burn_in: int = 50
    fixed_sizes: bool = False

    def __post_init__(self):
        if self.n_countries < 1:
            raise ValueError(f"n_countries must be positive, got {self.n_countries}")
        if self.n_years < 1:
            raise ValueError(f"n_years must be positive, got {self.n_years}")
        if not abs(self.phi1) < 1.0:
            raise ValueError(f"|phi1| must be below 1 for stationarity, got {self.phi1}")
        if self.shock.m != 0.0:
            raise ValueError(f"shock mode must be 0 (innovations), got {self.shock.m}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be nonnegative, got {self.burn_in}")
        if self.size_profile is None:
            if self.n_countries == 1:
                self.size_profile = np.zeros(1)
            else:
                self.size_profile = np.linspace(-2.0, 2.0, self.n_countries)
        else:
            self.size_profile = np.asarray(self.size_profile, dtype=float)
            if self.size_profile.shape != (self.n_countries,):
                raise ValueError(
                    f"size_profile must have shape ({self.n_countries},), "
                    f"got {self.size_profile.shape}"
                )

    def country_ids(self) -> list[str]:
        width = max(2, len(str(self.n_countries - 1)))
        return [f"C{i:0{width}d}" for i in range(self.n_countries)]


def generate(spec: SynthSpec) -> GrowthPanel:
    """Generate a panel from the spec; same spec, same panel, always."""
    n = spec.n_countries
    steps = spec.burn_in + spec.n_years + 1  # level points beyond the seed level
    children = np.random.SeedSequence(spec.seed).spawn(n)
    shocks = np.empty((n, steps))
    for i, child in enumerate(children):
        shocks[i] = sample(spec.shock, steps, rng=np.random.default_rng(child))

    log_level = spec.size_profile.copy()
    growth = np.full(n, spec.alpha / (1.0 - spec.phi1))
    size = log_level - log_level.mean()
    fixed_size = size.copy()

    kept_levels = np.empty((n, spec.n_years + 1))
    kept_from = spec.burn_in  # index of the first retained step
    for t in range(steps):
        link_size = np.clip(fixed_size if spec.fixed_sizes else size,
                            -_SIZE_BOUND, _SIZE_BOUND)
        scale = np.exp(spec.beta * link_size)
        growth = spec.alpha + spec.phi1 * growth + scale * shocks[:, t]
        log_level = log_level + growth
        size = log_level - log_level.mean()
        if t >= kept_from:
            kept_levels[:, t - kept_from] = log_level

    ids = spec.country_ids()
    years = np.arange(spec.start_year - 1, spec.start_year + spec.n_years)
    return build_growth_panel(
        (np.repeat(ids, years.size), np.tile(years, n), np.exp(kept_levels).ravel()))
