"""Growth-rate distributions and volatility-size scaling for GDP per capita panels."""

from growthvol.aep import AepParams, density, left_mass, log_density, normalization, sample
from growthvol.aep_fit import AepFit, fit_aep, fit_special
from growthvol.ingest import (
    load_panel,
    panel_to_long_csv,
    read_observations,
    validate_region_map,
)
from growthvol.panel import (
    REGIONS,
    GrowthPanel,
    build_growth_panel,
    development_split,
    stratify,
)
from growthvol.rolling import (
    RollingEntry,
    RollingSeries,
    roll,
    rolling_csv,
    significance_segments,
)
from growthvol.scaling import (
    BinStat,
    ScalingFit,
    bin_stats_csv,
    binned_beta,
    binned_beta_xy,
    fit_alad,
    rescale_residuals,
)
from growthvol.synth import SynthSpec, generate

__all__ = [
    "AepFit",
    "AepParams",
    "BinStat",
    "GrowthPanel",
    "REGIONS",
    "RollingEntry",
    "RollingSeries",
    "ScalingFit",
    "SynthSpec",
    "bin_stats_csv",
    "binned_beta",
    "binned_beta_xy",
    "build_growth_panel",
    "density",
    "development_split",
    "fit_aep",
    "fit_alad",
    "fit_special",
    "generate",
    "left_mass",
    "load_panel",
    "log_density",
    "normalization",
    "panel_to_long_csv",
    "read_observations",
    "rescale_residuals",
    "roll",
    "rolling_csv",
    "sample",
    "significance_segments",
    "stratify",
    "validate_region_map",
]
