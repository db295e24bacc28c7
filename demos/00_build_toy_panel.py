"""
Provenance of the bundled century panel
=======================================

The package ships a small synthetic dataset, ``data/toy_panel_31.csv``: a
balanced century of GDP per capita levels (1900-1999) for the 31 countries
with full-century coverage in the region table.  It exists so that the data
pipeline, the estimators, and the regression tests have a realistic panel
with *known* generating parameters to chew on.

Running this script regenerates the file from scratch and verifies that the
bundled copy is byte-identical, so the dataset's provenance is never in
doubt.
"""

import pathlib

import numpy as np

from growthvol.aep import AepParams
from growthvol.ingest import CENTURY_BALANCED_COUNTRIES, panel_to_long_csv
from growthvol.panel import build_growth_panel
from growthvol.synth import SynthSpec, generate

# ----------------------------------------------------------------------------
# Generating law.  Growth follows the heteroskedastic AR(1)
#
#     r(i,t) = alpha + phi1 * r(i,t-1) + exp(beta * s(i,t-1)) * eps(i,t)
#
# with a right-skewed asymmetric exponential power shock (left tail heavier
# than exponential, right tail exponential).  Levels run 1900..1999, i.e.
# 99 growth years starting in 1901.

TOY_SPEC = SynthSpec(
    n_countries=31,
    n_years=99,
    start_year=1901,
    alpha=0.017,
    phi1=0.25,
    beta=-0.18,
    shock=AepParams(b_l=0.8, b_r=1.1, a_l=0.035, a_r=0.038, m=0.0),
    seed=19001999,
)

# The synthetic country ids C00..C30 are relabeled with the real names of the
# century-balanced countries, in alphabetical order, so the file exercises
# the same name canonicalization and region lookups as real data would.
NAMES = sorted(CENTURY_BALANCED_COUNTRIES)


def build_toy_panel():
    source = generate(TOY_SPEC)
    rename = dict(zip(sorted(source.countries), NAMES))
    country = np.array([rename[c] for c in source.country.tolist()])
    return build_growth_panel((country, source.year, source.gdppc))


HEADER = (
    "# Synthetic balanced century panel: 31 countries, levels 1900-1999.\n"
    "# Generated by demos/00_build_toy_panel.py; do not edit by hand.\n"
)


def toy_panel_csv() -> str:
    return HEADER + panel_to_long_csv(build_toy_panel())


if __name__ == "__main__":
    bundled = (
        pathlib.Path(__file__).resolve().parents[1]
        / "src" / "growthvol" / "data" / "toy_panel_31.csv"
    )
    text = toy_panel_csv()
    if bundled.exists() and bundled.read_text(encoding="utf-8") == text:
        print(f"{bundled.name}: bundled copy matches the generator, byte for byte")
    else:
        bundled.write_text(text, encoding="utf-8")
        print(f"{bundled.name}: written ({len(text.splitlines()) - 2} data rows)")

    panel = build_toy_panel()
    print(f"countries: {panel.n_countries}, level years: {panel.span}")
    growth = panel.growth_arrays()[2]
    print(f"mean growth rate: {float(np.mean(growth)):.4f} "
          f"(stationary mean {TOY_SPEC.alpha / (1 - TOY_SPEC.phi1):.4f})")
