"""Parsing, validation, reporting, and round-trip serialization."""

import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthvol.ingest import (
    CENTURY_BALANCED_COUNTRIES,
    DatasetManifest,
    IngestError,
    bundled_region_map,
    canonical_name,
    load_panel,
    panel_to_long_csv,
    read_observations,
    validate_region_map,
    write_long_csv,
)
from growthvol.panel import REGIONS

WIDE = """\
# levels in constant dollars
year,France,Japan,Atlantis
1950,5186,1921,100
1951,5452,2110,101
1952,5564,2363,
1953,5683,2510,103
"""

LONG = """\
country,year,gdppc
France,1950,5186
France,1951,5452
Japan,1950,1921
Japan,1951,2110
"""


@pytest.fixture
def wide_file(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text(WIDE, encoding="utf-8")
    return path


@pytest.fixture
def long_file(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text(LONG, encoding="utf-8")
    return path


def test_read_wide(wide_file):
    obs = read_observations(wide_file)
    keys = {(o.country_id, o.year) for o in obs}
    assert ("France", 1950) in keys
    assert ("Atlantis", 1952) not in keys  # empty cell = missing, not zero
    assert ("Atlantis", 1953) in keys
    assert len(obs) == 11


def test_read_long(long_file):
    obs = read_observations(long_file)
    assert len(obs) == 4
    assert {o.country_id for o in obs} == {"France", "Japan"}


def test_malformed_cell_is_located(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("year,France\n1950,5186\n1951,fivethousand\n", encoding="utf-8")
    with pytest.raises(IngestError, match="fivethousand") as err:
        read_observations(path)
    assert err.value.row == 3
    assert err.value.column == "France"


def test_malformed_year_is_located(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("year,France\nMCML,5186\n", encoding="utf-8")
    with pytest.raises(IngestError, match="MCML"):
        read_observations(path)


def test_duplicate_observation_reported(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "country,year,gdppc\nFrance,1950,5186\nFrance,1950,5187\n", encoding="utf-8"
    )
    manifest = DatasetManifest(data_path=path, year_min=1900, year_max=1999)
    with pytest.raises(ValueError, match="duplicate.*France.*1950"):
        load_panel(manifest)


def test_bundled_region_map_taxonomy():
    mapping = bundled_region_map()
    assert len(mapping) == 141
    assert set(mapping.values()) == set(REGIONS)
    assert mapping["Argentina"] == "LatinAmericaCaribbean"
    assert mapping["France"] == "EuropeNorthAmerica"
    # every balanced-century country is mapped
    assert CENTURY_BALANCED_COUNTRIES <= set(mapping)
    assert len(CENTURY_BALANCED_COUNTRIES) == 31


def test_region_counts():
    mapping = bundled_region_map()
    counts = {region: 0 for region in REGIONS}
    for region in mapping.values():
        counts[region] += 1
    assert counts == {
        "EuropeNorthAmerica": 25,
        "EastEuropeCentralAsia": 19,
        "EastSouthAsiaPacific": 20,
        "LatinAmericaCaribbean": 19,
        "SubSaharanAfrica": 42,
        "MiddleEastNorthAfrica": 16,
    }


def test_unknown_region_label_rejected(tmp_path):
    path = tmp_path / "regions.csv"
    path.write_text("country,region\nFrance,Mars\n", encoding="utf-8")
    with pytest.raises(IngestError, match="'Mars'") as err:
        validate_region_map(path)
    assert err.value.row == 2


def test_aliases_normalize():
    assert canonical_name("Korea, Rep.") == "Republic of Korea"
    assert canonical_name("Viet Nam") == "Vietnam"
    assert canonical_name("France") == "France"
    # alias targets resolve to mapped countries
    mapping = bundled_region_map()
    from growthvol.ingest import COUNTRY_ALIASES

    for target in COUNTRY_ALIASES.values():
        assert target in mapping, target


def test_load_drops_unmapped_with_warning(wide_file):
    manifest = DatasetManifest(data_path=wide_file, year_min=1950, year_max=1953)
    with pytest.warns(UserWarning, match="Atlantis"):
        panel, report = load_panel(manifest)
    assert panel.countries == ["France", "Japan"]
    assert report.countries == 2
    assert {d["country"] for d in report.dropped} == {"Atlantis"}
    assert report.years == (1950, 1953)


def test_unused_custom_map_entry_warns(long_file, tmp_path):
    map_path = tmp_path / "map.csv"
    map_path.write_text(
        "country,region\nFrance,EuropeNorthAmerica\nJapan,EastSouthAsiaPacific\n"
        "Atlantis,LatinAmericaCaribbean\n",
        encoding="utf-8",
    )
    manifest = DatasetManifest(
        data_path=long_file, region_map_path=map_path, year_min=1950, year_max=1951
    )
    with pytest.warns(UserWarning, match="Atlantis"):
        panel, report = load_panel(manifest)
    assert panel.countries == ["France", "Japan"]
    assert not report.dropped  # ignored map entries drop nothing


def test_balanced_load(wide_file):
    manifest = DatasetManifest(
        data_path=wide_file, year_min=1950, year_max=1953, panel_kind="balanced"
    )
    with pytest.warns(UserWarning):
        panel, report = load_panel(manifest)
    # Atlantis is unmapped; France and Japan cover every year
    assert panel.countries == ["France", "Japan"]
    assert report.balanced_members == 2
    assert all(panel.meta[c].balanced_member for c in panel.countries)


def test_balanced_load_drops_partial_coverage(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text(
        "country,year,gdppc\n"
        "France,1950,5186\nFrance,1951,5452\n"
        "Japan,1951,2110\n",
        encoding="utf-8",
    )
    manifest = DatasetManifest(
        data_path=path, year_min=1950, year_max=1951, panel_kind="balanced"
    )
    panel, report = load_panel(manifest)
    assert panel.countries == ["France"]
    assert {d["country"] for d in report.dropped} == {"Japan"}
    assert report.to_json_dict()["balanced_members"] == 1


def test_year_window_applied(wide_file):
    manifest = DatasetManifest(data_path=wide_file, year_min=1951, year_max=1952)
    with pytest.warns(UserWarning):
        panel, _ = load_panel(manifest)
    assert panel.span == (1951, 1952)


def test_round_trip_exact(tmp_path, wide_file):
    manifest = DatasetManifest(data_path=wide_file, year_min=1950, year_max=1953)
    with pytest.warns(UserWarning):
        panel, _ = load_panel(manifest)
    out = tmp_path / "normalized.csv"
    write_long_csv(panel, out)
    manifest2 = DatasetManifest(data_path=out, year_min=1950, year_max=1953)
    panel2, _ = load_panel(manifest2)
    assert panel2 == panel
    # serialization itself is deterministic
    assert panel_to_long_csv(panel2) == panel_to_long_csv(panel)


def _long_csv_round_trip(directory, countries, years, levels):
    """Load a long CSV of ``levels``, write it back, load that: both panels."""
    keys = [(country, year) for country in countries for year in years]
    rows = ["country,year,gdppc"] + [f"{c},{y},{v!r}" for (c, y), v in zip(keys, levels)]
    (directory / "in.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (directory / "map.csv").write_text(
        "country,region\n" + "".join(f"{c},SubSaharanAfrica\n" for c in countries),
        encoding="utf-8",
    )

    def load(name):
        return load_panel(DatasetManifest(
            data_path=directory / name, region_map_path=directory / "map.csv",
            year_min=years[0], year_max=years[-1]))[0]

    panel = load("in.csv")
    write_long_csv(panel, directory / "out.csv")
    return panel, load("out.csv")


def test_round_trip_awkward_floats(tmp_path):
    rng = np.random.default_rng(5)
    levels = [float(np.exp(rng.normal(8.0, 1.0))) for _ in range(9)]
    panel, again = _long_csv_round_trip(tmp_path, ["C0", "C1", "C2"],
                                        [1980, 1981, 1982], levels)
    assert again == panel
    np.testing.assert_array_equal(again.gdppc, panel.gdppc)


@st.composite
def long_panels(draw):
    """(countries, years, levels): every positive finite float is a level."""
    n_countries = draw(st.integers(1, 4))
    years = list(range(1980, 1980 + draw(st.integers(2, 5))))
    level = st.floats(min_value=5e-324, max_value=sys.float_info.max,
                      allow_nan=False, allow_infinity=False)
    levels = draw(st.lists(level, min_size=n_countries * len(years),
                           max_size=n_countries * len(years)))
    return [f"C{i}" for i in range(n_countries)], years, levels


@settings(max_examples=60, deadline=None)
@given(long_panels())
def test_long_csv_round_trip_is_exact_for_any_positive_level(case):
    countries, years, levels = case
    with tempfile.TemporaryDirectory() as tmp:
        panel, again = _long_csv_round_trip(Path(tmp), countries, years, levels)
    assert again == panel
    np.testing.assert_array_equal(again.gdppc, panel.gdppc)
    assert sorted(panel.gdppc.tolist()) == sorted(levels)


def test_manifest_validation():
    with pytest.raises(ValueError, match="year_min"):
        DatasetManifest(data_path="x.csv", year_min=1999, year_max=1900)
    with pytest.raises(ValueError, match="panel_kind"):
        DatasetManifest(data_path="x.csv", panel_kind="huge")


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "0", "0.0", "-5186"])
def test_bad_level_is_located_in_wide_layout(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"year,France,Japan\n1950,5186,1921\n1951,5452,{cell}\n",
                    encoding="utf-8")
    with pytest.raises(IngestError, match="positive and finite") as err:
        read_observations(path)
    assert err.value.path == path
    assert err.value.row == 3
    assert err.value.column == "Japan"


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "0", "-1e-300"])
def test_bad_level_is_located_in_long_layout(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"country,year,gdppc\nFrance,1950,5186\nFrance,1951,{cell}\n",
                    encoding="utf-8")
    with pytest.raises(IngestError, match="positive and finite") as err:
        read_observations(path)
    assert err.value.path == path
    assert err.value.row == 3
    assert err.value.column == "gdppc"


def test_bad_level_fails_load_with_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("country,year,gdppc\nFrance,1950,5186\nFrance,1951,nan\n",
                    encoding="utf-8")
    with pytest.raises(IngestError, match=r"bad\.csv, row 3, column 'gdppc'"):
        load_panel(DatasetManifest(data_path=path, year_min=1950, year_max=1951))


@pytest.mark.parametrize("row", ["1951,5452", "1951,5452,2110,17", "1951"])
def test_ragged_wide_row_is_rejected(tmp_path, row):
    path = tmp_path / "ragged.csv"
    path.write_text(f"year,France,Japan\n1950,5186,1921\n{row}\n", encoding="utf-8")
    with pytest.raises(IngestError, match="cells, header has 3") as err:
        read_observations(path)
    assert err.value.row == 3


def test_trailing_empty_cells_are_missing_not_ragged(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("year,France,Japan\n1950,5186,\n1951,,\n", encoding="utf-8")
    obs = read_observations(path)
    assert [(o.country_id, o.year) for o in obs] == [("France", 1950)]
