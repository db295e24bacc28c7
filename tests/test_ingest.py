"""Parsing, validation, reporting, and round-trip serialization."""

import csv
import io
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthvol import cli
from growthvol.aep import AepParams, density
from growthvol.ingest import (
    CENTURY_BALANCED_COUNTRIES,
    COUNTRY_ALIASES,
    IngestError,
    bundled_region_map,
    canonical_name,
    load_panel,
    panel_to_long_csv,
    read_observations,
    table_csv,
    validate_region_map,
)
from growthvol.panel import REGIONS
from growthvol.rolling import RollingEntry, RollingSeries, rolling_csv
from growthvol.scaling import BinStat, ScalingFit, bin_stats_csv
from growthvol.synth import SynthSpec

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
    country, year, gdppc = read_observations(wide_file)
    keys = set(zip(country.tolist(), year.tolist()))
    assert ("France", 1950) in keys
    assert ("Atlantis", 1952) not in keys  # empty cell = missing, not zero
    assert ("Atlantis", 1953) in keys
    assert len(country) == len(year) == len(gdppc) == 11


def test_read_long(long_file):
    country, year, gdppc = read_observations(long_file)
    assert gdppc.tolist() == [5186.0, 5452.0, 1921.0, 2110.0]
    assert set(country.tolist()) == {"France", "Japan"}
    assert year.dtype.kind == "i"


@pytest.mark.parametrize("text", [LONG, WIDE, WIDE.split("\n", 1)[1]],
                         ids=["long", "wide", "wide_without_comment"])
def test_leading_byte_order_mark_is_dropped(tmp_path, text):
    # Spreadsheet "CSV UTF-8" exports start the file with a byte-order mark.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    for column, expected in zip(read_observations(marked), read_observations(plain)):
        np.testing.assert_array_equal(column, expected)


def test_region_map_with_byte_order_mark(tmp_path):
    path = tmp_path / "regions.csv"
    path.write_text("country,region\nFrance,EuropeNorthAmerica\n", encoding="utf-8-sig")
    assert validate_region_map(path) == {"France": "EuropeNorthAmerica"}


def test_unrecognized_header_is_located(tmp_path):
    path = tmp_path / "levels.csv"
    path.write_text("# notes\n\nnation,year,gdppc\nFrance,1950,5186\n", encoding="utf-8")
    with pytest.raises(IngestError, match="unrecognized header") as err:
        read_observations(path)
    assert err.value.row == 3


def test_rows_starting_with_hash_after_the_header_are_data(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("# notes\n  # more notes\ncountry,year,gdppc\nFrance,1950,5186\n"
                    "#Atlantis,1950,100\n  # note,1950,7\n", encoding="utf-8")
    country, _, gdppc = read_observations(path)
    assert country.tolist() == ["France", "#Atlantis", "# note"]
    assert gdppc.tolist() == [5186.0, 100.0, 7.0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, report = load_panel(path, year_range=(1950, 1951))
    assert [d["country"] for d in report["dropped"]] == ["# note", "#Atlantis"]
    assert len(caught) == 2
    path.write_text("country,year,gdppc\nFrance,1950,5186\n# see,the notes,below\n",
                    encoding="utf-8")
    with pytest.raises(IngestError, match="malformed year 'the notes'") as err:
        read_observations(path)
    assert err.value.row == 3


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
    with pytest.raises(ValueError, match="duplicate.*France.*1950"):
        load_panel(path)


def test_duplicate_long_row_is_located(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("country,year,gdppc\nFrance,1950,5186\nJapan,1950,1921\n"
                    "France,1950,5187\n", encoding="utf-8")
    with pytest.raises(IngestError, match="first given in row 2") as err:
        read_observations(path)
    assert (err.value.path, err.value.row, err.value.column) == (path, 4, "gdppc")
    with pytest.raises(IngestError, match=r"France in 1950, .*dup\.csv, row 4"):
        load_panel(path, year_range=(1950, 1951))


def test_duplicate_wide_year_row_is_located(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("# levels\nyear,France,Japan\n1950,5186,1921\n1951,5452,2110\n"
                    "1950,,1922\n", encoding="utf-8")
    with pytest.raises(IngestError,
                       match="duplicate observation for Japan in 1950, first given "
                             "in row 3") as err:
        read_observations(path)
    assert (err.value.path, err.value.row, err.value.column) == (path, 5, "Japan")


def test_wide_header_naming_a_country_twice_is_located(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("# levels\nyear,USA,France,United States\n1950,9561,5186,9561\n",
                    encoding="utf-8")
    with pytest.raises(IngestError,
                       match="duplicate country 'United States' in header, first "
                             "given in column 'USA'") as err:
        read_observations(path)
    assert (err.value.path, err.value.row, err.value.column) == (
        path, 2, "United States")


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


@pytest.mark.parametrize("first, second", [("France", "France"),
                                           ("USA", "United States")])
def test_region_map_naming_a_country_twice_is_located(tmp_path, first, second):
    # An alias names its canonical country: a second row for it would
    # silently replace the first row's region.
    path = tmp_path / "regions.csv"
    path.write_text(f"country,region\n{first},EuropeNorthAmerica\nJapan,"
                    f"EastSouthAsiaPacific\n{second},LatinAmericaCaribbean\n",
                    encoding="utf-8")
    name = canonical_name(second)
    with pytest.raises(IngestError, match=f"duplicate country '{name}', first given "
                                          r"in row 2 \(.*regions\.csv, row 4\)") as err:
        validate_region_map(path)
    assert (err.value.path, err.value.row) == (path, 4)


def test_aliases_normalize():
    assert canonical_name("Korea, Rep.") == "Republic of Korea"
    assert canonical_name("Viet Nam") == "Vietnam"
    assert canonical_name("France") == "France"
    # alias targets resolve to mapped countries
    mapping = bundled_region_map()
    for target in COUNTRY_ALIASES.values():
        assert target in mapping, target


def test_load_drops_unmapped_with_warning(wide_file):
    with pytest.warns(UserWarning, match="Atlantis"):
        panel, report = load_panel(wide_file, year_range=(1950, 1953))
    assert panel.countries == ["France", "Japan"]
    assert panel.meta == {"France": "EuropeNorthAmerica", "Japan": "EastSouthAsiaPacific"}
    assert report == {"countries": 2, "years": [1950, 1953],
                      "dropped": [{"country": "Atlantis", "reason": "not in region map"}],
                      "balanced_members": 2}


def test_unused_custom_map_entry_warns(long_file, tmp_path):
    map_path = tmp_path / "map.csv"
    map_path.write_text(
        "country,region\nFrance,EuropeNorthAmerica\nJapan,EastSouthAsiaPacific\n"
        "Atlantis,LatinAmericaCaribbean\n",
        encoding="utf-8",
    )
    with pytest.warns(UserWarning, match="Atlantis"):
        panel, report = load_panel(long_file, region_map=map_path, year_range=(1950, 1951))
    assert panel.countries == ["France", "Japan"]
    assert not report["dropped"]  # ignored map entries drop nothing


def test_balanced_load(wide_file):
    with pytest.warns(UserWarning):
        panel, report = load_panel(wide_file, year_range=(1950, 1953), balanced=True)
    # Atlantis is unmapped; France and Japan cover every year
    assert panel.countries == ["France", "Japan"]
    assert report["balanced_members"] == 2


def test_balanced_load_drops_partial_coverage(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text(
        "country,year,gdppc\n"
        "France,1950,5186\nFrance,1951,5452\n"
        "Japan,1951,2110\n",
        encoding="utf-8",
    )
    panel, report = load_panel(path, year_range=(1950, 1951), balanced=True)
    assert panel.countries == ["France"]
    assert {d["country"] for d in report["dropped"]} == {"Japan"}
    assert report["balanced_members"] == 1


def test_year_window_applied(wide_file):
    with pytest.warns(UserWarning):
        panel, _ = load_panel(wide_file, year_range=(1951, 1952))
    assert panel.span == (1951, 1952)


def test_round_trip_exact(tmp_path, wide_file):
    with pytest.warns(UserWarning):
        panel, _ = load_panel(wide_file, year_range=(1950, 1953))
    out = tmp_path / "normalized.csv"
    out.write_text(panel_to_long_csv(panel), encoding="utf-8")
    panel2, _ = load_panel(out, year_range=(1950, 1953))
    assert panel2 == panel
    # serialization itself is deterministic
    assert panel_to_long_csv(panel2) == panel_to_long_csv(panel)


def _write_csv(path, rows):
    """Write rows with the csv module's quoting."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _load_with_map(path, countries, years, balanced=False):
    """Load ``path`` with a custom region map naming ``countries``: (panel, report)."""
    map_path = path.with_name("map.csv")
    _write_csv(map_path, [("country", "region"),
                          *((c, "SubSaharanAfrica") for c in countries)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # map entries for countries with no data
        return load_panel(path, region_map=map_path, year_range=(years[0], years[-1]),
                          balanced=balanced)


def _long_csv_round_trip(directory, countries, years, levels):
    """Load a long CSV of ``levels``, write it back, load that: both panels."""
    keys = [(country, year) for country in countries for year in years]
    _write_csv(directory / "in.csv", [("country", "year", "gdppc"),
                                      *((c, y, repr(v)) for (c, y), v in zip(keys, levels))])
    panel = _load_with_map(directory / "in.csv", countries, years)[0]
    (directory / "out.csv").write_text(panel_to_long_csv(panel), encoding="utf-8")
    return panel, _load_with_map(directory / "out.csv", countries, years)[0]


def test_round_trip_awkward_floats(tmp_path):
    rng = np.random.default_rng(5)
    levels = [float(np.exp(rng.normal(8.0, 1.0))) for _ in range(9)]
    panel, again = _long_csv_round_trip(tmp_path, ["C0", "C1", "C2"],
                                        [1980, 1981, 1982], levels)
    assert again == panel
    np.testing.assert_array_equal(again.gdppc, panel.gdppc)


# Country names with commas, quotes, spaces, '#' and 'é'.  A name reads back
# as written only without outer spaces and when it is not an alias key; a
# leading '#' marks a comment only before the header.
_country_names = st.text('abcXYZ019 ,"#é', min_size=1, max_size=8).filter(
    lambda name: name == name.strip() and name not in COUNTRY_ALIASES)


@st.composite
def long_panels(draw):
    """(countries, years, levels): every positive finite float is a level."""
    countries = draw(st.lists(_country_names, min_size=1, max_size=4, unique=True))
    years = list(range(1980, 1980 + draw(st.integers(2, 5))))
    level = st.floats(min_value=5e-324, max_value=sys.float_info.max,
                      allow_nan=False, allow_infinity=False)
    levels = draw(st.lists(level, min_size=len(countries) * len(years),
                           max_size=len(countries) * len(years)))
    return countries, years, levels


@settings(max_examples=60, deadline=None)
@given(long_panels())
def test_long_csv_round_trip_is_exact_for_any_positive_level(case):
    countries, years, levels = case
    with tempfile.TemporaryDirectory() as tmp:
        panel, again = _long_csv_round_trip(Path(tmp), countries, years, levels)
    assert again == panel
    np.testing.assert_array_equal(again.gdppc, panel.gdppc)
    assert sorted(panel.gdppc.tolist()) == sorted(levels)


@settings(max_examples=60, deadline=None)
@given(long_panels(), st.data())
def test_wide_and_long_layouts_load_to_equal_panels(case, data):
    countries, years, levels = case
    # Gaps: a missing level is an empty wide cell and an absent long row.
    present = data.draw(st.lists(st.booleans(), min_size=len(levels),
                                 max_size=len(levels)).filter(any))
    cells = iter(repr(v) if keep else "" for v, keep in zip(levels, present))
    by_country = {c: {y: next(cells) for y in years} for c in countries}
    with tempfile.TemporaryDirectory() as tmp:
        wide, long = Path(tmp) / "wide.csv", Path(tmp) / "long.csv"
        _write_csv(wide, [("year", *countries),
                          *((y, *(by_country[c][y] for c in countries)) for y in years)])
        _write_csv(long, [("country", "year", "gdppc"),
                          *((c, y, cell) for c in countries
                            for y, cell in by_country[c].items() if cell)])
        from_wide = _load_with_map(wide, countries, years)[0]
        from_long = _load_with_map(long, countries, years)[0]
    assert from_wide == from_long
    assert from_wide.gdppc.size == sum(present)


@settings(max_examples=60, deadline=None)
@given(long_panels(), st.data())
def test_balanced_load_keeps_exactly_the_countries_covering_the_range(case, data):
    countries, years, levels = case
    present = data.draw(st.lists(st.booleans(), min_size=len(levels),
                                 max_size=len(levels)).filter(any))
    keys = [(country, year) for country in countries for year in years]
    rows = [(c, y, repr(v)) for (c, y), v, keep in zip(keys, levels, present) if keep]
    observed = sorted({c for c, _, _ in rows})
    covering = [c for c in observed if sum(c == row[0] for row in rows) == len(years)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "long.csv"
        _write_csv(path, [("country", "year", "gdppc"), *rows])
        panel, report = _load_with_map(path, countries, years)
        assert panel.countries == observed
        assert report["balanced_members"] == len(covering)
        if not covering:
            with pytest.raises(IngestError, match="balanced panel is empty"):
                _load_with_map(path, countries, years, balanced=True)
            return
        panel, report = _load_with_map(path, countries, years, balanced=True)
    assert panel.countries == covering
    assert report["countries"] == report["balanced_members"] == len(covering)
    assert [d["country"] for d in report["dropped"]] == [
        c for c in observed if c not in covering]


def test_manifest_validation(tmp_path):
    # The range is checked before any file is opened: x.csv does not exist.
    for year_range in [(1999, 1900), (1950, 1950)]:
        with pytest.raises(ValueError, match="year_range must run forward"):
            load_panel(tmp_path / "x.csv", year_range=year_range)


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


def test_empty_long_level_is_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("country,year,gdppc\nFrance,1950,5186\nFrance,1951, \n",
                    encoding="utf-8")
    with pytest.raises(IngestError, match="malformed numeric cell ''") as err:
        read_observations(path)
    assert (err.value.row, err.value.column) == (3, "gdppc")


def test_bad_level_fails_load_with_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("country,year,gdppc\nFrance,1950,5186\nFrance,1951,nan\n",
                    encoding="utf-8")
    with pytest.raises(IngestError, match=r"bad\.csv, row 3, column 'gdppc'"):
        load_panel(path, year_range=(1950, 1951))


@pytest.mark.parametrize("row", ["1951,5452", "1951,5452,2110,17", "1951"])
def test_ragged_wide_row_is_rejected(tmp_path, row):
    path = tmp_path / "ragged.csv"
    path.write_text(f"year,France,Japan\n1950,5186,1921\n{row}\n", encoding="utf-8")
    with pytest.raises(IngestError, match="cells, header has 3") as err:
        read_observations(path)
    assert err.value.row == 3


@pytest.mark.parametrize("row, n_cells", [("France,1951,5,452", 4), ("France,1951", 2)])
def test_ragged_long_row_is_rejected(tmp_path, row, n_cells):
    # An unquoted thousands separator splits a level in two; reading the
    # first part as the level would be silently wrong.
    path = tmp_path / "ragged.csv"
    path.write_text(f"country,year,gdppc\nFrance,1950,5186\n{row}\n", encoding="utf-8")
    with pytest.raises(IngestError, match=f"row has {n_cells} cells, header has 3 "
                                          r"\(.*ragged\.csv, row 3\)") as err:
        read_observations(path)
    assert (err.value.path, err.value.row) == (path, 3)


def test_trailing_empty_cells_are_missing_not_ragged(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("year,France,Japan\n1950,5186,\n1951,,\n", encoding="utf-8")
    country, year, _ = read_observations(path)
    assert list(zip(country.tolist(), year.tolist())) == [("France", 1950)]


# ---------------------------------------------------------------- table_csv
#
# Every generated CSV table is written by table_csv.  The references below are
# the per-artifact formatters it replaced, kept as they were, so each artifact
# must come out exactly as before for every kind of cell: Python and numpy
# floats (nan, infinities, -0.0, subnormals), ints, None and bools.

_FIT_NAMES = ("b_l", "b_r", "a_l", "a_r", "m")


def _cell_reference(value):
    """A cell as the old formatters wrote its type."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(value).lower()
    if isinstance(value, (float, np.floating)):
        return format(value, ".17g")
    return f"{value}"


def _fit_table_reference(fits):
    """fit_table.csv as cmd_fit built it, from (label, fit) pairs."""
    lines = ["stratum,n,b_l,se_b_l,b_r,se_b_r,a_l,se_a_l,a_r,se_a_r,m,se_m,"
             "loglik,converged"]
    for label, fit in fits:
        se = fit.std_errors or {}
        p = fit.params

        def cell(value):
            return "" if value is None else format(value, ".17g")

        lines.append(
            f"{label},{fit.n},{cell(p.b_l)},{cell(se.get('b_l'))},"
            f"{cell(p.b_r)},{cell(se.get('b_r'))},{cell(p.a_l)},{cell(se.get('a_l'))},"
            f"{cell(p.a_r)},{cell(se.get('a_r'))},{cell(p.m)},{cell(se.get('m'))},"
            f"{cell(fit.loglik)},{str(fit.converged).lower()}"
        )
    return "\n".join(lines) + "\n"


def _histogram_csv_reference(values, n_bins=40):
    counts, edges = np.histogram(values, bins=n_bins)
    width = np.diff(edges)
    empirical = counts / (counts.sum() * width)
    lines = ["bin_left,bin_right,count,empirical_density"]
    for left, right, count, dens in zip(edges[:-1], edges[1:], counts, empirical):
        lines.append(f"{left:.17g},{right:.17g},{count},{dens:.17g}")
    return "\n".join(lines) + "\n"


def _curve_csv_reference(values, params, n_points=301):
    grid = np.linspace(values.min(), values.max(), n_points)
    curve = density(grid, params)
    lines = ["x,density"]
    for x, y in zip(grid, curve):
        lines.append(f"{x:.17g},{y:.17g}")
    return "\n".join(lines) + "\n"


def _bin_stats_csv_reference(bins):
    lines = ["bin,mean_size,sigma,count"]
    for b in bins:
        lines.append(f"{b.bin},{b.mean_size:.17g},{b.sigma:.17g},{b.count}")
    return "\n".join(lines) + "\n"


def _rolling_csv_reference(series):
    lines = ["window_start,window_end,beta,se_beta,phi1,se_phi1,alpha,n,significant"]

    def fmt(value):
        return "" if value is None else format(value, ".17g")

    for e in series.entries:
        if e.fit is None:
            lines.append(f"{e.start_year},{e.end_year},,,,,,{e.n_pairs},")
        else:
            f = e.fit
            significant = "" if f.significant_5pct is None else str(f.significant_5pct).lower()
            lines.append(
                f"{e.start_year},{e.end_year},{fmt(f.beta)},{fmt(f.se_beta)},"
                f"{fmt(f.phi1)},{fmt(f.se_phi1)},{fmt(f.alpha_or_gamma)},"
                f"{f.n},{significant}"
            )
    return "\n".join(lines) + "\n"


def _region_map_reference(country_ids):
    map_lines = ["country,region"]
    for i, country in enumerate(country_ids):
        map_lines.append(f"{country},{REGIONS[i % len(REGIONS)]}")
    return "\n".join(map_lines) + "\n"


_py_floats = st.floats(allow_subnormal=True)
_floats = st.one_of(
    _py_floats,
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
                     -2.5e-310, 0.1, 1e16, 1.7976931348623157e308]),
    _py_floats.map(np.float64),
    st.floats(width=32, allow_subnormal=True).map(np.float32),
)
_ints = st.one_of(st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64))
_bools = st.one_of(st.booleans(), st.booleans().map(np.bool_))
_words = st.text("abcXYZ019 _-.", min_size=1, max_size=10)
_cells = st.one_of(st.none(), _floats, _ints, _bools, _words)


@settings(max_examples=300, deadline=None)
@given(header=st.lists(_words, min_size=1, max_size=5),
       rows=st.lists(st.lists(_cells, max_size=6), max_size=6))
def test_table_csv_writes_cells_as_the_old_formatters(header, rows):
    expected = [",".join(header)]
    expected += [",".join(_cell_reference(value) for value in row) for row in rows]
    assert table_csv(header, rows) == "\n".join(expected) + "\n"


def _csv_module_cell(text):
    """``text`` as the csv module writes it in a row of several cells."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow([text, "x"])
    return out.getvalue()[:-len(",x\r\n")]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.text(',"\r\n #ab', max_size=6), min_size=1, max_size=4),
                max_size=4))
def test_table_csv_quotes_text_as_the_csv_module(rows):
    expected = ["h", *(",".join(map(_csv_module_cell, row)) for row in rows)]
    assert table_csv(["h"], rows) == "\n".join(expected) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    _words, _ints, st.lists(_floats, min_size=5, max_size=5),
    st.one_of(st.none(), st.lists(st.one_of(st.none(), _floats), min_size=5, max_size=5)),
    _floats, _bools,
), max_size=4))
def test_fit_table_matches_reference(drawn):
    fits = [
        (label, SimpleNamespace(
            params=SimpleNamespace(**dict(zip(_FIT_NAMES, values))),
            std_errors=None if errors is None else dict(zip(_FIT_NAMES, errors)),
            n=n, loglik=loglik, converged=converged))
        for label, n, values, errors, loglik, converged in drawn
    ]
    written = table_csv(cli._FIT_TABLE_HEADER,
                        [cli._fit_row(label, fit) for label, fit in fits])
    assert written == _fit_table_reference(fits)


_samples = st.lists(st.floats(-1e6, 1e6, allow_subnormal=True),
                    min_size=1, max_size=120).map(np.array)


@settings(max_examples=200, deadline=None)
@given(values=_samples,
       params=st.builds(AepParams, st.floats(0.2, 5.0), st.floats(0.2, 5.0),
                        st.floats(1e-3, 10.0), st.floats(1e-3, 10.0),
                        st.floats(-1.0, 1.0)))
def test_histogram_and_curve_match_reference(values, params):
    try:
        expected = _histogram_csv_reference(values)
    except ValueError:  # no 40 distinct bin edges fit in the data's range
        with pytest.raises(ValueError):
            cli._histogram_csv(values)
    else:
        assert cli._histogram_csv(values) == expected
    assert cli._curve_csv(values, params) == _curve_csv_reference(values, params)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_ints, _floats, _floats, _ints), max_size=6))
def test_bin_stats_csv_matches_reference(drawn):
    bins = [BinStat(*fields) for fields in drawn]
    assert bin_stats_csv(bins) == _bin_stats_csv_reference(bins)


_windows = st.lists(st.tuples(
    _ints, _ints, _ints,
    st.one_of(st.none(), st.tuples(
        _floats, st.one_of(st.none(), _floats), st.one_of(st.none(), _floats),
        st.one_of(st.none(), _floats), _floats, _ints, st.one_of(st.none(), _bools),
    )),
), max_size=6)


@settings(max_examples=200, deadline=None)
@given(_windows)
def test_rolling_csv_matches_reference(drawn):
    entries = []
    for start, end, n_pairs, fitted in drawn:
        fit = None
        if fitted is not None:
            beta, se_beta, phi1, se_phi1, alpha, n, significant = fitted
            fit = ScalingFit(method="alad", beta=beta, alpha_or_gamma=alpha,
                             se_beta=se_beta, se_alpha_or_gamma=None, n=n,
                             significant_5pct=significant, phi1=phi1, se_phi1=se_phi1)
        entries.append(RollingEntry(start, end, n_pairs, fit))
    series = RollingSeries(window_length=10, step=1, entries=entries)
    assert rolling_csv(series) == _rolling_csv_reference(series)


def test_synth_region_map_matches_reference(tmp_path):
    spec = SynthSpec(n_countries=13, n_years=5, seed=1)
    out = tmp_path / "synth"
    assert cli.main(["synth", "--countries", "13", "--n-years", "5", "--seed", "1",
                     "--out", str(out)]) == 0
    body = (out / "synth_region_map.csv").read_text(encoding="utf-8").split("\n", 1)[1]
    assert body == _region_map_reference(spec.country_ids())
