"""Loading long-run GDP-per-capita tables into growth panels.

Two on-disk layouts are accepted:

* wide CSV: first column "year", one column per country, empty cells for
  missing observations (this is how long-run historical tables are usually
  distributed);
* long CSV: header "country,year,gdppc", one observation per row.

Lines before the header that start with '#' are comments; after it, every
non-empty line is data.  Levels must be positive and finite, a row of
either layout must have exactly as many cells as the header, and no
(country, year) may be given twice; a file breaking a rule is rejected at
the first offence, naming its file and row (and, for a bad or repeated
level, its column).
Both layouts are read in one pass into (country, year, gdppc) columns.

Country names are normalized through a bundled alias table covering common
variant spellings ("Korea, Rep." vs "Republic of Korea" and the like); names
that still match no entry of the region map are never fuzzy-matched, they
are dropped and reported.  A bundled region map assigns each country to one
of six world regions; a custom map can be supplied instead.

``load_panel`` reads a file into a panel whose meta maps each country to its
region, and returns it with the plain dict written as ``load_report.json``.

Serialization writes levels in the long layout with 17 significant digits,
so a save/load round trip reproduces a panel bit for bit; ``table_csv``
writes it and every other generated CSV table.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

from growthvol.panel import REGIONS, GrowthPanel, build_growth_panel

# Countries with complete 1900-1999 coverage in the classic long-run
# dataset; the bundled demo panel uses the same roster.
CENTURY_BALANCED_COUNTRIES = frozenset({
    "Austria", "Belgium", "Canada", "Denmark", "Finland", "France",
    "Germany", "Greece", "Italy", "Netherlands", "Norway", "Portugal",
    "Spain", "Sweden", "Switzerland", "United Kingdom", "United States",
    "Australia", "India", "Japan", "New Zealand", "Sri Lanka",
    "Argentina", "Brazil", "Chile", "Colombia", "Ecuador", "Mexico",
    "Peru", "Uruguay", "Venezuela",
})

# Variant spelling -> canonical name. Extend as new vintages require;
# anything not resolved here and absent from the region map is dropped
# loudly rather than guessed at.
COUNTRY_ALIASES = {
    "Bolivia (Plurinational State of)": "Bolivia",
    "Bosnia": "Bosnia and Herzegovina",
    "Burkina": "Burkina Faso",
    "Cabo Verde": "Cape Verde",
    "Centr. Afr. Rep.": "Central African Republic",
    "China, Hong Kong SAR": "Hong Kong",
    "Congo": "Republic of Congo",
    "Congo, Dem. Rep.": "Zaire",
    "Congo, Rep.": "Republic of Congo",
    "Cote d Ivoire": "Côte d'Ivoire",
    "Cote d'Ivoire": "Côte d'Ivoire",
    "Czechia": "Czech Republic",
    "D.R. of the Congo": "Zaire",
    "Democratic Republic of the Congo": "Zaire",
    "Egypt, Arab Rep.": "Egypt",
    "Eswatini": "Swaziland",
    "F. Yugosl. Rep. of Macedonia": "Macedonia",
    "Gambia, The": "Gambia",
    "Great Britain": "United Kingdom",
    "Hong Kong SAR, China": "Hong Kong",
    "Iran (Islamic Republic of)": "Iran",
    "Iran, Islamic Rep.": "Iran",
    "Ivory Coast": "Côte d'Ivoire",
    "Korea, Rep.": "Republic of Korea",
    "Korea, Republic of": "Republic of Korea",
    "Kyrgyz Republic": "Kyrgyzstan",
    "Kyrgyztan": "Kyrgyzstan",
    "Lao People's DR": "Lao PDR",
    "Laos": "Lao PDR",
    "Macedonia, FYR": "Macedonia",
    "Moldova, Rep.": "Moldova",
    "North Macedonia": "Macedonia",
    "Russia": "Russian Federation",
    "S. Korea": "Republic of Korea",
    "Sao Tome and Principe": "São Tomé and Principe",
    "Sierra Leona": "Sierra Leone",
    "South Korea": "Republic of Korea",
    "Syrian Arab Republic": "Syria",
    "Taiwan, China": "Taiwan",
    "Tanzania, United Rep.": "Tanzania",
    "The Gambia": "Gambia",
    "Trinidad & Tobago": "Trinidad and Tobago",
    "U.K.": "United Kingdom",
    "UK": "United Kingdom",
    "USA": "United States",
    "United States of America": "United States",
    "Venezuela (Bolivarian Republic of)": "Venezuela",
    "Venezuela, RB": "Venezuela",
    "Viet Nam": "Vietnam",
    "Yemen, Rep.": "Yemen",
}


class IngestError(ValueError):
    """Structured parse/validation failure with file location."""

    def __init__(self, message, *, path=None, row=None, column=None):
        location = []
        if path is not None:
            location.append(str(path))
        if row is not None:
            location.append(f"row {row}")
        if column is not None:
            location.append(f"column {column!r}")
        suffix = f" ({', '.join(location)})" if location else ""
        super().__init__(f"{message}{suffix}")
        self.path = path
        self.row = row
        self.column = column


def canonical_name(name: str) -> str:
    name = name.strip()
    return COUNTRY_ALIASES.get(name, name)


def _data_rows(path):
    """Non-empty CSV rows with line numbers; '#' lines before the header are comments.

    A leading UTF-8 byte-order mark, as spreadsheet exports write, is dropped.
    """
    in_preamble = True
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row or (in_preamble and row[0].lstrip().startswith("#")):
                continue
            in_preamble = False
            yield line_no, row


def validate_region_map(map_file) -> dict[str, str]:
    """Parse and validate a country -> region mapping.

    Region labels must belong to the six-value taxonomy; anything else is an
    error naming the label and its line.  Country names are normalized
    through the alias table, and a country named twice, also as an alias
    and its canonical name, is an error naming both rows.
    """
    mapping: dict[str, str] = {}
    first_row: dict[str, int] = {}
    rows = _data_rows(map_file)
    try:
        line_no, header = next(rows)
    except StopIteration:
        raise IngestError("region map is empty", path=map_file) from None
    if [cell.strip().lower() for cell in header[:2]] != ["country", "region"]:
        raise IngestError(
            "region map header must be 'country,region'", path=map_file, row=line_no
        )
    for line_no, row in rows:
        if len(row) < 2 or not row[0].strip():
            raise IngestError("malformed region row", path=map_file, row=line_no)
        country = canonical_name(row[0])
        region = row[1].strip()
        if region not in REGIONS:
            raise IngestError(
                f"unknown region label {region!r} for {country!r}; "
                f"expected one of {', '.join(REGIONS)}",
                path=map_file, row=line_no,
            )
        if country in mapping:
            raise IngestError(f"duplicate country {country!r}, first given in row "
                              f"{first_row[country]}", path=map_file, row=line_no)
        mapping[country], first_row[country] = region, line_no
    return mapping


def bundled_region_map() -> dict[str, str]:
    """The package's built-in country -> region mapping."""
    source = resources.files("growthvol").joinpath("data/regions.csv")
    with resources.as_file(source) as path:
        return validate_region_map(path)


def _parse_level(cell: str, path, row, column) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise IngestError(
            f"malformed numeric cell {cell!r}", path=path, row=row, column=column
        ) from None
    if not 0.0 < value < math.inf:  # also false for nan
        raise IngestError(
            f"level must be positive and finite, got {cell!r}",
            path=path, row=row, column=column,
        )
    return value


def read_observations(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read either accepted layout in one pass, telling them apart by the header.

    Returns the (country, year, gdppc) columns in file order, with country
    names canonicalized.
    """
    rows = _data_rows(path)
    try:
        header_line, header = next(rows)
    except StopIteration:
        raise IngestError("data file is empty", path=path) from None
    # Each layout's cells(row) gives the row's year cell and its (country,
    # column named in errors, level cell) triples.
    first = header[0].strip().lower()
    if first == "year":
        names = [canonical_name(cell) for cell in header[1:]]
        if any(not name for name in names):
            raise IngestError("empty country name in header", path=path, row=header_line)
        for i, name in enumerate(names):
            if name in names[:i]:
                first_column = header[names.index(name) + 1].strip()
                raise IngestError(f"duplicate country {name!r} in header, first given "
                                  f"in column {first_column!r}", path=path,
                                  row=header_line, column=header[i + 1].strip())

        def cells(row):
            # An empty cell is a missing observation.
            return row[0], [(name, name, cell) for name, cell in zip(names, row[1:])
                            if cell.strip()]
    elif first == "country":
        if [cell.strip().lower() for cell in header[:3]] != ["country", "year", "gdppc"]:
            raise IngestError(
                "long header must be 'country,year,gdppc'", path=path, row=header_line
            )

        def cells(row):
            return row[1], [(canonical_name(row[0]), "gdppc", row[2])]
    else:
        raise IngestError("unrecognized header: expected a wide table starting with "
                          "'year' or a long table starting with 'country'", path=path,
                          row=header_line)

    first_row = {}  # (country, year) -> the row that gave it
    gdppc = []
    for line_no, row in rows:
        if len(row) != len(header):
            raise IngestError(f"row has {len(row)} cells, header has {len(header)}",
                              path=path, row=line_no)
        year_cell, level_cells = cells(row)
        try:
            year = int(year_cell)
        except ValueError:
            raise IngestError(
                f"malformed year {year_cell!r}", path=path, row=line_no, column="year"
            ) from None
        for name, column, cell in level_cells:
            level = _parse_level(cell.strip(), path, line_no, column)
            if (name, year) in first_row:
                raise IngestError(f"duplicate observation for {name} in {year}, first "
                                  f"given in row {first_row[name, year]}",
                                  path=path, row=line_no, column=column)
            first_row[name, year] = line_no
            gdppc.append(level)
    return (np.array([key[0] for key in first_row], dtype=str),
            np.array([key[1] for key in first_row], dtype=int),
            np.array(gdppc, dtype=float))


def load_panel(data_path, *, region_map=None, year_range=(1900, 1999),
               balanced=False) -> tuple[GrowthPanel, dict]:
    """Load, validate, and assemble a growth panel.

    ``region_map`` is a country,region CSV, None for the bundled map.
    ``year_range`` is the closed range of years kept, first before last;
    ``balanced`` keeps only the countries observed in every year of it.
    Countries absent from the region map are dropped with a warning and a
    report entry.  Map entries matching no country in the data are ignored
    with a warning.

    Returns
    -------
    (GrowthPanel, report)
        The report is the dict written as ``load_report.json``:
        ``countries``, ``years`` (the panel's span), ``dropped`` (country
        and reason) and ``balanced_members`` (kept countries covering the
        range, in either mode).
    """
    first, last = year_range
    if first >= last:
        raise ValueError(f"year_range must run forward, got {first}..{last}")
    regions = bundled_region_map() if region_map is None else validate_region_map(region_map)

    country, year, gdppc = read_observations(data_path)
    rows = (year >= first) & (year <= last)
    if not rows.any():
        raise IngestError(f"no observations in {first}..{last}", path=data_path)
    country, year, gdppc = country[rows], year[rows], gdppc[rows]

    dropped = []
    names, inverse = np.unique(country, return_inverse=True)
    mapped = np.array([c in regions for c in names.tolist()])
    for c in names[~mapped].tolist():
        warnings.warn(f"dropping {c!r}: not in the region map", stacklevel=2)
        dropped.append({"country": c, "reason": "not in region map"})
    unused = sorted(set(regions).difference(names.tolist()))
    if unused and region_map is not None:
        # A custom map naming absent countries is suspicious; the bundled
        # one legitimately covers more than any single file.
        for c in unused:
            warnings.warn(f"region map entry {c!r} matches no data", stacklevel=2)
    if not mapped.any():
        raise IngestError("every country was dropped", path=data_path)

    # (country, year) is unique, so a country covering the range has a row
    # for each of its years.
    covers = mapped & (np.bincount(inverse) == last - first + 1)
    kept = mapped
    if balanced:
        for c in names[mapped & ~covers].tolist():
            dropped.append({"country": c, "reason": "incomplete years for balanced panel"})
        if not covers.any():
            raise IngestError(
                "no country covers the full year range; balanced panel is empty",
                path=data_path,
            )
        kept = covers

    rows = kept[inverse]
    panel = build_growth_panel((country[rows], year[rows], gdppc[rows]),
                               {c: regions[c] for c in names[kept].tolist()})
    return panel, {"countries": panel.n_countries, "years": list(panel.span),
                   "dropped": dropped, "balanced_members": int(covers[kept].sum())}


def panel_to_long_csv(panel: GrowthPanel) -> str:
    """Serialize levels to the long layout, exactly enough for a round trip.

    17 significant digits make float -> text -> float the identity, so
    reloading reproduces the panel including all derived columns.
    """
    return table_csv(["country", "year", "gdppc"], zip(
        panel.country.tolist(), panel.year.tolist(), panel.gdppc.tolist()))


_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(value, ".17g")
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str) and _NEEDS_QUOTES(value):
        return '"' + value.replace('"', '""') + '"'
    return str(value)


def table_csv(header, rows) -> str:
    """CSV text of a header row and rows of plain cells.

    Floats get 17 significant digits, so they read back exactly; None is an
    empty cell, a bool is ``true`` or ``false``, and anything else is written
    by ``str``.  Text holding a comma, a quote, CR or LF is quoted as the csv
    module quotes it, with inner quotes doubled; nothing else is quoted, so
    an empty cell stays empty even when it is a row's only cell.
    """
    lines = [",".join(map(_cell, header))]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"

