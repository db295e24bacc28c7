"""Run a fixed battery of growthvol CLI invocations and keep what they write.

Usage:

    python3 tools/artifact_battery.py SRC OUT

SRC is a source root holding the ``growthvol`` package (``src`` in a
checkout).  Each invocation runs as ``python -m growthvol.cli`` with
``PYTHONPATH=SRC``, inside OUT, into its own subdirectory.  The inputs are
first written into OUT, so that every path the artifacts record is the same
whichever SRC ran: the bundled toy panel, its levels in the wide layout,
the toy panel with one row given twice, the toy panel with a row for a
country named ``#Atlantis``, which no region map knows, the toy panel
behind a UTF-8 byte-order mark, the toy panel without its 1930-1944 rows,
and the toy panel with one level split into two cells, as an unquoted
thousands separator splits it.  The exit code of each invocation goes to
``OUT/exit_codes.json``.

Two source trees produce the same artifacts when

    python3 tools/artifact_battery.py before/src /tmp/before
    python3 tools/artifact_battery.py after/src /tmp/after
    diff -r /tmp/before /tmp/after

prints nothing.  The 26 invocations and seven inputs leave 130 files in OUT,
which must not exist yet.  The battery takes about 20 s on two CPUs.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

TOY = "toy_panel_31.csv"
TOY_WIDE = "toy_panel_31_wide.csv"
TOY_DUPLICATE = "toy_panel_31_duplicate.csv"
TOY_HASH_ROW = "toy_panel_31_hash_row.csv"
TOY_BOM = "toy_panel_31_bom.csv"
TOY_HOLE = "toy_panel_31_hole.csv"
TOY_EXTRA_CELL = "toy_panel_31_extra_cell.csv"
SYNTH = ["--region-map", "synth_a/synth_region_map.csv", "--years", "1949:1969"]
# (output directory, subcommand and its arguments; --out is added).  Order
# matters: the synthetic-panel runs read what synth_a writes.
BATTERY = [
    ("fit_split", ["fit", "--data", TOY, "--panel", "balanced", "--split", "both",
                   "--bootstrap", "20", "--seed", "1"]),
    ("fit_region", ["fit", "--data", TOY, "--panel", "balanced", "--region", "all",
                    "--bootstrap", "5", "--seed", "2"]),
    ("scale_both", ["scale", "--data", TOY, "--panel", "balanced", "--method", "both",
                    "--bins", "25", "--bootstrap", "20", "--seed", "3"]),
    ("scale_region", ["scale", "--data", TOY, "--region", "all",
                      "--bootstrap", "10", "--seed", "4"]),
    ("scale_binned_split", ["scale", "--data", TOY, "--method", "binned",
                            "--split", "both", "--bins", "10"]),
    ("scale_binned_wide", ["scale", "--data", TOY_WIDE, "--method", "binned",
                           "--split", "both", "--bins", "10"]),
    ("roll_decades", ["roll", "--data", TOY, "--panel", "balanced", "--window", "10",
                      "--step", "10", "--bootstrap", "10", "--seed", "5"]),
    ("roll_split", ["roll", "--data", TOY, "--years", "1950:1999", "--split", "both",
                    "--window", "15", "--step", "5", "--bootstrap", "5", "--seed", "6"]),
    ("synth_a", ["synth", "--countries", "12", "--n-years", "20", "--seed", "7"]),
    ("synth_b", ["synth", "--countries", "24", "--n-years", "30", "--beta", "-0.3",
                 "--shock", "aep:0.8,1.2,0.03,0.04", "--seed", "8"]),
    ("synth_invalid", ["synth", "--phi1", "1.0"]),
    ("scale_synth", ["scale", "--data", "synth_a/synth_panel.csv", *SYNTH,
                     "--region", "all", "--method", "alad", "--bootstrap", "10",
                     "--seed", "9"]),
    # Two countries per region: 12-year windows hold 22 pairs, so every
    # window is a gap row.
    ("roll_synth", ["roll", "--data", "synth_a/synth_panel.csv", *SYNTH,
                    "--region", "all", "--window", "12", "--step", "4",
                    "--bootstrap", "8", "--seed", "10"]),
    ("missing_data", ["fit", "--data", "no_such_file.csv", "--bootstrap", "0"]),
    ("duplicate_row", ["fit", "--data", TOY_DUPLICATE, "--bootstrap", "0"]),
    # A data row whose first cell starts with '#': dropped, and reported in
    # load_report.json, as a country missing from the region map.
    ("hash_row", ["scale", "--data", TOY_HASH_ROW, "--method", "binned",
                  "--split", "both", "--bins", "10"]),
    # "both" repeats "developed": fit_table.csv lists each split once.
    ("fit_split_repeated", ["fit", "--data", TOY, "--panel", "balanced",
                            "--split", "developed", "--split", "both",
                            "--bootstrap", "0", "--seed", "11"]),
    # A negative replicate count is a usage error (exit 2), with no output.
    ("negative_bootstrap", ["scale", "--data", TOY, "--bootstrap", "-1"]),
    # Two countries per region: every fitted replicate draws both, so the
    # ALAD errors and significance flag are null.
    ("scale_synth_alad", ["scale", "--data", "synth_a/synth_panel.csv", *SYNTH,
                          "--region", "all", "--method", "alad",
                          "--bootstrap", "200", "--seed", "12"]),
    # The spec synth_b wrote, read back: the same panel, and only the config
    # line of each file differs from synth_b's.
    ("synth_spec_roundtrip", ["synth", "--spec-file", "synth_b/synth_spec.json"]),
    # The scale_* files equal scale_binned_split's apart from the config.
    ("scale_binned_bom", ["scale", "--data", TOY_BOM, "--method", "binned",
                          "--split", "both", "--bins", "10"]),
    # Too few bins for a slope and its error: a usage error (exit 2).
    ("bins_too_few", ["scale", "--data", TOY, "--bins", "2"]),
    # One replicate measures no spread: the bootstrapped error of m is null
    # in the JSON and an empty cell in fit_table.csv, never NaN.
    ("fit_one_replicate", ["fit", "--data", TOY, "--panel", "balanced",
                           "--split", "developed", "--bootstrap", "1", "--seed", "13"]),
    # A negative seed is a usage error (exit 2), with no output.
    ("negative_seed", ["scale", "--data", TOY, "--seed", "-1"]),
    # No country is observed in 1930-1944: the windows inside the hole are
    # gap rows with no pairs.
    ("roll_hole", ["roll", "--data", TOY_HOLE, "--window", "5", "--step", "5",
                   "--bootstrap", "5", "--seed", "14"]),
    # A row with a cell more than the header: an error naming file and row.
    ("long_extra_cell", ["fit", "--data", TOY_EXTRA_CELL, "--bootstrap", "0"]),
]


def write_inputs(toy: Path, out: Path) -> None:
    """Copy the toy panel into OUT and write its variants (module docstring)."""
    shutil.copyfile(toy, out / TOY)
    (out / TOY_BOM).write_bytes(b"\xef\xbb\xbf" + toy.read_bytes())
    with open(toy, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if not row[0].startswith("#")]
    header, body = rows[0], rows[1:]
    countries = sorted({country for country, _, _ in body})
    years = sorted({int(year) for _, year, _ in body})
    level = {(country, int(year)): value for country, year, value in body}
    with open(out / TOY_WIDE, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["year", *countries])
        for year in years:
            writer.writerow([year, *(level.get((c, year), "") for c in countries)])
    with open(out / TOY_DUPLICATE, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(
            [header, *body[:50], body[40], *body[50:]])
    with open(out / TOY_HASH_ROW, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(
            [header, *body[:50], ["#Atlantis", "1950", "100"], *body[50:]])
    with open(out / TOY_HOLE, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(
            [header, *(row for row in body if not 1930 <= int(row[1]) <= 1944)])
    country, year, value = body[50]
    with open(out / TOY_EXTRA_CELL, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(
            [header, *body[:50], [country, year, value[:1], value[1:]], *body[51:]])


def run_battery(src: Path, out: Path) -> dict[str, int]:
    out.mkdir(parents=True)
    write_inputs(src / "growthvol" / "data" / TOY, out)
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    env.pop("GROWTHVOL_DATA_DIR", None)
    codes = {}
    for name, argv in BATTERY:
        command, *rest = argv
        result = subprocess.run(
            [sys.executable, "-m", "growthvol.cli", command, "--out", name, *rest],
            cwd=out, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        codes[name] = result.returncode
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    return codes


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    codes = run_battery(Path(args[0]), Path(args[1]))
    files = sum(1 for path in Path(args[1]).rglob("*") if path.is_file())
    print(f"{len(codes)} invocations, {files} files; exit codes: {codes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
