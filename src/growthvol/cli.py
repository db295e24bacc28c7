"""Command-line front end: fit, scale, roll, and synth subcommands.

Each run resolves its arguments into a single configuration dict that is
embedded verbatim in every artifact it writes (JSON under a ``config`` key,
CSV as a leading comment line), so any output file identifies the exact
invocation and seed that produced it.  One writer, ``_write``, produces
every artifact: a dict becomes JSON and a string is written as CSV text.
Every CSV table, a synthetic panel's levels included, comes from
``ingest.table_csv``.

fit, scale and roll share one stratum loop, ``_each_stratum``: it loads
the panel, writes ``load_report.json``, and runs the command's per-stratum
fit on each stratum requested via --region / --split, one after another.
One stratum failing does not stop the others.  Failures are collected into
``errors.json`` and the process exits nonzero iff at least one stratum (or,
for synth, the spec) failed.

--jobs is accepted, and recorded in each artifact's config, but has no
effect: strata and rolling windows always run serially.  The fits are small
numpy calls that hold the GIL, so a thread pool measured slower than a plain
loop (about 0.5x for two strata, about 1x for windows), and a process pool
costs more to start than it saves.

Relative --data paths are resolved against $GROWTHVOL_DATA_DIR when that
variable is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import zlib
from dataclasses import asdict
from itertools import chain
from pathlib import Path

import numpy as np

from growthvol.aep import AepParams, density
from growthvol.aep_fit import fit_aep
from growthvol.ingest import load_panel, panel_to_long_csv, table_csv
from growthvol.panel import REGIONS, development_split, stratify
from growthvol.rolling import roll, rolling_csv, significance_segments
from growthvol.scaling import bin_stats_csv, binned_beta, fit_alad
from growthvol.synth import SynthSpec, generate

_SPLITS = ("developed", "developing")


# ------------------------------------------------------------------ plumbing


def _write(path: Path, config: dict, body) -> None:
    """Write an artifact atomically: a dict as JSON, a string as CSV text.

    Either way the run's config comes first.  The text goes to a temp file
    in the target directory, which is then renamed over ``path``.
    """
    if isinstance(body, dict):
        text = json.dumps({"config": config, **body}, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    else:
        text = f"# config: {json.dumps(config, sort_keys=True)}\n{body}"
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _parse_years(text: str) -> tuple[int, int]:
    try:
        first, last = (int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected A:B with integer years, got {text!r}"
        ) from None
    if first >= last:
        raise argparse.ArgumentTypeError(f"first year must precede the last: {text!r}")
    return first, last


def _count(floor: int):
    """An argparse type for a decimal integer of at least ``floor``."""
    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < floor:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {floor}, got {text!r}")
        return int(text)
    return parse


def _parse_shock(text: str) -> AepParams:
    kind, _, rest = text.partition(":")
    try:
        if kind == "laplace":
            return AepParams.laplace(float(rest))
        if kind == "gaussian":
            return AepParams.gaussian(float(rest))
        if kind == "aep":
            b_l, b_r, a_l, a_r = (float(p) for p in rest.split(","))
            return AepParams(b_l=b_l, b_r=b_r, a_l=a_l, a_r=a_r, m=0.0)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad shock spec {text!r}: {exc}") from None
    raise argparse.ArgumentTypeError(
        f"unknown shock family {kind!r}; expected laplace:A, gaussian:A, "
        "or aep:BL,BR,AL,AR"
    )


# -------------------------------------------------------------------- strata


def _expand_strata(args) -> list[tuple]:
    """Cross the requested regions and development splits into strata.

    Each stratum is (label, region, development); with no filters the single
    stratum "all" covers the whole panel.  A region or split given more than
    once, directly or through "all" or "both", counts once, where first seen.
    """
    regions = []
    for name in args.region or []:
        if name != "all" and name not in REGIONS:
            known = ", ".join(REGIONS)
            raise SystemExit(f"unknown region {name!r}; known regions: {known}, all")
        regions.extend(REGIONS if name == "all" else [name])
    splits = [split for name in args.split or []
              for split in (_SPLITS if name == "both" else [name])]
    return [("_".join(part for part in (region, split) if part) or "all", region, split)
            for region in dict.fromkeys(regions or [None])
            for split in dict.fromkeys(splits or [None])]


def _failure(stratum: str, exc: Exception) -> dict:
    return {"stratum": stratum, "error": str(exc), "type": type(exc).__name__}


def _finish(out_dir: Path, config: dict, failures: list) -> int:
    if failures:
        _write(out_dir / "errors.json", config, {"errors": failures})
        for failure in failures:
            print(f"error [{failure['stratum']}]: {failure['error']}", file=sys.stderr)
        return 1
    return 0


def _each_stratum(args, fit_stratum) -> int:
    """Load the panel, then run fit_stratum(sub_panel, label, write) per stratum.

    ``write(name, body)`` writes one artifact into --out through ``_write``.
    The load report is written first; a stratum that raises is recorded and
    the rest still run.  Returns the exit code from ``_finish``.
    """
    out_dir = Path(args.out)
    config = _base_config(args)

    def write(name, body):
        _write(out_dir / name, config, body)

    data = Path(args.data)
    root = os.environ.get("GROWTHVOL_DATA_DIR")
    if root and not data.is_absolute():
        data = Path(root) / data
    panel, report = load_panel(data, region_map=args.region_map, year_range=args.years,
                               balanced=args.panel == "balanced")
    write("load_report.json", report)
    developed = development_split(panel)[0]
    failures = []
    for label, region, development in _expand_strata(args):
        try:
            sub = stratify(panel, region=region, development=development,
                           developed_countries=developed if development else None)
            fit_stratum(sub, label, write)
        except Exception as exc:  # noqa: BLE001 - reported in the manifest
            failures.append(_failure(label, exc))
    return _finish(out_dir, config, failures)


# ------------------------------------------------------------------ commands


_FIT_TABLE_HEADER = ["stratum", "n", "b_l", "se_b_l", "b_r", "se_b_r", "a_l", "se_a_l",
                     "a_r", "se_a_r", "m", "se_m", "loglik", "converged"]


def _fit_row(label: str, fit) -> list:
    """One fit_table.csv row: each parameter followed by its error."""
    se = fit.std_errors or {}
    pairs = ((getattr(fit.params, name), se.get(name))
             for name in ("b_l", "b_r", "a_l", "a_r", "m"))
    return [label, fit.n, *chain.from_iterable(pairs), fit.loglik, fit.converged]


def cmd_fit(args) -> int:
    rows = []

    def fit_stratum(sub, label, write):
        growth = sub.growth_arrays()[2]
        fit = fit_aep(growth, bootstrap_fallback=args.bootstrap, seed=args.seed)
        write(f"fit_{label}.json", fit.to_json_dict())
        write(f"fit_hist_{label}.csv", _histogram_csv(growth))
        write(f"fit_curve_{label}.csv", _curve_csv(growth, fit.params))
        rows.append(_fit_row(label, fit))
        # Rewritten after every stratum, so it always lists those that fitted.
        write("fit_table.csv", table_csv(_FIT_TABLE_HEADER, rows))

    return _each_stratum(args, fit_stratum)


def _histogram_csv(values: np.ndarray, n_bins: int = 40) -> str:
    counts, edges = np.histogram(values, bins=n_bins)
    empirical = counts / (counts.sum() * np.diff(edges))
    return table_csv(["bin_left", "bin_right", "count", "empirical_density"],
                     zip(edges[:-1], edges[1:], counts, empirical))


def _curve_csv(values: np.ndarray, params: AepParams, n_points: int = 301) -> str:
    grid = np.linspace(values.min(), values.max(), n_points)
    return table_csv(["x", "density"], zip(grid, density(grid, params)))


def cmd_scale(args) -> int:
    methods = ("binned", "alad") if args.method == "both" else (args.method,)

    def fit_stratum(sub, label, write):
        if "binned" in methods:
            fit, bins = binned_beta(sub, n_bins=args.bins)
            write(f"scale_binned_{label}.json", fit.to_json_dict(bins=bins))
            write(f"scale_bins_{label}.csv", bin_stats_csv(bins))
        if "alad" in methods:
            # The stratum's seed comes from its label, so a stratum gets the
            # same bootstrap draws alone as inside --region all.
            fit = fit_alad(sub, bootstrap=args.bootstrap,
                           seed=[args.seed, zlib.crc32(label.encode())])
            write(f"scale_alad_{label}.json", fit.to_json_dict())

    return _each_stratum(args, fit_stratum)


def cmd_roll(args) -> int:
    def fit_stratum(sub, label, write):
        series = roll(
            sub, window_length=args.window, step=args.step,
            bootstrap=args.bootstrap, seed=[args.seed],
        )
        write(f"roll_{label}.csv", rolling_csv(series))
        segments = [
            {"start": start, "end": end, "significant": significant}
            for start, end, significant in significance_segments(series)
        ]
        write(f"roll_segments_{label}.json", {
            "window_length": series.window_length,
            "step": series.step,
            "segments": segments,
        })

    return _each_stratum(args, fit_stratum)


def cmd_synth(args) -> int:
    out_dir = Path(args.out)
    config = _base_config(args)
    fields = {}
    if args.spec_file:
        loaded = json.loads(Path(args.spec_file).read_text(encoding="utf-8"))
        # The synth_spec.json a run writes holds its fields under "spec".
        loaded = loaded.get("spec", loaded)
        if "shock" in loaded:
            loaded["shock"] = AepParams(**loaded["shock"])
        fields.update(loaded)
    overrides = {
        "n_countries": args.countries,
        "n_years": args.n_years,
        "alpha": args.alpha,
        "phi1": args.phi1,
        "beta": args.beta,
        "shock": args.shock,
        "start_year": args.start_year,
        "seed": args.seed,
    }
    fields.update({k: v for k, v in overrides.items() if v is not None})
    try:
        spec = SynthSpec(**fields)
    except (TypeError, ValueError) as exc:
        return _finish(out_dir, config, [_failure("spec", exc)])
    panel = generate(spec)
    _write(out_dir / "synth_panel.csv", config, panel_to_long_csv(panel))
    # Synthetic country ids are unknown to the bundled region table, so emit
    # a companion map (round-robin over the taxonomy) that makes the panel
    # loadable: pass it back via --region-map.
    regions = [(country, REGIONS[i % len(REGIONS)])
               for i, country in enumerate(spec.country_ids())]
    _write(out_dir / "synth_region_map.csv", config,
           table_csv(["country", "region"], regions))
    _write(out_dir / "synth_spec.json", config, {
        "spec": {**asdict(spec), "size_profile": spec.size_profile.tolist()},
    })
    return 0


# ------------------------------------------------------------------- parser


def _base_config(args) -> dict:
    """Every parsed argument of the run, in JSON-ready form."""
    config = {key: value for key, value in vars(args).items() if key != "run"}
    if "years" in config:
        config["years"] = "{}:{}".format(*args.years)
    if config.get("shock") is not None:
        config["shock"] = asdict(args.shock)
    return config


def _add_panel_arguments(sub):
    sub.add_argument("--data", required=True,
                     help="level CSV (wide or long); relative paths resolve "
                          "against $GROWTHVOL_DATA_DIR when set")
    sub.add_argument("--region-map", default=None, dest="region_map",
                     help="country,region CSV (default: bundled table)")
    sub.add_argument("--years", type=_parse_years, default=(1900, 1999),
                     metavar="A:B", help="year range, inclusive, A < B (default 1900:1999)")
    sub.add_argument("--panel", choices=("balanced", "unbalanced"),
                     default="unbalanced",
                     help="keep only countries covering every year, or all")
    sub.add_argument("--region", action="append", metavar="NAME",
                     help="restrict to a region; repeatable; 'all' expands to "
                          "every region (each value adds a stratum)")
    sub.add_argument("--split", action="append",
                     choices=("developed", "developing", "both"),
                     help="restrict to a development half; repeatable")


def _add_common_arguments(sub):
    sub.add_argument("--bootstrap", type=_count(0), default=200,
                     help="bootstrap replicates for standard errors")
    sub.add_argument("--seed", type=_count(0), default=0)
    sub.add_argument("--out", required=True, metavar="DIR")
    sub.add_argument("--jobs", type=int, default=1,
                     help="accepted for compatibility and ignored: strata "
                          "and windows run serially, which measured faster "
                          "than a thread pool")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthvol",
        description="Growth-rate distribution fitting and volatility-size "
                    "scaling for GDP per capita panels.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser(
        "fit", help="fit the asymmetric exponential power law to growth rates")
    _add_panel_arguments(fit)
    _add_common_arguments(fit)
    fit.set_defaults(run=cmd_fit)

    scale = commands.add_parser(
        "scale", help="estimate the volatility-size scaling exponent")
    _add_panel_arguments(scale)
    scale.add_argument("--method", choices=("binned", "alad", "both"),
                       default="both")
    scale.add_argument("--bins", type=_count(3), default=15,
                       help="bins for the binned estimator")
    _add_common_arguments(scale)
    scale.set_defaults(run=cmd_scale)

    rolling = commands.add_parser(
        "roll", help="re-estimate the scaling exponent on sliding windows")
    _add_panel_arguments(rolling)
    rolling.add_argument("--window", type=_count(2), default=10,
                         help="window length in growth years")
    rolling.add_argument("--step", type=_count(1), default=1)
    _add_common_arguments(rolling)
    rolling.set_defaults(run=cmd_roll)

    synth = commands.add_parser(
        "synth", help="generate a synthetic panel with known parameters")
    synth.add_argument("--countries", type=int, default=None)
    synth.add_argument("--n-years", type=int, default=None, dest="n_years",
                       help="growth years to generate")
    synth.add_argument("--alpha", type=float, default=None)
    synth.add_argument("--phi1", type=float, default=None)
    synth.add_argument("--beta", type=float, default=None)
    synth.add_argument("--shock", type=_parse_shock, default=None,
                       metavar="FAMILY:PARAMS",
                       help="laplace:A, gaussian:A, or aep:BL,BR,AL,AR")
    synth.add_argument("--start-year", type=int, default=None, dest="start_year")
    synth.add_argument("--spec-file", default=None, dest="spec_file",
                       help="JSON with generator fields, bare or under 'spec' "
                            "as in a written synth_spec.json; flags override it")
    synth.add_argument("--seed", type=_count(0), default=None)
    synth.add_argument("--out", required=True, metavar="DIR")
    synth.set_defaults(run=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        return _finish(Path(args.out), _base_config(args), [_failure("run", exc)])


if __name__ == "__main__":
    sys.exit(main())
