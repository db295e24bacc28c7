"""Command-line interface: artifacts, schemas, failure paths, determinism.

Commands run in-process through ``main(argv)``; each test gets an isolated
working directory so embedded configs (which record paths as given) are
comparable across runs.
"""

import csv
import importlib.resources
import json
import os
import subprocess
import sys
import threading
from itertools import groupby
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import growthvol
from growthvol.cli import _expand_strata, main
from growthvol.ingest import load_panel
from growthvol.panel import REGIONS
from growthvol.synth import SynthSpec, generate

TOY = str(importlib.resources.files("growthvol") / "data" / "toy_panel_31.csv")


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GROWTHVOL_DATA_DIR", raising=False)
    return tmp_path


def _synth(out="panel", seed=7, countries=12, years=20, extra=()):
    code = main([
        "synth", "--out", out, "--seed", str(seed),
        "--countries", str(countries), "--n-years", str(years), *extra,
    ])
    assert code == 0
    return f"{out}/synth_panel.csv", f"{out}/synth_region_map.csv"


def _load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# -------------------------------------------------------------------- synth


def test_synth_round_trips_through_ingest(isolated_cwd):
    data, region_map = _synth()
    panel, report = load_panel(data, region_map=region_map, year_range=(1949, 1969),
                               balanced=True)
    assert report["countries"] == 12
    reference = generate(SynthSpec(n_countries=12, n_years=20, seed=7))
    # Data and derived columns survive the trip exactly; regions come from
    # the companion map on the way back in.
    assert panel.meta == {c: REGIONS[i % len(REGIONS)]
                          for i, c in enumerate(reference.countries)}
    assert set(reference.meta.values()) == {None}
    assert np.array_equal(panel.country, reference.country)
    assert np.array_equal(panel.year, reference.year)
    assert np.array_equal(panel.gdppc, reference.gdppc)
    assert np.array_equal(panel.size, reference.size)
    assert np.array_equal(panel.growth, reference.growth, equal_nan=True)
    config = _load_json(f"{isolated_cwd}/panel/synth_spec.json")
    assert config["config"]["seed"] == 7
    assert config["spec"]["phi1"] == 0.35


def test_synth_same_seed_same_bytes(tmp_path, monkeypatch):
    contents = []
    for run in ("one", "two"):
        workdir = tmp_path / run
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        _synth(out="out", seed=3)
        contents.append((workdir / "out" / "synth_panel.csv").read_bytes())
    assert contents[0] == contents[1]


def test_synth_rejects_nonstationary_phi1(isolated_cwd):
    code = main(["synth", "--out", "bad", "--phi1", "1.0"])
    assert code == 1
    manifest = _load_json("bad/errors.json")
    assert manifest["errors"][0]["stratum"] == "spec"
    assert "phi1" in manifest["errors"][0]["error"]


def test_synth_spec_file_with_flag_overrides(isolated_cwd, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "n_countries": 5, "n_years": 12, "beta": -0.4, "seed": 11,
        "shock": {"b_l": 1.0, "b_r": 1.0, "a_l": 0.03, "a_r": 0.03, "m": 0.0},
    }))
    code = main(["synth", "--spec-file", str(spec_file), "--out", "from_spec",
                 "--beta", "-0.1"])
    assert code == 0
    written = _load_json("from_spec/synth_spec.json")["spec"]
    assert written["n_countries"] == 5
    assert written["beta"] == -0.1  # flag wins over the file
    assert written["shock"]["a_l"] == 0.03


def test_synth_spec_file_reads_back_a_written_spec(isolated_cwd):
    _synth(out="first", extra=("--beta", "-0.3", "--shock", "aep:0.8,1.2,0.03,0.04"))
    code = main(["synth", "--spec-file", "first/synth_spec.json", "--out", "second"])
    assert code == 0
    assert not Path("second/errors.json").exists()
    first, second = (Path(out, "synth_panel.csv").read_text(encoding="utf-8")
                     for out in ("first", "second"))
    # Only the leading config line, which records each run's own flags, differs.
    assert first.startswith("# config: ") and second.startswith("# config: ")
    assert first.split("\n", 1)[1] == second.split("\n", 1)[1]
    spec = _load_json("first/synth_spec.json")["spec"]
    assert _load_json("second/synth_spec.json")["spec"] == spec


# ---------------------------------------------------------------------- fit


def test_fit_artifacts_and_recovery(isolated_cwd):
    # Independent gaussian growth: shapes 2, scale = the shock scale, and
    # the mode at the drift alpha.
    data, region_map = _synth(countries=25, years=20, extra=(
        "--shock", "gaussian:0.05", "--phi1", "0.0", "--beta", "0.0",
        "--alpha", "0.02",
    ))
    code = main([
        "fit", "--data", data, "--region-map", region_map,
        "--years", "1949:1969", "--panel", "balanced",
        "--bootstrap", "0", "--seed", "1", "--out", "fitted",
    ])
    assert code == 0

    doc = _load_json("fitted/fit_all.json")
    assert set(doc) == {"config", "b_l", "b_r", "a_l", "a_r", "m",
                        "se", "loglik", "n", "converged", "se_method",
                        "n_restarts_used", "n_bootstrap_unconverged"}
    assert doc["converged"] is True
    assert doc["n"] == 25 * 20
    se = doc["se"]
    assert abs(doc["b_l"] - 2.0) < 3.0 * se["b_l"]
    assert abs(doc["b_r"] - 2.0) < 3.0 * se["b_r"]
    assert abs(doc["a_l"] - 0.05) < 3.0 * se["a_l"]
    assert abs(doc["m"] - 0.02) < 3.5 * se["m"]

    table = open("fitted/fit_table.csv", encoding="utf-8").read().splitlines()
    assert table[0].startswith("# config: ")
    assert json.loads(table[0][len("# config: "):])["command"] == "fit"
    assert table[1].startswith("stratum,n,b_l,")
    assert table[2].split(",")[0] == "all"

    hist = np.genfromtxt("fitted/fit_hist_all.csv", delimiter=",",
                         skip_header=2)
    assert hist.shape[1] == 4
    assert hist[:, 2].sum() == 25 * 20
    curve = np.genfromtxt("fitted/fit_curve_all.csv", delimiter=",",
                          skip_header=2)
    assert curve.shape == (301, 2)
    assert np.all(curve[:, 1] > 0.0)


# -------------------------------------------------------------------- scale


def test_scale_schemas_and_both_methods(isolated_cwd):
    data, region_map = _synth(countries=12, years=20, extra=("--beta", "-0.3"))
    code = main([
        "scale", "--data", data, "--region-map", region_map,
        "--years", "1949:1969", "--panel", "balanced", "--bins", "8",
        "--bootstrap", "40", "--seed", "3", "--out", "scaled",
    ])
    assert code == 0

    alad = _load_json("scaled/scale_alad_all.json")
    assert set(alad) == {"config", "method", "beta", "se_beta",
                         "alpha_or_gamma", "se_alpha_or_gamma", "phi1", "se_phi1",
                         "n", "significant_5pct", "n_bootstrap_requested",
                         "n_bootstrap_used", "bins"}
    assert alad["method"] == "alad"
    assert alad["bins"] is None
    assert alad["beta"] < 0.0 and alad["significant_5pct"] is True
    assert alad["se_phi1"] > 0.0 and alad["se_alpha_or_gamma"] > 0.0
    assert alad["n_bootstrap_requested"] == 40 and alad["n_bootstrap_used"] == 40

    binned = _load_json("scaled/scale_binned_all.json")
    assert binned["method"] == "binned"
    assert binned["phi1"] is None
    assert len(binned["bins"]) == 8
    assert set(binned["bins"][0]) == {"bin", "mean_size", "sigma", "count"}

    bins_csv = open("scaled/scale_bins_all.csv", encoding="utf-8").read()
    lines = bins_csv.splitlines()
    assert lines[1] == "bin,mean_size,sigma,count"
    assert len(lines) == 2 + 8


def test_scale_single_method_flag(isolated_cwd):
    data, region_map = _synth()
    code = main([
        "scale", "--data", data, "--region-map", region_map,
        "--years", "1949:1969", "--method", "alad", "--bootstrap", "0",
        "--seed", "0", "--out", "only_alad",
    ])
    assert code == 0
    produced = sorted(p.name for p in (isolated_cwd / "only_alad").iterdir())
    assert produced == ["load_report.json", "scale_alad_all.json"]


def test_scale_partial_failure_keeps_good_strata(isolated_cwd):
    # Three of the six regions have no members in the bundled panel: those
    # strata fail, the others still write artifacts, and the exit is nonzero.
    code = main([
        "scale", "--data", TOY, "--years", "1900:1999", "--panel", "balanced",
        "--region", "all", "--method", "alad", "--bootstrap", "0",
        "--seed", "0", "--out", "regions",
    ])
    assert code == 1
    manifest = _load_json("regions/errors.json")
    failed = {e["stratum"] for e in manifest["errors"]}
    assert failed == {"EastEuropeCentralAsia", "SubSaharanAfrica",
                      "MiddleEastNorthAfrica"}
    written = {p.name for p in (isolated_cwd / "regions").iterdir()}
    assert "scale_alad_EuropeNorthAmerica.json" in written
    assert "scale_alad_EastSouthAsiaPacific.json" in written
    assert "scale_alad_LatinAmericaCaribbean.json" in written
    assert "scale_alad_SubSaharanAfrica.json" not in written


def test_scale_stratum_seed_does_not_depend_on_its_neighbours(isolated_cwd):
    # A region's bootstrap draws come from its label, not from its position
    # in the requested list, so it reproduces when run on its own.  24
    # countries put four in each region, enough to identify beta in most
    # country-resampled replicates.
    data, region_map = _synth(countries=24, years=20)
    inputs = ["scale", "--data", data, "--region-map", region_map,
              "--years", "1949:1969", "--method", "alad", "--bootstrap", "10",
              "--seed", "4"]
    region = "LatinAmericaCaribbean"  # fourth in --region all
    assert main([*inputs, "--region", "all", "--out", "every"]) == 0
    assert main([*inputs, "--region", region, "--out", "alone"]) == 0
    name = f"scale_alad_{region}.json"
    together = _artifacts(isolated_cwd / "every", name)
    alone = _artifacts(isolated_cwd / "alone", name)
    assert together == alone
    assert together[name]["se_beta"] > 0.0


def _artifacts(out_dir, pattern):
    """Artifacts matching pattern, less the config that records --jobs and --out."""
    docs = {}
    for path in sorted(out_dir.glob(pattern)):
        if path.suffix == ".json":
            doc = _load_json(path)
            doc.pop("config")
        else:
            config, doc = path.read_text(encoding="utf-8").split("\n", 1)
            assert config.startswith("# config: ")
        docs[path.name] = doc
    return docs


def test_jobs_do_not_change_payloads(isolated_cwd):
    data, region_map = _synth(countries=12, years=20)
    inputs = ["--data", data, "--region-map", region_map, "--years", "1949:1969"]
    commands = [
        (["scale", *inputs, "--region", "all", "--method", "alad",
          "--bootstrap", "25", "--seed", "5"], "scale_alad_*.json", 6),
        # Two strata, each with the mode bootstrap: fit tables, histograms
        # and density curves for both, plus the summary table.
        (["fit", *inputs, "--split", "both", "--bootstrap", "5", "--seed", "5"],
         "fit_*", 7),
    ]
    for argv, pattern, count in commands:
        payloads = []
        for jobs, out in (("1", "seq"), ("3", "par")):
            code = main([*argv, "--jobs", jobs, "--out", f"{argv[0]}_{out}"])
            assert code == 0
            payloads.append(_artifacts(isolated_cwd / f"{argv[0]}_{out}", pattern))
        assert payloads[0] == payloads[1]
        assert len(payloads[0]) == count


def test_runs_start_no_threads_or_processes(isolated_cwd, monkeypatch):
    data, region_map = _synth(countries=12, years=20)

    def refuse(*args, **kwargs):
        raise AssertionError("the CLI started a thread or a process")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(subprocess.Popen, "__init__", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    inputs = ["--data", data, "--region-map", region_map, "--years", "1949:1969",
              "--seed", "1", "--jobs", "4"]
    assert main(["fit", *inputs, "--split", "both", "--bootstrap", "2",
                 "--out", "fit"]) == 0
    assert main(["scale", *inputs, "--region", "all", "--method", "alad",
                 "--bootstrap", "2", "--out", "scale"]) == 0
    assert main(["roll", *inputs, "--window", "10", "--step", "5",
                 "--bootstrap", "2", "--out", "roll"]) == 0


# --------------------------------------------------------------------- roll


def test_roll_artifacts(isolated_cwd):
    data, region_map = _synth(countries=12, years=20, extra=("--beta", "-0.3"))
    code = main([
        "roll", "--data", data, "--region-map", region_map,
        "--years", "1949:1969", "--window", "10", "--bootstrap", "16",
        "--seed", "2", "--jobs", "2", "--out", "rolled",
    ])
    assert code == 0
    lines = open("rolled/roll_all.csv", encoding="utf-8").read().splitlines()
    assert lines[1] == ("window_start,window_end,beta,se_beta,phi1,se_phi1,"
                        "alpha,n,significant")
    assert len(lines) == 2 + 11  # growth 1950..1969, 10-year windows
    segments = _load_json("rolled/roll_segments_all.json")
    assert segments["window_length"] == 10
    assert segments["segments"], "at least one significance segment"
    first = segments["segments"][0]
    assert set(first) == {"start", "end", "significant"}


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(countries=st.integers(3, 12), beta=st.sampled_from(["0", "-0.3"]),
       window=st.integers(3, 10), step=st.integers(1, 3), seed=st.integers(0, 999))
def test_roll_segments_are_the_runs_of_the_significant_column(
        isolated_cwd, countries, beta, window, step, seed):
    # Few countries make gap windows and windows without errors; both leave
    # the significant cell empty and break runs.
    out = f"roll_{countries}_{beta}_{window}_{step}_{seed}"
    data, region_map = _synth(out=f"{out}_panel", seed=seed, countries=countries,
                              extra=("--beta", beta))
    assert main(["roll", "--data", data, "--region-map", region_map,
                 "--years", "1949:1969", "--window", str(window), "--step", str(step),
                 "--bootstrap", "10", "--seed", str(seed), "--out", out]) == 0
    with open(f"{out}/roll_all.csv", encoding="utf-8") as handle:
        rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
    runs = []
    for flag, run in groupby(rows, key=lambda row: row["significant"]):
        if flag:
            run = list(run)
            runs.append({"start": int(run[0]["window_start"]),
                         "end": int(run[-1]["window_end"]), "significant": flag == "true"})
    assert _load_json(f"{out}/roll_segments_all.json")["segments"] == runs


def test_roll_window_exceeding_span_fails(isolated_cwd):
    data, region_map = _synth()
    code = main([
        "roll", "--data", data, "--region-map", region_map,
        "--years", "1949:1969", "--window", "100", "--bootstrap", "0",
        "--seed", "0", "--out", "toolong",
    ])
    assert code == 1
    manifest = _load_json("toolong/errors.json")
    assert "exceeds" in manifest["errors"][0]["error"]


# ------------------------------------------------------------ shared wiring


def test_unknown_region_is_rejected_before_running(isolated_cwd):
    data, region_map = _synth()
    with pytest.raises(SystemExit):
        main(["scale", "--data", data, "--region-map", region_map,
              "--region", "Atlantis", "--bootstrap", "0",
              "--seed", "0", "--out", "nowhere"])


def test_data_dir_environment_override(isolated_cwd, monkeypatch):
    _synth(out="store")
    monkeypatch.setenv("GROWTHVOL_DATA_DIR", str(isolated_cwd / "store"))
    code = main([
        "scale", "--data", "synth_panel.csv",
        "--region-map", "store/synth_region_map.csv",
        "--years", "1949:1969", "--method", "alad", "--bootstrap", "0",
        "--seed", "0", "--out", "via_env",
    ])
    assert code == 0


@pytest.mark.parametrize("years", ["1950:1950", "1951:1950", "1950", "a:b"])
def test_year_range_must_run_forward_before_anything_runs(isolated_cwd, years):
    with pytest.raises(SystemExit) as exit_info:
        main(["fit", "--data", TOY, "--years", years, "--bootstrap", "0",
              "--out", "out"])
    assert exit_info.value.code == 2
    assert not Path("out").exists()


@pytest.mark.parametrize("command", ["fit", "scale", "roll"])
def test_negative_bootstrap_is_a_usage_error(isolated_cwd, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--data", TOY, "--bootstrap", "-5", "--out", "out"])
    assert exit_info.value.code == 2
    assert not Path("out").exists()


@pytest.mark.parametrize("argv", [
    ["scale", "--bins", "2"],
    ["roll", "--window", "1"],
    ["roll", "--step", "0"],
    ["scale", "--bootstrap", "-1"],
], ids=["bins_2", "window_1", "step_0", "bootstrap_-1"])
def test_out_of_range_count_is_a_usage_error(isolated_cwd, argv):
    # Rejected while parsing, before the panel loads: no stratum runs and
    # nothing, errors.json included, is written.
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--data", TOY, "--out", "out"])
    assert exit_info.value.code == 2
    assert not Path("out").exists()


def test_repeated_region_or_split_is_one_stratum():
    def labels(regions, splits):
        args = SimpleNamespace(region=regions, split=splits)
        return [label for label, _, _ in _expand_strata(args)]

    assert labels(None, ["developed", "both"]) == ["developed", "developing"]
    assert labels(None, ["developing", "developing"]) == ["developing"]
    assert labels(["LatinAmericaCaribbean", "all"], None) == [
        "LatinAmericaCaribbean", "EuropeNorthAmerica", "EastEuropeCentralAsia",
        "EastSouthAsiaPacific", "SubSaharanAfrica", "MiddleEastNorthAfrica"]
    assert labels(["SubSaharanAfrica", "SubSaharanAfrica"], ["both", "developed"]) == [
        "SubSaharanAfrica_developed", "SubSaharanAfrica_developing"]


def test_repeated_split_fits_each_stratum_once(isolated_cwd):
    data, region_map = _synth()
    code = main(["fit", "--data", data, "--region-map", region_map,
                 "--years", "1949:1969", "--split", "developed", "--split", "both",
                 "--bootstrap", "0", "--out", "fitted"])
    assert code == 0
    with open("fitted/fit_table.csv", encoding="utf-8") as handle:
        rows = list(csv.reader(line for line in handle if not line.startswith("#")))
    assert [row[0] for row in rows[1:]] == ["developed", "developing"]


def test_missing_data_file_reports_and_fails(isolated_cwd):
    code = main(["fit", "--data", "no_such_file.csv", "--bootstrap", "0",
                 "--seed", "0", "--out", "missing"])
    assert code == 1
    manifest = _load_json("missing/errors.json")
    assert manifest["errors"][0]["stratum"] == "run"


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone takes about half of the CLI's start-up time.
    env = {**os.environ, "PYTHONPATH": str(Path(growthvol.__file__).parents[1])}
    probe = "import sys, growthvol.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
