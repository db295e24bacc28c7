"""The benchmark's workloads: staged inputs, CLI invocations, output checks.

A workload is a list of operations.  Each operation is one in-process call
of ``growthvol.cli.main(argv)`` writing into its own output directory, plus
a check of what it wrote.  An operation fails when the call raises or exits
nonzero, when it writes ``errors.json``, or when its check finds a problem.

Inputs come only from the workload seed: the bundled toy panel is copied
into the run's work directory, and synth-mc derives its generator seeds
from the workload seed, apart from one pinned spec.  The seed also feeds the CLI's ``--seed``, which
moves only bootstrap draws, so the pinned point estimates below hold on
every workload seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TOY_PANEL = Path("src/growthvol/data/toy_panel_31.csv")

# Worker threads per CLI call, fixed whatever the machine's core count, so
# that runs on different machines exercise the same pools.
JOBS = 2

# Criterion 3's frozen-value drift and criterion 5's golden tolerance.
AEP_TOL = 1e-3
BETA_TOL = 5e-4

# `growthvol fit --panel balanced --split both` on the toy panel.
FIT_PINNED = {
    "developed": {"b_l": 0.8416750569034026, "b_r": 1.220693365937163,
                  "a_l": 0.029512998159893018, "a_r": 0.03565311182638235,
                  "m": 0.022559580661550827},
    "developing": {"b_l": 0.9786635015341822, "b_r": 1.2415604895539443,
                   "a_l": 0.05070288879896901, "a_r": 0.053151996537418665,
                   "m": 0.026173333155301994},
}
# `growthvol scale --panel balanced --method both --bins 25` on the toy panel.
SCALE_PINNED = {"binned": -0.18977798746747884, "alad": -0.19039384704447798}
# `growthvol roll --panel balanced --window 10 --step 10`: beta per window start.
ROLL_PINNED = {
    1901: -0.27438018747471438, 1911: -0.17221252703462503,
    1921: -0.19527336734484674, 1931: -0.16710164066218336,
    1941: -0.18267347161849906, 1951: -0.23630306156968744,
    1961: -0.21648840739588232, 1971: -0.16955478599608315,
    1981: -0.15204476911489417,
}

SYNTH_BETAS = (0.0, -0.15, -0.30)
SYNTH_SEEDS_PER_BETA = 4
SYNTH_COUNTRIES = 150
SYNTH_YEARS = 100
SYNTH_BINS = 15
# `growthvol synth --countries 150 --n-years 100 --beta -0.15 --seed 0`: the
# sha256 of synth_panel.csv without its "# config" line, which names --out.
# The other synth-mc checks compare against the library itself; this one
# does not depend on the code it checks.
SYNTH_PINNED_ARGS = ["--countries", "150", "--n-years", "100", "--beta", "-0.15",
                     "--seed", "0"]
SYNTH_PINNED_SHA256 = "a7b93b24b45fb3d19ba97e1be026648d113d799172bd9d9e9fa6172fb69b679e"


@dataclass
class Op:
    """One CLI call and the check of the directory it writes."""

    label: str
    argv: list[str]
    out: Path
    check: Callable[[Path], list[str]]


class Tally:
    """Operations attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: Op, exit_code) -> bool:
        """Count one finished operation; True when it passed every check."""
        problems = verify(op, exit_code)
        self.attempted += 1
        if problems:
            self.failed += 1
            where = f"{op.label} {op.out.parent.name}/{op.out.name}"
            self.problems += [f"{where}: {p}" for p in problems]
        return not problems


def execute(op: Op) -> tuple[object, float]:
    """Run one operation in-process; (exit code, wall seconds)."""
    from growthvol import cli

    start = time.perf_counter()
    try:
        exit_code = cli.main(op.argv)
    except SystemExit as exc:
        exit_code = exc.code
    return exit_code, time.perf_counter() - start


def verify(op: Op, exit_code) -> list[str]:
    """Everything wrong with a finished operation; empty when it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code!r}"]
    if (op.out / "errors.json").exists():
        return ["errors.json written"]
    try:
        return op.check(op.out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stage(root: Path, workload: str, seed: int, work: Path) -> dict:
    """Prepare a run's inputs under ``work``; the part of set-up a user pays."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "synth-mc":
        return synth_specs(seed)
    toy = work / TOY_PANEL.name
    shutil.copyfile(root / TOY_PANEL, toy)
    return {"toy": toy}


def ops(workload: str, inputs: dict, seed: int, out: Path, jobs: int = JOBS) -> list[Op]:
    """The operations of one pass, in the order they run."""
    if workload == "fit-strata":
        return [_fit_op(inputs["toy"], seed, out / "fit", jobs)]
    if workload == "scale-roll":
        return [_scale_op(inputs["toy"], seed, out / "scale"),
                _roll_op(inputs["toy"], seed, out / "roll", jobs)]
    if workload == "synth-mc":
        pinned = out / "pinned"
        return [Op("synth-pinned", ["synth", *SYNTH_PINNED_ARGS, "--out", str(pinned)],
                   pinned, check_synth_pinned),
                *(op for spec in inputs["specs"] for op in
                  _synth_ops(spec, seed, out / f"b{spec.beta}_s{spec.seed}"))]
    raise ValueError(f"unknown workload {workload!r}")


def _toy_args(toy: Path, seed: int) -> list[str]:
    return ["--data", str(toy), "--panel", "balanced", "--seed", str(seed)]


def _fit_op(toy, seed, out, jobs) -> Op:
    argv = ["fit", *_toy_args(toy, seed), "--split", "both",
            "--jobs", str(jobs), "--out", str(out)]
    return Op("fit", argv, out, check_fit)


def _scale_op(toy, seed, out) -> Op:
    argv = ["scale", *_toy_args(toy, seed), "--method", "both", "--bins", "25",
            "--out", str(out)]
    return Op("scale", argv, out, check_scale)


def _roll_op(toy, seed, out, jobs) -> Op:
    argv = ["roll", *_toy_args(toy, seed), "--window", "10", "--step", "10",
            "--bootstrap", "50", "--jobs", str(jobs), "--out", str(out)]
    return Op("roll", argv, out, check_roll)


def synth_specs(seed: int) -> dict:
    """Generator seeds ``seed * 1000 + k`` for k < ``SYNTH_SEEDS_PER_BETA``, at each beta."""
    from growthvol.synth import SynthSpec

    return {"specs": [SynthSpec(n_countries=SYNTH_COUNTRIES, n_years=SYNTH_YEARS,
                                beta=beta, seed=seed * 1000 + k)
                      for beta in SYNTH_BETAS for k in range(SYNTH_SEEDS_PER_BETA)]}


def _synth_ops(spec, seed, out) -> list[Op]:
    from growthvol.synth import generate

    first, last = spec.start_year - 1, spec.start_year + spec.n_years - 1
    synth_out, scale_out = out / "synth", out / "scale"
    synth = ["synth", "--countries", str(spec.n_countries),
             "--n-years", str(spec.n_years), "--beta", repr(spec.beta),
             "--seed", str(spec.seed), "--out", str(synth_out)]
    scale = ["scale", "--data", str(synth_out / "synth_panel.csv"),
             "--region-map", str(synth_out / "synth_region_map.csv"),
             "--years", f"{first}:{last}", "--method", "binned",
             "--bins", str(SYNTH_BINS), "--split", "both", "--seed", str(seed),
             "--out", str(scale_out)]
    # Each check regenerates the panel rather than holding it, so that the
    # checks stay below the peak memory of the pass they check.
    return [Op("synth", synth, synth_out, lambda d: check_synth(d, generate(spec))),
            Op("synth-scale", scale, scale_out,
               lambda d: check_synth_scale(d, generate(spec)))]


# ------------------------------------------------------------------ checks


def _finite_positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_fit(out: Path) -> list[str]:
    problems = []
    for label, pinned in FIT_PINNED.items():
        fit = _read_json(out / f"fit_{label}.json")
        if fit["converged"] is not True:
            problems.append(f"fit {label}: not converged")
        for name, value in pinned.items():
            if not abs(fit[name] - value) <= AEP_TOL:
                problems.append(f"fit {label}: {name} {fit[name]!r} != pinned {value!r}")
        se = fit["se"] or {}
        for name in pinned:
            if not _finite_positive(se.get(name)):
                problems.append(f"fit {label}: se {name} = {se.get(name)!r}")
    return problems


def _check_beta(what: str, fit: dict, reference: float) -> list[str]:
    problems = []
    if not abs(fit["beta"] - reference) <= BETA_TOL:
        problems.append(f"{what}: beta {fit['beta']!r} != {reference!r}")
    if not _finite_positive(fit["se_beta"]):
        problems.append(f"{what}: se_beta = {fit['se_beta']!r}")
    return problems


def check_scale(out: Path) -> list[str]:
    problems = []
    for method, pinned in SCALE_PINNED.items():
        fit = _read_json(out / f"scale_{method}_all.json")
        problems += _check_beta(f"scale {method}", fit, pinned)
    return problems


def check_roll(out: Path) -> list[str]:
    with open(out / "roll_all.csv", newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if not row[0].startswith("#")]
    header, body = rows[0], rows[1:]
    windows = {int(r[header.index("window_start")]): r for r in body}
    problems = []
    if sorted(windows) != sorted(ROLL_PINNED):
        problems.append(f"roll: window starts {sorted(windows)}")
    for start, pinned in ROLL_PINNED.items():
        row = windows.get(start)
        if row is None:
            continue
        fit = {key: float(row[header.index(key)] or "nan") for key in ("beta", "se_beta")}
        problems += _check_beta(f"roll window {start}", fit, pinned)
    return problems


def check_synth(out: Path, expected) -> list[str]:
    """The written panel must reload exactly equal to ``generate(spec)``."""
    from growthvol.ingest import read_observations
    from growthvol.panel import build_growth_panel

    reloaded = build_growth_panel(read_observations(out / "synth_panel.csv"),
                                  meta=expected.meta)
    return [] if reloaded == expected else ["reloaded panel differs from generate(spec)"]


def check_synth_pinned(out: Path) -> list[str]:
    """The pinned spec's panel must be byte for byte the one recorded."""
    with open(out / "synth_panel.csv", "rb") as handle:
        data = b"".join(line for line in handle if not line.startswith(b"#"))
    if hashlib.sha256(data).hexdigest() == SYNTH_PINNED_SHA256:
        return []
    return ["pinned synth panel differs from its recorded sha256"]


def check_synth_scale(out: Path, panel) -> list[str]:
    """Each split's binned beta must match the library on ``generate(spec)``."""
    from growthvol.panel import development_split, stratify
    from growthvol.scaling import binned_beta

    developed = development_split(panel)[0]
    problems = []
    for split in ("developed", "developing"):
        sub = stratify(panel, development=split, developed_countries=developed)
        expected, _ = binned_beta(sub, n_bins=SYNTH_BINS)
        fit = _read_json(out / f"scale_binned_{split}.json")
        problems += _check_beta(f"scale {split}", fit, expected.beta)
    return problems
