"""Benchmark of the growthvol command line, end to end and layer by layer.

    python3 perfbench/run.py --workload fit-strata --seed 0 --seconds 30 --trace 0

Run it from anywhere; it works on the checkout it sits in, importing
``growthvol`` from that checkout's ``src/`` and writing only under
``.bench_work/`` (removed afterwards) and ``.bench_out/`` (span dumps).

With ``--trace 0`` it stages the workload's inputs, then repeats timed
passes of the workload in-process until ``--seconds`` would be exceeded
(at least one pass), checks every output, and reports the end-to-end
metrics.  With ``--trace 1`` it runs one untraced pass, one traced pass and
the workload's probes, and reports the per-layer metrics.  The last line of
standard output is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("fit-strata", "scale-roll", "synth-mc")
SETUP_REPEATS = 5

# Call sites wrapped in a traced pass: the public functions the CLI calls.
SITES = [
    ("growthvol.cli", "main"),
    *(("growthvol.cli", fn) for fn in (
        "load_panel", "stratify", "development_split", "fit_aep", "fit_alad",
        "binned_beta", "roll", "generate", "panel_to_long_csv", "density")),
    ("growthvol.rolling", "stratify"),
    ("growthvol.rolling", "fit_alad"),
    ("growthvol.ingest", "build_growth_panel"),
    ("growthvol.synth", "build_growth_panel"),
    ("growthvol.synth", "sample"),
]
# Span names (defining module.function) reported with .calls, .s and .wait_s.
SPAN_NAMES = [
    "cli.main", "ingest.load_panel", "panel.build_growth_panel",
    "panel.development_split", "panel.stratify", "aep_fit.fit_aep",
    "aep.density", "scaling.fit_alad", "scaling.binned_beta", "rolling.roll",
    "synth.generate", "aep.sample", "ingest.panel_to_long_csv",
]
KEPT = frozenset({"aep_fit.fit_aep", "scaling.fit_alad", "rolling.roll",
                  "ingest.load_panel"})
# Ops whose pool is timed again with one worker: op label -> metric.
POOLED = {"fit": "cli.pool_speedup", "roll": "rolling.pool_speedup"}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}
PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in SPAN_NAMES
       for kind, unit in (("calls", "count"), ("s", "s"), ("wait_s", "s"))},
    "aep_fit.point_s": "s", "aep_fit.boot_rep_ms": "ms",
    "aep_fit.boot_share": "ratio", "aep_fit.se_bootstrap": "count",
    "aep_fit.nonconverged": "count",
    "scaling.alad_point_s": "s", "scaling.alad_rep_ms": "ms",
    "scaling.alad_trace_len": "count", "scaling.alad_no_se": "count",
    "rolling.windows": "count", "rolling.gaps": "count",
    "rolling.pool_speedup": "ratio", "cli.pool_speedup": "ratio",
    "ingest.rows_per_s": "1/s", "cli.self_s": "s",
    "cli.artifacts": "count", "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s", "trace.child_cpu_s": "s",
}

TRACE_NOTE = ("spans cover only this process: work the program runs in child "
              "processes is not traced (trace.child_cpu_s is its CPU time)")


@dataclass
class Pass:
    wall: float
    cpu: float
    child_cpu: float
    finished: list = field(default_factory=list)

    def op_seconds(self, label: str) -> float:
        return sum(seconds for op, _, seconds in self.finished if op.label == label)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_pass(ops, tracer=None) -> Pass:
    """Run one pass's operations in order, timing the whole pass."""
    self0, child0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    finished = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        exit_code, seconds = wl.execute(op)
        finished.append((op, exit_code, seconds))
    wall = time.perf_counter() - start
    child = _cpu(resource.RUSAGE_CHILDREN) - child0
    return Pass(wall, _cpu(resource.RUSAGE_SELF) - self0 + child, child, finished)


def check_pass(done: Pass, tally) -> Pass:
    """Check what a pass wrote; runs untimed and untraced."""
    for op, exit_code, _ in done.finished:
        tally.record(op, exit_code)
    return done


def measure_setup(workload: str, seed: int, work: Path) -> float:
    """Median wall time of a fresh interpreter importing growthvol and staging inputs."""
    code = ("import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
            "import growthvol.cli, workloads; "
            "workloads.stage(Path(sys.argv[3]), sys.argv[4], int(sys.argv[5]), "
            "Path(sys.argv[6]))")
    times = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE), str(ROOT),
                        workload, str(seed), str(work / f"setup{k}")],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "jobs": wl.JOBS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "growthvol": _project_version(),
        "git_commit": _git_commit(),
        "toy_panel_sha256": wl.sha256(ROOT / wl.TOY_PANEL),
    }


def _project_version():
    try:
        import tomllib
        with open(ROOT / "pyproject.toml", "rb") as handle:
            return tomllib.load(handle)["project"]["version"]
    except (ImportError, OSError, KeyError, ValueError):
        return None


def _git_commit():
    """HEAD of the checkout; None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def stage(args, work) -> dict:
    return wl.stage(ROOT, args.workload, args.seed, work / "inputs")


def end_to_end(args, work, tally) -> dict:
    """Timed passes, then the set-up probes, whose children must not count in peak RSS."""
    inputs = stage(args, work)
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        out = work / f"pass{len(walls)}"
        done = check_pass(run_pass(wl.ops(args.workload, inputs, args.seed, out)), tally)
        walls.append(done.wall)
        cpus.append(done.cpu)
        shutil.rmtree(out, ignore_errors=True)
        now = time.perf_counter()
        if now - start + (now - begun) > args.seconds:
            break
    print(f"passes: {len(walls)}; pass wall_s: {[round(w, 4) for w in walls]}")
    peak = peak_rss_mb()
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": measure_setup(args.workload, args.seed, work / "setup"),
        "peak_rss_mb": peak,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }


def per_layer(args, work, tally) -> dict:
    """One untraced pass, one traced pass, then the workload's probes."""
    inputs = stage(args, work)
    untraced = check_pass(
        run_pass(wl.ops(args.workload, inputs, args.seed, work / "untraced")), tally)
    tracer = spans.Tracer(SITES, KEPT)
    traced_ops = wl.ops(args.workload, inputs, args.seed, work / "traced")
    tracer.install()
    try:
        traced = run_pass(traced_ops, tracer)
    finally:
        tracer.uninstall()
    check_pass(traced, tally)
    recorded = tracer.spans
    metrics = {}
    for name in SPAN_NAMES:
        mine = [s for s in recorded if s.name == name]
        metrics[f"{name}.calls"] = len(mine)
        metrics[f"{name}.s"] = sum(s.seconds for s in mine)
        metrics[f"{name}.wait_s"] = sum(s.wait for s in mine)

    files = [f for op in traced_ops for f in op.out.rglob("*") if f.is_file()]
    metrics["cli.artifacts"] = len(files)
    metrics["cli.artifact_bytes"] = sum(f.stat().st_size for f in files)
    metrics["cli.self_s"] = sum(spans.self_seconds(s, recorded)
                                for s in recorded if s.name == "cli.main")
    metrics["trace.overhead_s"] = traced.wall - untraced.wall
    metrics["trace.child_cpu_s"] = traced.child_cpu

    def returned(name):
        return [s for s in recorded if s.name == name and s.result is not None]

    loads = returned("ingest.load_panel")
    rows = sum(s.result[0].country.size for s in loads)
    load_s = sum(s.seconds for s in loads)
    metrics["ingest.rows_per_s"] = rows / load_s if load_s > 0 else 0.0

    metrics.update(_alad_metrics(returned("scaling.fit_alad"), args.seed))
    series = [s.result for s in returned("rolling.roll")]
    metrics["rolling.windows"] = sum(len(r.entries) for r in series)
    metrics["rolling.gaps"] = sum(e.fit is None for r in series for e in r.entries)

    serial_fits = []
    for label, metric in POOLED.items():
        metrics[metric] = 0.0
        serial = [op for op in wl.ops(args.workload, inputs, args.seed,
                                      work / "serial", jobs=1) if op.label == label]
        if serial:
            # Only fit_aep is wrapped: its serial spans are the uncontended
            # reference for the bootstrap share.
            fit_tracer = spans.Tracer([("growthvol.cli", "fit_aep")], KEPT)
            fit_tracer.install()
            try:
                one = check_pass(run_pass(serial), tally)
            finally:
                fit_tracer.uninstall()
            serial_fits += [s for s in fit_tracer.spans if s.result is not None]
            metrics[metric] = one.op_seconds(label) / untraced.op_seconds(label)
    metrics.update(_aep_metrics(returned("aep_fit.fit_aep"), serial_fits, args.seed))
    _dump_spans(args, recorded, metrics)
    return metrics


def _aep_metrics(fits, serial_fits, seed) -> dict:
    """The point fit probed alone; the rest of a serial fit's CPU is bootstrap.

    Both sides are thread CPU time of fits that run serially: the traced
    fits share a two-thread pool, which inflates the CPU each one spends.
    """
    from growthvol.aep_fit import fit_aep

    point_s = 0.0
    for span in serial_fits:
        start = time.thread_time()
        fit_aep(span.args[0], bootstrap_fallback=0, seed=seed)
        point_s += time.thread_time() - start
    serial_cpu = sum(s.cpu for s in serial_fits)
    booted = [s for s in serial_fits if "bootstrap" in (s.result.se_method or "")]
    replicates = sum(s.kwargs.get("bootstrap_fallback", 200) for s in booted)
    return {
        "aep_fit.point_s": point_s,
        "aep_fit.boot_rep_ms": (1e3 * (serial_cpu - point_s) / replicates
                                if replicates else 0.0),
        "aep_fit.boot_share": 1.0 - point_s / serial_cpu if serial_cpu > 0 else 0.0,
        "aep_fit.se_bootstrap": sum("bootstrap" in (s.result.se_method or "")
                                    for s in fits),
        "aep_fit.nonconverged": sum(not s.result.converged for s in fits),
    }


def _alad_metrics(fits, seed) -> dict:
    """Probe the point fit of each whole-panel ALAD call from the CLI itself.

    ``scale`` runs that call serially, so its thread CPU and the probe's
    compare like with like.
    """
    from growthvol.scaling import fit_alad

    direct = [s for s in fits if s.site == "growthvol.cli.fit_alad"]
    point_s = 0.0
    for span in direct:
        start = time.thread_time()
        fit_alad(span.args[0], bootstrap=0, seed=seed)
        point_s += time.thread_time() - start
    replicates = sum(s.kwargs.get("bootstrap", 200) for s in direct)
    direct_cpu = sum(s.cpu for s in direct)
    return {
        "scaling.alad_point_s": point_s,
        "scaling.alad_rep_ms": (1e3 * (direct_cpu - point_s) / replicates
                                if replicates else 0.0),
        "scaling.alad_trace_len": (statistics.mean(len(s.result.trace) for s in fits)
                                   if fits else 0.0),
        "scaling.alad_no_se": sum(s.result.se_beta is None for s in fits
                                  if s.kwargs.get("bootstrap", 200) > 0),
    }


def _dump_spans(args, recorded, metrics) -> None:
    out = ROOT / ".bench_out" / f"spans_{args.workload}_{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    records = [{"id": s.id, "name": s.name, "site": s.site, "parent": s.parent,
                "thread": s.thread, "op": s.op, "start": s.start, "end": s.end,
                "cpu": s.cpu} for s in recorded]
    out.write_text(json.dumps({"spans": records, "metrics": metrics}) + "\n",
                   encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "growthvol" / "cli.py").is_file():
        print(f"error: no growthvol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import growthvol

    if Path(growthvol.__file__).resolve().parent != SRC / "growthvol":
        print(f"error: growthvol imported from {growthvol.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    print(json.dumps({"env": environment()}))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = wl.Tally()
    try:
        if args.trace:
            print(TRACE_NOTE)
            values, units = per_layer(args, work, tally), PER_LAYER_UNITS
        else:
            values, units = end_to_end(args, work, tally), END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            work.parent.rmdir()
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
