"""Smoke test of the benchmark's output checks.

A corrupted output, an ``errors.json`` or a nonzero exit must each count as
a failed operation; correct output must not.
"""

import json

import pytest
import run
import workloads as wl


def _fake_toy_outputs(root):
    """Write what fit, scale and roll would write, with the pinned values."""
    fit_dir, scale_dir, roll_dir = root / "fit", root / "scale", root / "roll"
    for d in (fit_dir, scale_dir, roll_dir):
        d.mkdir()
    for label, params in wl.FIT_PINNED.items():
        se = {name: 0.01 for name in params}
        (fit_dir / f"fit_{label}.json").write_text(
            json.dumps({**params, "se": se, "converged": True}))
    for method, beta in wl.SCALE_PINNED.items():
        (scale_dir / f"scale_{method}_all.json").write_text(
            json.dumps({"beta": beta, "se_beta": 0.015}))
    lines = ["# config: {}", "window_start,window_end,beta,se_beta"]
    lines += [f"{start},{start + 9},{beta!r},0.03"
              for start, beta in wl.ROLL_PINNED.items()]
    (roll_dir / "roll_all.csv").write_text("\n".join(lines) + "\n")
    toy = root / "toy.csv"
    return {op.label: op for op in wl.ops("scale-roll", {"toy": toy}, 0, root)
            + wl.ops("fit-strata", {"toy": toy}, 0, root)}


def _edit_json(path, **changes):
    path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))


CORRUPTIONS = {
    "fit mode drifts": ("fit", lambda r: _edit_json(
        r / "fit" / "fit_developed.json", m=wl.FIT_PINNED["developed"]["m"] + 2e-3)),
    "fit se missing": ("fit", lambda r: _edit_json(
        r / "fit" / "fit_developing.json", se=None)),
    "alad beta drifts": ("scale", lambda r: _edit_json(
        r / "scale" / "scale_alad_all.json", beta=wl.SCALE_PINNED["alad"] + 1e-3)),
    "binned se infinite": ("scale", lambda r: _edit_json(
        r / "scale" / "scale_binned_all.json", se_beta=float("inf"))),
    "roll window lost": ("roll", lambda r: (r / "roll" / "roll_all.csv").write_text(
        "\n".join((r / "roll" / "roll_all.csv").read_text().splitlines()[:-1]) + "\n")),
    "errors.json": ("roll", lambda r: (r / "roll" / "errors.json").write_text("{}")),
}


def test_pinned_outputs_pass(tmp_path):
    ops = _fake_toy_outputs(tmp_path)
    tally = wl.Tally()
    for op in ops.values():
        assert tally.record(op, 0), tally.problems
    assert (tally.attempted, tally.failed) == (3, 0)


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failed(tmp_path, case):
    ops = _fake_toy_outputs(tmp_path)
    label, corrupt = CORRUPTIONS[case]
    corrupt(tmp_path)
    tally = wl.Tally()
    assert not tally.record(ops[label], 0)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_nonzero_exit_counts_as_failed(tmp_path):
    ops = _fake_toy_outputs(tmp_path)
    tally = wl.Tally()
    assert not tally.record(ops["fit"], 1)
    assert tally.failed == 1


def test_synth_round_trip_corruption_counts_as_failed(tmp_path):
    pinned, synth, scale = wl.ops("synth-mc", wl.synth_specs(7), 7, tmp_path)[:3]
    tally = wl.Tally()
    for op in (pinned, synth, scale):
        assert tally.record(op, wl.execute(op)[0]), tally.problems

    for op in (pinned, synth):
        panel = op.out / "synth_panel.csv"
        lines = panel.read_text().splitlines()
        country, year, value = lines[5].split(",")
        lines[5] = f"{country},{year},{float(value) * (1 + 1e-12)!r}"
        panel.write_text("\n".join(lines) + "\n")
        assert not tally.record(op, 0)

    _edit_json(scale.out / "scale_binned_developed.json", beta=1.0)
    assert not tally.record(scale, 0)
    assert (tally.attempted, tally.failed) == (6, 3)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.END_TO_END_UNITS),
                       ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units
