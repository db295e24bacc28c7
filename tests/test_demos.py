"""The demos run against the library as it is.

Demos 01-05 run as scripts and must exit 0.  Demo 00 rewrites the bundled
toy panel when run, so it is imported instead, and its generator must
reproduce the bundled file byte for byte.
"""

import importlib.resources
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import growthvol

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = str(Path(growthvol.__file__).resolve().parents[1])


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("0[1-5]_*.py")))
def test_demo_runs(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_toy_panel_generator_matches_the_bundled_file():
    spec = importlib.util.spec_from_file_location("build_toy_panel",
                                                  DEMOS / "00_build_toy_panel.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    bundled = importlib.resources.files("growthvol") / "data" / "toy_panel_31.csv"
    assert demo.toy_panel_csv() == bundled.read_text(encoding="utf-8")
