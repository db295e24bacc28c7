"""Shared test wiring: the bundled toy panel and the acceptance summary.

Acceptance tests report through ``record_criterion``, which prints one
PASS/FAIL line immediately (visible under ``pytest -s``) and queues it for a
summary section that the terminal reporter always shows, even when output
capturing is on.
"""

import importlib.resources

import pytest

from growthvol.ingest import load_panel

TOY_PATH = str(importlib.resources.files("growthvol") / "data" / "toy_panel_31.csv")


@pytest.fixture(scope="session")
def toy_panel():
    """The bundled balanced century panel, 31 countries, 1900-1999."""
    return load_panel(TOY_PATH, balanced=True)[0]


_ACCEPTANCE_LINES: list[tuple[float, str]] = []


def record_criterion(number, passed: bool, detail: str) -> bool:
    status = "PASS" if passed else "FAIL"
    line = f"CRITERION {number}: {status} - {detail}"
    _ACCEPTANCE_LINES.append((float(number), line))
    print(line)
    return passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
