"""Rolling-window driver: coverage, reproducibility, segments, CSV layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthvol.panel import stratify
from growthvol.rolling import (
    RollingEntry,
    RollingSeries,
    roll,
    rolling_csv,
    significance_segments,
)
from growthvol.scaling import ScalingFit, fit_alad
from growthvol.synth import SynthSpec, generate


@pytest.fixture(scope="module")
def panel():
    # 12 countries x 20 growth years: each 10-year window holds 12*9 = 108
    # consecutive pairs, comfortably above the floor of 24.
    return generate(SynthSpec(n_countries=12, n_years=20, beta=-0.2, seed=5))


@pytest.fixture(scope="module")
def sparse_panel():
    # 2 countries: a 10-year window holds 2*9 = 18 pairs, below the floor.
    return generate(SynthSpec(n_countries=2, n_years=20, beta=-0.2, seed=5))


@pytest.fixture(scope="module")
def series(panel):
    return roll(panel, window_length=10, bootstrap=16, seed=0)


def _stub_fit(beta, se_beta):
    return ScalingFit(
        method="alad", beta=beta, gamma_or_alpha=0.02, se_beta=se_beta,
        se_gamma_or_alpha=0.01, n_obs=108, phi1=0.3, se_phi1=0.05,
        significant_5pct=None if se_beta is None else abs(beta) / se_beta > 1.96,
    )


def _series(entries):
    return RollingSeries(window_length=10, step=1, entries=entries)


def _starts(series):
    return [e.start_year for e in series.entries]


def test_window_longer_than_span_rejected(panel):
    with pytest.raises(ValueError, match="exceeds"):
        roll(panel, window_length=21)


def test_degenerate_window_and_step_rejected(panel):
    with pytest.raises(ValueError, match="window_length"):
        roll(panel, window_length=1)
    with pytest.raises(ValueError, match="step"):
        roll(panel, step=0)


def test_every_window_position_present(series):
    # Growth years 1950..1969; 10-year windows start at 1950..1960.
    assert _starts(series) == list(range(1950, 1961))
    for entry in series.entries:
        assert entry.end_year == entry.start_year + 9
        assert entry.n_pairs == 12 * 9
        assert entry.fit is not None
        assert entry.fit.method == "alad"


def test_step_spaces_window_starts(panel):
    stepped = roll(panel, window_length=10, step=5, bootstrap=0)
    assert _starts(stepped) == [1950, 1955, 1960]


def test_window_fit_reproducible_in_isolation(panel, series):
    # A window's estimate is exactly the standalone fit of the stratified
    # sub-panel under the derived seed: the driver adds nothing.
    entry = series.entries[3]
    sub = stratify(panel, year_range=(entry.start_year, entry.end_year))
    standalone = fit_alad(sub, bootstrap=16, seed=[0, entry.start_year])
    assert standalone.beta == entry.fit.beta
    assert standalone.se_beta == entry.fit.se_beta
    assert standalone.phi1 == entry.fit.phi1
    assert standalone.gamma_or_alpha == entry.fit.gamma_or_alpha


def test_roll_is_deterministic(panel, series):
    again = roll(panel, window_length=10, bootstrap=16, seed=0)
    for a, b in zip(again.entries, series.entries):
        assert a.fit.beta == b.fit.beta
        assert a.fit.se_beta == b.fit.se_beta


def test_sparse_windows_become_gaps(sparse_panel):
    gappy = roll(sparse_panel, window_length=10, bootstrap=0)
    assert _starts(gappy) == list(range(1950, 1961))
    for entry in gappy.entries:
        assert entry.fit is None
        assert entry.n_pairs == 2 * 9


def test_pair_floor_is_24():
    three = generate(SynthSpec(n_countries=3, n_years=20, beta=-0.2, seed=5))
    # 3 countries: 9-year windows hold 24 pairs, 8-year windows 21.
    assert all(e.n_pairs == 24 and e.fit is not None
               for e in roll(three, window_length=9, bootstrap=0).entries)
    assert all(e.n_pairs == 21 and e.fit is None
               for e in roll(three, window_length=8, bootstrap=0).entries)


def test_window_betas_near_truth(series):
    betas = np.array([e.fit.beta for e in series.entries])
    ses = np.array([e.fit.se_beta for e in series.entries])
    # Single-window panels are small (108 pairs), so allow wide coverage.
    assert np.all(np.abs(betas - (-0.2)) < 4.0 * ses)


def test_segments_single_run():
    entries = [
        RollingEntry(1950 + k, 1959 + k, 108, _stub_fit(-0.3, 0.05))
        for k in range(5)
    ]
    assert significance_segments(_series(entries)) == [(1950, 1963, True)]


def test_segments_split_on_status_change():
    entries = [
        RollingEntry(1950, 1959, 108, _stub_fit(-0.01, 0.05)),
        RollingEntry(1951, 1960, 108, _stub_fit(-0.02, 0.05)),
        RollingEntry(1952, 1961, 108, _stub_fit(-0.30, 0.05)),
        RollingEntry(1953, 1962, 108, _stub_fit(-0.35, 0.05)),
    ]
    assert significance_segments(_series(entries)) == [
        (1950, 1960, False),
        (1952, 1962, True),
    ]


def test_segments_broken_by_gaps_and_missing_errors():
    entries = [
        RollingEntry(1950, 1959, 108, _stub_fit(-0.30, 0.05)),
        RollingEntry(1951, 1960, 4, None),
        RollingEntry(1952, 1961, 108, _stub_fit(-0.30, 0.05)),
        RollingEntry(1953, 1962, 108, _stub_fit(-0.30, None)),
        RollingEntry(1954, 1963, 108, _stub_fit(-0.30, 0.05)),
    ]
    assert significance_segments(_series(entries)) == [
        (1950, 1959, True),
        (1952, 1961, True),
        (1954, 1963, True),
    ]


def test_segments_reject_bad_input():
    with pytest.raises(ValueError, match="empty"):
        significance_segments(_series([]))


def _segments_reference(series):
    """The run-finding state machine that ``significance_segments`` replaced."""

    def status(entry):
        return None if entry.fit is None else entry.fit.significant_5pct

    segments = []
    run_start = None
    run_end = None
    run_status = None
    for entry in series.entries:
        s = status(entry)
        if s is None or s != run_status or run_start is None:
            if run_start is not None and run_status is not None:
                segments.append((run_start, run_end, run_status))
            run_start, run_end, run_status = entry.start_year, entry.end_year, s
            if s is None:
                run_start = None
                run_status = None
        else:
            run_end = entry.end_year
    if run_start is not None and run_status is not None:
        segments.append((run_start, run_end, run_status))
    return segments


# A window is a gap or a fit whose 5% flag is significant, not significant
# or unknown (no error).
_windows = st.lists(st.sampled_from(["gap", True, False, None]), min_size=1, max_size=30)


@settings(max_examples=300, deadline=None)
@given(windows=_windows)
def test_segments_equal_the_state_machine(windows):
    entries = []
    for k, flag in enumerate(windows):
        fit = None
        if flag != "gap":
            fit = ScalingFit(method="alad", beta=-0.1, gamma_or_alpha=0.0,
                             se_beta=None if flag is None else 0.05,
                             se_gamma_or_alpha=None, n_obs=108, significant_5pct=flag)
        entries.append(RollingEntry(1950 + k, 1959 + k, 108, fit))
    series = _series(entries)
    assert significance_segments(series) == _segments_reference(series)


def test_csv_layout_and_gap_rows(series, sparse_panel):
    text = rolling_csv(series)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "window_start,window_end,beta,se_beta,phi1,se_phi1,alpha,n,significant"
    )
    assert len(lines) == 1 + len(series.entries)
    first = lines[1].split(",")
    assert first[0] == "1950" and first[1] == "1959"
    assert float(first[2]) == series.entries[0].fit.beta
    assert first[8] in {"true", "false"}

    gappy = roll(sparse_panel, window_length=10, bootstrap=0)
    gap_row = rolling_csv(gappy).strip().split("\n")[1].split(",")
    assert gap_row[:2] == ["1950", "1959"]
    assert gap_row[2:8] == ["", "", "", "", "", "18"]
    assert gap_row[8] == ""
