"""Rolling-window driver: coverage, reproducibility, segments, CSV layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

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
    # consecutive pairs, comfortably above the default floor of 24.
    return generate(SynthSpec(n_countries=12, n_years=20, beta=-0.2, seed=5))


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
    assert series.window_starts() == list(range(1950, 1961))
    for entry in series.entries:
        assert entry.end_year == entry.start_year + 9
        assert entry.n_pairs == 12 * 9
        assert entry.fit is not None
        assert entry.fit.method == "alad"


def test_step_spaces_window_starts(panel):
    stepped = roll(panel, window_length=10, step=5, bootstrap=0)
    assert stepped.window_starts() == [1950, 1955, 1960]


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


def test_sparse_windows_become_gaps(panel):
    gappy = roll(panel, window_length=10, min_pairs=10_000, bootstrap=0)
    assert gappy.window_starts() == list(range(1950, 1961))
    for entry in gappy.entries:
        assert entry.fit is None
        assert entry.n_pairs == 12 * 9


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


def test_segments_respect_level():
    # |beta|/se = 2.2: significant at 5%, not at 1%.
    entries = [RollingEntry(1950, 1959, 108, _stub_fit(-0.11, 0.05))]
    assert significance_segments(_series(entries), level=0.05) == [(1950, 1959, True)]
    assert significance_segments(_series(entries), level=0.01) == [(1950, 1959, False)]


def test_segments_reject_bad_input():
    with pytest.raises(ValueError, match="empty"):
        significance_segments(_series([]))
    entry = RollingEntry(1950, 1959, 108, _stub_fit(-0.3, 0.05))
    with pytest.raises(ValueError, match="level"):
        significance_segments(_series([entry]), level=1.5)


def _segments_reference(series, level=0.05):
    """The run-finding state machine that ``significance_segments`` replaced."""
    critical = float(norm.ppf(1.0 - level / 2.0))

    def status(entry):
        if entry.fit is None or entry.fit.se_beta is None:
            return None
        if entry.fit.se_beta == 0.0:
            return True
        return bool(abs(entry.fit.beta) / entry.fit.se_beta > critical)

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


# A window is a gap (None) or a fit whose (beta, se_beta) makes its status
# significant, not significant (both by the ratio or by a zero error) or
# unknown (no error).
_windows = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.floats(-1.0, 1.0),
                  st.one_of(st.none(), st.just(0.0), st.floats(1e-3, 1.0))),
    ),
    min_size=1, max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(windows=_windows, level=st.sampled_from([0.05, 0.01, 0.1, 0.2, 1e-3]))
def test_segments_equal_the_state_machine(windows, level):
    entries = []
    for k, window in enumerate(windows):
        fit = None
        if window is not None:
            beta, se_beta = window
            fit = ScalingFit(method="alad", beta=beta, gamma_or_alpha=0.0,
                             se_beta=se_beta, se_gamma_or_alpha=None, n_obs=108,
                             significant_5pct=None)
        entries.append(RollingEntry(1950 + k, 1959 + k, 108, fit))
    series = _series(entries)
    assert significance_segments(series, level) == _segments_reference(series, level)


def test_csv_layout_and_gap_rows(series, panel):
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

    gappy = roll(panel, window_length=10, min_pairs=10_000, bootstrap=0)
    gap_row = rolling_csv(gappy).strip().split("\n")[1].split(",")
    assert gap_row[:2] == ["1950", "1959"]
    assert gap_row[2:8] == ["", "", "", "", "", "108"]
    assert gap_row[8] == ""
