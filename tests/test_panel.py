"""Panel construction, derived columns, and stratification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthvol.panel import (
    REGIONS,
    GrowthPanel,
    build_growth_panel,
    demean_by_group,
    development_split,
    stratify,
)


def make_obs(rows):
    """(country, year, gdppc) columns of (country, year, level) rows."""
    country, year, gdppc = zip(*rows)
    return np.array(country), np.array(year), np.array(gdppc, dtype=float)


def test_sizes_are_demeaned_logs():
    e = float(np.e)
    panel = build_growth_panel(make_obs([
        ("A", 2000, e), ("B", 2000, e), ("C", 2000, e ** 4),
    ]))
    np.testing.assert_allclose(sorted(panel.size), [-1.0, -1.0, 2.0], atol=1e-12)


def sizes_by_key(rows):
    panel = build_growth_panel(make_obs(rows))
    return {(c, y): s for c, y, s in zip(panel.country, panel.year, panel.size)}


def test_compute_sizes_examples():
    e = float(np.e)
    two = sizes_by_key([("A", 2000, e**2), ("B", 2000, e**4)])
    assert two[("A", 2000)] == pytest.approx(-1.0)
    assert two[("B", 2000)] == pytest.approx(1.0)
    single = sizes_by_key([("A", 2000, 123.0)])
    assert single[("A", 2000)] == pytest.approx(0.0)
    three = sizes_by_key([("A", 2000, e), ("B", 2000, e), ("C", 2000, e**4)])
    assert [three[k] for k in sorted(three)] == pytest.approx([-1.0, -1.0, 2.0])


def test_growth_is_log_difference():
    panel = build_growth_panel(make_obs([
        ("A", 2000, 100.0), ("A", 2001, 110.0), ("B", 2000, 50.0), ("B", 2001, 45.0),
    ]))
    by_key = {(c, y): g for c, y, g in zip(panel.country, panel.year, panel.growth)}
    assert np.isnan(by_key[("A", 2000)])
    assert by_key[("A", 2001)] == pytest.approx(np.log(1.1))
    assert by_key[("B", 2001)] == pytest.approx(np.log(0.9))


def test_growth_missing_after_gap():
    panel = build_growth_panel(make_obs([
        ("A", 1950, 10.0), ("A", 1951, 11.0), ("A", 1953, 12.0),
    ]))
    by_year = dict(zip(panel.year, panel.growth))
    assert np.isnan(by_year[1950])
    assert by_year[1951] == pytest.approx(np.log(1.1))
    assert np.isnan(by_year[1953])  # 1952 missing: no one-year ratio exists


def test_sizes_invariant_to_common_rescaling():
    rows = [("A", 2000, 100.0), ("A", 2001, 105.0), ("B", 2000, 55.0), ("B", 2001, 60.0)]
    base = build_growth_panel(make_obs(rows))
    scaled = build_growth_panel(make_obs([(c, y, 3.7 * v) for c, y, v in rows]))
    np.testing.assert_allclose(scaled.size, base.size, atol=1e-12)
    np.testing.assert_allclose(
        scaled.growth[~np.isnan(scaled.growth)],
        base.growth[~np.isnan(base.growth)],
        atol=1e-12,
    )


def test_single_year_rescaling_moves_growth_not_size():
    rows = [("A", 2000, 100.0), ("A", 2001, 105.0), ("B", 2000, 55.0), ("B", 2001, 60.0)]
    base = build_growth_panel(make_obs(rows))
    bumped = build_growth_panel(make_obs(
        [(c, y, (2.0 if y == 2001 else 1.0) * v) for c, y, v in rows]
    ))
    np.testing.assert_allclose(bumped.size, base.size, atol=1e-12)
    mask = bumped.year == 2001
    np.testing.assert_allclose(
        bumped.growth[mask], base.growth[mask] + np.log(2.0), atol=1e-12
    )


def test_duplicate_observation_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_growth_panel(make_obs([("A", 2000, 1.0), ("A", 2000, 2.0)]))


def test_first_bad_row_in_country_year_order_is_named():
    rows = [("B", 2000, -1.0), ("A", 2001, 0.0), ("A", 2000, float("nan"))]
    with pytest.raises(ValueError, match="positive and finite: A 2000 has nan"):
        build_growth_panel(make_obs(rows))
    rows = [("B", 2000, 1.0), ("B", 2000, 1.0), ("A", 2001, 2.0), ("A", 2001, 3.0)]
    with pytest.raises(ValueError, match="duplicate observation for A in 2001"):
        build_growth_panel(make_obs(rows))


def test_columns_must_be_1d_and_of_equal_length():
    with pytest.raises(ValueError, match="equal length"):
        build_growth_panel((["A", "B"], [2000, 2000], [1.0]))
    with pytest.raises(ValueError, match="1-D"):
        build_growth_panel((np.array([["A"]]), np.array([[2000]]), np.array([[1.0]])))
    with pytest.raises(ValueError, match="no observations"):
        build_growth_panel(([], [], []))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_build_growth_panel_ignores_row_order(data):
    keys = data.draw(st.lists(st.tuples(st.sampled_from("ABC"), st.integers(1990, 1995)),
                              min_size=1, max_size=18, unique=True))
    levels = data.draw(st.lists(st.floats(1e-3, 1e6), min_size=len(keys),
                                max_size=len(keys)))
    rows = [(c, y, v) for (c, y), v in zip(keys, levels)]
    shuffled = data.draw(st.permutations(rows))
    assert build_growth_panel(make_obs(shuffled)) == build_growth_panel(make_obs(rows))


def test_nonpositive_level_rejected():
    with pytest.raises(ValueError, match="positive"):
        build_growth_panel(make_obs([("A", 2000, -1.0)]))
    with pytest.raises(ValueError, match="positive"):
        build_growth_panel(make_obs([("A", 2000, 0.0)]))


def test_ar1_pairs():
    panel = build_growth_panel(make_obs([
        ("A", 2000, 100.0), ("A", 2001, 110.0), ("A", 2002, 121.0),
        ("B", 2000, 50.0), ("B", 2001, 55.0),  # only one growth year: no pair
    ]))
    r_t, r_lag, s_lag, country, year = panel.ar1_pairs()
    assert list(country) == ["A"]
    assert list(year) == [2002]
    assert r_t[0] == pytest.approx(np.log(1.1))
    assert r_lag[0] == pytest.approx(np.log(1.1))
    # s_lag is A's size in 2001
    idx = (panel.country == "A") & (panel.year == 2001)
    assert s_lag[0] == panel.size[idx][0]


def test_pairs_do_not_cross_gaps():
    panel = build_growth_panel(make_obs([
        ("A", 2000, 1.0), ("A", 2001, 1.1), ("A", 2003, 1.2), ("A", 2004, 1.3),
    ]))
    r_t = panel.ar1_pairs()[0]
    assert r_t.size == 0  # growth exists in 2001 and 2004, never adjacent


def balanced_panel(n_countries=4, years=range(1990, 2000)):
    rng = np.random.default_rng(7)
    rows = []
    for i in range(n_countries):
        level = 100.0 * (i + 1)
        for y in years:
            level *= float(np.exp(rng.normal(0.02, 0.05)))
            rows.append((f"C{i}", y, level))
    meta = {"C0": REGIONS[0], "C1": REGIONS[0], "C2": REGIONS[3], "C3": REGIONS[3]}
    return build_growth_panel(make_obs(rows), meta=meta)


def test_stratify_by_region():
    panel = balanced_panel()
    sub = stratify(panel, region=REGIONS[3])
    assert sub.countries == ["C2", "C3"]
    # sizes keep their whole-panel meaning by default
    mask = np.isin(panel.country, ["C2", "C3"])
    np.testing.assert_array_equal(sub.size, panel.size[mask])


def test_stratify_unknown_region_rejected():
    with pytest.raises(ValueError, match="unknown region"):
        stratify(balanced_panel(), region="Atlantis")


def test_stratify_year_range_keeps_boundary_growth():
    panel = balanced_panel()
    sub = stratify(panel, year_range=(1995, 1999))
    assert sub.span == (1995, 1999)
    # growth into 1995 was computed from 1994 by the parent and is retained
    boundary = sub.growth[sub.year == 1995]
    parent = panel.growth[panel.year == 1995]
    np.testing.assert_array_equal(boundary, parent)
    assert not np.any(np.isnan(boundary))


def test_stratify_region_and_years_commute():
    panel = balanced_panel()
    one = stratify(stratify(panel, region=REGIONS[0]), year_range=(1993, 1997))
    two = stratify(stratify(panel, year_range=(1993, 1997)), region=REGIONS[0])
    assert one == two


def test_stratify_empty_selection_rejected():
    panel = balanced_panel()
    with pytest.raises(ValueError, match="no observations"):
        stratify(panel, year_range=(1800, 1801))
    with pytest.raises(ValueError, match="empty year range"):
        stratify(panel, year_range=(2000, 1990))


def test_development_split_partitions_countries():
    panel = balanced_panel()
    developed, developing = development_split(panel)
    assert developed | developing == set(panel.countries)
    assert not developed & developing
    sub = stratify(panel, development="developed", developed_countries=developed)
    assert set(sub.countries) == developed
    override = stratify(panel, development="developing", developed_countries=["C3"])
    assert set(override.countries) == {"C0", "C1", "C2"}
    with pytest.raises(ValueError, match="developed_countries"):
        stratify(panel, development="developed")


def test_growth_arrays_align():
    panel = balanced_panel()
    country, year, growth, size = panel.growth_arrays()
    assert not np.any(np.isnan(growth))
    assert country.shape == year.shape == growth.shape == size.shape
    # first year of each country carries no growth rate
    assert growth.size == panel.growth.size - panel.n_countries


def test_growth_years_span():
    panel = balanced_panel()
    assert panel.growth_years() == (1991, 1999)


# ---------------------------------------------------------------- properties


@st.composite
def level_rows(draw):
    """(country, year, level) rows: up to 5 countries, each with its own years."""
    rows = []
    for i in range(draw(st.integers(1, 5))):
        years = draw(st.lists(st.integers(2000, 2011), min_size=1, max_size=12,
                              unique=True))
        rows.extend((f"C{i}", y, draw(st.floats(1e-3, 1e6))) for y in years)
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=level_rows(), factor=st.floats(1e-3, 1e3), data=st.data())
def test_sizes_invariant_to_rescaling_one_year(rows, factor, data):
    year = data.draw(st.sampled_from(sorted({y for _, y, _ in rows})))
    base = build_growth_panel(make_obs(rows))
    scaled = build_growth_panel(make_obs(
        [(c, y, factor * v if y == year else v) for c, y, v in rows]
    ))
    np.testing.assert_allclose(scaled.size, base.size, rtol=0.0, atol=1e-9)


@settings(max_examples=150, deadline=None)
@given(rows=level_rows())
def test_gaps_never_produce_multi_year_growth(rows):
    panel = build_growth_panel(make_obs(rows))
    observed = {(c, y) for c, y, _ in rows}
    for c, y, g in zip(panel.country, panel.year, panel.growth):
        assert np.isnan(g) == ((c, y - 1) not in observed)
    _, _, _, country, year = panel.ar1_pairs()
    for c, y in zip(country, year):
        assert (c, y - 1) in observed and (c, y - 2) in observed


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 5), st.floats(-1e6, 1e6)),
                      min_size=1, max_size=60))
def test_demean_by_group_sums_to_zero_within_every_key(pairs):
    keys = np.array([k for k, _ in pairs])
    values = np.array([v for _, v in pairs])
    out = demean_by_group(keys, values)
    assert out.shape == values.shape
    for key in np.unique(keys):
        group = keys == key
        n = int(group.sum())
        bound = 4 * n * n * np.finfo(float).eps * max(1.0, np.abs(values[group]).max())
        assert abs(out[group].sum()) <= bound


@settings(max_examples=150, deadline=None)
@given(rows=level_rows(), data=st.data())
def test_stratify_filters_nest_in_any_order(rows, data):
    countries = sorted({c for c, _, _ in rows})
    meta = {c: data.draw(st.sampled_from(REGIONS[:2])) for c in countries}
    panel = build_growth_panel(make_obs(rows), meta=meta)
    first = data.draw(st.integers(2000, 2011))
    filters = [
        {"region": data.draw(st.sampled_from(REGIONS[:2]))},
        {"development": data.draw(st.sampled_from(["developed", "developing"])),
         "developed_countries": development_split(panel)[0]},
        {"year_range": (first, data.draw(st.integers(first, 2011)))},
    ]
    chosen = data.draw(st.lists(st.sampled_from(filters), min_size=1, max_size=3,
                                unique_by=id))
    at_once = {key: value for f in chosen for key, value in f.items()}
    nested = panel
    for f in data.draw(st.permutations(chosen)):
        nested = _stratify_or_none(nested, **f)
    assert nested == _stratify_or_none(panel, **at_once)


def _stratify_or_none(panel, **filters):
    """stratify(panel, **filters), or None for None or an empty selection."""
    if panel is None:
        return None
    try:
        return stratify(panel, **filters)
    except ValueError as exc:
        assert "selects no observations" in str(exc)
        return None
