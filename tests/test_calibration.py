import math

import pytest

from sybilcost import calibration, costs
from sybilcost.calibration import CalibrationScenario, btc_tiers, eth_scenario, run_calibration


def series_by(series, tier, law):
    matches = [one for one in series if one.tier == tier and one.law == law]
    assert len(matches) == 1
    return matches[0]


def test_eth_scenario_parameters():
    scenario = eth_scenario()
    assert scenario.r_min == 32.0
    assert dict(scenario.s_tiers) == {"lido": 300_000, "small-operator": 100}
    assert scenario.T_range == (1, 10, 100, 1000)
    assert scenario.supply_reference == 1.2e8
    assert scenario.window_minutes == 6.4


def test_btc_tiers_derive_from_network_shares():
    scenario = btc_tiers()
    sizes = dict(scenario.s_tiers)
    assert sizes == {"pool1": 1650, "pool2": 1550, "pool3": 1200, "pool4": 1150, "small": 50}
    assert scenario.r_min == 1.0
    assert scenario.T_range[0] == 1
    assert scenario.T_range[-1] == 491
    assert len(scenario.T_range) == 50


def test_eth_stock_cost_is_constant_across_horizons():
    series = run_calibration(eth_scenario(), law="par")
    lido = series_by(series, "lido", "par")
    assert all(report.total == 9.6e6 for report in lido.reports)


def test_eth_renewal_cost_reaches_eighty_times_supply():
    scenario = eth_scenario()
    series = run_calibration(scenario, law="bnd")
    lido = series_by(series, "lido", "bnd")
    final = lido.reports[scenario.T_range.index(1000)]
    assert final.total == 9.6e9
    assert 75 <= final.total / scenario.supply_reference <= 85


def test_eth_normalized_renewal_cost_is_the_threshold():
    series = run_calibration(eth_scenario(), law="bnd")
    lido = series_by(series, "lido", "bnd")
    assert all(report.normalized == 32.0 for report in lido.reports)


def test_btc_normalized_ratios_strictly_decrease_with_horizon():
    scenario = btc_tiers()
    series = run_calibration(scenario, law="par", coordination=costs.LINEAR_COORDINATION)
    for one in series:
        ratios = [report.normalized for report in one.reports]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_btc_tier_ordering_is_horizon_invariant():
    # Bigger pools always have the smaller normalized cost under LinearSum.
    scenario = btc_tiers()
    series = run_calibration(scenario, law="par", coordination=costs.LINEAR_COORDINATION)
    ordered = sorted(series, key=lambda one: one.s, reverse=True)
    for index in range(len(scenario.T_range)):
        column = [one.reports[index].normalized for one in ordered]
        assert column == sorted(column)


def test_series_reproduce_cost_engine_outputs_exactly():
    scenario = btc_tiers()
    series = run_calibration(scenario, coordination=costs.LINEAR_COORDINATION)
    for one in series:
        for T, report in zip(scenario.T_range, one.reports):
            if one.law == "par":
                expected = costs.cost_parallelizable(one.s, T, scenario.r_min, costs.LINEAR_COORDINATION)
            else:
                expected = costs.cost_throughput_bounded(one.s, T, scenario.r_min)
            assert report == expected


def test_law_filter():
    series = run_calibration(eth_scenario(), law="par")
    assert {one.law for one in series} == {"par"}
    both = run_calibration(eth_scenario())
    assert {one.law for one in both} == {"par", "bnd"}
    with pytest.raises(ValueError):
        run_calibration(eth_scenario(), law="fastest")


def test_series_are_tier_major_in_declared_order():
    series = run_calibration(eth_scenario())
    assert [(one.tier, one.law) for one in series] == [
        ("lido", "par"),
        ("lido", "bnd"),
        ("small-operator", "par"),
        ("small-operator", "bnd"),
    ]


def test_scenario_requires_descending_tiers():
    with pytest.raises(ValueError):
        CalibrationScenario(
            name="upside-down",
            r_min=1.0,
            s_tiers=(("small", 10), ("large", 100)),
            T_range=(1, 2),
        )


def test_scenario_requires_positive_parameters():
    with pytest.raises(ValueError):
        CalibrationScenario(name="bad", r_min=0.0, s_tiers=(("a", 10),), T_range=(1,))
    with pytest.raises(ValueError):
        CalibrationScenario(name="bad", r_min=1.0, s_tiers=(("a", 0),), T_range=(1,))
    with pytest.raises(ValueError):
        CalibrationScenario(name="bad", r_min=1.0, s_tiers=(("a", 10),), T_range=(0,))


@pytest.mark.parametrize(
    "field", ["r_min", "supply_reference", "window_minutes", "s_tiers", "T_range"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_scenario_numbers_must_be_finite(field, value):
    # Tier sizes and horizons are integer counts: the bad number goes inside the tuple.
    wrapped = {"s_tiers": (("a", value),), "T_range": (value,)}.get(field, value)
    fields = {**dict(name="bad", r_min=1.0, s_tiers=(("a", 10),), T_range=(1,)), field: wrapped}
    message = {
        "s_tiers": "s_tiers sizes must be positive integers",
        "T_range": "T_range must be a nonempty tuple of positive integers",
    }.get(field, f"{field} must be finite and positive")
    with pytest.raises(ValueError, match=message):
        CalibrationScenario(**fields)
