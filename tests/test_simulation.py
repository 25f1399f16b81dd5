import pytest
from hypothesis import given
from hypothesis import strategies as st

from sybilcost import resources, simulation
from sybilcost.simulation import ScenarioConfig, influence_share, non_amplification_experiment, run

STAKE = resources.preset("pos-stake")
DEVICE = resources.preset("device-bound")


def test_share_is_capped_by_channel_count():
    assert influence_share(m=100, s=400, n=200) == pytest.approx(1 / 3)
    # Identity count beyond the channel count changes nothing.
    assert influence_share(m=100, s=1000, n=200) == influence_share(m=100, s=400, n=200)


def test_share_with_no_channels_is_zero():
    assert influence_share(m=0, s=500, n=200) == 0.0


def test_share_rejects_negative_counts():
    with pytest.raises(ValueError):
        influence_share(m=-1, s=5, n=5)


def test_share_undefined_without_any_participants():
    with pytest.raises(ValueError):
        influence_share(m=0, s=0, n=0)


def test_throughput_run_renews_cost_every_window():
    config = ScenarioConfig(n_honest=200, m=50, s=400, T=10, spec=DEVICE)
    trace = run(config)
    assert len(trace.per_window) == 10
    assert all(row.share == pytest.approx(0.2) for row in trace.per_window)
    assert all(row.active_identities == 50 for row in trace.per_window)
    assert trace.total_cost == 50 * 10 * DEVICE.r_min


def test_parallelizable_run_pays_once():
    config = ScenarioConfig(n_honest=200, m=0, s=400, T=10, spec=STAKE)
    trace = run(config)
    assert all(row.share == pytest.approx(400 / 600) for row in trace.per_window)
    assert trace.per_window[0].window_cost == 400 * STAKE.r_min
    assert all(row.window_cost == 0.0 for row in trace.per_window[1:])
    assert trace.total_cost == 400 * STAKE.r_min


def test_empty_attack_has_no_influence():
    config = ScenarioConfig(n_honest=200, m=50, s=0, T=5, spec=DEVICE)
    trace = run(config)
    assert all(row.share == 0.0 for row in trace.per_window)
    assert trace.total_cost == 0.0


def test_run_rejects_unclassifiable_resources():
    config = ScenarioConfig(n_honest=10, m=1, s=1, T=1, spec=resources.preset("social-graph"))
    with pytest.raises(ValueError):
        run(config)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(n_honest=-1, m=0, s=1, T=1, spec=STAKE)
    with pytest.raises(ValueError):
        ScenarioConfig(n_honest=1, m=0, s=1, T=0, spec=STAKE)


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=1, max_value=500),
)
def test_share_never_exceeds_channel_fraction(m, s, n):
    share = influence_share(m, s, n)
    assert 0.0 <= share <= 1.0
    assert share <= m / (m + n)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=500))
def test_share_is_monotone_in_identities_until_the_cap(m, n):
    shares = [influence_share(m, s, n) for s in range(0, m + 2)]
    assert shares == sorted(shares)
    assert shares[-1] == shares[-2] or m == 0  # saturated at s = m


def test_identical_share_columns_beyond_the_cap():
    table = non_amplification_experiment(range(10, 201), (400, 700, 1000), 200)
    for row in table.rows:
        assert row[0] == row[1] == row[2]


def test_share_at_equal_channels_and_honest_nodes():
    table = non_amplification_experiment([200], (400,), 200)
    assert table.rows[0][0] == 0.5


def test_experiment_warns_when_identities_do_not_dominate_channels():
    with pytest.warns(UserWarning):
        non_amplification_experiment(range(10, 20), (5,), 100)


def test_experiment_rejects_empty_ranges():
    with pytest.raises(ValueError):
        non_amplification_experiment([], (400,), 200)
    with pytest.raises(ValueError):
        non_amplification_experiment([10], (), 200)


def test_experiment_rejects_a_repeated_identity_count():
    # Shares are keyed by identity count, so a repeat would collapse a column.
    with pytest.raises(ValueError, match="must not repeat"):
        non_amplification_experiment([10], (400, 400), 200)


def test_honest_only_network_has_zero_adversary_share():
    config = ScenarioConfig(n_honest=100, m=0, s=0, T=3, spec=DEVICE)
    trace = run(config)
    assert all(row.total_influence == 100 * DEVICE.r_min for row in trace.per_window)
    assert all(row.share == 0.0 for row in trace.per_window)


def test_simulation_matches_share_helper():
    config = ScenarioConfig(n_honest=77, m=13, s=9, T=2, spec=DEVICE)
    trace = run(config)
    assert trace.per_window[0].share == influence_share(13, 9, 77)
