import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sybilcost import law, resources, simulation
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


def test_a_trace_past_the_plan_ceiling_is_refused_before_its_schedule(monkeypatch):
    # Each row holds six values, so a ceiling of 60 admits ten windows, read at call time.
    monkeypatch.setattr(law, "DEFAULT_PLAN_CEILING", 60)
    assert len(run(ScenarioConfig(n_honest=1, m=0, s=1, T=10, spec=STAKE)).per_window) == 10
    calls = []
    monkeypatch.setattr(law, "acquisition_schedule", lambda *args: calls.append(args))
    with pytest.raises(law.PlanBudgetExceeded, match="a trace of 66 values exceeds the ceiling of 60"):
        run(ScenarioConfig(n_honest=1, m=0, s=1, T=11, spec=STAKE))
    assert calls == []


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


def test_spent_energy_activates_every_identity_and_renews_every_window():
    config = ScenarioConfig(n_honest=10, m=1, s=3, T=4, spec=resources.preset("pow-energy"))
    trace = run(config)
    # Not throughput-bounded, so the channel count caps nothing.
    assert all(row.active_identities == 3 for row in trace.per_window)
    assert [row.window_cost for row in trace.per_window] == [3.0] * 4
    assert trace.total_cost == 12.0


def test_total_cost_is_the_law_at_the_carry_over_rule():
    # The schedule's float sum misses the law in the last bit at non-dyadic
    # thresholds (84.70000000000002 for spent energy at r_min=1.1, s=7, T=11);
    # the total is the law's exactly rounded value, as `sybilcost cost` prints it.
    specs = (DEVICE, STAKE, resources.preset("pow-energy"))
    misses = []
    for spec, r_min, s, T in itertools.product(
        specs, (0.1, 0.3, 0.7, 1.1, 0.25, 1.0), range(1, 8), range(1, 12)
    ):
        tau = None if spec.tau is None else max(r_min, spec.tau)
        spec = dataclasses.replace(spec, r_min=r_min, tau=tau)
        trace = run(ScenarioConfig(n_honest=3, m=s, s=s, T=T, spec=spec))
        alpha, k = resources.carry_over(spec, T)
        if trace.total_cost != law.cost_carry_over(s, T, r_min, alpha, k).total:
            misses.append((spec.name, r_min, s, T, trace.total_cost))
    assert misses == []


def test_run_rejects_unclassifiable_resources():
    config = ScenarioConfig(n_honest=10, m=1, s=1, T=1, spec=resources.preset("social-graph"))
    with pytest.raises(ValueError):
        run(config)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(n_honest=-1, m=0, s=1, T=1, spec=STAKE)
    with pytest.raises(ValueError):
        ScenarioConfig(n_honest=1, m=0, s=1, T=0, spec=STAKE)


@pytest.mark.parametrize("field", ["s", "T", "n_honest", "m"])
@pytest.mark.parametrize("value", [2.5, 2.0, True])
def test_config_counts_must_be_integers(field, value):
    fields = {**dict(n_honest=1, m=1, s=2, T=2), field: value}
    # The honest count is checked as n, the name the paper and `influence_share` give it.
    label = "n" if field == "n_honest" else field
    with pytest.raises(ValueError, match=f"^{label} must be"):
        ScenarioConfig(spec=STAKE, **fields)


@pytest.mark.parametrize("field", ["m", "s", "n"])
@pytest.mark.parametrize("value", [0.5, 2.0, True])
def test_share_counts_must_be_integers(field, value):
    args = {**dict(m=2, s=2, n=2), field: value}
    with pytest.raises(ValueError, match=f"^{field} must be a nonnegative integer"):
        influence_share(**args)


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
    rows = tuple(non_amplification_experiment(range(10, 201), (400, 700, 1000), 200))
    assert len(rows) == 191
    for row in rows:
        assert row[0] == row[1] == row[2]


def test_every_experiment_cell_is_the_share_helper():
    m_values, s_values = range(1, 13), (0, 3, 7, 12, 20)
    with pytest.warns(UserWarning):
        rows = non_amplification_experiment(m_values, s_values, 5)
    assert tuple(rows) == tuple(
        tuple(influence_share(m, s, 5) for s in s_values) for m in m_values
    )


def test_share_at_equal_channels_and_honest_nodes():
    assert tuple(non_amplification_experiment([200], (400,), 200)) == ((0.5,),)
    assert tuple(non_amplification_experiment(iter([200]), (400,), 200)) == ((0.5,),)


def test_experiment_warns_when_identities_do_not_dominate_channels():
    with pytest.warns(UserWarning):
        non_amplification_experiment(range(10, 20), (5,), 100)


def test_experiment_rejects_empty_ranges():
    with pytest.raises(ValueError):
        non_amplification_experiment([], (400,), 200)
    with pytest.raises(ValueError):
        non_amplification_experiment([10], (), 200)


@pytest.mark.parametrize(
    "m_range, s_values, n, name",
    [(range(1, 5), [10], -1, "n"), ([1.5, 2], [10], 3, "m"), ([1, 2], [10, 2.5], 3, "s")],
)
def test_experiment_checks_its_counts_when_called(m_range, s_values, n, name):
    with pytest.raises(ValueError, match=f"{name} must be a nonnegative integer"):
        non_amplification_experiment(m_range, s_values, n)


def test_experiment_checks_for_a_cell_without_participants_when_called():
    with pytest.raises(ValueError, match="share is undefined"):
        non_amplification_experiment([3, 0], [5], 0)


def test_experiment_rejects_a_repeated_identity_count():
    # Shares are keyed by identity count, so a repeat would collapse a column.
    with pytest.raises(ValueError, match="must not repeat"):
        non_amplification_experiment([10], (400, 400), 200)


def test_honest_only_network_has_zero_adversary_share():
    config = ScenarioConfig(n_honest=100, m=0, s=0, T=3, spec=DEVICE)
    trace = run(config)
    assert all(row.total_influence == 100 * DEVICE.r_min for row in trace.per_window)
    assert all(row.share == 0.0 for row in trace.per_window)


def test_share_is_exactly_rounded_at_a_non_unit_threshold():
    # 0.7 is not dyadic: active * 0.7 / (active * 0.7 + n * 0.7) can miss
    # active / (active + n) in the last bit, but the share is counted, not weighed.
    for spec in (dataclasses.replace(STAKE, r_min=0.7),
                 dataclasses.replace(DEVICE, r_min=0.7, tau=0.7)):
        for active in range(1, 30):
            for n in range(30):
                config = ScenarioConfig(n_honest=n, m=active, s=active, T=1, spec=spec)
                assert run(config).per_window[0].share == active / (active + n)


@pytest.mark.parametrize("spec", [STAKE, DEVICE], ids=["stake", "device"])
def test_total_influence_is_the_exact_product_rounded_once(spec):
    # adversary + n * r_min rounds three times: 3 * 0.1 + 6 * 0.1 is 0.9000000000000001, not 0.9.
    misses = []
    for r_min in (0.1, 0.3, 0.7, 1.1, 0.25, 1.0, 2.0, 0.5, 32.0, 3.7):
        tau = None if spec.tau is None else r_min
        threshold = dataclasses.replace(spec, r_min=r_min, tau=tau)
        for active in range(1, 30):
            for n in range(30):
                config = ScenarioConfig(n_honest=n, m=active, s=active, T=1, spec=threshold)
                total = run(config).per_window[0].total_influence
                if total != float((active + n) * Fraction(r_min)):
                    misses.append((r_min, active, n, total))
    assert misses == []


@pytest.mark.parametrize("spec", [STAKE, DEVICE], ids=["stake", "device"])
def test_a_scenario_without_participants_has_no_share(spec):
    config = ScenarioConfig(n_honest=0, m=0, s=0, T=2, spec=spec)
    with pytest.raises(ValueError, match="share is undefined"):
        run(config)


def test_simulation_matches_share_helper():
    config = ScenarioConfig(n_honest=77, m=13, s=9, T=2, spec=DEVICE)
    trace = run(config)
    assert trace.per_window[0].share == influence_share(13, 9, 77)
