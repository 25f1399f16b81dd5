import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sybilcost import costs, oracle, resources
from sybilcost.oracle import (
    AllocationPlan,
    AllocationSemantics,
    OracleScenario,
    PlanBudgetExceeded,
    PlanGrid,
    allocation_semantics,
    closed_form,
    min_cost,
    plan_cost,
    plan_feasible,
    verify_bounds,
)

STAKE = resources.preset("pos-stake")
DEVICE = resources.preset("device-bound")


def partial_spec(alpha, r_min=1.0):
    return resources.ResourceSpec(
        name=f"partial-{alpha}",
        divisible=True,
        additive_influence=True,
        temporally_reusable=True,
        identity_transferable=None,
        alpha=alpha,
        r_min=r_min,
    )


def bounded_spec(k, r_min=1.0):
    return resources.ResourceSpec(
        name=f"bounded-{k}",
        divisible=True,
        additive_influence=True,
        temporally_reusable=None,
        identity_transferable=True,
        k=k,
        r_min=r_min,
    )


def test_reusable_stock_is_acquired_once():
    result = min_cost(OracleScenario(s=2, T=3, spec=STAKE))
    assert result.min_cost == 2.0
    assert result.witness.acquisitions == (2.0, 0.0, 0.0)


def test_window_local_flow_renews_every_window():
    result = min_cost(OracleScenario(s=2, T=3, spec=DEVICE))
    assert result.min_cost == 6.0
    assert result.witness.acquisitions == (2.0, 2.0, 2.0)


def test_empty_attack_is_free():
    result = min_cost(OracleScenario(s=0, T=3, spec=STAKE))
    assert result.min_cost == 0.0
    assert result.witness.identities == ((), (), ())
    assert result.plans_examined == 0


def test_coordination_is_added_to_the_plan_cost():
    scenario = OracleScenario(s=2, T=3, spec=STAKE, coordination=costs.LINEAR_COORDINATION)
    result = min_cost(scenario)
    assert result.min_cost == 2.0 + 5.0


def test_witness_prefers_fewer_identities():
    # s active units can be met by one identity holding everything.
    result = min_cost(OracleScenario(s=3, T=1, spec=STAKE))
    assert result.witness.identities[0] == (3.0,)


def test_device_witness_respects_channel_capacity():
    result = min_cost(OracleScenario(s=3, T=2, spec=DEVICE))
    for window in result.witness.identities:
        assert all(value <= DEVICE.tau for value in window)


def test_plan_budget_ceiling_is_enforced():
    scenario = OracleScenario(s=4, T=2, spec=STAKE)
    grid = PlanGrid.for_scenario(scenario, ceiling=10)
    with pytest.raises(PlanBudgetExceeded):
        min_cost(scenario, grid=grid)


@pytest.mark.parametrize("field", ["step", "max_value", "max_identities", "ceiling"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_plan_grid_numbers_must_be_finite(field, value):
    fields = {**dict(step=0.5, max_value=2.0, max_identities=3), field: value}
    # The two counts must be integers, which no non-finite float is.
    kind = "an integer" if field in ("max_identities", "ceiling") else "finite"
    with pytest.raises(ValueError, match=f"{field} must be {kind}"):
        PlanGrid(**fields)


def test_infeasible_grid_is_reported():
    scenario = OracleScenario(s=2, T=1, spec=STAKE)
    grid = PlanGrid(step=0.5, max_value=0.5, max_identities=1, ceiling=10_000)
    with pytest.raises(ValueError):
        min_cost(scenario, grid=grid)


def test_semantics_for_each_class():
    assert allocation_semantics(STAKE) is AllocationSemantics.REUSABLE
    assert allocation_semantics(DEVICE) is AllocationSemantics.WINDOW_LOCAL
    assert allocation_semantics(partial_spec(0.5)) is AllocationSemantics.PARTIAL_TRANSFER
    assert allocation_semantics(bounded_spec(2)) is AllocationSemantics.BOUNDED_REUSE


def test_semantics_rejects_unclassifiable_specs():
    social = resources.preset("social-graph")
    with pytest.raises(ValueError):
        allocation_semantics(social)
    with pytest.raises(ValueError):
        min_cost(OracleScenario(s=0, T=1, spec=social))


def test_semantics_rejects_combined_overrides():
    spec = resources.ResourceSpec(
        name="both-overrides",
        divisible=True,
        additive_influence=True,
        temporally_reusable=None,
        identity_transferable=None,
        alpha=0.5,
        k=2,
        r_min=1.0,
    )
    with pytest.raises(ValueError):
        allocation_semantics(spec)


# --- plans ----------------------------------------------------------------


def test_plan_cost_window_local():
    plan = AllocationPlan(
        windows=3,
        identities=((1.0, 1.0),) * 3,
        acquisitions=(2.0, 2.0, 2.0),
    )
    assert plan_cost(plan, OracleScenario(s=2, T=3, spec=DEVICE)) == 6.0


def test_plan_cost_reusable():
    plan = AllocationPlan(
        windows=3,
        identities=((2.0,),) * 3,
        acquisitions=(2.0, 0.0, 0.0),
    )
    assert plan_cost(plan, OracleScenario(s=2, T=3, spec=STAKE)) == 2.0


def test_plan_cost_bounded_reuse_renews_on_expiry():
    plan = AllocationPlan(
        windows=4,
        identities=((1.0,),) * 4,
        acquisitions=(1.0, 0.0, 1.0, 0.0),
    )
    scenario = OracleScenario(s=1, T=4, spec=bounded_spec(2))
    assert plan_cost(plan, scenario) == 2.0
    assert plan_feasible(plan, scenario)


def test_bounded_reuse_expiry_is_enforced():
    plan = AllocationPlan(
        windows=4,
        identities=((1.0,),) * 4,
        acquisitions=(1.0, 0.0, 0.0, 1.0),
    )
    assert not plan_feasible(plan, OracleScenario(s=1, T=4, spec=bounded_spec(2)))


def test_reusable_plan_cannot_allocate_before_acquiring():
    plan = AllocationPlan(
        windows=2,
        identities=((2.0,),) * 2,
        acquisitions=(0.0, 2.0),
    )
    assert not plan_feasible(plan, OracleScenario(s=2, T=2, spec=STAKE))


def test_window_local_plan_rejects_over_capacity_allocations():
    plan = AllocationPlan(
        windows=1,
        identities=((2.0,),),
        acquisitions=(2.0,),
    )
    assert not plan_feasible(plan, OracleScenario(s=2, T=1, spec=DEVICE))


def test_partial_transfer_requires_topping_up_the_burned_share():
    scenario = OracleScenario(s=2, T=2, spec=partial_spec(0.5))
    good = AllocationPlan(
        windows=2,
        identities=((2.0,),) * 2,
        acquisitions=(2.0, 1.0),
    )
    assert plan_feasible(good, scenario)
    assert plan_cost(good, scenario) == 3.0
    skimped = dataclasses.replace(good, acquisitions=(2.0, 0.5))
    assert not plan_feasible(skimped, scenario)


def test_plan_below_influence_target_is_infeasible():
    plan = AllocationPlan(windows=1, identities=((1.0,),), acquisitions=(1.0,))
    assert not plan_feasible(plan, OracleScenario(s=2, T=1, spec=STAKE))


def test_inactive_identities_do_not_count():
    # Two identities each below r_min reach the aggregate but not the target.
    plan = AllocationPlan(windows=1, identities=((0.75, 0.75),), acquisitions=(1.5,))
    scenario = OracleScenario(s=1, T=1, spec=dataclasses.replace(STAKE, r_min=1.0))
    assert not plan_feasible(plan, scenario)


def test_plan_shape_must_match_scenario():
    plan = AllocationPlan(windows=2, identities=((1.0,),) * 2, acquisitions=(1.0, 0.0))
    with pytest.raises(ValueError):
        plan_feasible(plan, OracleScenario(s=1, T=3, spec=STAKE))


def test_plan_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        AllocationPlan(windows=2, identities=((1.0,),), acquisitions=(1.0, 0.0))
    with pytest.raises(ValueError):
        AllocationPlan(windows=1, identities=((-1.0,),), acquisitions=(1.0,))


# --- equivalence with the closed forms -------------------------------------


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0.5, 1.0, 2.0]),
)
def test_oracle_agrees_with_stock_law(s, T, r_min):
    spec = dataclasses.replace(STAKE, r_min=r_min)
    found = min_cost(OracleScenario(s=s, T=T, spec=spec)).min_cost
    assert found == costs.cost_parallelizable(s, T, r_min).total


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0.5, 1.0, 2.0]),
)
def test_oracle_agrees_with_renewal_law(s, T, r_min):
    spec = dataclasses.replace(DEVICE, r_min=r_min, tau=r_min)
    found = min_cost(OracleScenario(s=s, T=T, spec=spec)).min_cost
    assert found == costs.cost_throughput_bounded(s, T, r_min).total


@pytest.mark.parametrize(
    "spec, law",
    [
        (STAKE, lambda s, T: costs.cost_parallelizable(s, T, 1.0).total),
        (DEVICE, lambda s, T: costs.cost_throughput_bounded(s, T, 1.0).total),
        (partial_spec(0.5), lambda s, T: costs.cost_partial_transferability(s, T, 1.0, 0.5).model_cost),
        (bounded_spec(2), lambda s, T: costs.cost_bounded_reuse(s, T, 1.0, 2).total),
    ],
    ids=["reusable", "window-local", "partial-transfer", "bounded-reuse"],
)
def test_closed_form_is_each_semantics_law(spec, law):
    for s, T in ((0, 2), (2, 3), (3, 4)):
        scenario = OracleScenario(s=s, T=T, spec=spec)
        assert closed_form(scenario) == law(s, T) == min_cost(scenario).min_cost


@pytest.mark.parametrize("spec", [STAKE, DEVICE, partial_spec(0.5), bounded_spec(2)])
def test_closed_form_carries_the_overhead_every_plan_pays(spec):
    scenario = OracleScenario(s=2, T=3, spec=spec, coordination=costs.LINEAR_COORDINATION)
    free = dataclasses.replace(scenario, coordination=costs.ZERO_COORDINATION)
    assert closed_form(scenario) == closed_form(free) + 5.0 == min_cost(scenario).min_cost


def test_verify_bounds_passes_on_witnesses():
    for spec in (STAKE, DEVICE, partial_spec(0.5), bounded_spec(2)):
        scenario = OracleScenario(s=2, T=3, spec=spec)
        report = verify_bounds(min_cost(scenario), scenario)
        assert report.passed, [check for check in report.checks if not check.passed]


def test_verify_bounds_flags_a_wrong_minimum():
    scenario = OracleScenario(s=2, T=3, spec=DEVICE)
    result = min_cost(scenario)
    forged = dataclasses.replace(result, min_cost=result.min_cost / 2)
    report = verify_bounds(forged, scenario)
    assert not report.passed


def test_witnesses_are_always_feasible():
    for spec in (STAKE, DEVICE, partial_spec(0.25), bounded_spec(3)):
        for s in (1, 2, 3):
            scenario = OracleScenario(s=s, T=3, spec=spec)
            result = min_cost(scenario)
            assert plan_feasible(result.witness, scenario)
            assert plan_cost(result.witness, scenario) == result.min_cost


def test_plans_examined_counts_grid_configurations():
    scenario = OracleScenario(s=2, T=3, spec=STAKE)
    result = min_cost(scenario)
    grid = PlanGrid.for_scenario(scenario)
    assert result.plans_examined == grid.configuration_count()
