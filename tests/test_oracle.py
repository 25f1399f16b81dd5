import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sybilcost import costs, law, oracle, plans, resources, verification
from sybilcost.oracle import (
    AllocationPlan,
    AllocationSemantics,
    OracleScenario,
    allocation_semantics,
    min_cost,
    plan_cost,
    plan_feasible,
    verify_bounds,
)
from sybilcost.plans import PlanBudgetExceeded, PlanGrid

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
    scenario = OracleScenario(s=2, T=3, spec=STAKE, coordination=law.LINEAR_COORDINATION)
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


def test_the_plan_ceiling_and_its_refusal_are_laws_own():
    # `plans` and `oracle` re-export them, and the benchmark tracer reads `oracle`'s.
    assert plans.PlanBudgetExceeded is oracle.PlanBudgetExceeded is law.PlanBudgetExceeded
    assert plans.DEFAULT_PLAN_CEILING == law.DEFAULT_PLAN_CEILING == 10_000_000
    assert PlanGrid.for_window(1, STAKE).ceiling == law.DEFAULT_PLAN_CEILING


@pytest.mark.parametrize(
    "spec, s, max_value",
    [(STAKE, 0, 0.5), (STAKE, 1, 1.0), (STAKE, 4, 4.0),
     (DEVICE, 0, 1.0), (DEVICE, 1, 1.0), (DEVICE, 4, 4.0)],
)
def test_the_window_grid_reads_s_and_the_spec(spec, s, max_value):
    # r_min = 1 and tau None or 1: step r_min / 2, top max(tau, s * r_min, step), s + 2 identities.
    grid = PlanGrid.for_window(s, spec)
    assert grid == PlanGrid(step=0.5, max_value=max_value, max_identities=s + 2)
    assert oracle.best_window(s, spec) == oracle.best_window(s, spec, grid)
    for bad in (-1, True):
        with pytest.raises(ValueError, match="s must be a nonnegative integer"):
            PlanGrid.for_window(bad, spec)


def test_plan_budget_ceiling_is_enforced():
    scenario = OracleScenario(s=4, T=2, spec=STAKE)
    grid = PlanGrid.for_window(4, STAKE, ceiling=10)
    with pytest.raises(PlanBudgetExceeded):
        min_cost(scenario, grid=grid)


@pytest.mark.parametrize("s, fielded", [(0, 0), (3, 1)])
def test_the_witness_ceiling_counts_allocations_and_acquisitions(s, fielded):
    # T windows of `fielded` allocations and one acquisition each fit exactly;
    # the grid has 4 configurations, below either ceiling.
    scenario = OracleScenario(s=s, T=5, spec=STAKE)
    grid = PlanGrid(step=1.0, max_value=3.0, max_identities=1, ceiling=5 * (fielded + 1))
    assert len(min_cost(scenario, grid=grid).witness.identities[0]) == fielded
    tight = dataclasses.replace(grid, ceiling=grid.ceiling - 1)
    with pytest.raises(PlanBudgetExceeded, match="witness"):
        min_cost(scenario, grid=tight)


# A horizon must also hold at least one window.
@pytest.mark.parametrize(
    "value, field", [*itertools.product([2.5, 2.0, True], ["s", "T"]), (0, "T")]
)
def test_scenario_counts_must_be_integers(field, value):
    fields = {**dict(s=2, T=2), field: value}
    with pytest.raises(ValueError, match=f"{field} must be"):
        OracleScenario(spec=STAKE, **fields)


@pytest.mark.parametrize("field", ["step", "max_value", "max_identities", "ceiling"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_plan_grid_numbers_must_be_finite(field, value):
    fields = {**dict(step=0.5, max_value=2.0, max_identities=3), field: value}
    # The two counts must be integers, which no non-finite float is.
    kind = "an integer" if field in ("max_identities", "ceiling") else "finite"
    with pytest.raises(ValueError, match=f"{field} must be {kind}"):
        PlanGrid(**fields)


@pytest.mark.parametrize("field, value", [("step", 0.0), ("max_identities", 0), ("ceiling", 0)])
def test_plan_grid_step_and_counts_must_be_positive(field, value):
    fields = {**dict(step=0.5, max_value=2.0, max_identities=3), field: value}
    with pytest.raises(ValueError, match=f"{field} must be"):
        PlanGrid(**fields)


def test_infeasible_grid_is_reported():
    scenario = OracleScenario(s=2, T=1, spec=STAKE)
    grid = PlanGrid(step=0.5, max_value=0.5, max_identities=1, ceiling=10_000)
    with pytest.raises(ValueError):
        min_cost(scenario, grid=grid)


def test_semantics_for_each_class():
    assert allocation_semantics(STAKE) is AllocationSemantics.REUSABLE
    assert allocation_semantics(DEVICE) is AllocationSemantics.WINDOW_LOCAL
    assert allocation_semantics(resources.preset("pow-energy")) is AllocationSemantics.WINDOW_LOCAL
    assert allocation_semantics(partial_spec(0.5)) is AllocationSemantics.PARTIAL_TRANSFER
    assert allocation_semantics(bounded_spec(2)) is AllocationSemantics.BOUNDED_REUSE


def test_semantics_rejects_unclassifiable_specs():
    social = resources.preset("social-graph")
    with pytest.raises(ValueError):
        allocation_semantics(social)
    with pytest.raises(ValueError):
        min_cost(OracleScenario(s=0, T=1, spec=social))
    # The rule is checked before the window search, so a grid past the
    # ceiling still reads as this usage error, not as a budget refusal.
    scenario = OracleScenario(s=30, T=1, spec=social)
    with pytest.raises(ValueError, match="no carry-over rule"):
        min_cost(scenario, PlanGrid.for_window(30, social, ceiling=10))


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


# --- the carry-over rule from the four property flags ---------------------


def flag_specs():
    """Every constructible combination of the four flags and the throughput marker."""
    for divisible, additive, reusable, transferable, bounded in itertools.product(
        (True, False), repeat=5
    ):
        if bounded and (reusable or transferable):
            continue  # a throughput-bounded spec is window-local and non-transferable
        yield resources.ResourceSpec(
            name="flags",
            divisible=divisible,
            additive_influence=additive,
            temporally_reusable=reusable,
            identity_transferable=transferable,
            throughput_bounded=bounded,
            tau=2.0 if bounded else None,
        )


def test_flag_table_gives_each_combination_its_rule_law_and_scaling():
    specs = list(flag_specs())
    assert len(specs) == 20
    for spec in specs:
        if not (spec.throughput_bounded or (spec.divisible and spec.additive_influence)):
            with pytest.raises(ValueError, match="no carry-over rule"):
                resources.carry_over(spec, 3)
            with pytest.raises(ValueError, match="no carry-over rule"):
                min_cost(OracleScenario(1, 3, spec))
            assert resources.scaling_label(spec) == "no closed form", spec
            continue
        # Transfer keeps the alpha = 1 share, reuse keeps it for k = T windows;
        # so non-transferable reusable stock is (0, T): nothing survives
        # redeployment, and it is bought again every window.
        for T in (1, 2, 3):
            alpha = 1.0 if spec.identity_transferable else 0.0
            assert resources.carry_over(spec, T) == (alpha, T if spec.temporally_reusable else 1)
        minima = {}
        for s in range(4):
            for T in (1, 2, 3):
                scenario = OracleScenario(s, T, spec)
                result = min_cost(scenario)
                rule = resources.carry_over(spec, T)
                expected = law.cost_carry_over(s, T, spec.r_min, *rule, scenario.coordination)
                assert result.min_cost == expected.total, (spec, s, T)
                assert verify_bounds(result, scenario).passed, (spec, s, T)
                minima[s, T] = result.min_cost
        # o(sT) exactly when all four properties hold: flat in T.  Otherwise
        # the first identity costs r_min in every window.
        amortizable = resources.is_parallelizable(spec)
        for s in range(1, 4):
            assert all(minima[s, T] == minima[s, 1] for T in (2, 3)) is amortizable, spec
        if not amortizable:
            assert all(minima[1, T] - minima[0, T] == spec.r_min * T for T in (1, 2, 3)), spec
        # The label names that growth: flat, or linear in T per identity.
        renewed = "Omega(sT)" if spec.throughput_bounded else "linear in T"
        assert resources.scaling_label(spec) == ("o(sT)" if amortizable else renewed), spec


def mixed_spec(**overrides):
    return dataclasses.replace(STAKE, name="mixed", **overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        # Window-local with a transferable share: nothing outlives its window.
        dict(temporally_reusable=False, identity_transferable=None, alpha=0.5),
        # Non-transferable with bounded reuse: no share survives redeployment.
        dict(identity_transferable=False, temporally_reusable=None, k=2),
    ],
)
def test_mixed_specs_pay_every_window(overrides):
    scenario = OracleScenario(s=3, T=4, spec=mixed_spec(**overrides))
    result = min_cost(scenario)
    rule = resources.carry_over(scenario.spec, 4)
    assert result.min_cost == law.cost_carry_over(3, 4, 1.0, *rule, scenario.coordination).total
    assert result.min_cost == 12.0
    assert verify_bounds(result, scenario).passed


def test_a_one_window_rule_charges_only_live_deployments():
    # alpha = 0.5 on a window-local spec is the rule (0.5, 1).
    scenario = OracleScenario(
        s=2, T=3, spec=mixed_spec(temporally_reusable=False, identity_transferable=None, alpha=0.5)
    )
    uniform = AllocationPlan(3, ((2.0,),) * 3, (2.0, 2.0, 2.0))
    skimped = AllocationPlan(3, ((2.0,),) * 3, (2.0, 1.0, 2.0))
    assert plan_feasible(uniform, scenario)
    assert not plan_feasible(skimped, scenario)


# --- an independent reference for the flag -> rule mapping ---------------
#
# `min_cost` and `plan_feasible` both take (alpha, k) from `carry_over`, so
# neither can see that mapping go wrong.  This reference reads the spec's own
# fields instead and simulates the resource in exact grid units: a purchase
# is a lot usable for `life` windows counting the one it is bought in (T for
# reusable stock, 1 for window-local, k when reuse is bounded), and each
# deployment uses up the share of what it fielded that does not transfer to a
# new identity (all for non-transferable resource, none for transferable,
# 1 - alpha when transfer is partial), drawn from the soonest-expiring lots.
# The draw order decides nothing here: every spec compared keeps all or none
# of a deployment, or holds its lots for the whole horizon or one window.


def reference_minimum(spec, s, T):
    """The least total purchase over per-window aggregates and purchases, exact."""
    life = spec.k if spec.k is not None else (T if spec.temporally_reusable else 1)
    kept = Fraction(spec.alpha if spec.alpha is not None else int(spec.identity_transferable))
    # One grid unit is `per_unit` sub-units, so the used-up share of any whole
    # number of units is a whole number of sub-units.
    per_unit = kept.denominator
    r_min = Fraction(spec.r_min)
    step = r_min / 2
    lo = math.ceil(r_min / step)
    need, most = s * lo, s + 2
    top = max(r_min * s, step, Fraction(spec.tau or 0))
    hi = math.floor((top if spec.tau is None else Fraction(spec.tau)) / step)
    # A window fields j identities in [lo, hi] and the rest below lo: the
    # aggregates from the target up to one threshold over it that it can reach.
    aggregates = [
        a * per_unit
        for a in range(need, need + lo + 1)
        if any(max(need, j * lo) <= a <= j * hi + (most - j) * (lo - 1) for j in range(most + 1))
    ]

    @functools.cache
    def cheapest(t, lots):
        """Least purchase from window t on, holding (last usable window, amount) lots."""
        if t == T:
            return 0
        held = sum(amount for _, amount in lots)
        last = min(t + life, T) - 1
        best = math.inf
        for a in aggregates:
            short = max(0, a - held)
            # Buy what the window lacks and up to one more aggregate ahead.
            for bought in range(short, short + a + 1):
                merged = dict(lots)
                merged[last] = merged.get(last, 0) + bought
                used = int((1 - kept) * a)
                left = []
                for expiry, amount in sorted(merged.items()):
                    draw = min(amount, used)
                    used -= draw
                    if expiry > t and amount > draw:
                        left.append((expiry, amount - draw))
                best = min(best, bought + cheapest(t + 1, tuple(left)))
        return best

    return cheapest(0, ()) * step / per_unit


def verify_all_specs(r_min, T):
    """The specs `verify_all` searches at one threshold and horizon, all four semantics."""
    stake = dataclasses.replace(STAKE, name=f"stake-r{r_min}", r_min=r_min)
    yield stake
    yield dataclasses.replace(DEVICE, name=f"device-r{r_min}", r_min=r_min, tau=r_min)
    for alpha in (0.0, 0.5, 1.0):
        yield dataclasses.replace(stake, identity_transferable=None, alpha=alpha)
    for k in sorted({1, 2, T}):
        yield dataclasses.replace(stake, temporally_reusable=None, k=k)


def test_the_flag_reference_prices_every_verify_all_instance_like_the_search():
    compared = 0
    for r_min, s, T in itertools.product(
        verification._VERIFY_THRESHOLDS, verification._VERIFY_TARGETS,
        verification._VERIFY_HORIZONS,
    ):
        for spec in verify_all_specs(r_min, T):
            expected = reference_minimum(spec, s, T)
            assert min_cost(OracleScenario(s, T, spec)).min_cost == float(expected), (spec, s, T)
            compared += 1
    assert compared == 360


def test_the_flag_reference_prices_the_flag_table_like_the_search():
    compared = 0
    for spec in flag_specs():
        if not (spec.throughput_bounded or (spec.divisible and spec.additive_influence)):
            continue
        for s, T in itertools.product(range(4), (1, 2, 3)):
            expected = reference_minimum(spec, s, T)
            assert min_cost(OracleScenario(s, T, spec)).min_cost == float(expected), (spec, s, T)
            compared += 1
    assert compared == 8 * 12


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
    # nan is not nonnegative either: the accounting has no exact sum for it.
    with pytest.raises(ValueError, match="identity allocations must be nonnegative"):
        AllocationPlan(windows=1, identities=((math.nan,),), acquisitions=(1.0,))
    with pytest.raises(ValueError, match="acquisitions must be nonnegative"):
        AllocationPlan(windows=1, identities=((1.0,),), acquisitions=(math.nan,))


@pytest.mark.parametrize("windows", [-1, 2.0, True])
def test_plan_windows_must_be_a_count(windows):
    with pytest.raises(ValueError, match="windows must be a nonnegative integer"):
        AllocationPlan(windows=windows, identities=((1.0,),) * 2, acquisitions=(1.0, 0.0))


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
        assert law(s, T) == min_cost(scenario).min_cost


@pytest.mark.parametrize("spec", [STAKE, DEVICE, partial_spec(0.5), bounded_spec(2)])
def test_closed_form_carries_the_overhead_every_plan_pays(spec):
    scenario = OracleScenario(s=2, T=3, spec=spec, coordination=law.LINEAR_COORDINATION)
    rule = resources.carry_over(spec, 3)
    linear = law.cost_carry_over(2, 3, spec.r_min, *rule, law.LINEAR_COORDINATION).total
    free = law.cost_carry_over(2, 3, spec.r_min, *rule, law.ZERO_COORDINATION).total
    assert linear == free + 5.0 == min_cost(scenario).min_cost


# --- the abstract's separation, read from oracle minima alone ---------------

THEOREM_HORIZONS = (1, 2, 3, 4, 16, 64, 1000)


def _slack(*weighted):
    """Half an ulp of each weighted float: the error of a sum of once-rounded minima."""
    return sum(Fraction(abs(weight)) * Fraction(math.ulp(value)) / 2 for weight, value in weighted)


# Thresholds over six orders of magnitude, under each coordination overhead: the
# amortization holds regardless of protocol design.  The zero-overhead cases keep
# their bare threshold ids.
THEOREM_CASES = [
    pytest.param(r_min, coordination,
                 id=str(r_min) if coordination is law.ZERO_COORDINATION
                 else f"{r_min}-{coordination.value}")
    for coordination in law.CoordinationModel
    for r_min in (0.5, 1.0, 0.7, 2.0 ** -10, 2.0 ** 10)
]


@pytest.mark.parametrize("r_min, coordination", THEOREM_CASES)
def test_oracle_minima_separate_the_scaling_classes(r_min, coordination):
    # s <= 4.  Each statement is made on C - h(s, T), with h exact.  It is exact
    # on a dyadic threshold; on 0.7 it holds within the rounding of the minima
    # it combines.
    r, alpha = Fraction(r_min), Fraction(1, 2)
    specs = {
        "par": dataclasses.replace(STAKE, r_min=r_min),
        "bnd": dataclasses.replace(DEVICE, r_min=r_min, tau=r_min),
        "partial": partial_spec(float(alpha), r_min),
        "reuse": bounded_spec(3, r_min),
    }
    per_unit = {
        "par": lambda T: r,
        "bnd": lambda T: r * T,
        "partial": lambda T: r * ((1 - alpha) * T + alpha),
        "reuse": lambda T: r * -(-T // 3),
    }
    M = {
        (name, s, T): min_cost(OracleScenario(s=s, T=T, spec=spec,
                                              coordination=coordination)).min_cost
        for name, spec in specs.items()
        for s in range(5)
        for T in THEOREM_HORIZONS
    }

    def C(name, s, T):
        return Fraction(M[name, s, T]) - Fraction(coordination.evaluate(s, T))

    dyadic = r_min != 0.7
    misses = []

    def check(label, got, exact, *weighted):
        if abs(got - exact) > (0 if dyadic else _slack(*weighted)):
            misses.append((label, got, exact))

    for s in range(1, 5):
        for T in THEOREM_HORIZONS:
            # Parallelizable stock is flat in T, so C = o(sT).
            check(("flat", s, T), C("par", s, T), C("par", s, 1),
                  (1, M["par", s, T]), (1, M["par", s, 1]))
            # Delta(s, T) per class: r_min, r_min * T (so C = Omega(sT)), and in between.
            for name, unit in per_unit.items():
                check((name, s, T), C(name, s, T) - C(name, s - 1, T), unit(T),
                      (1, M[name, s, T]), (1, M[name, s - 1, T]))
            # The two classes' costs are in the exact ratio T.
            check(("ratio", s, T), C("bnd", s, T), T * C("par", s, T),
                  (1, M["bnd", s, T]), (T, M["par", s, T]))
    assert misses == []


def _k_minus_one(spec, T):
    alpha, k = resources.carry_over(spec, T)
    return alpha, k if spec.k is None else max(1, spec.k - 1)


def _alpha_halved(spec, T):
    alpha, k = resources.carry_over(spec, T)
    return alpha if spec.alpha is None else spec.alpha / 2, k


@pytest.mark.parametrize(
    "misread, failed", [(_k_minus_one, 60), (_alpha_halved, 72)], ids=["k-minus-1", "alpha-halved"]
)
def test_verify_all_catches_a_misread_carry_over_rule(monkeypatch, misread, failed):
    # The search reads its rule through `oracle.carry_over`; verify_all prices
    # each law at the alpha or k its grid built, so a misread rule cannot
    # shift both sides together.
    monkeypatch.setattr(oracle, "carry_over", misread)
    groups = {name: (count, len(failures)) for name, count, failures in verification.verify_all()}
    assert groups.pop("intermediate-regimes") == (528, failed)
    assert all(failures == 0 for _count, failures in groups.values())


def test_verify_all_catches_a_plan_cost_without_coordination(monkeypatch):
    # The partial-transfer instances are searched under linear coordination, so a
    # witness priced without h(s, T) misses its minimum once per instance.
    monkeypatch.setattr(oracle, "plan_cost", lambda plan, scenario: sum(plan.acquisitions))
    groups = {name: (count, len(failures)) for name, count, failures in verification.verify_all()}
    assert groups.pop("intermediate-regimes") == (528, 144)
    assert all(failures == 0 for _count, failures in groups.values())


def test_verify_all_searches_each_distinct_window_once(monkeypatch):
    # A window reads s, r_min, tau and the grid alone, so each (r_min, s) has a
    # stake and a device window, and its 30 instances are priced from those two.
    calls = {"best_window": 0, "price": 0}
    for name in calls:
        original = getattr(oracle, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(oracle, name, counted)
    groups = {name: (count, len(failures)) for name, count, failures in verification.verify_all()}
    assert calls == {"best_window": 24, "price": 360}
    assert groups == {
        "closed-form-equivalence": (192, 0),
        "marginal-separation": (96, 0),
        "horizon-independence": (36, 0),
        "partition-invariance": (60, 0),
        "monotonicity": (108, 0),
        "intermediate-regimes": (528, 0),
        "crossover-sign": (155, 0),
    }


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


# Thresholds from 1e-300 to billions: at the large ones the witness's float
# sums carry rounding error far above an absolute 1e-9, and at the small ones
# an absolute 1e-9 would exceed the whole minimum.
LARGE_THRESHOLD_CASES = list(
    itertools.product((1e-300, 2**-40, 1e-9, 0.1, 0.7, 1.1, 123.7, 1e6 + 0.1, 3.7e9),
                      (0.3, 0.5, 0.7), (1, 2, 3), (1, 2, 5, 9))
)


def test_verify_bounds_passes_a_correct_search_at_every_magnitude():
    failed = []
    for r_min, alpha, s, T in LARGE_THRESHOLD_CASES:
        scenario = OracleScenario(s, T, partial_spec(alpha, r_min))
        report = verify_bounds(min_cost(scenario), scenario)
        failed += [(r_min, alpha, s, T, c.name) for c in report.checks if not c.passed]
    assert len(LARGE_THRESHOLD_CASES) == 324
    assert failed == []


def test_verify_bounds_flags_a_wrong_minimum_at_every_magnitude():
    for r_min, alpha, s, T in LARGE_THRESHOLD_CASES:
        scenario = OracleScenario(s, T, partial_spec(alpha, r_min))
        result = min_cost(scenario)
        for wrong in (result.min_cost * (1 - 1e-6), result.min_cost * (1 + 1e-6)):
            forged = dataclasses.replace(result, min_cost=wrong)
            assert not verify_bounds(forged, scenario).passed, (r_min, alpha, s, T, wrong)
    # Off by 1.0 at a ten-million total, with the plan short by 1.0 in its first window.
    scenario = OracleScenario(3, 9, partial_spec(0.7, 1e6 + 0.1))
    result = min_cost(scenario)
    for shift, names in ((1.0, {"witness-cost-matches"}),
                         (-1.0, {"witness-cost-matches", "partial-transfer-floor"})):
        forged = dataclasses.replace(result, min_cost=result.min_cost + shift)
        assert {c.name for c in verify_bounds(forged, scenario).checks if not c.passed} == names
    first, *rest = result.witness.acquisitions
    short = dataclasses.replace(result.witness, acquisitions=(first - 1.0, *rest))
    assert plan_feasible(result.witness, scenario)
    assert not plan_feasible(short, scenario)


# The laws are linear in the threshold, and a power of two scales a float
# exactly, so the search must give the same answer in every unit.
SCALE_EXPONENTS = (-1000, -300, -60, -40, -30, -20, -14, -1, 0, 1, 14, 28, 35, 60, 300, 990)
SCALE_SPECS = {
    "reusable": lambda r_min: dataclasses.replace(STAKE, r_min=r_min),
    "window-local": lambda r_min: dataclasses.replace(DEVICE, r_min=r_min, tau=r_min),
    "partial-transfer": lambda r_min: partial_spec(0.5, r_min),
    "bounded-reuse": lambda r_min: bounded_spec(2, r_min),
}


def test_the_search_gives_the_same_answer_in_every_unit():
    failed = []
    cases = 0
    for base, semantics, s, T in itertools.product((1.0, 0.7), SCALE_SPECS, (1, 2, 3), (1, 3)):
        reference = min_cost(OracleScenario(s, T, SCALE_SPECS[semantics](base)))
        for j in SCALE_EXPONENTS:
            cases += 1
            scenario = OracleScenario(s, T, SCALE_SPECS[semantics](math.ldexp(base, j)))
            result = min_cost(scenario)
            wrong = [dataclasses.replace(result, min_cost=result.min_cost * (1 + shift))
                     for shift in (-1e-6, 1e-6)]
            if (result.min_cost != math.ldexp(reference.min_cost, j)
                    or result.plans_examined != reference.plans_examined
                    or not verify_bounds(result, scenario).passed
                    or any(verify_bounds(forged, scenario).passed for forged in wrong)):
                failed.append((base, j, semantics, s, T))
    assert cases == 768
    assert failed == []


def test_a_finite_plan_never_reaches_a_target_past_the_float_range():
    scenario = OracleScenario(10, 1, dataclasses.replace(STAKE, r_min=1e308))
    assert scenario.target == math.inf
    assert not plan_feasible(AllocationPlan(1, ((1e308,),), (1e308,)), scenario)


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
    grid = PlanGrid.for_window(2, STAKE)
    assert result.plans_examined == grid.configuration_count()
