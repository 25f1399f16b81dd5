"""The integer-unit window scan against the float scan and the arithmetic solver, and exactness.

`reference_best_window` is the float brute-force scan the oracle used before
it counted in grid units: it enumerates every multiset of float levels and
compares within FEASIBILITY_EPS relative to each value it compares, the rule
the integer scan applies in exact rationals.  The integer scan must pick the
same configuration and build the same witness.  Off the dyadic grids the float
sums of rounded levels can differ in the last bit where the unit totals tie:
there the reference breaks the tie on rounding error, the integer scan by the
documented rule, and the witness's acquisitions, priced from the exact unit
total, may differ in the last bit.

`arithmetic_best_window` finds the scan's key in O(m) steps, without
enumerating; it is checked against the scan wherever the scan is cheap.
"""

import dataclasses
import gc
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sybilcost import costs, law, oracle, plans, resources, verification
from sybilcost.oracle import (
    FEASIBILITY_EPS,
    AllocationPlan,
    OracleScenario,
    min_cost,
    plan_feasible,
    verify_bounds,
)
from sybilcost.law import acquisition_schedule
from sybilcost.plans import PlanGrid
from sybilcost.resources import carry_over

STAKE = resources.preset("pos-stake")
DEVICE = resources.preset("device-bound")
ENERGY = resources.preset("pow-energy")


def reference_best_window(s, spec, grid):
    """The float scan: (aggregate, active count, descending allocations) or None."""
    count = int(math.floor(grid.max_value * (1 + FEASIBILITY_EPS) / grid.step)) + 1
    levels = tuple(index * grid.step for index in range(count))
    target = s * spec.r_min
    r_min, tau = spec.r_min, spec.tau
    best = None
    for combo in itertools.combinations_with_replacement(levels, grid.max_identities):
        if tau is not None and combo[-1] > tau * (1 + FEASIBILITY_EPS):
            continue
        reached = 0.0
        active = 0
        for value in combo:
            if value >= r_min * (1 - FEASIBILITY_EPS):
                reached += value
                active += 1
        if reached < target * (1 - FEASIBILITY_EPS):
            continue
        key = (sum(combo), active, combo[::-1])
        if best is None or key < best:
            best = key
    return best


def reference_witness(scenario, key):
    aggregate, _active, descending = key
    alpha, k = carry_over(scenario.spec, scenario.T)
    fielded = tuple(value for value in descending if value > 0.0)
    acquisitions = acquisition_schedule(alpha, k, scenario.T, aggregate)
    return AllocationPlan(scenario.T, (fielded,) * scenario.T, acquisitions)


def in_units(key, step):
    """A reference key in grid units, whose levels are exactly units * step."""
    _aggregate, active, descending = key
    units = tuple(round(value / step) for value in descending)
    assert tuple(value * step for value in units) == descending
    return sum(units), active, units


def stake(r_min):
    return dataclasses.replace(STAKE, name=f"stake-r{r_min}", r_min=r_min)


def device(r_min, tau):
    return dataclasses.replace(DEVICE, name=f"device-r{r_min}-t{tau}", r_min=r_min, tau=tau)


def window_specs(r_min):
    """Specs whose window scans differ: no cap, tau = r_min and tau = 2.5 * r_min."""
    return (stake(r_min), device(r_min, r_min), device(r_min, 2.5 * r_min))


def carry_over_specs(r_min, T):
    """The specs `verify_all` searches at one threshold and horizon."""
    base = stake(r_min)
    specs = [
        dataclasses.replace(base, name=f"partial-a{a}", identity_transferable=None, alpha=a)
        for a in (0.0, 0.5, 1.0)
    ]
    specs += [
        dataclasses.replace(base, name=f"bounded-k{k}", temporally_reusable=None, k=k)
        for k in sorted({1, 2, T})
    ]
    return specs


@pytest.mark.parametrize("r_min", verification._VERIFY_THRESHOLDS)
def test_scan_matches_the_float_reference_on_every_verify_all_instance(r_min):
    for s in verification._VERIFY_TARGETS:
        for T in verification._VERIFY_HORIZONS:
            for spec in (*window_specs(r_min), *carry_over_specs(r_min, T)):
                scenario = OracleScenario(s, T, spec)
                grid = PlanGrid.for_window(s, spec)
                expected = reference_best_window(s, spec, grid)
                key = oracle.best_window(s, spec, grid).key
                assert key == in_units(expected, grid.step)
                assert min_cost(scenario).witness == reference_witness(scenario, expected)


def test_level_count_is_the_float_count_it_replaced():
    # plans_examined is pinned, so the exact count must agree with the float
    # floor on every grid the checks use, including steps that do not divide r_min.
    compared = 0
    for r_min in (*verification._VERIFY_THRESHOLDS, 0.1, 0.3, 0.7, 1.1, 0.25, 32.0, 3.7, 0.05):
        specs = (stake(r_min), *(device(r_min, tau * r_min) for tau in (1.0, 1.5, 2.5, 3.3)))
        shares = (0.25, 0.3, 0.5, 0.7, 1.0, 0.1, 0.2, 1 / 3)
        for spec, s, share in itertools.product(specs, range(12), shares):
            grid = PlanGrid.for_window(s, spec, step=share * r_min)
            expected = math.floor(grid.max_value * (1 + FEASIBILITY_EPS) / grid.step) + 1
            assert grid.level_count() == expected
            compared += 1
    assert compared == 5280


@pytest.mark.parametrize("step, holds", [(0.25, True), (0.1, True), (0.3, False), (0.7, False)])
def test_a_grid_holds_r_min_when_a_level_is_within_tolerance(step, holds):
    # 0.1 does not divide 1.0 in binary floating point, but ten steps land within
    # FEASIBILITY_EPS of it, relative to 1.0.
    grid = PlanGrid(step=step, max_value=3.0, max_identities=3)
    assert grid.holds(1.0) is holds
    assert grid.holds(step) and grid.holds(0.0)


# The float reference takes about 3 us a configuration, so the finer grids
# stop at this many.
REFERENCE_SCAN_LIMIT = 60_000


@pytest.mark.parametrize("step", [0.25, 0.3])
@pytest.mark.parametrize("r_min", verification._VERIFY_THRESHOLDS)
def test_scan_matches_the_float_reference_on_other_grid_steps(step, r_min):
    compared = 0
    for s in range(1, 6):
        for spec in window_specs(r_min):
            scenario = OracleScenario(s, 3, spec)
            grid = PlanGrid.for_window(s, spec, step=step)
            if grid.configuration_count() > REFERENCE_SCAN_LIMIT:
                continue
            expected = reference_best_window(s, spec, grid)
            if expected is None:
                with pytest.raises(ValueError, match="no feasible window"):
                    min_cost(scenario, grid)
                continue
            compared += 1
            key = oracle.best_window(s, spec, grid).key
            units = in_units(expected, step)
            assert key[:2] == units[:2]
            if key != units:
                # An exact tie in units that the float sums broke on rounding
                # error; the integer scan takes the documented tie-break.
                assert key[2] < units[2]
                assert sum(value * step for value in key[2]) != expected[0]
                continue
            found = min_cost(scenario, grid).witness
            witness = reference_witness(scenario, expected)
            assert found.identities == witness.identities
            assert found.acquisitions == pytest.approx(witness.acquisitions, rel=1e-15, abs=0)
    assert compared >= 5


# --- the arithmetic window solver ------------------------------------------


def arithmetic_best_window(s, spec, grid):
    """The scan's best key without enumerating: O(m) in the grid's identity count m.

    With j active identities, each in [lo, hi] grid units, the reachable
    aggregates are every integer in [j * lo, j * hi].  So the best key
    (aggregate, active, descending) takes the smallest aggregate
    max(need, j * lo) over the j <= m with j * hi >= need, then the fewest such
    j, then fills greedily, each part max(lo, ceil(rem / parts_left)), and pads
    the other m - j identities with zeros.  lo, need and hi come from
    `_floor_units` exactly as the scan takes them.
    """
    step, m = grid.step, grid.max_identities
    lo = -plans._floor_units(spec.r_min, -1, step)
    need = -plans._floor_units(spec.r_min, -s, step)
    hi = grid.level_count() - 1
    if spec.tau is not None:
        hi = min(hi, plans._floor_units(spec.tau, 1, step))
    if lo > hi:
        return None
    reachable = [(max(need, j * lo), j) for j in range(1, m + 1) if j * hi >= need]
    if not reachable:
        return None
    aggregate, active = min(reachable)
    parts, rem = [], aggregate
    for parts_left in range(active, 0, -1):
        part = max(lo, -(-rem // parts_left))
        parts.append(part)
        rem -= part
    return aggregate, active, (*parts, *(0,) * (m - active))


def solver_specs(r_min):
    """pos-stake and pow-energy, uncapped, and device-bound at three rate limits."""
    return (
        stake(r_min),
        dataclasses.replace(ENERGY, name=f"energy-r{r_min}", r_min=r_min),
        *(device(r_min, share * r_min) for share in (1.0, 2.5, 3.3)),
    )


# Steps r/2 (the default) and r/5, on dyadic and non-dyadic thresholds from
# 2^-40 to 3.7e9; s stops where the scan passes this many configurations.
SOLVER_SCAN_LIMIT = 10_000
SOLVER_THRESHOLDS = (0.5, 1.0, 2.0, 0.1, 0.3, 0.7, 1.1, 2.0**-40, 3.7e9)


def test_arithmetic_solver_matches_the_scan():
    compared = 0
    cases = [(r_min, spec) for r_min in SOLVER_THRESHOLDS for spec in solver_specs(r_min)]
    for (r_min, spec), divisor, s, T in itertools.product(cases, (2, 5), range(1, 6), (1, 3)):
        scenario = OracleScenario(s, T, spec)
        grid = PlanGrid.for_window(s, spec, step=r_min / divisor)
        if grid.configuration_count() > SOLVER_SCAN_LIMIT:
            continue
        solved = arithmetic_best_window(s, spec, grid)
        key = oracle.best_window(s, spec, grid).key
        assert solved == key, (scenario, grid)
        # The witness `min_cost` would build from the solver's key.
        units, _active, descending = solved
        alpha, k = carry_over(scenario.spec, T)
        fielded = tuple([value * grid.step for value in descending if value])
        witness = AllocationPlan(
            T, (fielded,) * T, acquisition_schedule(alpha, k, T, units * grid.step)
        )
        assert min_cost(scenario, grid).witness == witness
        compared += 1
    assert compared == 540


def test_arithmetic_solver_finds_no_window_where_the_scan_finds_none():
    # A rate limit under r_min on the grid, and a target past m identities at tau.
    spec = device(1.0, 1.0)
    assert arithmetic_best_window(2, spec, PlanGrid(0.5, 2.0, 4)) is not None
    for grid in (PlanGrid(0.5, 2.0, 1), PlanGrid(0.3, 2.0, 4)):
        with pytest.raises(ValueError, match="no feasible window"):
            oracle.best_window(2, spec, grid)
        assert arithmetic_best_window(2, spec, grid) is None


def test_repeated_verification_does_not_grow_the_heap():
    # A full collection empties the free lists, so none may run in between.
    gc.collect()
    gc.disable()
    try:
        verification.verify_all()
        before = sys.getallocatedblocks()
        for _ in range(3):
            verification.verify_all()
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 200


def test_verification_keeps_only_counts_and_failures():
    # A passing run formats no description, so its traced peak is the
    # search's working set; keeping a described pair per check read 120 KiB.
    verification.verify_all()
    tracemalloc.start()
    try:
        verification.verify_all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 1024


def partial(r_min, alpha):
    return dataclasses.replace(
        stake(r_min), name=f"partial-a{alpha}", identity_transferable=None, alpha=alpha
    )


def bounded(r_min, k):
    return dataclasses.replace(stake(r_min), name=f"bounded-k{k}", temporally_reusable=None, k=k)


NON_DYADIC_THRESHOLDS = [0.1, 0.3, 0.7, 1.1]
# Where the closed form rounds once, so it must equal the oracle exactly.
# Partial transfer does only at alpha in {0, 1}, where one share is zero.
# Each is a spec builder and its named law, at the alpha or k the builder sets.
ONE_ROUNDING_SPECS = {
    "reusable": (stake, lambda s, T, r_min: costs.cost_parallelizable(s, T, r_min).total),
    "window-local": (
        lambda r_min: device(r_min, r_min),
        lambda s, T, r_min: costs.cost_throughput_bounded(s, T, r_min).total,
    ),
    "partial-transfer-a0": (
        lambda r_min: partial(r_min, 0.0),
        lambda s, T, r_min: costs.cost_partial_transferability(s, T, r_min, 0.0).model_cost,
    ),
    "partial-transfer-a1": (
        lambda r_min: partial(r_min, 1.0),
        lambda s, T, r_min: costs.cost_partial_transferability(s, T, r_min, 1.0).model_cost,
    ),
    "bounded-reuse": (
        lambda r_min: bounded(r_min, 2),
        lambda s, T, r_min: costs.cost_bounded_reuse(s, T, r_min, 2).total,
    ),
}


def assert_bounds_pass(result, scenario):
    report = verify_bounds(result, scenario)
    assert report.passed, [check for check in report.checks if not check.passed]


@pytest.mark.parametrize("semantics", ONE_ROUNDING_SPECS)
@pytest.mark.parametrize("r_min", NON_DYADIC_THRESHOLDS)
def test_non_dyadic_thresholds_meet_the_closed_form_exactly(semantics, r_min):
    build, cost = ONE_ROUNDING_SPECS[semantics]
    spec = build(r_min)
    for s in range(1, 5):
        for T in range(1, 5):
            scenario = OracleScenario(s, T, spec)
            result = min_cost(scenario)
            assert result.min_cost == cost(s, T, r_min), (s, T)
            assert_bounds_pass(result, scenario)


@pytest.mark.parametrize("alpha", [0.3, 0.5])
@pytest.mark.parametrize("r_min", [*NON_DYADIC_THRESHOLDS, 1.0])
def test_partial_transfer_is_its_exact_total_rounded_once(alpha, r_min):
    spec = partial(r_min, alpha)
    for s in range(1, 5):
        for T in range(1, 5):
            for coordination in (law.ZERO_COORDINATION, law.LINEAR_COORDINATION):
                scenario = OracleScenario(s, T, spec, coordination)
                # One full purchase of s * r_min, then the (1 - alpha) share
                # it spends in each of the other T - 1 windows.
                stock = s * Fraction(r_min)
                exact = stock + (T - 1) * (1 - Fraction(alpha)) * stock
                exact += Fraction(coordination.evaluate(s, T))
                result = min_cost(scenario)
                assert result.min_cost == float(exact), (s, T)
                assert_bounds_pass(result, scenario)
                # The law sums the same exact rational and rounds it once.
                law_cost = costs.cost_partial_transferability(s, T, r_min, alpha, coordination)
                assert law_cost.model_cost == float(exact), (s, T)


def test_a_total_past_the_float_range_is_infinite():
    result = min_cost(OracleScenario(1, 2, device(1e308, 1e308)))
    assert result.min_cost == math.inf
    assert result.witness.acquisitions == (1e308, 1e308)


# --- plan_feasible properties ----------------------------------------------

SEMANTICS_SPECS = {
    "reusable": stake,
    "window-local": lambda r_min: device(r_min, r_min),
    "partial-transfer": lambda r_min: partial(r_min, 0.25),
    "bounded-reuse": lambda r_min: bounded(r_min, 2),
}


def draw_scenario(data, semantics):
    r_min = data.draw(st.sampled_from([0.5, 0.7, 1.0, 1.1]), label="r_min")
    s = data.draw(st.integers(min_value=1, max_value=3), label="s")
    T = data.draw(st.integers(min_value=1, max_value=4), label="T")
    return OracleScenario(s, T, SEMANTICS_SPECS[semantics](r_min))


@pytest.mark.parametrize("semantics", SEMANTICS_SPECS)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_raising_acquisitions_keeps_a_plan_feasible(semantics, data):
    scenario = draw_scenario(data, semantics)
    T = scenario.T
    plan = min_cost(scenario).witness
    extras = st.floats(min_value=0.0, max_value=10.0)
    raises = data.draw(st.lists(extras, min_size=T, max_size=T), label="raises")
    raised = dataclasses.replace(
        plan, acquisitions=tuple(map(sum, zip(plan.acquisitions, raises)))
    )
    assert plan_feasible(plan, scenario)
    assert plan_feasible(raised, scenario)


@pytest.mark.parametrize("semantics", SEMANTICS_SPECS)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_lowering_a_witness_acquisition_by_one_step_breaks_it(semantics, data):
    scenario = draw_scenario(data, semantics)
    result = min_cost(scenario)
    bought = [t for t, value in enumerate(result.witness.acquisitions) if value > 0.0]
    window = data.draw(st.sampled_from(bought), label="window")
    acquisitions = list(result.witness.acquisitions)
    acquisitions[window] = max(0.0, acquisitions[window] - result.grid.step)
    lowered = dataclasses.replace(result.witness, acquisitions=tuple(acquisitions))
    assert not plan_feasible(lowered, scenario)
