"""The oracle's uniform-plan reduction, checked at any horizon.

`oracle.min_cost` prices one window configuration repeated over the horizon.
That is exact only if the cheapest purchases for a plan can only rise when
some window's aggregate rises, so that the smallest aggregate reaching the
target, held in every window, is optimal.  These tests solve the purchase half
of a plan from the accounting `plans.plan_feasible` states, in exact
rationals and without the law or its schedule: the purchases of windows
t - k + 1 .. t must cover a_t plus the (1 - alpha) share of the k - 1
aggregates before it.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sybilcost import law, resources
from sybilcost.plans import FEASIBILITY_EPS, AllocationPlan, OracleScenario, plan_feasible
from sybilcost.resources import carry_over


def requirement(alpha, k, aggregates, t):
    """What the purchases alive in window t must cover: a_t and the share spent before it."""
    first = max(0, t - k + 1)
    return aggregates[t] + (1 - Fraction(alpha)) * sum(aggregates[first:t])


def covered(alpha, k, aggregates, purchases, t):
    return sum(purchases[max(0, t - k + 1) : t + 1]) >= requirement(alpha, k, aggregates, t)


def rightmost_greedy(alpha, k, aggregates):
    """The least purchases covering `aggregates`, each window buying only what is still unmet.

    Window t's cover is the k purchases ending at t.  Buying as late as
    possible is never worse: a purchase at t serves every later window that
    any earlier purchase in t's cover could, so any cover can move its excess
    to t.  `alive` and `before` are the sums over the k - 1 windows before t,
    kept as windows enter and leave them.
    """
    spent_share = 1 - Fraction(alpha)
    purchases, alive, before = [], Fraction(0), Fraction(0)
    for t, aggregate in enumerate(aggregates):
        need = aggregate + spent_share * before
        purchases.append(max(Fraction(0), need - alive))
        alive += purchases[t]
        before += aggregate
        if t - k + 1 >= 0:
            alive -= purchases[t - k + 1]
            before -= aggregates[t - k + 1]
    return purchases


def brute_force_minimum(alpha, k, aggregates):
    """The least total over all purchases of 0, 1/2, ..., 4 a window that cover every window."""
    T = len(aggregates)
    levels = [Fraction(halves, 2) for halves in range(9)]
    best = math.inf

    def extend(purchases, total):
        nonlocal best
        if len(purchases) == T:
            best = total
            return
        for level in levels:
            if total + level >= best:
                break
            chosen = [*purchases, level]
            if covered(alpha, k, aggregates, chosen, len(purchases)):
                extend(chosen, total + level)

    extend([], 0)
    return best


def test_greedy_is_the_brute_force_minimum():
    cases = 0
    for T in range(1, 5):
        for k, alpha in itertools.product(range(1, T + 1), (0.0, 0.5, 1.0)):
            for aggregates in itertools.product((1, 2), repeat=T):
                greedy = rightmost_greedy(alpha, k, aggregates)
                assert all(covered(alpha, k, aggregates, greedy, t) for t in range(T))
                assert sum(greedy) == brute_force_minimum(alpha, k, aggregates), (alpha, k, aggregates)
                cases += 1
    assert cases == 294


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.7, 1.0])
def test_greedy_on_a_uniform_plan_is_the_law_and_its_schedule(alpha):
    # Every horizon up to 64, at k that renew every window, every few windows,
    # a few times, once, and never within the horizon; 0.1 is not dyadic.
    r_min = 0.1
    for T in range(1, 65):
        for k in sorted({1, 2, 3, 5, T // 2 or 1, T - 1 or 1, T, T + 1}):
            greedy = rightmost_greedy(alpha, k, (Fraction(r_min),) * T)
            assert float(sum(greedy)) == law.cost_carry_over(1, T, r_min, alpha, k).total, (T, k)
            assert tuple(map(float, greedy)) == law.acquisition_schedule(alpha, k, T, r_min), (T, k)


@settings(deadline=None, max_examples=100)
@given(
    alpha=st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
    target=st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=20),
    data=st.data(),
)
def test_greedy_is_never_below_the_uniform_plan_at_the_target(alpha, target, data):
    T = data.draw(st.integers(min_value=1, max_value=12), label="T")
    k = data.draw(st.integers(min_value=1, max_value=T + 1), label="k")
    extra = st.fractions(min_value=0, max_value=5, max_denominator=20)
    excess = data.draw(st.lists(extra, min_size=T, max_size=T), label="excess")
    aggregates = [target + more for more in excess]
    uniform = rightmost_greedy(alpha, k, [target] * T)
    assert sum(rightmost_greedy(alpha, k, aggregates)) >= sum(uniform)


def resummed_plan_feasible(plan, scenario):
    """`plan_feasible` as it was: every window re-sums the k windows it covers, O(T * k)."""
    spec = scenario.spec
    alpha, k = carry_over(spec, plan.windows)
    low = 1.0 - FEASIBILITY_EPS
    active = spec.r_min * low
    cap = math.inf if spec.tau is None else spec.tau * (1.0 + FEASIBILITY_EPS)
    need = scenario.target * low
    aggregates = [sum(row) for row in plan.identities]
    for t, row in enumerate(plan.identities):
        reached = sum(value for value in row if value >= active)
        if any(value > cap for value in row) or reached < need:
            return False
        first = max(0, t - k + 1)
        alive = sum(plan.acquisitions[first : t + 1])
        spent = (1.0 - alpha) * sum(aggregates[first:t])
        if alive < (spent + aggregates[t]) * low:
            return False
    return True


STAKE = resources.preset("pos-stake")


def carry_over_spec(r_min, alpha, k, T):
    """A stake spec whose rule is (alpha, k) at horizon T, or None if no spec has it.

    A spec overrides alpha or k, not both, so the other must be a flag's value:
    alpha 0 or 1, or k 1 or T.
    """
    fields = {"r_min": r_min}
    if alpha not in (0.0, 1.0):
        fields.update(identity_transferable=None, alpha=alpha)
    else:
        fields["identity_transferable"] = alpha == 1.0
    if k == T or k == 1:
        fields["temporally_reusable"] = k == T
    elif "alpha" in fields:
        return None
    else:
        fields.update(temporally_reusable=None, k=k)
    spec = dataclasses.replace(STAKE, **fields)
    assert carry_over(spec, T) == (alpha, k)
    return spec


def greedy_plans():
    """(spec, T, aggregates, least purchases): the two grids above, on the plan model's rules."""
    for T in range(1, 5):
        for k, alpha in itertools.product(range(1, T + 1), (0.0, 0.5, 1.0)):
            spec = carry_over_spec(1.0, alpha, k, T)
            if spec is None:
                continue
            for aggregates in itertools.product((1, 2), repeat=T):
                yield spec, T, aggregates, rightmost_greedy(alpha, k, aggregates)
    r_min = 0.1
    for alpha, T in itertools.product((0.0, 0.3, 0.5, 0.7, 1.0), range(1, 65)):
        for k in sorted({1, 2, 3, 5, T // 2 or 1, T - 1 or 1, T, T + 1}):
            spec = carry_over_spec(r_min, alpha, k, T)
            if spec is not None:
                aggregates = (Fraction(r_min),) * T
                yield spec, T, aggregates, rightmost_greedy(alpha, k, aggregates)


def test_running_sums_agree_with_re_summing_at_the_boundary():
    """The least purchases cover every window; 1e-6 less misses one, and 1e-6 more still covers.

    The same purchases one window early, the first moved to the end, test
    which windows each sum holds.
    """
    cases = 0
    for spec, T, aggregates, purchases in greedy_plans():
        scenario = OracleScenario(1, T, spec)
        for early in (False, True):
            bought = [*purchases[1:], purchases[0]] if early else purchases
            for factor in (1 - 1e-6, 1.0, 1 + 1e-6):
                plan = AllocationPlan(T, tuple((float(a),) for a in aggregates),
                                      tuple(float(p) * factor for p in bought))
                feasible = plan_feasible(plan, scenario)
                assert feasible is resummed_plan_feasible(plan, scenario), (spec, T, early, factor)
                assert early or feasible is (factor >= 1), (spec, T, factor)
                cases += 1
    assert cases == 9702


@pytest.mark.parametrize(
    "r_min, acquisitions, feasible",
    [
        (1e308, (1e308, 1e308), True),  # the exact sum 2e308 rounds to inf
        (1e308, (math.inf, 0.0), True),  # an infinite purchase covers every later window
        (1e308, (1e308, 5e-324), True),  # the largest and the smallest denominators
        (1e308, (1e308 * (1 - 1e-6), 1e308), False),
    ],
    ids=["overflow", "infinite", "subnormal", "short"],
)
def test_running_sums_agree_with_re_summing_past_the_float_range(r_min, acquisitions, feasible):
    spec = dataclasses.replace(STAKE, r_min=r_min)
    plan = AllocationPlan(2, ((r_min,),) * 2, acquisitions)
    scenario = OracleScenario(1, 2, spec)
    assert plan_feasible(plan, scenario) is feasible
    assert resummed_plan_feasible(plan, scenario) is feasible
