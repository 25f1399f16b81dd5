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

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sybilcost import costs


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
            assert float(sum(greedy)) == costs.cost_carry_over(1, T, r_min, alpha, k).total, (T, k)
            assert tuple(map(float, greedy)) == costs.acquisition_schedule(alpha, k, T, r_min), (T, k)


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
