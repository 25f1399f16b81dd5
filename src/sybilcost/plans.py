"""Allocation plans and their accounting: what a plan costs and whether it is feasible.

A plan fields identities in each window and buys resource at the start of
windows.  It is feasible when every window reaches the influence target with
identities at or above the activation threshold r_min and under the rate
limit tau, and its purchases cover each window's aggregate under the
resource's carry-over rule (alpha, k) from `resources.carry_over`.  The oracle
searches these plans; this module only states them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .costs import ZERO_COORDINATION, CoordinationModel
from .resources import ResourceSpec, carry_over

__all__ = [
    "AllocationPlan",
    "FEASIBILITY_EPS",
    "OracleScenario",
    "plan_cost",
    "plan_feasible",
]

FEASIBILITY_EPS = 1e-9


@dataclass(frozen=True)
class AllocationPlan:
    """Per-window identity allocations plus the acquisition events paying for them.

    ``identities[t]`` holds the allocations of the identities fielded in
    window t (zero-allocation identities may be omitted); ``acquisitions[t]``
    is the amount of new resource bought at the start of that window.
    """

    windows: int
    identities: tuple[tuple[float, ...], ...]
    acquisitions: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.windows < 0:
            raise ValueError(f"windows must be nonnegative, got {self.windows}")
        if len(self.identities) != self.windows or len(self.acquisitions) != self.windows:
            raise ValueError("plan rows must cover every window exactly once")
        for row in self.identities:
            if not all(value >= 0 for value in row):
                raise ValueError("identity allocations must be nonnegative")
        if not all(value >= 0 for value in self.acquisitions):
            raise ValueError("acquisitions must be nonnegative")


@dataclass(frozen=True)
class OracleScenario:
    """A search instance: target s, horizon T, resource, coordination overhead."""

    s: int
    T: int
    spec: ResourceSpec
    coordination: CoordinationModel = ZERO_COORDINATION

    def __post_init__(self) -> None:
        if type(self.s) is not int or self.s < 0:
            raise ValueError(f"s must be a nonnegative integer, got {self.s!r}")
        if type(self.T) is not int or self.T < 1:
            raise ValueError(f"T must be an integer at least 1, got {self.T!r}")

    @property
    def target(self) -> float:
        """Per-window influence the plan must reach: s identities at the threshold."""
        return self.s * self.spec.r_min


def plan_cost(plan: AllocationPlan, scenario: OracleScenario) -> float:
    """Total expenditure of a plan: all acquisition events plus coordination."""
    return sum(plan.acquisitions) + scenario.coordination.evaluate(scenario.s, scenario.T)


def plan_feasible(plan: AllocationPlan, scenario: OracleScenario) -> bool:
    """Whether a plan meets the influence target and the carry-over accounting.

    Every window must reach s * r_min of influence counting only identities
    at or above the activation threshold, no identity may exceed the rate
    limit tau, and the acquisition events must cover each window's aggregate
    under the spec's carry-over rule (alpha, k) from `resources.carry_over`:
    a purchase stays usable for k windows, and each deployment spends the
    (1 - alpha) share of what it used for good.  So the purchases of the last
    k windows must cover this window's aggregate plus the (1 - alpha) share of
    the aggregates of the k - 1 windows before it.  Each comparison allows
    FEASIBILITY_EPS relative to the value it compares, so a plan is feasible
    in any unit, and no finite plan reaches an infinite target.
    """
    if plan.windows != scenario.T:
        raise ValueError(
            f"plan covers {plan.windows} windows but the scenario has T={scenario.T}"
        )
    spec = scenario.spec
    alpha, k = carry_over(spec, plan.windows)
    low = 1.0 - FEASIBILITY_EPS
    active = spec.r_min * low
    cap = math.inf if spec.tau is None else spec.tau * (1.0 + FEASIBILITY_EPS)
    need = scenario.target * low
    # The sums over the last k windows are kept exactly, in units of 1/scale
    # (every finite float is a dyadic rational), and each is rounded to a
    # float once.  An infinite value counts 2**1024 floats, so a sum holding
    # it rounds to inf.
    scale = max([value.as_integer_ratio()[1] for row in (plan.acquisitions, *plan.identities)
                 for value in row if value < math.inf], default=1)

    def units(value: float) -> int:
        if value == math.inf:
            return scale << 1024
        numerator, denominator = value.as_integer_ratio()
        return numerator * (scale // denominator)

    def rounded(total: int) -> float:
        try:
            return total / scale
        except OverflowError:
            return math.inf

    bought = [units(value) for value in plan.acquisitions]
    aggregates = [sum(map(units, row)) for row in plan.identities]
    # alive: the purchases of windows t - k + 1 .. t; before: the aggregates
    # of windows t - k + 1 .. t - 1.
    alive = before = 0
    for t, row in enumerate(plan.identities):
        reached = sum(value for value in row if value >= active)
        if any(value > cap for value in row) or reached < need:
            return False
        alive += bought[t]
        spent = (1.0 - alpha) * rounded(before)
        if rounded(alive) < (spent + rounded(aggregates[t])) * low:
            return False
        before += aggregates[t]
        if t >= k - 1:
            alive -= bought[t - k + 1]
            before -= aggregates[t - k + 1]
    return True
