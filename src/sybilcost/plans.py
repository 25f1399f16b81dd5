"""Allocation plans and their accounting: what a plan costs and whether it is feasible.

A plan fields identities in each window and buys resource at the start of
windows.  It is feasible when every window reaches the influence target with
identities at or above the activation threshold r_min and under the rate
limit tau, and its purchases cover each window's aggregate under the
resource's carry-over rule (alpha, k) from `resources.carry_over`.  The oracle
searches these plans on a `PlanGrid` of allocation levels; this module states
the plans and the grid, and counts in exact rationals what the grid holds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

# The plan ceiling and its refusal are `law`'s; they are this module's names too.
from .law import DEFAULT_PLAN_CEILING, PlanBudgetExceeded
from .law import ZERO_COORDINATION, CoordinationModel, _check_count, _check_positive, _quotient
from .resources import ResourceSpec, carry_over

__all__ = [
    "AllocationPlan",
    "DEFAULT_PLAN_CEILING",
    "FEASIBILITY_EPS",
    "OracleScenario",
    "PlanBudgetExceeded",
    "PlanGrid",
    "plan_cost",
    "plan_feasible",
]

FEASIBILITY_EPS = 1e-9
_EPS_RATIO = FEASIBILITY_EPS.as_integer_ratio()


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
        _check_count("windows", self.windows)
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
        _check_count("s", self.s)
        _check_count("T", self.T, 1)

    @property
    def target(self) -> float:
        """Per-window influence the plan must reach: s identities at the threshold."""
        return self.s * self.spec.r_min


def _floor_units(value: float, count: int, step: float) -> int:
    """floor((count * value + FEASIBILITY_EPS * |count * value|) / step) in exact rationals."""
    (n, d), (p, q), (e, f) = value.as_integer_ratio(), step.as_integer_ratio(), _EPS_RATIO
    return (count * n * f + e * abs(count * n)) * q // (d * f * p)


@dataclass(frozen=True)
class PlanGrid:
    """Finite allocation grid the search enumerates.

    The default grid, `for_window`, steps in half-thresholds from zero up to
    the larger of the rate limit and the full stock s * r_min, and fields at
    most s + 2 identities per window: enough to express every optimal
    configuration and the wasteful near-misses around it.
    """

    step: float
    max_value: float
    max_identities: int
    ceiling: int = DEFAULT_PLAN_CEILING

    def __post_init__(self) -> None:
        _check_positive("step", self.step)
        if not (math.isfinite(self.max_value) and self.max_value >= 0):
            raise ValueError(f"max_value must be finite and nonnegative, got {self.max_value}")
        if not math.isfinite(self.max_value / self.step):
            raise ValueError(f"step {self.step} is too fine to count levels up to {self.max_value}")
        _check_count("max_identities", self.max_identities, 1)
        _check_count("ceiling", self.ceiling, 1)

    @classmethod
    def for_window(
        cls, s: int, spec: ResourceSpec, step: float | None = None,
        ceiling: int = DEFAULT_PLAN_CEILING,
    ) -> "PlanGrid":
        """The default grid for a window of s identities at the spec's r_min and tau."""
        _check_count("s", s)
        step = spec.r_min / 2 if step is None else step
        return cls(step, max(spec.tau or 0.0, s * spec.r_min, step), s + 2, ceiling)

    def level_count(self) -> int:
        """Number of allocation levels: 0, step, 2 * step, ... up to max_value."""
        return _floor_units(self.max_value, 1, self.step) + 1

    def holds(self, value: float) -> bool:
        """Whether some level lies in value * (1 +- FEASIBILITY_EPS), counted like `level_count`."""
        return -_floor_units(value, -1, self.step) <= _floor_units(value, 1, self.step)

    def configuration_count(self) -> int:
        """Number of per-window allocation multisets the grid admits, counted up to the ceiling.

        The oracle's ceiling bounds this count: the grid, not the fewer
        multisets its scan visits, which skips levels over the rate limit
        and levels strictly between zero and the threshold.

        C(n + m - 1, m), for n levels and m identities, is built up as
        C(b + i, i) for i = 1 .. r, where r is the smaller of m and n - 1.
        Each partial count is at least the one before and at least 2^i, so
        past the ceiling the count stops within about log2(ceiling) steps
        and returns that partial count: a lower bound over the ceiling.
        """
        levels, m = self.level_count(), self.max_identities
        r = min(m, levels - 1)
        count = 1
        for i in range(1, r + 1):
            count = count * (levels + m - 1 - r + i) // i
            if count > self.ceiling:
                break
        return count


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
    # float once by `law._quotient`.  An infinite value counts 2**1024 floats,
    # so a sum holding it rounds to inf.
    values = itertools.chain(plan.acquisitions, itertools.chain.from_iterable(plan.identities))
    scale = max((value.as_integer_ratio()[1] for value in values if value < math.inf), default=1)

    def units(value: float) -> int:
        if value == math.inf:
            return scale << 1024
        numerator, denominator = value.as_integer_ratio()
        return numerator * (scale // denominator)

    # alive: the purchases of windows t - k + 1 .. t; before: the aggregates of
    # windows t - k + 1 .. t - 1, each read from the plan, which is not copied.
    alive = before = 0
    for t, row in enumerate(plan.identities):
        reached = sum(value for value in row if value >= active)
        if any(value > cap for value in row) or reached < need:
            return False
        alive += units(plan.acquisitions[t])
        aggregate = sum(map(units, row))
        spent = (1.0 - alpha) * _quotient(before, scale)
        if _quotient(alive, scale) < (spent + _quotient(aggregate, scale)) * low:
            return False
        before += aggregate
        if t >= k - 1:
            alive -= units(plan.acquisitions[t - k + 1])
            before -= sum(map(units, plan.identities[t - k + 1]))
    return True
