"""Brute-force minimum-cost search over discretized allocation plans.

The oracle enumerates every way of filling one window from a finite grid of
per-identity allocations, then combines windows through the cheapest
acquisition schedule the resource's carry-over rules admit.  Plan cost is
monotone in each window's aggregate allocation for every supported
semantics, so the grid optimum is always a uniform plan built from the best
single-window configuration and the search is exact over all grid plans
despite never materializing the cross-window product.  Results come with a
feasible witness plan and are used to check the closed-form laws on small
instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum

from . import costs
from .costs import ZERO_COORDINATION, CoordinationModel
from .resources import (
    InfluenceFunction,
    ResourceClass,
    ResourceSpec,
    classify,
)

__all__ = [
    "AllocationPlan",
    "AllocationSemantics",
    "DEFAULT_PLAN_CEILING",
    "FEASIBILITY_EPS",
    "OracleResult",
    "OracleScenario",
    "PlanBudgetExceeded",
    "PlanGrid",
    "VerificationCheck",
    "VerificationReport",
    "allocation_semantics",
    "closed_form",
    "min_cost",
    "oracle_marginal",
    "plan_cost",
    "plan_feasible",
    "verify_bounds",
]

FEASIBILITY_EPS = 1e-9
DEFAULT_PLAN_CEILING = 10_000_000


class PlanBudgetExceeded(RuntimeError):
    """Enumeration would exceed the configured plan-count ceiling."""


class AllocationSemantics(Enum):
    """How acquired resource carries over between windows."""

    REUSABLE = "reusable"
    WINDOW_LOCAL = "window-local"
    PARTIAL_TRANSFER = "partial-transfer"
    BOUNDED_REUSE = "bounded-reuse"


def allocation_semantics(spec: ResourceSpec) -> AllocationSemantics:
    """Map a classified spec onto its plan-accounting rules."""
    resource_class = classify(spec).resource_class
    if resource_class is ResourceClass.PARALLELIZABLE:
        return AllocationSemantics.REUSABLE
    if resource_class is ResourceClass.THROUGHPUT_BOUNDED:
        return AllocationSemantics.WINDOW_LOCAL
    if resource_class is ResourceClass.INTERMEDIATE:
        if spec.alpha is not None and spec.k is not None:
            raise ValueError("combined partial-transfer and bounded-reuse search is not supported")
        if spec.alpha is not None:
            return AllocationSemantics.PARTIAL_TRANSFER
        return AllocationSemantics.BOUNDED_REUSE
    raise ValueError(f"no allocation semantics for unclassified resource {spec.name!r}")


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
            if any(value < 0 for value in row):
                raise ValueError("identity allocations must be nonnegative")
        if any(value < 0 for value in self.acquisitions):
            raise ValueError("acquisitions must be nonnegative")

    def aggregate(self, window: int) -> float:
        """Total resource allocated in one (0-based) window."""
        return sum(self.identities[window])


@dataclass(frozen=True)
class OracleScenario:
    """A search instance: target s, horizon T, resource, influence map, overhead."""

    s: int
    T: int
    spec: ResourceSpec
    f: InfluenceFunction | None = None
    coordination: CoordinationModel = ZERO_COORDINATION

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError(f"s must be nonnegative, got {self.s}")
        if self.T < 1:
            raise ValueError(f"T must be at least 1, got {self.T}")
        if self.f is not None and self.f.r_min != self.spec.r_min:
            raise ValueError("influence-function threshold must match the resource spec")

    @property
    def influence(self) -> InfluenceFunction:
        return self.f if self.f is not None else InfluenceFunction(r_min=self.spec.r_min)

    @property
    def target(self) -> float:
        """Per-window influence the plan must reach: s identities at the threshold."""
        return self.s * self.influence.w_unit


@dataclass(frozen=True)
class PlanGrid:
    """Finite allocation grid the search enumerates.

    The default grid steps in half-thresholds from zero up to the larger of
    the rate limit and the full stock s * r_min, and fields at most s + 2
    identities per window: enough to express every optimal configuration and
    the wasteful near-misses around it.
    """

    step: float
    max_value: float
    max_identities: int
    ceiling: int = DEFAULT_PLAN_CEILING

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.max_value < 0:
            raise ValueError(f"max_value must be nonnegative, got {self.max_value}")
        if self.max_identities < 1:
            raise ValueError(f"max_identities must be at least 1, got {self.max_identities}")
        if self.ceiling < 1:
            raise ValueError(f"ceiling must be at least 1, got {self.ceiling}")

    @classmethod
    def for_scenario(
        cls,
        scenario: OracleScenario,
        step: float | None = None,
        ceiling: int = DEFAULT_PLAN_CEILING,
    ) -> "PlanGrid":
        spec = scenario.spec
        grid_step = step if step is not None else spec.r_min / 2
        top = max(spec.tau or 0.0, scenario.s * spec.r_min, grid_step)
        return cls(
            step=grid_step,
            max_value=top,
            max_identities=scenario.s + 2,
            ceiling=ceiling,
        )

    def levels(self) -> tuple[float, ...]:
        count = int(math.floor(self.max_value / self.step + FEASIBILITY_EPS)) + 1
        return tuple(index * self.step for index in range(count))

    def configuration_count(self) -> int:
        """Number of per-window allocation multisets the grid admits."""
        return math.comb(len(self.levels()) + self.max_identities - 1, self.max_identities)


@dataclass(frozen=True)
class OracleResult:
    """Minimum plan cost on the grid, with the witness that attains it."""

    min_cost: float
    witness: AllocationPlan
    plans_examined: int
    grid: PlanGrid


# A window configuration is kept as (aggregate, active count, allocations in
# descending order); tuple comparison gives the deterministic tie-break.
_ConfigKey = tuple[float, int, tuple[float, ...]]


def _best_window_config(
    scenario: OracleScenario, grid: PlanGrid
) -> tuple[_ConfigKey | None, int]:
    configuration_count = grid.configuration_count()
    if configuration_count > grid.ceiling:
        raise PlanBudgetExceeded(
            f"{configuration_count} window configurations exceed the ceiling of {grid.ceiling}"
        )
    influence, target = scenario.influence, scenario.target
    r_min, tau = scenario.spec.r_min, scenario.spec.tau
    best: _ConfigKey | None = None
    for combo in itertools.combinations_with_replacement(grid.levels(), grid.max_identities):
        # combinations_with_replacement yields nondecreasing tuples, so the
        # last entry is the per-identity maximum.
        if tau is not None and combo[-1] > tau + FEASIBILITY_EPS:
            continue
        reached = 0.0
        active = 0
        for value in combo:
            if value >= r_min - FEASIBILITY_EPS:
                reached += influence(value)
                active += 1
        if reached + FEASIBILITY_EPS < target:
            continue
        key: _ConfigKey = (sum(combo), active, combo[::-1])
        if best is None or key < best:
            best = key
    return best, configuration_count


def _acquisition_schedule(
    semantics: AllocationSemantics, spec: ResourceSpec, T: int, aggregate: float
) -> tuple[float, ...]:
    """Cheapest acquisition events that keep `aggregate` deployed each window."""
    if semantics is AllocationSemantics.REUSABLE:
        return (aggregate,) + (0.0,) * (T - 1)
    if semantics is AllocationSemantics.WINDOW_LOCAL:
        return (aggregate,) * T
    if semantics is AllocationSemantics.PARTIAL_TRANSFER:
        assert spec.alpha is not None
        per_window_flow = (1.0 - spec.alpha) * aggregate
        first = spec.alpha * aggregate + per_window_flow
        return (first,) + (per_window_flow,) * (T - 1)
    assert spec.k is not None
    return tuple(
        aggregate if window % spec.k == 0 else 0.0 for window in range(T)
    )


def min_cost(scenario: OracleScenario, grid: PlanGrid | None = None) -> OracleResult:
    """Exhaustive minimum plan cost on the grid, with a witness plan.

    Ties between equally cheap configurations resolve toward fewer active
    identities, then lexicographically on the descending allocation tuple,
    so results are deterministic.  Raises PlanBudgetExceeded before
    enumerating a grid whose configuration count exceeds the ceiling, and
    ValueError when no grid configuration can reach the per-window influence
    target.
    """
    semantics = allocation_semantics(scenario.spec)
    effective_grid = grid if grid is not None else PlanGrid.for_scenario(scenario)
    if scenario.s == 0:
        empty = AllocationPlan(
            scenario.T, ((),) * scenario.T, (0.0,) * scenario.T
        )
        return OracleResult(0.0, empty, 0, effective_grid)
    best, examined = _best_window_config(scenario, effective_grid)
    if best is None:
        raise ValueError("no feasible window configuration on this grid")
    aggregate, _active, descending = best
    fielded = tuple(value for value in descending if value > 0.0)
    acquisitions = _acquisition_schedule(
        semantics, scenario.spec, scenario.T, aggregate
    )
    witness = AllocationPlan(
        scenario.T,
        tuple(fielded for _ in range(scenario.T)),
        acquisitions,
    )
    total = sum(acquisitions) + scenario.coordination.evaluate(scenario.s, scenario.T)
    return OracleResult(total, witness, examined, effective_grid)


def oracle_marginal(scenario: OracleScenario, grid: PlanGrid | None = None) -> float:
    """Search-level marginal cost: min cost at s minus min cost at s - 1.

    Each target uses its own default grid unless one is supplied explicitly.
    """
    if scenario.s < 1:
        raise ValueError(f"marginal cost needs s >= 1, got {scenario.s}")
    smaller = replace(scenario, s=scenario.s - 1)
    at_s = min_cost(scenario, grid=grid).min_cost
    below = min_cost(smaller, grid=grid).min_cost if scenario.s > 1 else 0.0
    return at_s - below


def closed_form(scenario: OracleScenario) -> float:
    """The closed-form cost law the grid optimum is checked against.

    Keyed on the scenario's allocation semantics.  Every plan the search
    prices pays the coordination overhead h(s, T), so the renewal laws,
    which carry no coordination term of their own, are quoted with h added.
    """
    s, T, spec = scenario.s, scenario.T, scenario.spec
    coordination = scenario.coordination
    semantics = allocation_semantics(spec)
    if semantics is AllocationSemantics.REUSABLE:
        return costs.cost_parallelizable(s, T, spec.r_min, coordination).total
    if semantics is AllocationSemantics.PARTIAL_TRANSFER:
        assert spec.alpha is not None
        law = costs.cost_partial_transferability(s, T, spec.r_min, spec.alpha, coordination)
        return law.model_cost
    overhead = coordination.evaluate(s, T)
    if semantics is AllocationSemantics.WINDOW_LOCAL:
        return costs.cost_throughput_bounded(s, T, spec.r_min).total + overhead
    assert spec.k is not None
    return costs.cost_bounded_reuse(s, T, spec.r_min, spec.k).total + overhead


# ---------------------------------------------------------------------------
# Plan accounting
# ---------------------------------------------------------------------------


def plan_cost(plan: AllocationPlan, scenario: OracleScenario) -> float:
    """Total expenditure of a plan: all acquisition events plus coordination."""
    return sum(plan.acquisitions) + scenario.coordination.evaluate(scenario.s, scenario.T)


def plan_feasible(plan: AllocationPlan, scenario: OracleScenario) -> bool:
    """Whether a plan meets the influence target and the carry-over accounting.

    Every window must reach s * f(r_min) of influence counting only identities
    at or above the activation threshold, and the acquisition events must
    cover each window's aggregate under the spec's semantics: fully reusable
    stock accumulates, window-local flow must be bought anew every window,
    partially transferable stock carries only its alpha fraction forward, and
    k-bounded stock expires after k windows.
    """
    if plan.windows != scenario.T:
        raise ValueError(
            f"plan covers {plan.windows} windows but the scenario has T={scenario.T}"
        )
    spec = scenario.spec
    semantics = allocation_semantics(spec)
    influence = scenario.influence
    target = scenario.target
    aggregates = [plan.aggregate(t) for t in range(plan.windows)]

    for row in plan.identities:
        reached = sum(influence(value) for value in row if value >= spec.r_min - FEASIBILITY_EPS)
        if reached + FEASIBILITY_EPS < target:
            return False

    if semantics is AllocationSemantics.WINDOW_LOCAL:
        assert spec.tau is not None
        for row in plan.identities:
            if any(value > spec.tau + FEASIBILITY_EPS for value in row):
                return False
        # Nothing carries over: each window is paid for in full, no banking.
        return all(
            acquisition + FEASIBILITY_EPS >= aggregate
            for acquisition, aggregate in zip(plan.acquisitions, aggregates)
        )

    if semantics is AllocationSemantics.REUSABLE:
        acquired = 0.0
        for t in range(plan.windows):
            acquired += plan.acquisitions[t]
            if acquired + FEASIBILITY_EPS < aggregates[t]:
                return False
        return True

    if semantics is AllocationSemantics.PARTIAL_TRANSFER:
        assert spec.alpha is not None
        acquired = 0.0
        consumed = 0.0
        for t in range(plan.windows):
            acquired += plan.acquisitions[t]
            # The (1 - alpha) share of every past deployment is spent for
            # good; only the alpha share is available again this window.
            needed = (1.0 - spec.alpha) * consumed + aggregates[t]
            if acquired + FEASIBILITY_EPS < needed:
                return False
            consumed += aggregates[t]
        return True

    assert spec.k is not None
    for t in range(plan.windows):
        window_start = max(0, t - spec.k + 1)
        alive = sum(plan.acquisitions[window_start : t + 1])
        if alive + FEASIBILITY_EPS < aggregates[t]:
            return False
    return True


# ---------------------------------------------------------------------------
# Bound verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[VerificationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def verify_bounds(result: OracleResult, scenario: OracleScenario) -> VerificationReport:
    """Compare a search result against the closed-form bounds for its regime.

    Violations come back as failed checks in the report rather than as
    exceptions, so callers can render them.
    """
    checks: list[VerificationCheck] = []
    spec = scenario.spec
    s, T, r_min = scenario.s, scenario.T, spec.r_min
    overhead = scenario.coordination.evaluate(s, T)
    eps = FEASIBILITY_EPS

    feasible = plan_feasible(result.witness, scenario)
    checks.append(
        VerificationCheck(
            "witness-feasible",
            feasible,
            "witness plan meets target and accounting"
            if feasible
            else "witness plan violates feasibility",
        )
    )
    witness_cost = plan_cost(result.witness, scenario)
    cost_matches = abs(witness_cost - result.min_cost) <= eps
    checks.append(
        VerificationCheck(
            "witness-cost-matches",
            cost_matches,
            f"plan cost {witness_cost} vs reported minimum {result.min_cost}",
        )
    )

    if s == 0:
        return VerificationReport(tuple(checks))

    semantics = allocation_semantics(spec)
    if semantics is AllocationSemantics.REUSABLE:
        ceiling_value = s * r_min + overhead
        checks.append(
            VerificationCheck(
                "stock-upper-bound",
                result.min_cost <= ceiling_value + eps,
                f"minimum {result.min_cost} vs one-shot stock cost {ceiling_value}",
            )
        )
    elif semantics is AllocationSemantics.WINDOW_LOCAL:
        floor_value = (s * T) * r_min
        checks.append(
            VerificationCheck(
                "flow-lower-bound",
                result.min_cost >= floor_value - eps,
                f"minimum {result.min_cost} vs renewal floor {floor_value}",
            )
        )
        tight_value = floor_value + overhead
        checks.append(
            VerificationCheck(
                "tight-plan-value",
                abs(result.min_cost - tight_value) <= eps,
                f"minimum {result.min_cost} vs tight renewal cost {tight_value}",
            )
        )
    elif semantics is AllocationSemantics.PARTIAL_TRANSFER:
        assert spec.alpha is not None
        floor_value = (1.0 - spec.alpha) * ((s * T) * r_min)
        checks.append(
            VerificationCheck(
                "partial-transfer-floor",
                result.min_cost >= floor_value - eps,
                f"minimum {result.min_cost} vs identity-bound floor {floor_value}",
            )
        )
    else:
        assert spec.k is not None
        floor_value = (s * T) * r_min / spec.k
        checks.append(
            VerificationCheck(
                "renewal-floor",
                result.min_cost >= floor_value - eps,
                f"minimum {result.min_cost} vs k-renewal floor {floor_value}",
            )
        )
    return VerificationReport(tuple(checks))
