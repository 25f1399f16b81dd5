"""Minimum-cost search over discretized allocation plans.

Influence is additive: an identity at or above the activation threshold r_min
contributes its allocation, and one below it contributes nothing.
`best_window` scans, in integer units of the step, the ways of filling one
window on a finite grid (`plans.PlanGrid`); it reads s, r_min, tau and the
grid, and nothing else.  `price` repeats that window over T windows, bought
under the spec's carry-over rule (alpha, k) from `resources.carry_over` and
with the coordination h(s, T), as `law`'s exact sum rounded once.  Plan cost
is monotone in each window's aggregate under every rule, so the grid optimum
is a uniform plan of the best window, and `min_cost`, the price of
`best_window`, is exact over all grid plans without the cross-window product.
`verify_bounds` checks the witness under `plans`' accounting, and the minimum
against `law.cost_carry_over` and the floor at the spec's own alpha and k.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .law import _check_rows, _exact, _quotient, acquisition_schedule, cost_carry_over
# The plan model and the grid live in `plans`; the names used here are also
# this module's attributes, where `verify_bounds` and the benchmark tracer look
# them up.
from .plans import (
    FEASIBILITY_EPS,
    AllocationPlan,
    OracleScenario,
    PlanBudgetExceeded,
    PlanGrid,
    _floor_units,
    plan_cost,
    plan_feasible,
)
from .resources import ResourceSpec, carry_over
from .resources import classify  # noqa: F401  (an attribute the benchmark tracer wraps)

__all__ = [
    "AllocationSemantics",
    "OracleResult",
    "VerificationCheck",
    "VerificationReport",
    "Window",
    "allocation_semantics",
    "best_window",
    "min_cost",
    "price",
    "verify_bounds",
]


class AllocationSemantics(Enum):
    """How acquired resource carries over between windows."""

    REUSABLE = "reusable"
    WINDOW_LOCAL = "window-local"
    PARTIAL_TRANSFER = "partial-transfer"
    BOUNDED_REUSE = "bounded-reuse"


def allocation_semantics(spec: ResourceSpec) -> AllocationSemantics:
    """Name the spec's carry-over rule (see `resources.carry_over`).

    An alpha or k override names partial transfer or bounded reuse; stock that
    is both reusable and transferable is reusable; every other rule renews the
    whole allocation each window, so it is window-local.
    """
    # Raises for the specs that have no carry-over rule, and so no semantics.
    carry_over(spec, 1)
    if spec.alpha is not None:
        return AllocationSemantics.PARTIAL_TRANSFER
    if spec.k is not None:
        return AllocationSemantics.BOUNDED_REUSE
    if spec.temporally_reusable and spec.identity_transferable:
        return AllocationSemantics.REUSABLE
    return AllocationSemantics.WINDOW_LOCAL


@dataclass(frozen=True)
class OracleResult:
    """Minimum plan cost on the grid and its witness; ``plans_examined`` is the window's count."""

    min_cost: float
    witness: AllocationPlan
    plans_examined: int
    grid: PlanGrid


@dataclass(frozen=True)
class Window:
    """One window's best ``key``: (aggregate, active count, descending allocations) in grid
    units, whose tuple order is the tie-break.  ``configuration_count`` is ``grid``'s, which
    the plan ceiling bounds, or 0 for the empty window at s = 0, where no grid is counted.
    """

    key: tuple[int, int, tuple[int, ...]]
    configuration_count: int
    grid: PlanGrid


def best_window(s: int, spec: ResourceSpec, grid: PlanGrid | None = None) -> Window:
    """The grid's cheapest window reaching s identities of influence at r_min, capped at tau.

    The grid is `PlanGrid.for_window(s, spec)` by default.  Raises PlanBudgetExceeded
    before scanning a grid whose configuration count exceeds the ceiling, and
    ValueError when no configuration reaches the target.
    """
    if grid is None:
        grid = PlanGrid.for_window(s, spec)
    if s == 0:
        return Window((0, 0, ()), 0, grid)
    configuration_count = grid.configuration_count()
    if configuration_count > grid.ceiling:
        raise PlanBudgetExceeded(
            f"at least {configuration_count} window configurations"
            f" exceed the ceiling of {grid.ceiling}"
        )
    step, m = grid.step, grid.max_identities
    # In grid units, within the grid's tolerance: the lowest active level,
    # the target, and the highest level the rate limit admits, so no level
    # over tau is enumerated.  floor(-x) = -ceil(x) gives the first two.
    lo = -_floor_units(spec.r_min, -1, step)
    need = -_floor_units(spec.r_min, -s, step)
    hi = grid.level_count() - 1
    if spec.tau is not None:
        hi = min(hi, _floor_units(spec.tau, 1, step))
    # Each identity holds zero or an active level.  A level strictly between
    # them costs without adding influence, and zeroing it lowers the aggregate
    # at the same active count, so no best configuration holds one.  The scan
    # visits fewer configurations than the grid's count, which the ceiling
    # bounds, and a configuration's sum is both its aggregate and its reach.
    best = None
    for combo in itertools.combinations_with_replacement((0, *range(lo, hi + 1)), m):
        reached = sum(combo)
        if reached < need:
            continue
        key = (reached, m - combo.count(0), combo[::-1])
        if best is None or key < best:
            best = key
    if best is None:
        raise ValueError("no feasible window configuration on this grid")
    return Window(best, configuration_count, grid)


def price(window: Window, scenario: OracleScenario) -> OracleResult:
    """The window in each of T windows, priced exactly and rounded once, with its witness.

    Raises PlanBudgetExceeded before building a witness of more values than the ceiling.
    """
    s, T = scenario.s, scenario.T
    alpha, k = carry_over(scenario.spec, T)
    step = window.grid.step
    units, _active, descending = window.key
    fielded = tuple([value * step for value in descending if value])
    # The witness holds T rows of allocations and T acquisitions.
    _check_rows("a witness", T, len(fielded) + 1, window.grid.ceiling)
    acquisitions = acquisition_schedule(alpha, k, T, units * step)
    witness = AllocationPlan(T, (fielded,) * T, acquisitions)
    # The law's exact sum prices one grid step at the rule (alpha, k), times `units`.
    stock, flow, scale = _exact(T, ((step, alpha, k),))
    overhead = scenario.coordination.evaluate(s, T)
    total = _quotient(units * (stock + flow) + overhead * scale, scale)
    return OracleResult(total, witness, window.configuration_count, window.grid)


def min_cost(scenario: OracleScenario, grid: PlanGrid | None = None) -> OracleResult:
    """Minimum plan cost on the grid (by default `PlanGrid.for_window(s, spec)`), with a witness."""
    carry_over(scenario.spec, scenario.T)  # a spec with no rule is refused before the scan
    return price(best_window(scenario.s, scenario.spec, grid), scenario)


# ---------------------------------------------------------------------------
# Bound verification
# ---------------------------------------------------------------------------


# Each floor check's name and what its detail calls the floor, by semantics.
_FLOOR_CHECKS = {
    AllocationSemantics.WINDOW_LOCAL: ("flow-lower-bound", "renewal floor"),
    AllocationSemantics.PARTIAL_TRANSFER: ("partial-transfer-floor", "identity-bound floor"),
    AllocationSemantics.BOUNDED_REUSE: ("renewal-floor", "k-renewal floor"),
}


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

    The law `cost_carry_over`, priced once with the scenario's coordination,
    is the ceiling on reusable stock and the exact value of window-local flow.
    Every other rule has the one floor s * T * r_min * ((1 - alpha) + alpha / k):
    the alpha share bought once per k windows, the rest every window.  The law
    and the floor read alpha and k from the spec's own fields, not from
    `carry_over`, so they check the rule the search priced with.  The ceiling
    and the exact value assume a grid that holds r_min; on a step that does
    not divide it, the grid's lowest active level is above r_min and its
    optimum can exceed the law.  Each comparison allows FEASIBILITY_EPS
    relative to the values it compares, so the report is the same in any
    unit.  Violations come back as failed checks in the report rather than as
    exceptions, so callers can render them.
    """
    checks: list[VerificationCheck] = []
    spec = scenario.spec
    s, T = scenario.s, scenario.T

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
    cost_matches = math.isclose(witness_cost, result.min_cost, rel_tol=FEASIBILITY_EPS)
    checks.append(
        VerificationCheck(
            "witness-cost-matches",
            cost_matches,
            f"plan cost {witness_cost} vs reported minimum {result.min_cost}",
        )
    )

    if s == 0:
        return VerificationReport(tuple(checks))

    alpha = float(spec.identity_transferable) if spec.alpha is None else spec.alpha
    k = (T if spec.temporally_reusable else 1) if spec.k is None else spec.k
    law_value = cost_carry_over(s, T, spec.r_min, alpha, k, scenario.coordination).total
    semantics = allocation_semantics(spec)
    if semantics is AllocationSemantics.REUSABLE:
        checks.append(
            VerificationCheck(
                "stock-upper-bound",
                result.min_cost <= law_value * (1.0 + FEASIBILITY_EPS),
                f"minimum {result.min_cost} vs one-shot stock cost {law_value}",
            )
        )
        return VerificationReport(tuple(checks))

    floor_value = s * T * spec.r_min * ((1.0 - alpha) + alpha / k)
    name, floor = _FLOOR_CHECKS[semantics]
    checks.append(
        VerificationCheck(
            name,
            result.min_cost >= floor_value * (1.0 - FEASIBILITY_EPS),
            f"minimum {result.min_cost} vs {floor} {floor_value}",
        )
    )
    if semantics is AllocationSemantics.WINDOW_LOCAL:
        checks.append(
            VerificationCheck(
                "tight-plan-value",
                math.isclose(result.min_cost, law_value, rel_tol=FEASIBILITY_EPS),
                f"minimum {result.min_cost} vs tight renewal cost {law_value}",
            )
        )
    return VerificationReport(tuple(checks))
