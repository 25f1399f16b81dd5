"""Brute-force minimum-cost search over discretized allocation plans.

Influence is additive: an identity at or above the activation threshold r_min
contributes its allocation, and one below it contributes nothing.  The oracle
enumerates every way of filling one window from a finite grid of
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
from .resources import ResourceClass, ResourceSpec, classify, preset

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
    "acquisition_schedule",
    "allocation_semantics",
    "carry_over",
    "closed_form",
    "min_cost",
    "plan_cost",
    "plan_feasible",
    "verify_all",
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


def allocation_semantics(
    spec: ResourceSpec, resource_class: ResourceClass | None = None
) -> AllocationSemantics:
    """Map a classified spec onto its plan-accounting rules.

    A caller that has classified the spec already passes its resource class,
    so the spec is not classified twice.
    """
    if resource_class is None:
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
    """A search instance: target s, horizon T, resource, coordination overhead."""

    s: int
    T: int
    spec: ResourceSpec
    coordination: CoordinationModel = ZERO_COORDINATION

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError(f"s must be nonnegative, got {self.s}")
        if self.T < 1:
            raise ValueError(f"T must be at least 1, got {self.T}")

    @property
    def target(self) -> float:
        """Per-window influence the plan must reach: s identities at the threshold."""
        return self.s * self.spec.r_min


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
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and positive, got {self.step}")
        if not (math.isfinite(self.max_value) and self.max_value >= 0):
            raise ValueError(f"max_value must be finite and nonnegative, got {self.max_value}")
        for field in ("max_identities", "ceiling"):
            value = getattr(self, field)
            if type(value) is not int or value < 1:
                raise ValueError(f"{field} must be an integer at least 1, got {value!r}")

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
    target = scenario.target
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
                reached += value
                active += 1
        if reached + FEASIBILITY_EPS < target:
            continue
        key: _ConfigKey = (sum(combo), active, combo[::-1])
        if best is None or key < best:
            best = key
    return best, configuration_count


def carry_over(
    spec: ResourceSpec, T: int, resource_class: ResourceClass | None = None
) -> tuple[float, int]:
    """The spec's carry-over rule as an (alpha, k) pair.

    An acquisition's alpha share stays usable for k windows, counting the one
    it is bought in; the remaining (1 - alpha) share of every deployment is
    spent for good.  Reusable stock is (1, T), window-local flow (1, 1),
    partial transfer (alpha, T) and bounded reuse (1, k).  `resource_class`
    is the spec's class, when the caller has classified it already.
    """
    semantics = allocation_semantics(spec, resource_class)
    if semantics is AllocationSemantics.WINDOW_LOCAL:
        return 1.0, 1
    alpha = 1.0 if spec.alpha is None else spec.alpha
    return alpha, T if spec.k is None else spec.k


def acquisition_schedule(alpha: float, k: int, T: int, aggregate: float) -> tuple[float, ...]:
    """Cheapest acquisition events that keep `aggregate` deployed each window.

    Under the carry-over rule (alpha, k): a full purchase every k windows, and
    in between only the (1 - alpha) share the previous window spent.
    """
    kept, spent = alpha * aggregate, (1.0 - alpha) * aggregate
    return tuple(kept + spent if window % k == 0 else spent for window in range(T))


def min_cost(scenario: OracleScenario, grid: PlanGrid | None = None) -> OracleResult:
    """Exhaustive minimum plan cost on the grid, with a witness plan.

    Ties between equally cheap configurations resolve toward fewer active
    identities, then lexicographically on the descending allocation tuple,
    so results are deterministic.  Raises PlanBudgetExceeded before
    enumerating a grid whose configuration count exceeds the ceiling, and
    ValueError when no grid configuration can reach the per-window influence
    target.
    """
    alpha, k = carry_over(scenario.spec, scenario.T)
    effective_grid = grid if grid is not None else PlanGrid.for_scenario(scenario)
    if scenario.s == 0:
        fielded: tuple[float, ...] = ()
        aggregate, examined = 0.0, 0
    else:
        best, examined = _best_window_config(scenario, effective_grid)
        if best is None:
            raise ValueError("no feasible window configuration on this grid")
        aggregate, _active, descending = best
        fielded = tuple(value for value in descending if value > 0.0)
    acquisitions = acquisition_schedule(alpha, k, scenario.T, aggregate)
    witness = AllocationPlan(scenario.T, (fielded,) * scenario.T, acquisitions)
    total = sum(acquisitions) + scenario.coordination.evaluate(scenario.s, scenario.T)
    return OracleResult(total, witness, examined, effective_grid)


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

    Every window must reach s * r_min of influence counting only identities
    at or above the activation threshold, no identity may exceed the rate
    limit tau, and the acquisition events must cover each window's aggregate
    under the spec's carry-over rule (see `carry_over`): fully reusable stock
    accumulates, window-local flow must be bought anew every window, partially
    transferable stock carries only its alpha fraction forward, and k-bounded
    stock expires after k windows.
    """
    if plan.windows != scenario.T:
        raise ValueError(
            f"plan covers {plan.windows} windows but the scenario has T={scenario.T}"
        )
    spec = scenario.spec
    alpha, k = carry_over(spec, plan.windows)
    target = scenario.target
    cap = math.inf if spec.tau is None else spec.tau
    consumed = 0.0
    for t, row in enumerate(plan.identities):
        reached = sum(value for value in row if value >= spec.r_min - FEASIBILITY_EPS)
        over_cap = any(value > cap + FEASIBILITY_EPS for value in row)
        if over_cap or reached + FEASIBILITY_EPS < target:
            return False
        # What the last k windows bought must cover this window's aggregate
        # plus the (1 - alpha) share every earlier deployment spent for good.
        alive = sum(plan.acquisitions[max(0, t - k + 1) : t + 1])
        aggregate = plan.aggregate(t)
        if alive + FEASIBILITY_EPS < (1.0 - alpha) * consumed + aggregate:
            return False
        consumed += aggregate
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

    The bounds are those `costs` states: the parallelizable total as a ceiling,
    the throughput-bounded total as a floor and, with h(s, T), as the exact
    value, and the partial-transfer lower bound; bounded reuse is held to its
    k-renewal floor s * T * r_min / k.  Violations come back as failed checks
    in the report rather than as exceptions, so callers can render them.
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
        ceiling_value = costs.cost_parallelizable(s, T, r_min).total + overhead
        checks.append(
            VerificationCheck(
                "stock-upper-bound",
                result.min_cost <= ceiling_value + eps,
                f"minimum {result.min_cost} vs one-shot stock cost {ceiling_value}",
            )
        )
    elif semantics is AllocationSemantics.WINDOW_LOCAL:
        floor_value = costs.cost_throughput_bounded(s, T, r_min).total
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
        floor_value = costs.cost_partial_transferability(s, T, r_min, spec.alpha).lower_bound
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


# ---------------------------------------------------------------------------
# The small-grid verification behind `sybilcost verify-all`
# ---------------------------------------------------------------------------

_VERIFY_THRESHOLDS = (0.5, 1.0, 2.0)
_VERIFY_TARGETS = (1, 2, 3, 4)
_VERIFY_HORIZONS = (1, 2, 3, 4)
# Check groups in report order.
_VERIFY_GROUPS = (
    "closed-form-equivalence",
    "marginal-separation",
    "horizon-independence",
    "partition-invariance",
    "monotonicity",
    "intermediate-regimes",
    "crossover-sign",
)

# A check is a (passed, failure description) pair.
_Checks = list[tuple[bool, str]]


def _search(label: str, scenario: OracleScenario, checks: _Checks) -> float:
    """Search one instance, check it against its closed form and bounds, return its minimum."""
    result = min_cost(scenario)
    expected = closed_form(scenario)
    where = f"s={scenario.s} T={scenario.T} r_min={scenario.spec.r_min}"
    mismatch = f"{label} {where}: oracle {result.min_cost} != {expected}"
    checks.append((result.min_cost == expected, mismatch))
    checks.append((verify_bounds(result, scenario).passed, f"{label} bounds {where}"))
    return result.min_cost


def verify_all() -> list[tuple[str, int, list[str]]]:
    """Exhaustive small-grid check of every closed-form law against the oracle.

    Returns one (group, check count, failure descriptions) triple per check
    group, in a fixed order; the grid passes when every failure list is empty.
    """
    groups: dict[str, _Checks] = {group: [] for group in _VERIFY_GROUPS}
    equivalence, marginal, horizon, partition, monotone, intermediate, sign = groups.values()
    par_min: dict[tuple[float, int, int], float] = {}
    bnd_min: dict[tuple[float, int, int], float] = {}
    for r_min in _VERIFY_THRESHOLDS:
        par_spec = replace(preset("pos-stake"), name=f"stake-r{r_min}", r_min=r_min)
        bnd_spec = replace(preset("device-bound"), name=f"device-r{r_min}", r_min=r_min, tau=r_min)
        for s in _VERIFY_TARGETS:
            for T in _VERIFY_HORIZONS:
                key = (r_min, s, T)
                par_min[key] = _search("par", OracleScenario(s, T, par_spec), equivalence)
                bnd_min[key] = _search("bnd", OracleScenario(s, T, bnd_spec), equivalence)
                # The intermediate regimes are the stake resource with its
                # transfer cut to an alpha share or its reuse to k windows.
                specs = [
                    replace(par_spec, name=f"partial-a{a}", identity_transferable=None, alpha=a)
                    for a in (0.0, 0.5, 1.0)
                ]
                specs += [
                    replace(par_spec, name=f"bounded-k{k}", temporally_reusable=None, k=k)
                    for k in sorted({1, 2, T})
                ]
                for spec in specs:
                    _search(spec.name, OracleScenario(s, T, spec), intermediate)
                if T != 2:
                    continue
                # The same stock split among any j <= s identities is feasible at the same cost.
                scenario = OracleScenario(s, T, par_spec)
                stock = s * r_min
                for j in range(1, s + 1):
                    plan = AllocationPlan(T, ((stock / j,) * j,) * T, (stock, 0.0))
                    feasible = plan_feasible(plan, scenario)
                    drift = abs(plan_cost(plan, scenario) - par_min[key])
                    at = f"s={s} j={j} r_min={r_min}"
                    partition.append((feasible, f"re-partition infeasible {at}"))
                    partition.append((drift <= FEASIBILITY_EPS, f"re-partition cost drift {at}"))

    for (r_min, s, T), par in par_min.items():
        bnd = bnd_min[(r_min, s, T)]
        below = (r_min, s - 1, T)
        at = f"s={s} T={T} r_min={r_min}"
        marginal.append((par - par_min.get(below, 0.0) == r_min, f"par marginal {at}"))
        marginal.append((bnd - bnd_min.get(below, 0.0) == r_min * T, f"bnd marginal {at}"))
        if s > 1:
            monotone.append((par >= par_min[below], f"par not monotone in s at {at}"))
            monotone.append((bnd >= bnd_min[below], f"bnd not monotone in s at {at}"))
        if T > 1:
            flat = par == par_min[(r_min, s, 1)]
            horizon.append((flat, f"par horizon dependence s={s} r_min={r_min}"))
            monotone.append((bnd >= bnd_min[(r_min, s, T - 1)], f"bnd not monotone in T at {at}"))

    for T in costs.CROSSOVER_HORIZONS:
        for r_min in costs.CROSSOVER_THRESHOLDS:
            threshold = costs.crossover(T, r_min)
            if threshold is None:
                continue
            par_law = costs.parallelizable_law(r_min, costs.LINEAR_COORDINATION)
            bnd_law = costs.throughput_law(r_min)
            for s in range(1, math.floor(threshold)):
                at = f"s={s} T={T} r_min={r_min}"
                sign.append((bnd_law(s, T) < par_law(s, T), f"sign below crossover fails at {at}"))
            top = math.ceil(threshold)
            for s in range(top + 1, top + 11):
                at = f"s={s} T={T} r_min={r_min}"
                sign.append((bnd_law(s, T) > par_law(s, T), f"sign above crossover fails at {at}"))
    return [
        (group, len(checks), [failure for passed, failure in checks if not passed])
        for group, checks in groups.items()
    ]
