"""The small-grid verification behind `sybilcost verify-all`.

`verify_all` searches every closed-form regime with the oracle on small
instances (thresholds, targets and horizons up to 4) and checks each minimum
against its bounds and its named `costs` law, priced at the alpha or k the
grid built, not read back through `resources.carry_over`; then it checks the
laws' marginals, horizon independence, partition invariance, monotonicity
and the sign of the stock/renewal crossover.  It searches the stake and the
device window once per (r_min, s) and prices each at every horizon and rule.
It calls `best_window`, `price` and `plan_feasible` through the `oracle`
module, so a wrapper or patch on an `oracle` attribute sees every call.
"""

from __future__ import annotations

import math
from dataclasses import replace

from . import costs, law, oracle
from .plans import AllocationPlan, OracleScenario
from .resources import preset

__all__ = ["verify_all"]

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


class _Group:
    """One check group: how many checks it ran and the descriptions of those that failed."""

    __slots__ = ("count", "failures")

    def __init__(self) -> None:
        self.count = 0
        self.failures: list[str] = []

    def check(self, passed: bool, description: str, *fields: object) -> None:
        """Count one check; keep its description, with the fields filled in, only if it failed."""
        self.count += 1
        if not passed:
            self.failures.append(description.format(*fields))


def _search(label: str, window: oracle.Window, scenario: OracleScenario, expected: float,
            group: _Group) -> float:
    """Price one instance, check its minimum against `expected` and its bounds, return it."""
    result = oracle.price(window, scenario)
    s, T, r_min = scenario.s, scenario.T, scenario.spec.r_min
    group.check(result.min_cost == expected, "{} s={} T={} r_min={}: oracle {} != {}",
                label, s, T, r_min, result.min_cost, expected)
    group.check(oracle.verify_bounds(result, scenario).passed, "{} bounds s={} T={} r_min={}",
                label, s, T, r_min)
    return result.min_cost


def verify_all() -> list[tuple[str, int, list[str]]]:
    """Exhaustive small-grid check of every closed-form law against the oracle.

    Returns one (group, check count, failure descriptions) triple per check
    group, in a fixed order; the grid passes when every failure list is empty.
    """
    groups = {group: _Group() for group in _VERIFY_GROUPS}
    equivalence, marginal, horizon, partition, monotone, intermediate, sign = groups.values()
    linear = law.LINEAR_COORDINATION
    par_min: dict[tuple[float, int, int], float] = {}
    bnd_min: dict[tuple[float, int, int], float] = {}
    for r_min in _VERIFY_THRESHOLDS:
        par_spec = replace(preset("pos-stake"), name=f"stake-r{r_min}", r_min=r_min)
        bnd_spec = replace(preset("device-bound"), name=f"device-r{r_min}", r_min=r_min, tau=r_min)
        for s in _VERIFY_TARGETS:
            # The partial and bounded specs keep the stake spec's r_min, tau and grid.
            stake, device = [oracle.best_window(s, spec) for spec in (par_spec, bnd_spec)]
            for T in _VERIFY_HORIZONS:
                key = (r_min, s, T)
                par = costs.cost_parallelizable(s, T, r_min).total
                bnd = costs.cost_throughput_bounded(s, T, r_min).total
                scenario = OracleScenario(s, T, par_spec)
                par_min[key] = _search("par", stake, scenario, par, equivalence)
                bnd_min[key] = _search("bnd", device, OracleScenario(s, T, bnd_spec), bnd,
                                       equivalence)
                # The intermediate regimes are the stake resource with its transfer
                # cut to an alpha share (under linear coordination, so h(s, T) is
                # checked) or its reuse to k windows, each against its named law.
                for a in (0.0, 0.5, 1.0):
                    spec = replace(par_spec, name=f"partial-a{a}", identity_transferable=None,
                                   alpha=a)
                    law_cost = costs.cost_partial_transferability(s, T, r_min, a, linear).model_cost
                    _search(spec.name, stake, OracleScenario(s, T, spec, linear), law_cost,
                            intermediate)
                for k in sorted({1, 2, T}):
                    spec = replace(par_spec, name=f"bounded-k{k}", temporally_reusable=None, k=k)
                    law_cost = costs.cost_bounded_reuse(s, T, r_min, k).total
                    _search(spec.name, stake, OracleScenario(s, T, spec), law_cost, intermediate)
                if T != 2:
                    continue
                # The same stock split among any j <= s identities is feasible at the same cost.
                stock = s * r_min
                for j in range(1, s + 1):
                    plan = AllocationPlan(T, ((stock / j,) * j,) * T, (stock, 0.0))
                    feasible = oracle.plan_feasible(plan, scenario)
                    cost = oracle.plan_cost(plan, scenario)
                    at = (s, j, r_min)
                    partition.check(feasible, "re-partition infeasible s={} j={} r_min={}", *at)
                    partition.check(cost == par_min[key],
                                    "re-partition cost drift s={} j={} r_min={}", *at)

    for (r_min, s, T), par in par_min.items():
        bnd = bnd_min[(r_min, s, T)]
        below = (r_min, s - 1, T)
        at = (s, T, r_min)
        marginal.check(par - par_min.get(below, 0.0) == r_min,
                       "par marginal s={} T={} r_min={}", *at)
        marginal.check(bnd - bnd_min.get(below, 0.0) == r_min * T,
                       "bnd marginal s={} T={} r_min={}", *at)
        if s > 1:
            monotone.check(par >= par_min[below],
                           "par not monotone in s at s={} T={} r_min={}", *at)
            monotone.check(bnd >= bnd_min[below],
                           "bnd not monotone in s at s={} T={} r_min={}", *at)
        if T > 1:
            horizon.check(par == par_min[(r_min, s, 1)],
                          "par horizon dependence s={} r_min={}", s, r_min)
            monotone.check(bnd >= bnd_min[(r_min, s, T - 1)],
                           "bnd not monotone in T at s={} T={} r_min={}", *at)

    for T, r_min, threshold in costs.crossover_table():
        if threshold is None:
            continue
        top = math.ceil(threshold)
        for s in [*range(1, math.floor(threshold)), *range(top + 1, top + 11)]:
            par = costs.cost_parallelizable(s, T, r_min, linear).total
            bnd = costs.cost_throughput_bounded(s, T, r_min).total
            side, passed = ("below", bnd < par) if s < threshold else ("above", bnd > par)
            sign.check(passed, "sign {} crossover fails at s={} T={} r_min={}", side, s, T, r_min)
    return [(name, group.count, group.failures) for name, group in groups.items()]
