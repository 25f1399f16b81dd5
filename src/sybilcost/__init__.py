"""Cost laws, allocation oracle, and calibrations for identity-splitting attacks.

Each public name is loaded from its submodule on first use (PEP 562), so
importing the package, or one submodule such as the CLI, compiles only the
modules a run actually calls.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "calibration": (
        "CalibrationScenario",
        "CalibrationSeries",
        "btc_tiers",
        "eth_scenario",
        "run_calibration",
    ),
    "costs": (
        "cost_bounded_reuse",
        "cost_hybrid",
        "cost_parallelizable",
        "cost_partial_transferability",
        "cost_throughput_bounded",
        "crossover",
        "crossover_table",
        "governance_hybrid",
    ),
    "law": (
        "CoordinationModel",
        "CostReport",
        "PlanBudgetExceeded",
    ),
    "oracle": (
        "OracleResult",
        "min_cost",
        "verify_bounds",
    ),
    "plans": (
        "AllocationPlan",
        "OracleScenario",
        "PlanGrid",
        "plan_cost",
        "plan_feasible",
    ),
    "resources": (
        "ResourceClass",
        "ResourceClassification",
        "ResourceSpec",
        "classify",
        "is_parallelizable",
        "preset",
    ),
    "simulation": (
        "ScenarioConfig",
        "SimTrace",
        "influence_share",
        "non_amplification_experiment",
        "run",
    ),
}

# Public name -> the submodule that defines it.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str) -> object:
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SOURCE.keys())
