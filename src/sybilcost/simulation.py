"""Discrete-window simulation of an adversary against unit-weight honest validators.

Each honest validator holds exactly the activation threshold of resource, so
its influence is one threshold unit per window.  The adversary fields s sybil
identities backed by the configured resource; for channel-backed resources
each identity must occupy its own channel, which caps the number of active
identities at the channel count and makes extra identities worthless.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from . import oracle
from .resources import ResourceClass, ResourceSpec, classify

__all__ = [
    "NonAmplificationTable",
    "ScenarioConfig",
    "SimTrace",
    "WindowRow",
    "influence_share",
    "non_amplification_experiment",
    "run",
]


def influence_share(m: int, s: int, n: int) -> float:
    """Adversarial influence share with m channels, s identities, n honest validators.

    Only min(m, s) identities can be active at once, so the share is
    min(m, s) / (min(m, s) + n): spawning identities beyond the channel
    supply does not move it.
    """
    if m < 0 or s < 0 or n < 0:
        raise ValueError(f"m, s, n must be nonnegative, got ({m}, {s}, {n})")
    active = min(m, s)
    denominator = active + n
    if denominator == 0:
        raise ValueError("share is undefined with no active identities and no honest validators")
    return active / denominator


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation setup: honest pool, channels, sybil count, horizon, resource."""

    n_honest: int
    m: int
    s: int
    T: int
    spec: ResourceSpec

    def __post_init__(self) -> None:
        if self.n_honest < 0:
            raise ValueError(f"n_honest must be nonnegative, got {self.n_honest}")
        if self.m < 0:
            raise ValueError(f"m must be nonnegative, got {self.m}")
        if self.s < 0:
            raise ValueError(f"s must be nonnegative, got {self.s}")
        if self.T < 1:
            raise ValueError(f"T must be at least 1, got {self.T}")


@dataclass(frozen=True)
class WindowRow:
    """State of one decision window."""

    window: int
    active_identities: int
    adversary_influence: float
    total_influence: float
    share: float
    window_cost: float


@dataclass(frozen=True)
class SimTrace:
    per_window: tuple[WindowRow, ...]
    total_cost: float


def run(config: ScenarioConfig) -> SimTrace:
    """Simulate the horizon window by window.

    Channel-backed (throughput-bounded) resources cap active identities at
    min(m, s); parallelizable resources activate all s identities.  Either
    way each active identity holds the threshold, and the windows are paid
    for by the oracle's acquisition schedule for that aggregate: anew every
    window for a window-local resource, once up front for reusable stock.
    Other resource classes have no defined per-window dynamics here.
    """
    spec = config.spec
    resource_class = classify(spec).resource_class
    if resource_class not in (ResourceClass.PARALLELIZABLE, ResourceClass.THROUGHPUT_BOUNDED):
        raise ValueError(
            "simulation is defined for parallelizable or throughput-bounded resources, "
            f"not {resource_class.value}"
        )
    if resource_class is ResourceClass.THROUGHPUT_BOUNDED:
        active = min(config.m, config.s)
    else:
        active = config.s
    adversary = active * spec.r_min
    total = adversary + config.n_honest * spec.r_min
    share = adversary / total if total > 0 else 0.0
    alpha, k = oracle.carry_over(spec, config.T, resource_class)
    schedule = oracle.acquisition_schedule(alpha, k, config.T, adversary)
    rows = tuple(
        WindowRow(
            window=window,
            active_identities=active,
            adversary_influence=adversary,
            total_influence=total,
            share=share,
            window_cost=cost,
        )
        for window, cost in enumerate(schedule, start=1)
    )
    return SimTrace(rows, sum(schedule))


# Unit channel resource for the identity-vs-channel sweep below.
_UNIT_CHANNEL = ResourceSpec(
    name="unit-channel",
    divisible=False,
    additive_influence=False,
    temporally_reusable=False,
    identity_transferable=False,
    throughput_bounded=True,
    r_min=1.0,
    tau=1.0,
)


@dataclass(frozen=True)
class NonAmplificationTable:
    """Influence shares over channel counts (rows) and identity counts (columns)."""

    m_values: tuple[int, ...]
    s_values: tuple[int, ...]
    rows: tuple[tuple[float, ...], ...]


def non_amplification_experiment(
    m_range, s_values, n: int, spec: ResourceSpec = _UNIT_CHANNEL
) -> NonAmplificationTable:
    """Sweep channel count against identity count for a channel-backed resource.

    When every identity count exceeds the whole channel range, the share
    depends on channels alone and the columns coincide.  A sweep where some
    identity count falls inside the channel range still runs, with a warning,
    since its column will bend where identities become the binding side.
    """
    m_values = tuple(m_range)
    s_tuple = tuple(s_values)
    if not m_values or not s_tuple:
        raise ValueError("m_range and s_values must be nonempty")
    if len(set(s_tuple)) != len(s_tuple):
        raise ValueError(f"s_values must not repeat an identity count, got {list(s_tuple)}")
    if min(s_tuple) <= max(m_values):
        warnings.warn(
            "identity counts do not all exceed the channel range; share columns may differ",
            stacklevel=2,
        )
    table_rows = []
    for m in m_values:
        row = tuple(
            run(ScenarioConfig(n_honest=n, m=m, s=s, T=1, spec=spec)).per_window[0].share
            for s in s_tuple
        )
        table_rows.append(row)
    return NonAmplificationTable(m_values, s_tuple, tuple(table_rows))
